"""Reduced-size runs of every benchmark workload, plus the tracer's span
nesting and absent-function handling.

    python3 -m pytest perfbench/tests
"""

from __future__ import annotations

import hashlib
import sys
import threading
import types
from pathlib import Path

import numpy as np
import pytest

ROOT = Path(__file__).resolve().parents[2]
sys.path.insert(0, str(ROOT))
sys.path.insert(0, str(ROOT / "src"))

import smrgrid.cli as cli  # noqa: E402
import smrgrid.datacenter  # noqa: E402
import smrgrid.dynamics  # noqa: E402
from perfbench import run, spans, workloads  # noqa: E402

SEED = 7  # not the default seed: small inputs have no recorded reference

SMALL = {
    "profile_trace": workloads.ProfileTrace(
        n_tasks=3_000, n_machines=20, n_machine_events=200, horizon_s=86_400
    ),
    "sweep_week": workloads.SweepWeek(n_bins=24),
    "compare_pairs": workloads.ComparePairs(
        specs=({"kind": "bus_fault", "duration": 0.1}, {"kind": "gen_trip"}),
        selectors=("max",), t_apply=0.5, t_end=1.5, n_bins=24,
    ),
}


def _digest(paths) -> str:
    h = hashlib.sha256()
    for p in sorted(paths):
        h.update(p.name.encode() + p.read_bytes())
    return h.hexdigest()


@pytest.mark.parametrize("name", sorted(SMALL))
def test_inputs_follow_the_seed(name, tmp_path):
    wl = SMALL[name]
    digests = []
    for k, seed in enumerate((SEED, SEED, SEED + 1)):
        work = tmp_path / str(k)
        work.mkdir()
        wl.prepare(work, seed, ROOT)
        digests.append(_digest(p for p in work.iterdir() if p.suffix == ".csv"))
    assert digests[0] == digests[1] != digests[2]


@pytest.mark.parametrize("trace", [False, True])
@pytest.mark.parametrize("name", sorted(SMALL))
def test_small_run_is_correct(name, trace, tmp_path):
    wl = SMALL[name]
    res = run.run(wl, SEED, 0.0, trace, tmp_path / "work")
    assert res["problems"] == []
    assert res["failed"] == 0 and res["attempted"] >= 1
    m = res["metrics"]
    if not trace:
        assert set(m) == {"setup_s", "study_s", "items_per_s", "peak_rss_mb",
                          "success_frac"}
        assert m["success_frac"] == 1.0 and m["study_s"] > 0
        return
    assert "bench.trace_overhead_frac" in m
    assert m["cli.main_self_s"] > 0
    if name == "profile_trace":
        assert m["datacenter.tasks"] == wl.n_tasks
        assert m["datacenter.machine_events"] == wl.n_machine_events
        assert m["datacenter.task_bin_overlaps"] >= wl.n_tasks
        assert m["powerflow.solve_calls"] == 0
    elif name == "sweep_week":
        assert m["powerflow.solve_calls"] == wl.n_bins + 1
        assert m["powerflow.compute_jacobian_calls"] == m["powerflow.nr_iterations"]
        assert m["powerflow.converged_frac"] == 1.0
        assert m["dynamics.run_transient_calls"] == 0
    else:
        transients = 2 * wl.items_per_call
        steps = round(wl.t_end / wl.dt)
        assert m["dynamics.run_transient_calls"] == transients
        assert m["dynamics.rk4_steps"] == transients * steps
        # one solve per step boundary plus four per RK4 step
        assert m["dynamics.network_solves"] == transients * (5 * steps + 1)
        # per pair, two transients: fault and clear, then one trip
        assert m["dynamics.events_applied"] == 2 * 2 + 2 * 1
        assert m["scenario.pairs_failed"] == 0
        assert 0 < m["scenario.parallel_eff"] <= 1.0 + 1e-9


def test_profile_check_catches_a_wrong_utilization(tmp_path):
    wl = SMALL["profile_trace"]
    prep = wl.prepare(tmp_path, SEED, ROOT)
    out = tmp_path / "out"
    assert cli.main(prep.argv(out)) == 0
    assert wl.check(prep, out, 0).problems == []
    text = (out / "profile.csv").read_text().splitlines()
    cols = text[1].split(",")
    cols[1] = f"{float(cols[1]) + 1e-5:.6f}"
    text[1] = ",".join(cols)
    (out / "profile.csv").write_text("\n".join(text) + "\n")
    assert any("oracle" in p for p in wl.check(prep, out, 0).problems)


def test_compare_check_uses_the_reference_at_the_default_seed(tmp_path, monkeypatch):
    wl = SMALL["compare_pairs"]
    prep = wl.prepare(tmp_path, SEED, ROOT)
    out = tmp_path / "out"
    assert cli.main(prep.argv(out)) == 0
    ref = wl.reference(out)
    prep.seed = workloads.DEFAULT_SEED
    monkeypatch.setattr(workloads, "load_reference", lambda name: ref)
    assert wl.check(prep, out, 0).problems == []
    ref["pairs"][0]["with_ies"]["v_min_pu"] += 1e-3
    assert any("v_min_pu" in p for p in wl.check(prep, out, 0).problems)


def test_sweep_check_uses_the_reference_at_the_default_seed(tmp_path, monkeypatch):
    wl = SMALL["sweep_week"]
    prep = wl.prepare(tmp_path, SEED, ROOT)
    out = tmp_path / "out"
    assert cli.main(prep.argv(out)) == 0
    ref = wl.reference(out)
    prep.seed = workloads.DEFAULT_SEED
    monkeypatch.setattr(workloads, "load_reference", lambda name: ref)
    assert wl.check(prep, out, 0).problems == []
    ref["slack_p_mw"][3] += 0.05
    assert any("slack_p_mw" in p for p in wl.check(prep, out, 0).problems)
    ref["slack_p_mw"][3] -= 0.05
    ref["iterations"][5] += 1
    assert any("iterations" in p for p in wl.check(prep, out, 0).problems)


def test_task_bin_overlaps_counts_every_bin_a_task_touches():
    starts = np.array([0, 299, 300, 10, 700])
    ends = np.array([1, 301, 600, 900, 700])  # the last task is empty
    # bins 0 | 0, 1 | 1 | 0, 1, 2 | none
    assert workloads.task_bin_overlaps(starts, ends, 0, 1200) == 7
    assert workloads.task_bin_overlaps(starts, ends, 300, 600) == 3


def test_spans_nest_within_their_thread(tmp_path):
    wl = SMALL["compare_pairs"]
    prep = wl.prepare(tmp_path, SEED, ROOT)
    tracer = spans.Tracer()
    rc, _ = run.call(cli, prep, tmp_path / "out", tracer)
    assert rc == 0
    by_id = {s[0]: s for s in tracer.spans}
    threads = {s[3] for s in tracer.spans}
    assert 2 <= len(threads) <= 1 + wl.jobs  # main plus pool workers
    roots = [s for s in tracer.spans if s[1] is None]
    assert [s[2] for s in roots if s[3] == threading.get_ident()] == ["cli.main"]
    for sid, parent, name, thread, t0, t1, _, _ in tracer.spans:
        assert t0 <= t1
        if parent is not None:
            p = by_id[parent]
            assert p[3] == thread
            assert p[4] <= t0 and t1 <= p[5]
    # the worker threads' first spans are the pair runs' own calls
    assert {s[2] for s in roots} - {"cli.main"} <= {
        "scenario.snapshot_case", "scenario.resolve_events",
        "scenario.run_contingency", "scenario.extract_metrics",
    }
    m = spans.summarise(tracer)
    assert 0 < m["cli.main_self_s"] < m["scenario.compare_s"]


def test_tracer_restores_every_binding(tmp_path):
    original = smrgrid.datacenter.bin_tasks
    assert cli.bin_tasks is original
    with spans.Tracer():
        assert cli.bin_tasks is not original
        assert smrgrid.datacenter.bin_tasks is cli.bin_tasks
    assert cli.bin_tasks is original and smrgrid.datacenter.bin_tasks is original


def test_absent_functions_are_reported_not_fatal(tmp_path, monkeypatch):
    targets = dict(spans.TARGETS, datacenter=spans.TARGETS["datacenter"] + ("gone",))
    monkeypatch.setattr(spans, "TARGETS", targets)
    monkeypatch.setattr(
        spans, "COUNTED_METHODS", {"dynamics.network_solves": ("dynamics", "_Gone", "solve")}
    )
    monkeypatch.delattr(smrgrid.datacenter, "estimate_capacity")
    wl = SMALL["sweep_week"]
    prep = wl.prepare(tmp_path, SEED, ROOT)
    tracer = spans.Tracer()
    rc, _ = run.call(cli, prep, tmp_path / "out", tracer)
    assert rc == 0
    assert tracer.absent == {
        "datacenter.gone", "datacenter.estimate_capacity", "dynamics._Gone.solve",
    }
    m = spans.summarise(tracer)
    assert m["datacenter.estimate_capacity_s"] == 0.0
    assert m["dynamics.network_solves"] == 0
    assert m["powerflow.solve_calls"] == wl.n_bins + 1


def test_threads_keep_their_own_stacks_and_lose_no_count(monkeypatch):
    class Probe:
        def solve(self):
            return spans_per_thread  # any cheap call

    spans_per_thread = 2_000
    monkeypatch.setattr(smrgrid.dynamics, "_Probe", Probe, raising=False)
    monkeypatch.setattr(
        spans, "COUNTED_METHODS", {"dynamics.network_solves": ("dynamics", "_Probe", "solve")}
    )
    droop = types.SimpleNamespace(p_max=50.0, q_dot_max=60.0, m_min=0.04, m_max=0.08)

    def worker():
        for _ in range(spans_per_thread):
            smrgrid.dynamics.compute_droop(10.0, 5.0, droop)
            smrgrid.dynamics._Probe().solve()

    tracer = spans.Tracer()
    old = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        with tracer:
            threads = [threading.Thread(target=worker) for _ in range(8)]
            for t in threads:
                t.start()
            for t in threads:
                t.join(timeout=60)
    finally:
        sys.setswitchinterval(old)
    assert not any(t.is_alive() for t in threads)
    assert len(tracer.spans) == 8 * spans_per_thread
    assert all(s[1] is None for s in tracer.spans)  # no span parented across threads
    assert tracer.counts["dynamics.network_solves"] == 8 * spans_per_thread
