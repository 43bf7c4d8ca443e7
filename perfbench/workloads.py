"""The benchmark workloads: seeded input generation and output checks.

Each workload drives one `smrgrid` subcommand. `prepare` writes the inputs
(the program sees only these files), `check` validates one call's outputs.
Checks against the reference recorded at the seed commit apply only to
`DEFAULT_SEED`; the oracle, convergence and determinism checks apply to
every seed.
"""

from __future__ import annotations

import csv
import hashlib
import json
import math
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

DEFAULT_SEED = 0
CASE = Path("src") / "smrgrid" / "data" / "ieee118.json"
REFERENCE = Path(__file__).resolve().parent / "reference" / f"seed{DEFAULT_SEED}.json"
WEEK_S = 7 * 24 * 3600
BIN_SECONDS = 300  # the profile bin width fixed by smrgrid's profile contract

#: Tolerance on per-bin POI voltage against the reference: the power-flow
#: mismatch tolerance, so a solver change within tolerance still passes.
V_TOL_PU = 1e-6
#: Tolerance on per-bin slack active power against the reference: the
#: 1e-6 pu mismatch tolerance summed over the 118 buses, on the 100 MVA
#: base. The POI bus (25) is a PV bus held at its setpoint, so its voltage
#: alone does not show a wrong solution; the slack power does.
SLACK_TOL_MW = 118 * 1e-6 * 100
#: Tolerance on float pair metrics (Hz, pu, s, Hz/s) against the reference.
METRIC_TOL = 1e-6


@dataclass
class Outcome:
    """One call's check result: work items attempted and failed, and the
    problems found (empty when the outputs are correct)."""

    attempted: int
    failed: int
    problems: list[str] = field(default_factory=list)
    fingerprint: str | None = None  # equal across calls of a deterministic run


@dataclass
class Prepared:
    config: Path
    argv_tail: list[str]
    seed: int
    data: dict = field(default_factory=dict)
    counts: dict = field(default_factory=dict)  # per-layer counts fixed by the inputs

    def argv(self, out_dir: Path) -> list[str]:
        return ["--config", str(self.config), "--out", str(out_dir), *self.argv_tail]


def load_reference(workload: str) -> dict:
    if not REFERENCE.exists():
        return {}
    return json.loads(REFERENCE.read_text()).get(workload, {})


def week_profile_u(rng: np.random.Generator, n_bins: int) -> np.ndarray:
    """Criterion 2's utilization shape: daily sinusoid plus noise, with the
    largest bin forced to 1 so the profile peaks at the calibrated total."""
    u = np.clip(
        0.55
        + 0.35 * np.sin(2 * np.pi * np.arange(n_bins) / 288.0)
        + 0.08 * rng.standard_normal(n_bins),
        0.0,
        1.0,
    )
    u[int(np.argmax(u))] = 1.0
    return u


def write_week_profile(path: Path, seed: int, n_bins: int, peak_mw: float) -> None:
    from smrgrid.datacenter import (
        UtilizationTrace,
        build_profile,
        calibrate_it_capacity,
        write_profile_csv,
    )

    u = week_profile_u(np.random.default_rng(seed), n_bins)
    profile = build_profile(UtilizationTrace(u=u), calibrate_it_capacity(peak_mw))
    write_profile_csv(profile, path)


def task_bin_overlaps(starts: np.ndarray, ends: np.ndarray, t0: int, t1: int) -> int:
    """Number of (task, 5-minute bin) pairs whose intervals overlap within
    [t0, t1): the work `bin_tasks` has to spread, fixed by the inputs."""
    a = np.maximum(starts, t0)
    b = np.minimum(ends, t1)
    live = b > a
    first = np.floor((a[live] - t0) / BIN_SECONDS)
    last = np.ceil((b[live] - t0) / BIN_SECONDS)
    return int(np.sum(last - first))


def _write_config(path: Path, doc: dict) -> Path:
    path.write_text(json.dumps(doc, indent=1, sort_keys=True))
    return path


# -- profile_trace -----------------------------------------------------------


@dataclass(frozen=True)
class ProfileTrace:
    """`smrgrid profile` on a synthetic trace: diurnal integer-second task
    starts, exponential durations, machines added at t=0 then updated."""

    name: str = "profile_trace"
    n_tasks: int = 250_000
    n_machines: int = 1_000
    n_machine_events: int = 25_000
    mean_task_s: float = 1800.0
    horizon_s: int = WEEK_S
    peak_mw: float = 60.0
    min_calls: int = 1

    @property
    def items_per_call(self) -> int:
        return self.n_tasks

    def prepare(self, work: Path, seed: int, root: Path) -> Prepared:
        rng = np.random.default_rng(seed)
        horizon = self.horizon_s
        starts = np.empty(0, dtype=np.int64)
        while starts.size < self.n_tasks:
            cand = rng.integers(0, horizon, size=self.n_tasks)
            accept = rng.random(cand.size) * 1.6 < 1.0 + 0.6 * np.sin(
                2 * np.pi * cand / 86400.0
            )
            starts = np.concatenate([starts, cand[accept]])
        starts = np.sort(starts[: self.n_tasks])
        ends = starts + np.maximum(
            np.ceil(rng.exponential(self.mean_task_s, self.n_tasks)), 1
        ).astype(np.int64)
        cpu_e4 = rng.integers(1_000, 15_001, self.n_tasks)  # cpu in 1e-4 units

        n_upd = self.n_machine_events - self.n_machines
        ev_t = np.concatenate(
            [np.zeros(self.n_machines, np.int64),
             np.sort(rng.integers(1, horizon, n_upd))]
        )
        ev_m = np.concatenate(
            [np.arange(self.n_machines), rng.integers(0, self.n_machines, n_upd)]
        )
        ev_cap_e4 = rng.integers(5_000, 15_001, self.n_machine_events)

        tasks_csv = work / "tasks.csv"
        with open(tasks_csv, "w") as fh:
            fh.write("start_s,end_s,cpu\n")
            fh.writelines(
                f"{a},{b},{c / 1e4:.4f}\n"
                for a, b, c in zip(starts.tolist(), ends.tolist(), cpu_e4.tolist())
            )
        events_csv = work / "machines.csv"
        with open(events_csv, "w") as fh:
            fh.write("t_s,kind,machine_id,capacity\n")
            fh.writelines(
                f"{t},{'add' if i < self.n_machines else 'update'},m{m:05d},"
                f"{c / 1e4:.4f}\n"
                for i, (t, m, c) in enumerate(
                    zip(ev_t.tolist(), ev_m.tolist(), ev_cap_e4.tolist())
                )
            )
        config = _write_config(work / "profile.json", {
            "profile": {
                "tasks_csv": str(tasks_csv),
                "machine_events_csv": str(events_csv),
                "t0": 0,
                "t1": horizon,
                "target_total_peak_mw": self.peak_mw,
            },
        })
        overlaps = task_bin_overlaps(starts, ends, 0, horizon)
        return Prepared(config, ["profile"], seed, {
            "starts": starts, "ends": ends, "cpu": cpu_e4 / 1e4,
            "ev_t": ev_t, "ev_m": ev_m, "ev_cap": ev_cap_e4 / 1e4,
        }, {"datacenter.task_bin_overlaps": overlaps})

    def oracle_u(self, data: dict) -> np.ndarray:
        """Per-second difference arrays of active cpu and fleet capacity,
        averaged over each 5-minute bin."""
        horizon = self.horizon_s
        ends = np.minimum(data["ends"], horizon)
        delta = (
            np.bincount(data["starts"], weights=data["cpu"], minlength=horizon + 1)
            - np.bincount(ends, weights=data["cpu"], minlength=horizon + 1)
        )
        active = np.cumsum(delta)[:horizon]
        current = np.zeros(self.n_machines)
        cap_delta = np.zeros(horizon + 1)
        for t, m, c in zip(data["ev_t"].tolist(), data["ev_m"].tolist(),
                           data["ev_cap"].tolist()):
            cap_delta[t] += c - current[m]
            current[m] = c
        capacity = np.cumsum(cap_delta)[:horizon]
        n_bins = math.ceil(horizon / BIN_SECONDS)
        usage = active.reshape(n_bins, BIN_SECONDS).mean(axis=1)
        cap = capacity.reshape(n_bins, BIN_SECONDS).mean(axis=1)
        return np.clip(usage / cap, 0.0, 1.0)

    def check(self, prep: Prepared, out: Path, rc: int) -> Outcome:
        if "oracle_u" not in prep.data:
            prep.data["oracle_u"] = self.oracle_u(prep.data)
        want = prep.data["oracle_u"]
        problems = []
        if rc != 0:
            problems.append(f"exit code {rc}")
        else:
            with open(out / "profile.csv", newline="") as fh:
                got = np.array([float(r["u"]) for r in csv.DictReader(fh)])
            if got.shape != want.shape:
                problems.append(f"profile has {got.size} bins, expected {want.size}")
            else:
                err = float(np.max(np.abs(got - want)))
                if err > 1e-6:
                    problems.append(f"u differs from the oracle by {err:.2e}")
        return Outcome(attempted=1, failed=int(rc != 0), problems=problems)

    def reference(self, out: Path) -> dict:
        return {}  # the oracle checks every seed


# -- sweep_week --------------------------------------------------------------


@dataclass(frozen=True)
class SweepWeek:
    """`smrgrid powerflow` with a grid-only datacenter at bus 25: one base
    solve plus one warm-started solve per bin of a prebuilt profile."""

    name: str = "sweep_week"
    n_bins: int = 2016
    peak_mw: float = 60.0
    min_calls: int = 1

    @property
    def items_per_call(self) -> int:
        return self.n_bins

    def prepare(self, work: Path, seed: int, root: Path) -> Prepared:
        profile_csv = work / "profile.csv"
        write_week_profile(profile_csv, seed, self.n_bins, self.peak_mw)
        config = _write_config(work / "sweep.json", {
            "case": str(root / CASE),
            "profile": {"profile_csv": str(profile_csv)},
            "configuration": {"kind": "grid_only", "dc_bus": 25},
        })
        return Prepared(config, ["powerflow"], seed)

    def check(self, prep: Prepared, out: Path, rc: int) -> Outcome:
        sweep_csv = out / "snapshot_sweep.csv"
        if rc not in (0, 3) or not sweep_csv.exists():
            return Outcome(self.n_bins, self.n_bins, [f"exit code {rc}"])
        with open(sweep_csv, newline="") as fh:
            rows = list(csv.DictReader(fh))
        failed = sum(r["converged"] != "1" for r in rows)
        problems = []
        if len(rows) != self.n_bins:
            problems.append(f"sweep has {len(rows)} bins, expected {self.n_bins}")
        if failed:
            problems.append(f"{failed} bins did not converge")
        ref = load_reference(self.name) if prep.seed == DEFAULT_SEED else {}
        if ref and not problems:
            for col, tol, unit in (("poi_v_mag", V_TOL_PU, "pu"),
                                   ("slack_p_mw", SLACK_TOL_MW, "MW")):
                got = np.array([float(r[col]) for r in rows])
                err = float(np.max(np.abs(got - np.array(ref[col]))))
                if err > tol:
                    problems.append(f"{col} differs from the reference by {err:.2e} {unit}")
            iters = [int(r["iterations"]) for r in rows]
            off = sum(a != b for a, b in zip(iters, ref["iterations"]))
            if off:
                problems.append(f"NR iterations differ from the reference in {off} bins")
        return Outcome(self.n_bins, failed + max(self.n_bins - len(rows), 0), problems)

    def reference(self, out: Path) -> dict:
        with open(out / "snapshot_sweep.csv", newline="") as fh:
            rows = list(csv.DictReader(fh))
        ref = {col: [float(r[col]) for r in rows] for col in ("poi_v_mag", "slack_p_mw")}
        ref["iterations"] = [int(r["iterations"]) for r in rows]
        return ref


# -- compare_pairs -----------------------------------------------------------


@dataclass(frozen=True)
class ComparePairs:
    """`smrgrid compare` with the IES configuration: every contingency spec
    at the min- and max-load snapshot, grid-only and IES transient per pair,
    run on a two-thread pool."""

    name: str = "compare_pairs"
    specs: tuple = (
        {"kind": "bus_fault", "duration": 0.1},
        {"kind": "line_trip"},
        {"kind": "gen_trip"},
        {"kind": "load_step", "load_step_mw": 30.0},
        {"kind": "bus_fault", "duration": 0.1},
    )
    selectors: tuple = ("min", "max")
    t_apply: float = 1.0
    t_end: float = 5.0
    dt: float = 0.005
    jobs: int = 2
    n_bins: int = 2016
    peak_mw: float = 60.0
    min_calls: int = 2  # the report hash is compared between calls

    @property
    def items_per_call(self) -> int:
        return len(self.specs) * len(self.selectors)

    def prepare(self, work: Path, seed: int, root: Path) -> Prepared:
        profile_csv = work / "profile.csv"
        write_week_profile(profile_csv, seed, self.n_bins, self.peak_mw)
        config = _write_config(work / "compare.json", {
            "case": str(root / CASE),
            "profile": {"profile_csv": str(profile_csv)},
            "configuration": {"kind": "with_ies", "dc_bus": 25, "ies": {}},
            "simulation": {"dt": self.dt, "t_end": self.t_end, "monitor_buses": [25]},
            "scenarios": [dict(s, t_apply=self.t_apply) for s in self.specs],
            "snapshot_selector": list(self.selectors),
            "seed": seed,
        })
        return Prepared(config, ["--jobs", str(self.jobs), "compare"], seed)

    def check(self, prep: Prepared, out: Path, rc: int) -> Outcome:
        n = self.items_per_call
        path = out / "comparison_report.json"
        if rc not in (0, 3) or not path.exists():
            return Outcome(n, n, [f"exit code {rc}"])
        raw = path.read_bytes()
        report = json.loads(raw)
        failed = len(report["failed"])
        problems = [f"pair {f['scenario']} failed: {f['error']}" for f in report["failed"]]
        if len(report["pairs"]) + failed != n:
            problems.append(f"report has {len(report['pairs'])} pairs, expected {n}")
        ref = load_reference(self.name) if prep.seed == DEFAULT_SEED else {}
        if ref and not problems:
            problems += self._against_reference(report["pairs"], ref["pairs"])
        return Outcome(n, failed, problems, hashlib.sha256(raw).hexdigest())

    def _against_reference(self, pairs: list, ref_pairs: list) -> list[str]:
        problems = []
        for got, want in zip(pairs, ref_pairs):
            sid = want["scenario_id"]
            if (got["scenario_id"], got["snapshot_bin"], got["events"]) != (
                sid, want["snapshot_bin"], want["events"]
            ):
                problems.append(f"{sid}: scenario, snapshot or events differ")
                continue
            for side in ("grid_only", "with_ies"):
                for key, w in want[side].items():
                    g = got[side][key]
                    # settling times sit on the dt grid: allow one step
                    tol = self.dt + 1e-9 if key.startswith("t_settle") else METRIC_TOL
                    same = g == w if isinstance(w, bool) else math.isclose(
                        g, w, rel_tol=METRIC_TOL, abs_tol=tol
                    )
                    if not same:
                        problems.append(f"{sid} {side}.{key}: {g} != reference {w}")
        return problems

    def reference(self, out: Path) -> dict:
        report = json.loads((out / "comparison_report.json").read_text())
        return {"pairs": [
            {k: p[k] for k in ("scenario_id", "snapshot_bin", "events",
                               "grid_only", "with_ies")}
            for p in report["pairs"]
        ]}


WORKLOADS = {w.name: w for w in (ProfileTrace(), SweepWeek(), ComparePairs())}
