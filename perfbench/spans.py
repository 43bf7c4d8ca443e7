"""Span tracer for the smrgrid layers, installed from outside the package.

`Tracer.install` replaces each listed function in every loaded `smrgrid`
module that binds it (``smrgrid.cli.bin_tasks`` as well as
``smrgrid.datacenter.bin_tasks``), so calls through either name are timed.
Spans sit on a thread-local stack, because `compare` runs pairs on worker
threads, and are kept in memory until `summarise` turns them into the
per-layer metrics. A listed name that the package no longer defines is
recorded in `Tracer.absent` and its metrics read 0.
"""

from __future__ import annotations

import functools
import inspect
import itertools
import json
import sys
import threading
import time
from collections import defaultdict
from pathlib import Path

import numpy as np

CONTROLLERS = (
    "bess_power",
    "compute_droop",
    "governor_power_correction",
    "apply_load_limiter",
    "smr_flows_from_power",
    "turbine_mechanical_power",
)

#: Layer (module under ``smrgrid``) -> functions wrapped in a span.
TARGETS = {
    "datacenter": (
        "read_tasks_csv",
        "read_machine_events_csv",
        "bin_tasks",
        "estimate_capacity",
        "calibrate_it_capacity",
        "build_profile",
        "write_profile_csv",
        "read_profile_csv",
    ),
    "network": ("parse_case", "build_ybus"),
    "powerflow": ("solve", "compute_jacobian", "compute_mismatch"),
    "dynamics": (
        "run_transient",
        "rk4_step",
        "initialize_devices",
        "bus_frequency_estimate",
    )
    + CONTROLLERS,
    "scenario": (
        "snapshot_sweep",
        "snapshot_case",
        "run_contingency",
        "resolve_events",
        "extract_metrics",
        "compare",
    ),
    "cli": ("main",),
}

#: Counter name -> (layer, class, method) counted without a span; the
#: network solve runs once per RK4 stage, too often for a span each.
COUNTED_METHODS = {"dynamics.network_solves": ("dynamics", "_Network", "solve")}

#: Spans whose call arguments are kept for `summarise`.
KEEP_ARGS = {"scenario.compare"}
#: Spans whose return values are kept for `summarise`; every other span
#: keeps None, so a traced call holds no Jacobians or RK4 states.
KEEP_RESULT = {
    "datacenter.read_tasks_csv",
    "datacenter.read_machine_events_csv",
    "powerflow.solve",
    "dynamics.run_transient",
    "scenario.compare",
}

#: Counts that must repeat exactly between calls on the same inputs, with
#: the wrapped function each is read from. `datacenter.task_bin_overlaps`
#: is counted from the generated inputs, not from a span (see
#: `workloads.task_bin_overlaps`).
EXACT_COUNTS = {
    "powerflow.nr_iterations": "powerflow.solve",
    "dynamics.rk4_steps": "dynamics.rk4_step",
    "dynamics.events_applied": "dynamics.run_transient",
    "datacenter.task_bin_overlaps": "datacenter.bin_tasks",
}


class Tracer:
    """Records spans ``(id, parent, name, thread, t0, t1, args, result)``."""

    def __init__(self):
        self.spans: list[tuple] = []
        self.counts: dict[str, int] = defaultdict(int)
        self.absent: set[str] = set()
        self._ids = itertools.count()
        self._local = threading.local()
        self._lock = threading.Lock()
        self._patches: list[tuple[object, str, object]] = []

    # -- installation --------------------------------------------------------

    def install(self) -> None:
        modules = [
            m for name, m in list(sys.modules.items())
            if m is not None and (name == "smrgrid" or name.startswith("smrgrid."))
        ]
        for layer, names in TARGETS.items():
            home = sys.modules.get(f"smrgrid.{layer}")
            for fn_name in names:
                name = f"{layer}.{fn_name}"
                orig = getattr(home, fn_name, None)
                if not callable(orig):
                    self.absent.add(name)
                    continue
                traced = self._wrap(name, orig)
                for mod in modules:
                    for attr in [a for a, v in vars(mod).items() if v is orig]:
                        self._patch(mod, attr, traced)
        for counter, (layer, cls_name, meth) in COUNTED_METHODS.items():
            cls = getattr(sys.modules.get(f"smrgrid.{layer}"), cls_name, None)
            orig = getattr(cls, meth, None)
            if not callable(orig):
                self.absent.add(f"{layer}.{cls_name}.{meth}")
                continue
            self._patch(cls, meth, self._count(counter, orig))

    def uninstall(self) -> None:
        while self._patches:
            owner, attr, orig = self._patches.pop()
            setattr(owner, attr, orig)

    def __enter__(self) -> "Tracer":
        self.install()
        return self

    def __exit__(self, *exc) -> None:
        self.uninstall()

    def _patch(self, owner, attr: str, new) -> None:
        self._patches.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, new)

    def _wrap(self, name: str, fn):
        spans = self.spans
        local = self._local
        ids = self._ids
        clock = time.perf_counter
        keep_args = name in KEEP_ARGS
        keep_result = name in KEEP_RESULT
        get_thread = threading.get_ident

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            stack = getattr(local, "stack", None)
            if stack is None:
                stack = local.stack = []
            sid = next(ids)
            parent = stack[-1] if stack else None
            stack.append(sid)
            result = None
            t0 = clock()
            try:
                result = fn(*args, **kwargs)
                return result
            finally:
                t1 = clock()
                stack.pop()
                kept = (fn, args, kwargs) if keep_args else None
                spans.append((sid, parent, name, get_thread(), t0, t1, kept,
                              result if keep_result else None))

        return traced

    def _count(self, counter: str, fn):
        counts = self.counts
        lock = self._lock

        @functools.wraps(fn)
        def counted(*args, **kwargs):
            with lock:
                counts[counter] += 1
            return fn(*args, **kwargs)

        return counted

    # -- output --------------------------------------------------------------

    def write_spans(self, path: Path) -> None:
        """One JSON array per line: id, parent, name, thread, t0, t1 (s from
        the first span start)."""
        if not self.spans:
            path.write_text("")
            return
        origin = min(s[4] for s in self.spans)
        with open(path, "w") as fh:
            for sid, parent, name, thread, t0, t1, _, _ in sorted(self.spans):
                fh.write(json.dumps(
                    [sid, parent, name, thread, round(t0 - origin, 9),
                     round(t1 - origin, 9)]
                ) + "\n")


def _bound(kept) -> dict:
    fn, args, kwargs = kept
    bound = inspect.signature(fn).bind(*args, **kwargs)
    bound.apply_defaults()
    return bound.arguments


def summarise(tracer: Tracer, inputs: dict | None = None) -> dict[str, float]:
    """Per-layer metrics of one traced call. `_s` is busy seconds summed over
    threads; self time is a span minus its direct child spans. `inputs` holds
    counts fixed by the workload's generated inputs."""
    child_s: dict[int, float] = defaultdict(float)
    for sid, parent, _, _, t0, t1, _, _ in tracer.spans:
        if parent is not None:
            child_s[parent] += t1 - t0
    dur: dict[str, list[float]] = defaultdict(list)
    self_s: dict[str, float] = defaultdict(float)
    kept: dict[str, list] = defaultdict(list)
    results: dict[str, list] = defaultdict(list)
    for sid, _, name, _, t0, t1, args, result in tracer.spans:
        dur[name].append(t1 - t0)
        self_s[name] += (t1 - t0) - child_s[sid]
        if args is not None:
            kept[name].append(args)
        if name in KEEP_RESULT:
            results[name].append(result)

    def busy(name):
        return float(sum(dur[name]))

    def calls(name):
        return len(dur[name])

    def pct(name, q, scale=1.0):
        return float(np.percentile(dur[name], q)) * scale if dur[name] else 0.0

    m: dict[str, float] = {}
    for fn_name in TARGETS["datacenter"]:
        m[f"datacenter.{fn_name}_s"] = busy(f"datacenter.{fn_name}")
    m["datacenter.tasks"] = sum(len(r) for r in results["datacenter.read_tasks_csv"] if r)
    m["datacenter.machine_events"] = sum(
        len(r) for r in results["datacenter.read_machine_events_csv"] if r
    )
    m["datacenter.task_bin_overlaps"] = (inputs or {}).get(
        "datacenter.task_bin_overlaps", 0
    )

    m["network.parse_case_s"] = busy("network.parse_case")
    m["network.build_ybus_s"] = busy("network.build_ybus")
    m["network.build_ybus_calls"] = calls("network.build_ybus")

    solves = [r for r in results["powerflow.solve"] if r is not None]
    m["powerflow.solve_s"] = busy("powerflow.solve")
    m["powerflow.solve_calls"] = calls("powerflow.solve")
    m["powerflow.solve_p50_ms"] = pct("powerflow.solve", 50, 1e3)
    m["powerflow.solve_p99_ms"] = pct("powerflow.solve", 99, 1e3)
    m["powerflow.nr_iterations"] = sum(int(getattr(s, "iterations", 0)) for s in solves)
    for fn_name in ("compute_jacobian", "compute_mismatch"):
        m[f"powerflow.{fn_name}_s"] = busy(f"powerflow.{fn_name}")
        m[f"powerflow.{fn_name}_calls"] = calls(f"powerflow.{fn_name}")
    m["powerflow.solve_self_s"] = self_s["powerflow.solve"]
    m["powerflow.converged_frac"] = (
        sum(bool(getattr(s, "converged", False)) for s in solves) / len(solves)
        if solves else 0.0
    )

    transients = [r for r in results["dynamics.run_transient"] if r is not None]
    m["dynamics.run_transient_s"] = busy("dynamics.run_transient")
    m["dynamics.run_transient_calls"] = calls("dynamics.run_transient")
    m["dynamics.run_transient_p50_s"] = pct("dynamics.run_transient", 50)
    m["dynamics.run_transient_self_s"] = self_s["dynamics.run_transient"]
    m["dynamics.rk4_step_s"] = busy("dynamics.rk4_step")
    m["dynamics.rk4_steps"] = calls("dynamics.rk4_step")
    m["dynamics.network_solves"] = tracer.counts["dynamics.network_solves"]
    m["dynamics.controller_s"] = sum(busy(f"dynamics.{c}") for c in CONTROLLERS)
    m["dynamics.initialize_devices_s"] = busy("dynamics.initialize_devices")
    m["dynamics.bus_frequency_estimate_s"] = busy("dynamics.bus_frequency_estimate")
    m["dynamics.events_applied"] = sum(len(getattr(r, "event_log", ())) for r in transients)

    m["scenario.snapshot_sweep_self_s"] = self_s["scenario.snapshot_sweep"]
    m["scenario.snapshot_case_s"] = busy("scenario.snapshot_case")
    m["scenario.snapshot_case_calls"] = calls("scenario.snapshot_case")
    m["scenario.run_contingency_self_s"] = self_s["scenario.run_contingency"]
    m["scenario.resolve_events_s"] = busy("scenario.resolve_events")
    m["scenario.extract_metrics_s"] = busy("scenario.extract_metrics")
    m["scenario.compare_s"] = busy("scenario.compare")
    m["scenario.pairs_failed"] = sum(
        len(getattr(r, "failed", ())) for r in results["scenario.compare"]
    )
    pool_s = sum(
        a.get("jobs", 1) * d
        for a, d in zip(map(_bound, kept["scenario.compare"]), dur["scenario.compare"])
    )
    m["scenario.parallel_eff"] = (
        busy("scenario.run_contingency") / pool_s if pool_s > 0 else 0.0
    )

    m["cli.main_self_s"] = self_s["cli.main"]
    return m
