"""Run one smrgrid benchmark workload and print its metrics.

    python3 perfbench/run.py --workload sweep_week --seed 3 --seconds 20 --trace 0

Run from the repository root. The smrgrid CLI is called in-process
(`smrgrid.cli.main`) on inputs generated from `--seed`, repeatedly for about
`--seconds` seconds, and every call's outputs are checked. The last line of
stdout is one JSON object: `correct`, `attempted`, `failed` and `metrics`.
With `--trace 0` the metrics are the end-to-end metrics of BENCHMARK.json;
with `--trace 1` untraced and traced calls alternate and the metrics are the
per-layer ones. Exits 2 without a result when the program is missing.
"""

from __future__ import annotations

import argparse
import contextlib
import io
import json
import math
import os
import resource
import shutil
import statistics
import subprocess
import sys
import time
import traceback
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
OUT = ROOT / ".perfbench_out"
SETUP_REPEATS = 6  # per untraced run: half before the calls, half after

sys.path.insert(0, str(ROOT))
from perfbench import spans, workloads  # noqa: E402

_IMPORT_PROBE = (
    "import time; t = time.perf_counter(); import smrgrid.cli; "
    "print(time.perf_counter() - t)"
)


def import_seconds() -> float:
    """Time to import the CLI in a fresh interpreter, measured inside it."""
    env = dict(os.environ, PYTHONPATH=str(SRC))
    done = subprocess.run(
        [sys.executable, "-c", _IMPORT_PROBE], env=env, cwd=ROOT,
        capture_output=True, text=True, check=True, timeout=120,
    )
    return float(done.stdout.strip().splitlines()[-1])


def setup(wl, seed: int, work: Path, repeats: int, first: int = 0):
    """Import, case parse and input generation, `repeats` times; returns the
    set-up times and the inputs of the last repeat."""
    from smrgrid.network import parse_case

    times, prep = [], None
    for k in range(first, first + repeats):
        rep = work / f"setup{k}"
        rep.mkdir(parents=True)
        t_import = import_seconds()
        t0 = time.perf_counter()
        parse_case(ROOT / workloads.CASE)
        prep = wl.prepare(rep, seed, ROOT)
        times.append(t_import + time.perf_counter() - t0)
    return times, prep


def call(cli, prep, out: Path, tracer=None):
    """One subcommand call; returns (exit code, wall seconds)."""
    sink = io.StringIO()
    t0 = time.perf_counter()
    with contextlib.redirect_stdout(sink):
        if tracer is None:
            rc = cli.main(prep.argv(out))
        else:
            with tracer:
                rc = cli.main(prep.argv(out))
    return rc, time.perf_counter() - t0


def run(wl, seed: int, seconds: float, trace: bool, work: Path) -> dict:
    import smrgrid.cli as cli

    before = 1 if trace else SETUP_REPEATS // 2
    setup_times, prep = setup(wl, seed, work, before)
    study_s, traced_s, layer_runs = [], [], []
    attempted = failed = 0
    problems: list[str] = []
    fingerprints: set[str] = set()
    last_tracer = None
    start = time.perf_counter()
    i = 0
    while True:
        tracer = spans.Tracer() if trace and i % 2 == 1 else None
        out = work / f"out{i}"
        try:
            rc, wall = call(cli, prep, out, tracer)
        except Exception:  # a crash is a failed call, reported, not fatal
            problems.append(f"call {i} raised:\n{traceback.format_exc()}")
            rc, wall = -1, float("nan")
        try:
            outcome = wl.check(prep, out, rc)
        except (OSError, KeyError, ValueError) as exc:
            outcome = workloads.Outcome(1, 1, [f"unreadable output: {exc!r}"])
        attempted += outcome.attempted
        failed += outcome.failed
        problems += [f"call {i}: {p}" for p in outcome.problems]
        if outcome.fingerprint is not None:
            fingerprints.add(outcome.fingerprint)
        if tracer is None:
            study_s.append(wall)
        else:
            traced_s.append(wall)
            layer_runs.append(spans.summarise(tracer, prep.counts))
            last_tracer = tracer
        shutil.rmtree(out, ignore_errors=True)
        i += 1
        if rc == -1:  # a crashed call leaves nothing worth timing
            break
        elapsed = time.perf_counter() - start
        typical = statistics.median(study_s + traced_s)
        # a traced run alternates at least two untraced and two traced calls,
        # so the trace overhead is a ratio of medians, not of single calls
        enough = i >= max(wl.min_calls, 4 if trace else 1)
        if enough and elapsed + typical > seconds:
            break
    if not trace:
        # the other half after the calls, so that the median spans the
        # machine's speed drift over the run rather than one moment of it
        setup_times += setup(wl, seed, work, SETUP_REPEATS - before, before)[0]
    if len(fingerprints) > 1:
        problems.append(f"outputs differ between calls: {len(fingerprints)} hashes")
    print(f"call seconds: untraced {[round(t, 3) for t in study_s]} "
          f"traced {[round(t, 3) for t in traced_s]}", file=sys.stderr)

    metrics: dict[str, float] = {}
    if not trace:
        study = _median(study_s)
        metrics = {
            "setup_s": statistics.median(setup_times),
            "study_s": study,
            "items_per_s": wl.items_per_call / study,
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
            "success_frac": (attempted - failed) / attempted,
        }
    elif layer_runs:
        metrics = {
            k: statistics.median(r[k] for r in layer_runs) for k in layer_runs[0]
        }
        metrics["bench.trace_overhead_frac"] = _median(traced_s) / _median(study_s) - 1
        problems += exact_count_problems(wl, seed, layer_runs, last_tracer.absent)
        OUT.mkdir(exist_ok=True)
        last_tracer.write_spans(OUT / f"{wl.name}-seed{seed}-spans.jsonl")
        if last_tracer.absent:
            print("absent from smrgrid: " + ", ".join(sorted(last_tracer.absent)))
    return {"problems": problems, "attempted": attempted, "failed": failed,
            "metrics": metrics}


def _median(xs: list[float]) -> float:
    return statistics.median(xs) if xs else float("nan")


def exact_count_problems(wl, seed: int, layer_runs: list, absent: set) -> list[str]:
    """The exact counts must repeat between traced calls and, at the default
    seed, equal the counts recorded at the seed commit."""
    ref = workloads.load_reference(wl.name).get("counts", {})
    problems = []
    for name, source in spans.EXACT_COUNTS.items():
        values = {r[name] for r in layer_runs}
        if len(values) > 1:
            problems.append(f"{name} differs between calls: {sorted(values)}")
        if seed == workloads.DEFAULT_SEED and name in ref and source not in absent:
            if values != {ref[name]}:
                problems.append(f"{name} {sorted(values)} != reference {ref[name]}")
    return problems


def _finite(x) -> float:
    x = float(x)
    return x if math.isfinite(x) else 0.0


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    parser.add_argument("--seed", type=int, default=workloads.DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (SRC / "smrgrid" / "cli.py").is_file():
        print(f"smrgrid sources not found under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    import smrgrid

    if SRC.resolve() not in Path(smrgrid.__file__).resolve().parents:
        print(f"imported smrgrid from {smrgrid.__file__}, not {SRC}", file=sys.stderr)
        return 2
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    wanted = bench["per_layer" if args.trace else "end_to_end"]

    wl = workloads.WORKLOADS[args.workload]
    work = OUT / f"work-{wl.name}-{args.seed}-{os.getpid()}"
    try:
        res = run(wl, args.seed, args.seconds, bool(args.trace), work)
    finally:
        shutil.rmtree(work, ignore_errors=True)
    missing = [m["name"] for m in wanted if m["name"] not in res["metrics"]]
    if missing:
        res["problems"].append(f"metrics not measured: {missing}")
    for p in res["problems"]:
        print(f"check failed: {p}", file=sys.stderr)
    print(json.dumps({
        "correct": not res["problems"],
        "attempted": res["attempted"],
        "failed": res["failed"],
        "metrics": {
            m["name"]: {"value": _finite(res["metrics"].get(m["name"], 0.0)),
                        "unit": m["unit"]}
            for m in wanted
        },
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
