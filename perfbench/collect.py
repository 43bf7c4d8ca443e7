"""Run the benchmark over several seeds and summarise each metric.

    python3 perfbench/collect.py --seeds 1-10 [--trace-seeds 0-1]
        [--workload sweep_week ...] [--label "what was measured"] [--append]

Runs `perfbench/run.py` once per (workload, seed), one run at a time: an
untraced run for each of `--seeds` and a traced run for each of
`--trace-seeds`. Prints per metric the median, the quartiles
(`statistics.quantiles(n=4)`) and the spread (q3 - q1) / median, flagging an
end-to-end spread above a third of the metric's bound. `--append` adds the
summary, with a machine note, as the next point of
`perfbench/trajectory.json`.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
TRAJECTORY = BENCH / "trajectory.json"


def seed_list(text: str) -> list[int]:
    lo, _, hi = text.partition("-")
    return list(range(int(lo), int(hi or lo) + 1))


def run_once(workload: str, seed: int, seconds: int, trace: bool) -> dict:
    done = subprocess.run(
        [sys.executable, str(BENCH / "run.py"), "--workload", workload,
         "--seed", str(seed), "--seconds", str(seconds), "--trace", str(int(trace))],
        cwd=ROOT, capture_output=True, text=True, timeout=900,
    )
    if done.returncode != 0:
        raise RuntimeError(f"{workload} seed {seed}: exit {done.returncode}\n{done.stderr}")
    result = json.loads(done.stdout.strip().splitlines()[-1])
    if not result["correct"]:
        raise RuntimeError(f"{workload} seed {seed}: incorrect\n{done.stderr}")
    return result


def summary(values: list[float]) -> dict:
    if len(values) < 2:
        q1 = med = q3 = values[0]
    else:
        q1, med, q3 = statistics.quantiles(values, n=4)
    return {"median": med, "q1": q1, "q3": q3,
            "spread": (q3 - q1) / med if med else 0.0, "n": len(values)}


def machine_note() -> dict:
    import numpy
    import scipy

    return {
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "note": "CPU frequency and pinning were not controlled; other "
                "tenants may share the machine.",
    }


def main() -> int:
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--seeds", default="1-10", help="inclusive range, e.g. 1-10")
    parser.add_argument("--workload", action="append",
                        help="repeatable; default every workload")
    parser.add_argument("--trace-seeds", default="", help="seeds of traced runs")
    parser.add_argument("--label", default="", help="what the point measures")
    parser.add_argument("--append", action="store_true",
                        help="add the summary to perfbench/trajectory.json")
    args = parser.parse_args()

    names = args.workload or [w["name"] for w in bench["workloads"]]
    bounds = {m["name"]: m.get("bound") for m in bench["end_to_end"]}
    point = {"label": args.label, "seeds": args.seeds,
             "trace_seeds": args.trace_seeds, "run_seconds": bench["run_seconds"],
             "machine": machine_note(), "workloads": {}}
    for name in names:
        point["workloads"][name] = entry = {}
        for kind, seeds, trace in (("end_to_end", args.seeds, False),
                                   ("per_layer", args.trace_seeds, True)):
            if not seeds:
                continue
            runs = [run_once(name, s, bench["run_seconds"], trace)
                    for s in seed_list(seeds)]
            entry[kind] = {}
            for key in runs[0]["metrics"]:
                entry[kind][key] = s = summary([r["metrics"][key]["value"] for r in runs])
                bound = bounds.get(key)
                flag = " (above bound/3)" if bound and s["spread"] > bound / 3 else ""
                print(f"{name:14s} {key:40s} median {s['median']:.6g} q1 "
                      f"{s['q1']:.6g} q3 {s['q3']:.6g} spread {s['spread']:.4f}{flag}",
                      flush=True)
    if args.append:
        points = json.loads(TRAJECTORY.read_text()) if TRAJECTORY.exists() else []
        points.append(point)
        TRAJECTORY.write_text(json.dumps(points, indent=1) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
