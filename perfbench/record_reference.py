"""Record the reference outputs and exact counts at the default seed.

    python3 perfbench/record_reference.py

Runs one traced call of each workload at `workloads.DEFAULT_SEED` and writes
`perfbench/reference/seed<DEFAULT_SEED>.json`: the per-bin POI voltages of
`sweep_week`, the pair metrics of `compare_pairs` and the exact counts of
every workload. The benchmark checks runs at the default seed against it.
Re-record only for a change that is meant to alter the program's outputs.
"""

from __future__ import annotations

import json
import shutil
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent))
from perfbench import run, spans, workloads  # noqa: E402


def main() -> int:
    sys.path.insert(0, str(run.SRC))
    import smrgrid.cli as cli

    seed = workloads.DEFAULT_SEED
    doc = {"seed": seed}
    for wl in workloads.WORKLOADS.values():
        work = run.OUT / f"reference-{wl.name}"
        shutil.rmtree(work, ignore_errors=True)
        work.mkdir(parents=True)
        try:
            prep = wl.prepare(work, seed, run.ROOT)
            tracer = spans.Tracer()
            rc, _ = run.call(cli, prep, work / "out", tracer)
            if rc != 0:
                print(f"{wl.name}: exit code {rc}", file=sys.stderr)
                return 1
            layers = spans.summarise(tracer, prep.counts)
            entry = wl.reference(work / "out")
            entry["counts"] = {k: layers[k] for k in spans.EXACT_COUNTS}
            doc[wl.name] = entry
            print(f"{wl.name}: {entry['counts']}")
        finally:
            shutil.rmtree(work, ignore_errors=True)
    workloads.REFERENCE.parent.mkdir(exist_ok=True)
    workloads.REFERENCE.write_text(json.dumps(doc, sort_keys=True) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
