"""Committed mutants of src/smrgrid, each with the tier-1 tests that kill it;
standard library only.

Run it from any directory, for every mutant or for the ones named:

    python tools/mutants.py [name ...]

A mutant is one exact edit of one file: its old text, which must occur once
in the file, and the text that replaces it. For each mutant the tool copies
src/, tests/, pyproject.toml and README.md into a temporary directory, makes
the edit there and runs only the mutant's tests, with pytest and the copy's
src/ first on the path. The mutant is killed when one of them fails. First,
all the named tests must pass on an unchanged copy.

Exit status 0 when every mutant is killed; 1 when a mutant survives, when
its old text is not found exactly once, or when its tests cannot run.
"""

from __future__ import annotations

import os
import shutil
import subprocess
import sys
import tempfile
import time
from pathlib import Path
from typing import NamedTuple

ROOT = Path(__file__).resolve().parent.parent
COPIED = ("src", "tests", "pyproject.toml", "README.md")


class Mutant(NamedTuple):
    name: str
    path: str  # relative to the repository root
    old: str
    new: str
    tests: tuple[str, ...]  # pytest node ids, relative to the root


PF = "src/smrgrid/powerflow.py"
DC = "src/smrgrid/datacenter.py"
DYN = "src/smrgrid/dynamics.py"
NET = "src/smrgrid/network.py"
SC = "src/smrgrid/scenario.py"
T_PF = "tests/test_powerflow.py::"
T_DC = "tests/test_datacenter.py::"
T_DYN = "tests/test_dynamics.py::"
T_NET = "tests/test_network.py::"
T_SC = "tests/test_scenario.py::"
#: The transient relations over each event kind, with and without the IES.
RELATIONS = tuple(
    f"{T_DYN}TestMetamorphicTransient::test_{test}[{kind}-{config}]"
    for test in ("relabelled_case_has_the_same_series", "translated_events_translate_the_series")
    for kind in ("bus_fault", "line_trip", "gen_trip", "load_step")
    for config in ("grid_only", "with_ies")
)

MUTANTS = [
    # The solve chain's Newton state.
    Mutant(
        "pattern_per_loop", PF,
        "    entry = factors.get(key)\n",
        "    entry = None\n",
        (f"{T_PF}TestColumnOrdering::test_pattern_built_once_per_partition",
         f"{T_PF}TestColumnOrdering::test_weekly_sweep_forms_few_inverses",
         f"{T_SC}TestSnapshot::test_sweep_pattern_cache_matches_fresh_patterns"),
    ),
    Mutant(
        "inverse_never_stored", PF,
        "        inv = entry[1] = np.linalg.inv(jac.reshape(n, n))\n",
        "        inv = np.linalg.inv(jac.reshape(n, n))\n",
        (f"{T_PF}TestColumnOrdering::test_newton_step_matches_dense_solve",
         f"{T_PF}TestColumnOrdering::test_stalled_correction_forms_the_inverse_again"),
    ),
    Mutant(
        "inverse_stored_only_when_none_held", PF,
        "        inv = entry[1] = np.linalg.inv(jac.reshape(n, n))\n",
        "        inv = np.linalg.inv(jac.reshape(n, n))\n"
        "        if entry[1] is None:\n"
        "            entry[1] = inv\n",
        (f"{T_PF}TestColumnOrdering::test_newton_step_matches_dense_solve",
         f"{T_PF}TestColumnOrdering::test_stalled_correction_forms_the_inverse_again"),
    ),
    Mutant(
        "factors_key_without_ybus", PF,
        "    key = (ybus, pv_idx.tobytes(), pq_idx.tobytes())\n",
        "    key = (pv_idx.tobytes(), pq_idx.tobytes())\n",
        (f"{T_PF}TestColumnOrdering::test_reused_chain_keeps_each_ybus_apart",),
    ),
    Mutant(
        "solve_writes_to_its_ybus", PF,
        "    pattern = entry[0]\n",
        "    pattern = entry[0]\n    vars(ybus)['last_pattern'] = pattern\n",
        (f"{T_PF}TestColumnOrdering::test_concurrent_solves_leave_the_ybus_unchanged",),
    ),
    # Task binning in blocks.
    Mutant(
        "block_drops_its_last_jump", DC,
        "(times[i:i + BIN_BLOCK], sign * tasks.cpu[i:i + BIN_BLOCK])",
        "(times[i:i + BIN_BLOCK - 1], sign * tasks.cpu[i:i + BIN_BLOCK - 1])",
        (f"{T_DC}TestBinTasks::test_blocks_sum_to_the_unblocked_bins",),
    ),
    Mutant(
        "block_counts_the_next_first_jump", DC,
        "(times[i:i + BIN_BLOCK], sign * tasks.cpu[i:i + BIN_BLOCK])",
        "(times[i:i + BIN_BLOCK + 1], sign * tasks.cpu[i:i + BIN_BLOCK + 1])",
        (f"{T_DC}TestBinTasks::test_blocks_sum_to_the_unblocked_bins",),
    ),
    # The transient plant's read buses.
    Mutant(
        "np_unique_in_network", DYN,
        "        self.read_bus = np.array(read, dtype=int)\n",
        "        self.read_bus = np.unique(np.array(read, dtype=int))\n",
        ("tests/test_cli.py::test_powerflow_and_transient_load_no_scipy_or_numpy_ma",),
    ),
    Mutant(
        "fault_at_the_index_equal_to_its_id", DYN,
        "        net.fault_shunts[case.bus_index(kind.bus)] = kind.fault_admittance\n",
        "        net.fault_shunts[kind.bus] = kind.fault_admittance\n",
        tuple(t for t in RELATIONS if "bus_fault" in t and "relabelled" in t),
    ),
    Mutant(
        "monitored_buses_in_input_order", DYN,
        "    mon_at = [2 * net.read_of[case.bus_index(b)] for b in monitor]\n",
        "    mon_at = [2 * j for j in range(len(monitor))]\n",
        tuple(t for t in RELATIONS if "relabelled" in t),
    ),
    Mutant(
        "controller_idle_for_the_first_second", DYN,
        "        if ctl:\n            v_poi",
        "        if ctl and t >= 1.0:\n            v_poi",
        tuple(t for t in RELATIONS if "translated" in t and "with_ies" in t),
    ),
    # Snapshot copies.
    Mutant(
        "with_load_keeps_the_bus_q_load", NET,
        "bus = replace(self.buses[i], p_load=p_load, q_load=q_load)",
        "bus = replace(self.buses[i], p_load=p_load)",
        (f"{T_NET}TestWithBus::test_copy_equals_a_case_built_from_its_fields",),
    ),
    Mutant(
        "with_load_keeps_the_array_q_load", NET,
        "            q_load=_frozen_with(a.q_load, i, q_load),\n",
        "",
        (f"{T_NET}TestWithBus::test_copy_equals_a_case_built_from_its_fields",),
    ),
    Mutant(
        "dispatch_netted_twice", SC,
        "bus.p_load + p_dc_mw - smr_dispatch,",
        "bus.p_load + p_dc_mw - 2 * smr_dispatch,",
        (f"{T_SC}TestSnapshot::test_full_netting_cancels",),
    ),
    Mutant(
        "reactive_draw_dropped", SC,
        "bus.q_load + q_dc\n",
        "bus.q_load\n",
        (f"{T_SC}TestSnapshot::test_full_netting_cancels",),
    ),
    Mutant(
        "hops_ignore_branch_status", NET,
        "            if br.status:\n                adj[br.from_bus]",
        "            if True:\n                adj[br.from_bus]",
        (f"{T_NET}TestHops::test_out_of_service_branch_is_no_path",),
    ),
    Mutant(
        "one_hop_too_many", NET,
        "                    dist[nb] = dist[cur] + 1\n",
        "                    dist[nb] = dist[cur] + 2\n",
        (f"{T_NET}TestHops::test_match_relaxation_over_the_branch_list",
         f"{T_SC}TestNeighborhood::test_chain_hops"),
    ),
    # Output tables.
    Mutant(
        "csv_rows_end_in_lf", DC,
        '((row_format + "\\r\\n")',
        '((row_format + "\\n")',
        (f"{T_DC}TestCsvBoundary::test_write_csv_rows_end_in_crlf",
         f"{T_DC}TestCsvBoundary::test_profile_csv_matches_row_by_row_writer"),
    ),
    # Guards that NaN must fail.
    Mutant(
        "event_time_nan_accepted", DYN,
        "        if not self.t >= 0:\n",
        "        if self.t < 0:\n",
        (f"{T_DYN}TestRunTransient::test_nan_event_time_rejected",),
    ),
    Mutant(
        "t_apply_nan_accepted", SC,
        "        if not self.t_apply > 0:\n",
        "        if self.t_apply <= 0:\n",
        (f"{T_SC}test_nan_contingency_times_rejected[t_apply-t_apply must be > 0]",),
    ),
    Mutant(
        "duration_nan_accepted", SC,
        'and not self.duration > 0:\n',
        'and self.duration <= 0:\n',
        (f"{T_SC}test_nan_contingency_times_rejected[duration-fault duration must be > 0]",),
    ),
    Mutant(
        "t_end_infinite_or_nan_accepted", DYN,
        "        if not (0.0 < self.t_end < math.inf):\n",
        "        if self.t_end <= 0:\n",
        (f"{T_DYN}test_record_and_argument_checks[t_end must be finite and > 0_1]",
         f"{T_DYN}test_record_and_argument_checks[t_end must be finite and > 0_2]"),
    ),
    # Events checked against the case before the first step.
    Mutant(
        "unknown_event_bus_unchecked", DYN,
        "            raise SimulationError(f\"{ev.kind!r} at t={ev.t}: {exc}\") from None\n",
        "            pass\n",
        tuple(
            f"{T_DYN}TestRunTransient::test_unknown_event_bus_fails_before_the_first_step[{k}]"
            for k in ("BusFault3ph", "ClearFault", "LineTrip", "GenTrip", "LoadStep")
        ),
    ),
]


def copy_tree(dest: Path) -> None:
    for name in COPIED:
        src = ROOT / name
        if src.is_dir():
            shutil.copytree(src, dest / name, ignore=shutil.ignore_patterns("__pycache__"))
        else:
            shutil.copy2(src, dest / name)


def run_tests(tree: Path, tests) -> subprocess.CompletedProcess:
    """pytest on `tests` in `tree`, stopping at the first failure."""
    env = dict(os.environ, PYTHONPATH=str(tree / "src"), PYTHONDONTWRITEBYTECODE="1")
    return subprocess.run(
        [sys.executable, "-m", "pytest", "-q", "-x", "-p", "no:cacheprovider", *tests],
        cwd=tree, env=env, capture_output=True, text=True,
    )


def check(mutant: Mutant) -> str:
    """'killed', 'survived', or why the mutant could not be tried."""
    with tempfile.TemporaryDirectory() as tmp:
        tree = Path(tmp)
        copy_tree(tree)
        target = tree / mutant.path
        text = target.read_text()
        if text.count(mutant.old) != 1:
            return f"old text found {text.count(mutant.old)} times in {mutant.path}"
        target.write_text(text.replace(mutant.old, mutant.new))
        done = run_tests(tree, mutant.tests)
    if done.returncode == 1:  # some test failed
        return "killed"
    if done.returncode == 0:
        return "survived"
    return f"pytest exit {done.returncode}:\n{done.stdout[-2000:]}{done.stderr[-2000:]}"


def main(argv: list[str]) -> int:
    chosen = [m for m in MUTANTS if not argv or m.name in argv]
    unknown = set(argv) - {m.name for m in MUTANTS}
    if unknown:
        print(f"unknown mutants: {sorted(unknown)}")
        return 1
    tests = list(dict.fromkeys(t for m in chosen for t in m.tests))
    with tempfile.TemporaryDirectory() as tmp:
        copy_tree(Path(tmp))
        done = run_tests(Path(tmp), tests)
    if done.returncode != 0:
        print(f"the mutants' tests do not pass unchanged (pytest exit {done.returncode}):")
        print(done.stdout[-4000:], done.stderr[-4000:])
        return 1
    failures = 0
    for m in chosen:
        start = time.perf_counter()
        verdict = check(m)
        failures += verdict != "killed"
        print(f"{verdict:<8} {m.name} ({time.perf_counter() - start:.1f} s)", flush=True)
    print(f"{len(chosen) - failures} of {len(chosen)} mutants killed")
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
