"""Committed mutants of src/smrgrid, each with the tier-1 tests that kill it;
standard library only.

Run it from any directory, for every mutant or for the ones named:

    python tools/mutants.py [name ...]

A mutant is one exact edit of one file: its old text, which must occur once
in the file, and the text that replaces it. For each mutant the tool copies
src/, tests/, pyproject.toml and README.md into a temporary directory, makes
the edit there and runs only the mutant's tests, with pytest and the copy's
src/ first on the path. The mutant is killed when one of them fails. First,
all the named tests must pass on an unchanged copy. Mutants are tried up to
four at a time, one per CPU.

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
from concurrent.futures import ThreadPoolExecutor
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
CLI = "src/smrgrid/cli.py"
T_PF = "tests/test_powerflow.py::"
T_DC = "tests/test_datacenter.py::"
T_DYN = "tests/test_dynamics.py::"
T_NET = "tests/test_network.py::"
T_SC = "tests/test_scenario.py::"
T_CLI = "tests/test_cli.py::"
T_CSV = f"{T_DC}TestCsvBoundary::"
#: The bulk trace reader against the csv row path, field by field.
ROW_PATH = (f"{T_CSV}test_trace_files_read_as_the_row_path_reads_them",)


def field_checks(record: str, field: str, *values: str) -> tuple[str, ...]:
    """The device field checks of `record.field` at `values`."""
    return tuple(f"{T_DYN}test_device_field_checks[{record}.{field}={v}]" for v in values)

#: The transient relations over each event kind, with and without the IES.
RELATIONS = tuple(
    f"{T_DYN}TestMetamorphicTransient::test_{test}[{kind}-{config}]"
    for test in ("relabelled_case_has_the_same_series", "translated_events_translate_the_series")
    for kind in ("bus_fault", "line_trip", "gen_trip", "load_step")
    for config in ("grid_only", "with_ies")
)

#: The plant's operators against a full solve of the augmented matrix.
OPERATORS = tuple(
    f"{T_DYN}TestReducedNetwork::test_operators_match_full_solve[{topology}]"
    for topology in ("pre_fault", "fault", "line_trip", "gen_trip", "with_ies")
)

#: The step at which an event fires.
STEP_RULE = (
    f"{T_DYN}TestRunTransient::test_event_fires_at_the_first_step_boundary_at_or_after_its_time"
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
    # The Q-limit loop: the reported ids, the pinned side, the pass count
    # and the out-of-passes verdict.
    Mutant(
        "q_limited_ids_from_indices", PF,
        "case.buses[i].id for i in",
        "int(i) for i in",
        (f"{T_PF}TestQLimits::test_pv_switches_and_holds_limit",
         f"{T_PF}TestQLimits::test_mask_switching_matches_switched_case[60.0]"),
    ),
    Mutant(
        "q_min_bus_pinned_at_q_max", PF,
        "np.where(side == -1, a.q_min, 0.0)",
        "np.where(side == -1, a.q_max, 0.0)",
        (f"{T_PF}TestSolve::test_118_bus_converges",
         f"{T_PF}TestQLimits::test_mask_switching_matches_switched_case[0.0]"),
    ),
    Mutant(
        "one_q_limit_pass", PF,
        "        if not ok:\n",
        "        if True:\n",
        (f"{T_PF}TestSolve::test_history_spans_every_q_limit_pass",
         f"{T_PF}TestQLimits::test_pv_switches_and_holds_limit",
         f"{T_PF}TestQLimits::test_118_bus_limits_respected"),
    ),
    Mutant(
        "out_of_passes_converged", PF,
        "        ok = False  # out of passes while the last pass still switched\n",
        "",
        (f"{T_PF}TestQLimits::test_out_of_passes_is_not_converged",),
    ),
    # The branch pi-models.
    Mutant(
        "branch_resistance_2pc_high", NET,
        "complex(br.r, br.x)",
        "complex(1.02 * br.r, br.x)",
        (f"{T_NET}TestYbus::test_matches_dense_assembly_118",
         f"{T_NET}TestYbus::test_branch_removal_equals_stamp_subtraction"),
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
    # Trace files: the bulk reader, its bin index and its path handling.
    Mutant(
        "line_end_guard_dropped", DC,
        '    if "\\n" in "".join(distinct):\n',
        "    if False:\n",
        ROW_PATH,
    ),
    Mutant(
        "read_float_grammar_unchecked", DC,
        '    if "_" in field or not field.isascii():\n',
        "    if False:\n",
        tuple(f"{T_CSV}test_number_that_only_float_reads_names_line[{k}]"
              for k in ("separator", "arabic"))
        + (f"{T_CSV}test_event_number_that_only_float_reads_names_line[time_separator-rows]",),
    ),
    Mutant(
        "one_header_line_skipped", DC,
        "skiprows=header_lines,",
        "skiprows=1,",
        ROW_PATH,
    ),
    Mutant(
        "raw_text_fields", DC,
        "    parsed = {text: parse(text) for text in distinct}\n",
        "    parsed = {text: text for text in distinct}\n",
        ROW_PATH,
    ),
    Mutant(
        "capacity_read_as_float64", DC,
        "(name, _NUMBER_DTYPES.get(p, object)) for name, p in fields.items()",
        "(name, float if name == 'capacity' else _NUMBER_DTYPES.get(p, object))"
        " for name, p in fields.items()",
        ROW_PATH,
    ),
    Mutant(
        "bin_index_one_too_high", DC,
        ".astype(np.intp), n_bins - 1)",
        ".astype(np.intp) + 1, n_bins - 1)",
        (f"{T_DC}TestBinEdges::test_tasks_match_per_second_oracle",
         f"{T_DC}TestBinEdges::test_events_match_per_second_oracle"),
    ),
    Mutant(
        "path_not_made_absolute", DC,
        "np.loadtxt(os.path.abspath(path), ",
        "np.loadtxt(path, ",
        (f"{T_CSV}test_path_that_reads_as_a_url_stays_local",),
    ),
    Mutant(
        "compressed_suffix_read_by_path", DC,
        "    if Path(path).suffix in _COMPRESSED:\n",
        "    if False:\n",
        tuple(f"{T_CSV}test_plain_file_with_a_compression_suffix[{s}]"
              for s in (".bz2", ".gz", ".lzma", ".xz")),
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
        "np.put(net.fault, i, kind.fault_admittance)",
        "np.put(net.fault, kind.bus, kind.fault_admittance)",
        tuple(t for t in RELATIONS if "bus_fault" in t and "relabelled" in t),
    ),
    Mutant(
        "monitored_buses_in_input_order", DYN,
        "    mon_at = [net.read_of[case.bus_index(b)] for b in monitor]\n",
        "    mon_at = list(range(len(monitor)))\n",
        tuple(t for t in RELATIONS if "relabelled" in t),
    ),
    Mutant(
        "load_step_reads_the_first_read_bus", DYN,
        "abs(v[net.read_of[i]]) ** 2",
        "abs(v[0]) ** 2",
        tuple(t for t in RELATIONS if "relabelled" in t and "load_step" in t),
    ),
    Mutant(
        "poi_voltage_from_the_first_read_bus", DYN,
        "            v_poi = v_out[mon_at[poi_j]]\n",
        "            v_poi = v_out[0]\n",
        tuple(t for t in RELATIONS if "relabelled" in t and "with_ies" in t),
    ),
    # The plant's complex operators.
    Mutant(
        "pe_without_conjugate", DYN,
        "        pe_h = (self.z[:nm].conj() * self.solve(self.z)).real",
        "        pe_h = (self.z[:nm] * self.solve(self.z)).real",
        OPERATORS + (f"{T_DYN}TestPlantAndController::test_rk4_step_matches_a_textbook_rk4",),
    ),
    Mutant(
        "battery_column_negated", DYN,
        ", -g * v_b[rows])",
        ", g * v_b[rows])",
        OPERATORS,
    ),
    Mutant(
        "stale_trig_in_the_first_stage", DYN,
        "        if x is not self.x:  # the first stage reuses",
        "        if self.x is None:  # the first stage reuses",
        (f"{T_DYN}TestPlantAndController::test_rk4_step_matches_a_textbook_rk4",),
    ),
    Mutant(
        "controller_idle_for_the_first_second", DYN,
        "        if ctl:\n            v_poi",
        "        if ctl and t >= 1.0:\n            v_poi",
        tuple(t for t in RELATIONS if "translated" in t and "with_ies" in t),
    ),
    Mutant(
        "tripped_machines_unmasked", DYN,
        "np.where(on, machines.y_m * machines.e_p, 0j)",
        "machines.y_m * machines.e_p",
        (f"{T_DYN}TestReducedNetwork::test_operators_match_full_solve[gen_trip]",),
    ),
    Mutant(
        "zero_voltage_guard_dropped", DYN,
        "            if v_poi == 0:\n"
        "                raise SimulationError(f\"zero voltage at the battery bus at t={t:.4f}s\")\n",
        "",
        (f"{T_DYN}TestFailurePaths::test_bolted_fault_at_the_battery_bus",),
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
    Mutant(
        "step_bound_dropped", DYN,
        "        if not steps <= MAX_STEPS:\n",
        "        if False:\n",
        (f"{T_DYN}test_record_and_argument_checks[t_end must be at most 1000000 dt steps1]",
         "tests/test_cli.py::TestTransient::test_huge_horizon_rejected[transient]"),
    ),
    # Device records: each guard as its parent wrote it, or missing.
    Mutant(
        "inertia_nan_accepted", DYN,
        "        if not self.h > 0:\n",
        "        if self.h <= 0:\n",
        field_checks("MachineParams", "h", "nan"),
    ),
    Mutant(
        "damping_unchecked", DYN,
        "        if not self.d >= 0:\n",
        "        if False:\n",
        field_checks("MachineParams", "d", "-5.0", "nan"),
    ),
    Mutant(
        "xd_p_nan_accepted", DYN,
        "        if not self.xd_p > 0:\n",
        "        if self.xd_p <= 0:\n",
        field_checks("MachineParams", "xd_p", "nan"),
    ),
    Mutant(
        "mva_base_nan_accepted", DYN,
        "        if not self.mva_base > 0:\n",
        "        if self.mva_base <= 0:\n",
        field_checks("MachineParams", "mva_base", "nan"),
    ),
    Mutant(
        "smr_ratings_nan_accepted", DYN,
        "        if not (self.p_max > 0 and self.q_dot_max >= 0):\n",
        "        if self.p_max <= 0 or self.q_dot_max < 0:\n",
        field_checks("SmrParams", "p_max", "nan") + field_checks("SmrParams", "q_dot_max", "nan"),
    ),
    Mutant(
        "ramp_limit_nan_accepted", DYN,
        "        if not self.ramp_limit > 0:\n",
        "        if self.ramp_limit <= 0:\n",
        field_checks("SmrParams", "ramp_limit", "nan"),
    ),
    Mutant(
        "t_actuator_unchecked", DYN,
        "        if not self.t_actuator > 0:\n",
        "        if False:\n",
        field_checks("SmrParams", "t_actuator", "0.0", "-0.1", "nan")
        + tuple(f"tests/test_cli.py::TestTransient::test_zero_actuator_time_constant_rejected[{c}]"
                for c in ("transient", "compare")),
    ),
    Mutant(
        "freq_deadband_unchecked", DYN,
        "        if not self.freq_deadband >= 0:\n",
        "        if False:\n",
        field_checks("SmrParams", "freq_deadband", "-1.0", "nan"),
    ),
    Mutant(
        "p_rating_nan_accepted", DYN,
        "        if not self.p_rating > 0:\n",
        "        if self.p_rating <= 0:\n",
        field_checks("BessParams", "p_rating", "nan"),
    ),
    Mutant(
        "gains_nan_accepted", DYN,
        "        if not (self.k_p >= 0 and self.k_i >= 0):\n",
        "        if self.k_p < 0 or self.k_i < 0:\n",
        field_checks("BessParams", "k_p", "nan") + field_checks("BessParams", "k_i", "nan"),
    ),
    Mutant(
        "integrator_limit_unchecked", DYN,
        "        if not self.integrator_limit >= 0:\n",
        "        if False:\n",
        field_checks("BessParams", "integrator_limit", "-1.0", "nan"),
    ),
    # A line trip takes the circuit it names, or none.
    Mutant(
        "negative_circuit_accepted", DYN,
        "        if not self.circuit >= 0:\n",
        "        if False:\n",
        (f"{T_DYN}test_record_and_argument_checks[circuit must be >= 0_0]",
         f"{T_DYN}test_record_and_argument_checks[circuit must be >= 0_1]"),
    ),
    Mutant(
        "circuit_clamped", DYN,
        "            if kind.circuit >= len(hits):\n"
        "                raise SimulationError(f\"no in-service circuit {kind.circuit} of branch \"\n"
        "                                      f\"{line} to trip ({len(hits)} in service)\")\n"
        "            k = hits[kind.circuit]\n",
        "            k = hits[min(kind.circuit, len(hits) - 1)]\n",
        (f"{T_DYN}TestRunTimeErrors::test_event_that_cannot_apply[no_circuit]",
         f"{T_DYN}TestRunTimeErrors::test_event_that_cannot_apply[circuit_tripped]"),
    ),
    # Events compiled against the case before the first step: an unknown
    # bus escapes as the lookup's CaseError, a repeated trip compiles, or an
    # event fires one step late or without the 1e-12 s tolerance.
    Mutant(
        "unknown_event_bus_unchecked", DYN,
        "            raise SimulationError(f\"{ev.kind!r} at t={ev.t}: {exc}\") from None\n",
        "            raise\n",
        tuple(
            f"{T_DYN}TestRunTransient::test_unknown_event_bus_fails_before_the_first_step[{k}]"
            for k in ("BusFault3ph", "ClearFault", "LineTrip", "GenTrip", "LoadStep")
        ),
    ),
    Mutant(
        "repeated_branch_trip_compiles", DYN,
        "            tripped.add(k)\n",
        "",
        (f"{T_DYN}TestRunTimeErrors::test_event_that_cannot_apply[branch_tripped]",
         f"{T_DYN}TestRunTimeErrors::test_event_that_cannot_apply[circuit_tripped]"),
    ),
    Mutant(
        "repeated_machine_trip_compiles", DYN,
        "            active[hit] = False\n",
        "",
        (f"{T_DYN}TestRunTimeErrors::test_event_that_cannot_apply[machine_tripped]",),
    ),
    # The engine's compile is the only judge of an explicit scenario target:
    # a trip with nothing to trip, or a line trip to an unknown bus, is
    # caught there or nowhere.
    Mutant(
        "gen_trip_without_a_machine_compiles", DYN,
        "            if not hit.size:\n"
        "                raise SimulationError(f\"no active machine at bus {kind.bus} to trip\")\n",
        "",
        (f"{T_DYN}TestRunTimeErrors::test_event_that_cannot_apply[no_machine]",
         f"{T_SC}TestResolveEvents::test_explicit_target_must_be_in_the_case[gen_trip]",
         f"{T_SC}TestResolveEvents::test_gen_trip_takes_every_active_machine_at_the_bus",
         f"{T_CLI}TestTransient::test_bad_explicit_target_rejected[no_machine]"),
    ),
    Mutant(
        "line_trip_without_a_branch_compiles", DYN,
        "            if not hits:\n"
        "                raise SimulationError(f\"no in-service branch {line} to trip\")\n",
        "",
        (f"{T_DYN}TestRunTimeErrors::test_event_that_cannot_apply[no_branch]",
         f"{T_SC}TestResolveEvents::test_explicit_target_must_be_in_the_case[line_trip]",
         f"{T_CLI}TestTransient::test_bad_explicit_target_rejected[no_branch]"),
    ),
    Mutant(
        "line_trip_buses_unchecked", DYN,
        "            case.bus_index(kind.from_bus), case.bus_index(kind.to_bus)  # known buses\n",
        "",
        (f"{T_DYN}TestRunTransient::test_unknown_event_bus_fails_before_the_first_step[LineTrip]",
         f"{T_SC}TestCompare::test_unknown_target_voids_only_its_pair[line_trip]",
         f"{T_CLI}TestTransient::test_bad_explicit_target_rejected[line_trip]"),
    ),
    # Random scenario targets: each kind's candidates near the POI, and one
    # draw with the spec's own seed.
    Mutant(
        "poi_among_the_bus_fault_candidates", SC,
        "        cands = sorted(near - {poi})\n",
        "        cands = sorted(near)\n",
        (f"{T_SC}TestResolveEvents::test_bus_fault_structure",
         f"{T_SC}TestResolveEvents::test_random_targets_as_drawn[bus_fault]"),
    ),
    Mutant(
        "slack_among_the_gen_trip_candidates", SC,
        "                       - {poi, slack_id})\n",
        "                       - {poi})\n",
        (f"{T_SC}TestResolveEvents::test_gen_trip_avoids_slack_and_poi",),
    ),
    Mutant(
        "poi_last_branch_trips", SC,
        "        if sum(poi in line for line in lines) <= 1:",
        "        if sum(poi in line for line in lines) < 1:",
        (f"{T_SC}TestFailurePaths::test_no_random_candidates[line_trip-no line-trip "
         "candidates near the POI]",),
    ),
    Mutant(
        "draw_ignores_the_seed", SC,
        "np.random.default_rng(spec.rng_seed)",
        "np.random.default_rng(0)",
        tuple(f"{T_SC}TestResolveEvents::test_random_targets_as_drawn[{kind}]"
              for kind in ("bus_fault", "gen_trip", "line_trip")),
    ),
    Mutant(
        "gen_trip_bus_id_taken_as_index", DYN,
        "active & (machines.bus_idx == i)",
        "active & (machines.bus_idx == kind.bus)",
        (f"{T_DYN}TestReducedNetwork::test_operators_match_full_solve[gen_trip]",)
        + tuple(t for t in RELATIONS if "relabelled" in t and "gen_trip" in t),
    ),
    Mutant(
        "ramp_of_the_mechanical_power", DYN,
        "np.abs(np.diff(ies_states[:, 4]))",
        "np.abs(np.diff(ies_states[:, 2] * case.system_mva_base / ies.smr.p_max))",
        (f"{T_SC}TestRunContingency::test_tripped_smr_delivers_no_power",),
    ),
    Mutant(
        "tripped_smr_holds_its_power", DYN,
        "            self.p_smr = 0.0\n",
        "            pass\n",
        (f"{T_DYN}TestPlantAndController::test_battery_acts_while_the_smr_is_tripped",
         f"{T_SC}TestRunContingency::test_tripped_smr_delivers_no_power"),
    ),
    Mutant(
        "three_item_line_trip_target_accepted", SC,
        " or pair and len(self.target) != 2",
        "",
        (f"{T_SC}test_record_and_argument_checks[line_trip target (24, 25, 0) is not a "
         "[from, to] pair]",),
    ),
    # compare refuses, before any pair runs, what it cannot pair.
    Mutant(
        "poi_gen_trip_paired", SC,
        '        if spec.kind == "gen_trip" and spec.target == ies_config.dc_bus:\n',
        "        if False:\n",
        (f"{T_SC}TestCompare::test_unpairable_specs_refused_before_any_run[poi_gen_trip]",
         f"{T_CLI}TestCompare::test_unpairable_scenarios_rejected[poi_gen_trip]"),
    ),
    # compare and transient take their runs from study_runs.
    Mutant(
        "equal_scenario_ids_paired", SC,
        "            if scenario_id in runs:\n",
        "            if False:\n",
        tuple(f"{T_SC}TestCompare::test_unpairable_specs_refused_before_any_run[{k}]"
              for k in ("equal_kind_and_seed", "bin_selected_twice"))
        + (f"{T_CLI}TestCompare::test_unpairable_scenarios_rejected[equal_ids]",),
    ),
    Mutant(
        "transient_runs_only_the_first", CLI,
        "    for scenario_id, (spec, b) in runs.items():\n",
        "    for scenario_id, (spec, b) in list(runs.items())[:1]:\n",
        (f"{T_CLI}TestTransient::test_runs_every_scenario_at_every_selected_bin",),
    ),
    Mutant(
        "event_past_the_grid_accepted", DYN,
        "not events[-1].t < min(cfg.t_end, t_grid[-1] + 1e-12)",
        "not events[-1].t < cfg.t_end",
        (f"{T_DYN}TestRunTransient::test_event_past_the_last_grid_point_rejected",),
    ),
    Mutant(
        "event_step_one_late", DYN,
        "    steps = np.searchsorted(t_grid + 1e-12, [ev.t for ev in events]).tolist()\n",
        "    steps = (np.searchsorted(t_grid + 1e-12, [ev.t for ev in events]) + 1).tolist()\n",
        (STEP_RULE,),
    ),
    Mutant(
        "event_step_without_tolerance", DYN,
        "np.searchsorted(t_grid + 1e-12, ",
        "np.searchsorted(t_grid, ",
        (STEP_RULE,),
    ),
    # The Newton step's refinement with a held inverse.
    Mutant(
        "residual_against_the_held_inverse", PF,
        "        r = mis - np.bincount(pattern.jr, weights=terms * dx[pattern.jc], "
        "minlength=pattern.dim)\n",
        "        r = mis - np.linalg.solve(inv, dx)\n",
        (f"{T_PF}TestColumnOrdering::test_newton_step_matches_dense_solve",),
    ),
    Mutant(
        "no_refresh_when_a_correction_fails", PF,
        "        if ok:\n            return dx\n",
        "        return dx\n",
        (f"{T_PF}TestColumnOrdering::test_newton_step_matches_dense_solve",
         f"{T_PF}TestColumnOrdering::test_stalled_correction_forms_the_inverse_again"),
    ),
    Mutant(
        "linalg_error_not_a_singular_jacobian", PF,
        "        raise SingularJacobianError(iteration) from None\n",
        "        raise\n",
        (f"{T_PF}TestColumnOrdering::test_exactly_singular_step_raises",
         f"{T_PF}TestColumnOrdering::test_zero_jacobian_raises_with_and_without_a_held_inverse",
         f"{T_PF}TestColumnOrdering::test_singular_jacobian_raises[1]"),
    ),
    Mutant(
        "refinement_tolerance_1e-3", PF,
        "REFINE_TOL = 1e-11\n",
        "REFINE_TOL = 1e-3\n",
        (f"{T_PF}TestColumnOrdering::test_newton_step_matches_dense_solve",),
    ),
    Mutant(
        "no_bail_on_a_stalled_correction", PF,
        "        if not norm <= 0.1 * last:  # a nan norm fails too\n",
        "        if False:\n",
        (f"{T_PF}TestColumnOrdering::test_stalled_correction_forms_the_inverse_again",),
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
    """pytest on `tests` in `tree`, stopping at the first failure. Hypothesis
    draws from one fixed seed, so a kill that needs a drawn example is the
    same on every run. Asserts stay plain: a failed one still fails its
    test, and pytest skips rewriting the asserts of every module of its
    plugins' packages (hypothesis's 74 among them), which took about half
    of each run."""
    env = dict(os.environ, PYTHONPATH=str(tree / "src"), PYTHONDONTWRITEBYTECODE="1")
    return subprocess.run(
        [sys.executable, "-m", "pytest", "-q", "-x", "-p", "no:cacheprovider",
         "--assert=plain", "--hypothesis-seed=0", *tests],
        cwd=tree, env=env, capture_output=True, text=True,
    )


def check(mutant: Mutant) -> tuple[str, float]:
    """'killed', 'survived', or why the mutant could not be tried; and the
    seconds it took."""
    start = time.perf_counter()
    with tempfile.TemporaryDirectory() as tmp:
        tree = Path(tmp)
        copy_tree(tree)
        target = tree / mutant.path
        text = target.read_text()
        if text.count(mutant.old) != 1:
            verdict = f"old text found {text.count(mutant.old)} times in {mutant.path}"
            return verdict, time.perf_counter() - start
        target.write_text(text.replace(mutant.old, mutant.new))
        done = run_tests(tree, mutant.tests)
    if done.returncode == 1:  # some test failed
        verdict = "killed"
    elif done.returncode == 0:
        verdict = "survived"
    else:
        verdict = f"pytest exit {done.returncode}:\n{done.stdout[-2000:]}{done.stderr[-2000:]}"
    return verdict, time.perf_counter() - start


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
    with ThreadPoolExecutor(min(4, os.cpu_count() or 1)) as pool:
        for m, (verdict, seconds) in zip(chosen, pool.map(check, chosen)):
            failures += verdict != "killed"
            print(f"{verdict:<8} {m.name} ({seconds:.1f} s)", flush=True)
    print(f"{len(chosen) - failures} of {len(chosen)} mutants killed")
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
