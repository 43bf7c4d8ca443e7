"""Batch front door: profile / powerflow / transient / compare subcommands.

A single JSON config file is the study: all its sections, `seed` among
them, are read and checked as one `RunConfig` record before any subcommand
runs. The flags say only how the run is done: `--out` names the output
directory, where every output and any `error.json` land, `--jobs` how
many pairs `compare` runs at once (at least 1, for every subcommand), and
`transient --dt-check` reruns each transient at dt/2. No flag overrides a
key.
"""

from __future__ import annotations

import argparse
import json
import sys
from dataclasses import dataclass, field, replace
from pathlib import Path

import numpy as np

from . import dynamics as dyn
from . import powerflow as pf
from . import scenario as sc
from .datacenter import (
    AmbientConditions,
    ChillerParams,
    DEFAULT_CHILLER,
    ItPowerParams,
    LoadProfile,
    TraceError,
    bin_tasks,
    build_profile,
    calibrate_it_capacity,
    estimate_capacity,
    normalize,
    read_machine_events_csv,
    read_profile_csv,
    read_tasks_csv,
    write_csv,
    write_profile_csv,
)
from .network import parse_case, read_value


class ConfigError(Exception):
    pass


@dataclass(frozen=True)
class ItSpec:
    """`profile.it`; `target_total_peak_mw`, when given, sets `p_max`."""

    p_max: float | None = None
    idle_fraction: float = ItPowerParams.idle_fraction

    def __post_init__(self):
        # ItPowerParams holds the checks; 1.0 stands in for a p_max to come.
        ItPowerParams(1.0 if self.p_max is None else self.p_max, self.idle_fraction)


@dataclass(frozen=True)
class ProfileSpec:
    """The `profile` section: a prebuilt `profile_csv`, or the task and
    machine-event traces binned over [t0, t1), by default one week."""

    profile_csv: str | None = None
    tasks_csv: str | None = None
    machine_events_csv: str | None = None
    t0: float = 0.0
    t1: float | None = None
    target_total_peak_mw: float | None = None
    it: ItSpec = ItSpec()
    chiller: ChillerParams = DEFAULT_CHILLER
    ambient: AmbientConditions = AmbientConditions()

    def __post_init__(self):
        if self.profile_csv is not None:
            return
        if None in (self.tasks_csv, self.machine_events_csv):
            raise ValueError("give profile_csv, or tasks_csv and machine_events_csv")
        if (self.it.p_max is None) == (self.target_total_peak_mw is None):
            raise ValueError("give one of target_total_peak_mw and it.p_max")

    def build(self) -> LoadProfile:
        if self.profile_csv is not None:
            return read_profile_csv(self.profile_csv)
        t1 = self.t0 + 7 * 24 * 3600 if self.t1 is None else self.t1
        # Each trace is binned before the next is read, so that only one is
        # held at a time.
        usage = bin_tasks(read_tasks_csv(self.tasks_csv), self.t0, t1)
        capacity = estimate_capacity(
            read_machine_events_csv(self.machine_events_csv), self.t0, t1
        )
        trace = normalize(usage, capacity)
        if self.target_total_peak_mw is None:
            it = ItPowerParams(self.it.p_max, self.it.idle_fraction)
        else:
            it = calibrate_it_capacity(
                self.target_total_peak_mw, self.chiller, self.ambient,
                idle_fraction=self.it.idle_fraction,
            )
        return build_profile(trace, it, self.chiller, self.ambient, t_start=self.t0)


@dataclass(frozen=True)
class RunConfig:
    """The config document as one record, each section read and checked when
    the record is built. A section left out of `case`, `profile`,
    `configuration` and `scenarios` is None; a JSON null is refused, as no
    hint has a null arm. `specs` holds the scenarios, each `rng_seed`
    defaulting to `seed` plus the entry's index."""

    case: str = None
    profile: ProfileSpec = None
    configuration: sc.Configuration = None
    scenarios: tuple[dict, ...] = None
    simulation: dyn.SimConfig = dyn.SimConfig()
    snapshot_selector: tuple[str | int, ...] = ("median",)
    seed: int = 0
    specs: tuple[sc.ContingencySpec, ...] = field(init=False, default=())

    def __post_init__(self):
        object.__setattr__(self, "specs", tuple(
            read_value(sc.ContingencySpec, {"rng_seed": self.seed + i, **d},
                       f"scenarios[{i}]", ConfigError)
            for i, d in enumerate(self.scenarios or ())
        ))

    def need(self, key: str):
        """The section `key`, which the subcommand cannot run without."""
        if getattr(self, key) is None:
            raise ConfigError(f"config missing '{key}'")
        return getattr(self, key)


def load_config(path: str | None) -> RunConfig:
    """The record of the config file at `path`, or of an empty one."""
    doc = {}
    if path:
        p = Path(path)
        if not p.exists():
            raise ConfigError(f"config file not found: {p}")
        doc = json.loads(p.read_text())
        if not isinstance(doc, dict):
            raise ConfigError(f"{p}: config must be a JSON object")
    return read_value(RunConfig, doc, "", ConfigError)


# -- subcommands -------------------------------------------------------------


def _write_json(path: Path, doc: dict | list) -> None:
    path.write_text(json.dumps(doc, indent=1, sort_keys=True))


def cmd_profile(cfg: RunConfig, out: Path, args) -> int:
    profile = cfg.need("profile").build()
    write_profile_csv(profile, out / "profile.csv")
    summary = {
        "bins": len(profile),
        "peak_total_mw": float(profile.p_total.max()),
        "peak_it_mw": float(profile.p_it.max()),
        "min_total_mw": float(profile.p_total.min()),
        "mean_total_mw": float(profile.p_total.mean()),
    }
    _write_json(out / "profile_summary.json", summary)
    print(f"profile: {summary['bins']} bins, peak {summary['peak_total_mw']:.2f} MW")
    return 0


def cmd_powerflow(cfg: RunConfig, out: Path, args) -> int:
    case = parse_case(cfg.need("case"))
    configuration = cfg.need("configuration")
    profile = None if cfg.profile is None else cfg.profile.build()
    sol = pf.solve(case)
    sweep = None if profile is None else sc.snapshot_sweep(case, profile, configuration)
    # Base-case solution, one row per bus.
    write_csv(
        out / "powerflow_base.csv", ("timestamp_s", "bus", "v_mag", "v_ang_deg"),
        "0,%d,%.9f,%.9f",
        ([b.id for b in case.buses], np.abs(sol.v), np.degrees(np.angle(sol.v))),
    )

    summary = {
        "base_converged": bool(sol.converged),
        "base_iterations": int(sol.iterations),
        "base_slack_p_mw": float(sol.slack_p * case.system_mva_base),
        "base_slack_q_mvar": float(sol.slack_q * case.system_mva_base),
    }
    if sweep is not None:
        write_csv(
            out / "snapshot_sweep.csv",
            ("timestamp_s", "converged", "poi_v_mag", "slack_p_mw", "iterations",
             "max_mismatch_pu", "q_limited"),
            "%.0f,%d,%.9f,%.6f,%d,%.3e,%d",
            (sweep.timestamps, sweep.converged, sweep.poi_v_mag, sweep.slack_p_mw,
             sweep.iterations, sweep.max_mismatch_pu, sweep.q_limited),
        )
        summary["sweep_bins"] = int(len(sweep.timestamps))
        summary["sweep_failed"] = int(sweep.n_failed)
        summary["sweep_max_iterations"] = int(sweep.iterations.max())
    _write_json(out / "powerflow_summary.json", summary)
    print(json.dumps(summary, sort_keys=True))
    return 0 if sol.converged and summary.get("sweep_failed", 0) == 0 else 3


_PLOT_SCRIPT = """\
# gnuplot script: voltage and frequency panels at the point of interconnection
set datafile separator ','
set terminal pngcairo size 900,700
set output '{stem}.png'
set multiplot layout 2,1
set xlabel 't [s]'
set ylabel 'V [pu]'
plot '{csv}' using 1:2 with lines title 'POI voltage'
set ylabel 'freq deviation [Hz]'
plot '{csv}' using 1:3 with lines title 'POI frequency deviation'
unset multiplot
"""


def _write_series(result: dyn.TransientResult, path: Path) -> None:
    """The transient's series as CSV: t_s, then bus_<id>_vmag_pu and
    bus_<id>_fdev_hz for each monitored bus in id order, then smr_pmech_mw
    and bess_p_mw when the IES ran."""
    header, columns = ["t_s"], [result.t]
    for b in sorted(result.v_mag):
        header += [f"bus_{b}_vmag_pu", f"bus_{b}_fdev_hz"]
        columns += [result.v_mag[b], result.freq_dev[b]]
    for name, series in (("smr_pmech_mw", result.smr_p_mech_mw),
                         ("bess_p_mw", result.bess_p_mw)):
        if series is not None:
            header.append(name)
            columns.append(series)
    write_csv(path, header, ",".join(["%.6f"] + ["%.9f"] * (len(columns) - 1)), columns)


def cmd_transient(cfg: RunConfig, out: Path, args) -> int:
    case = parse_case(cfg.need("case"))
    configuration = cfg.need("configuration")
    profile = cfg.need("profile").build()
    simcfg = cfg.simulation
    cfg.need("scenarios")
    runs = sc.study_runs(profile, cfg.specs, cfg.snapshot_selector)
    for scenario_id, (spec, b) in runs.items():
        result = sc.run_contingency(case, profile, b, configuration, spec, simcfg)
        stem = f"{scenario_id}_{configuration.kind}"
        csv_path = out / f"{stem}.csv"
        _write_series(result, csv_path)
        _write_json(out / f"{stem}_events.json", result.event_log)
        metrics = sc.extract_metrics(result, spec.t_apply, configuration.dc_bus)
        _write_json(out / f"{stem}_metrics.json", metrics.__dict__)
        (out / f"{stem}.gp").write_text(_PLOT_SCRIPT.format(stem=stem, csv=csv_path.name))
        if args.dt_check:
            half = replace(simcfg, dt=simcfg.dt / 2)
            res2 = sc.run_contingency(case, profile, b, configuration, spec, half)
            _write_series(res2, out / f"{stem}_halfstep.csv")
            v1 = result.v_mag[configuration.dc_bus]
            v2 = res2.v_mag[configuration.dc_bus][::2]
            dv = float(np.max(np.abs(v1 - v2)))
            print(f"step-halving max |dV| = {dv:.3e} pu")
        print(json.dumps(metrics.__dict__, sort_keys=True))
    return 0


def cmd_compare(cfg: RunConfig, out: Path, args) -> int:
    case = parse_case(cfg.need("case"))
    configuration = cfg.need("configuration")
    profile = cfg.need("profile").build()
    cfg.need("scenarios")
    report = sc.compare(
        case, profile, cfg.specs, cfg.simulation, configuration,
        snapshot_selector=cfg.snapshot_selector, jobs=args.jobs,
    )
    (out / "comparison_report.json").write_text(report.to_json())
    agg = report.aggregate()
    lines = [
        f"{'scenario':<28} {'|f_nadir| delta':>16} {'v_min delta':>12} "
        f"{'t_settle_f delta':>17}"
    ]
    for p in report.pairs:
        d = p.deltas()
        lines.append(
            f"{p.scenario_id:<28} {d['abs_f_nadir']:>16.5f} {d['v_min']:>12.5f} "
            f"{d['t_settle_f']:>17.3f}"
        )
    lines.append(
        f"wins: f_nadir {agg['wins_f_nadir']}/{agg['pairs']}, "
        f"v_min {agg['wins_v_min']}/{agg['pairs']}, "
        f"t_settle_f {agg['wins_t_settle_f']}/{agg['pairs']}"
    )
    table = "\n".join(lines)
    (out / "comparison_summary.txt").write_text(table + "\n")
    print(table)
    return 0 if not report.failed else 3


#: Failures that `main` reports in error.json, `CaseError` and `ScenarioError`
#: among the ValueErrors; numpy overflows on huge config ints, and arrays
#: that do not fit in memory.
HANDLED_ERRORS = (
    ConfigError, TraceError, dyn.SimulationError, pf.SingularJacobianError,
    ValueError, OverflowError, OSError, MemoryError,
)


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(
        prog="smrgrid",
        description="Grid stability toolkit for SMR+BESS backed datacenters",
    )
    parser.add_argument("--config", help="JSON config file")
    parser.add_argument("--out", default="out", help="output directory (default: out)")
    parser.add_argument("--jobs", type=int, default=1, help="concurrent scenario runs")
    sub = parser.add_subparsers(dest="command", required=True)
    sub.add_parser("profile", help="build the datacenter load profile")
    sub.add_parser("powerflow", help="base power flow and snapshot sweep")
    p_tr = sub.add_parser(
        "transient", help="run each scenario's transient at each selected snapshot"
    )
    p_tr.add_argument(
        "--dt-check", action="store_true", help="also run at dt/2 and report the gap"
    )
    sub.add_parser("compare", help="paired grid-only vs IES comparison")
    args = parser.parse_args(argv)

    out = Path(args.out)
    try:
        if args.jobs < 1:
            raise ConfigError(f"--jobs must be >= 1, got {args.jobs}")
        cfg = load_config(args.config)
        out.mkdir(parents=True, exist_ok=True)
        commands = {"profile": cmd_profile, "powerflow": cmd_powerflow,
                    "transient": cmd_transient, "compare": cmd_compare}
        return commands[args.command](cfg, out, args)
    except HANDLED_ERRORS as exc:
        err = {"error": type(exc).__name__, "message": str(exc)}
        print(json.dumps(err, sort_keys=True), file=sys.stderr)
        try:
            out.mkdir(parents=True, exist_ok=True)
            _write_json(out / "error.json", err)
        except OSError:
            pass
        return 2


if __name__ == "__main__":
    sys.exit(main())
