"""Batch front door: profile / powerflow / transient / compare subcommands.

A single JSON config file carries all sections; flags override config values
and SMRGRID_* environment variables override flag defaults (documented in the
README). All outputs land under the configured output directory.
"""

from __future__ import annotations

import argparse
import csv
import json
import os
import sys
from dataclasses import dataclass, replace
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


#: Top-level key -> (type, default); a None default marks a required key.
#: A subcommand reads only the keys it uses.
_TOP = {
    "case": (str, None), "profile": (ProfileSpec, None),
    "configuration": (sc.Configuration, None), "scenarios": (tuple[dict, ...], None),
    "simulation": (dyn.SimConfig, dyn.SimConfig()),
    "snapshot_selector": (tuple[str | int, ...], ("median",)),
    "seed": (int, 0), "jobs": (int, 1), "out_dir": (str, "out"),
}


def _top(doc: dict, key: str):
    hint, default = _TOP[key]
    if key not in doc and default is None:
        raise ConfigError(f"config missing '{key}'")
    return read_value(hint, doc[key], key, ConfigError) if key in doc else default


def _setting(args, doc: dict, flag: str):
    """The flag, else the SMRGRID_<FLAG> env var, else the config key or its default."""
    key = "out_dir" if flag == "out" else flag
    name = f"SMRGRID_{flag.upper()}"
    env = os.environ.get(name)
    if getattr(args, flag, None) not in (None, ""):
        return getattr(args, flag)
    if not env:
        return _top(doc, key)
    cast = _TOP[key][0]
    try:
        return cast(env)
    except ValueError:
        raise ConfigError(f"{name}: expected {cast.__name__}, got {env!r}") from None


class RunConfig:
    """The JSON config document; `get` reads a top-level key when it is used."""

    def __init__(self, doc: dict, args=None):
        unknown = set(doc) - set(_TOP)
        if unknown:
            raise ConfigError(f"config: unknown keys {sorted(unknown)}")
        self.doc = doc
        self.out_dir = Path(_setting(args, doc, "out"))
        self.seed = _setting(args, doc, "seed")
        self.jobs = _setting(args, doc, "jobs")

    @classmethod
    def load(cls, args) -> "RunConfig":
        doc = {}
        if args.config:
            p = Path(args.config)
            if not p.exists():
                raise ConfigError(f"config file not found: {p}")
            doc = json.loads(p.read_text())
            if not isinstance(doc, dict):
                raise ConfigError(f"{p}: config must be a JSON object")
        return cls(doc, args)

    def get(self, key: str):
        return _top(self.doc, key)

    def scenarios(self) -> list[sc.ContingencySpec]:
        return [
            read_value(sc.ContingencySpec, {"rng_seed": self.seed + i, **d},
                       f"scenarios[{i}]", ConfigError)
            for i, d in enumerate(self.get("scenarios"))
        ]


# -- subcommands -------------------------------------------------------------


def _write_json(path: Path, doc: dict) -> None:
    path.write_text(json.dumps(doc, indent=1, sort_keys=True))


def cmd_profile(cfg: RunConfig, args) -> int:
    profile = cfg.get("profile").build()
    cfg.out_dir.mkdir(parents=True, exist_ok=True)
    write_profile_csv(profile, cfg.out_dir / "profile.csv")
    summary = {
        "bins": len(profile),
        "peak_total_mw": float(profile.p_total.max()),
        "peak_it_mw": float(profile.p_it.max()),
        "min_total_mw": float(profile.p_total.min()),
        "mean_total_mw": float(profile.p_total.mean()),
    }
    _write_json(cfg.out_dir / "profile_summary.json", summary)
    print(f"profile: {summary['bins']} bins, peak {summary['peak_total_mw']:.2f} MW")
    return 0


def cmd_powerflow(cfg: RunConfig, args) -> int:
    case = parse_case(cfg.get("case"))
    configuration = cfg.get("configuration")
    profile = cfg.get("profile").build() if "profile" in cfg.doc else None
    sol = pf.solve(case)
    sweep = None if profile is None else sc.snapshot_sweep(case, profile, configuration)
    cfg.out_dir.mkdir(parents=True, exist_ok=True)

    # Base-case solution, one row per bus.
    with open(cfg.out_dir / "powerflow_base.csv", "w", newline="") as fh:
        w = csv.writer(fh)
        w.writerow(["timestamp_s", "bus", "v_mag", "v_ang_deg"])
        w.writerows(
            ["0", b.id, f"{abs(v):.9f}", f"{np.degrees(np.angle(v)):.9f}"]
            for b, v in zip(case.buses, sol.v)
        )

    summary = {
        "base_converged": bool(sol.converged),
        "base_iterations": int(sol.iterations),
        "base_slack_p_mw": float(sol.slack_p * case.system_mva_base),
        "base_slack_q_mvar": float(sol.slack_q * case.system_mva_base),
    }
    if sweep is not None:
        with open(cfg.out_dir / "snapshot_sweep.csv", "w", newline="") as fh:
            w = csv.writer(fh)
            w.writerow([
                "timestamp_s", "converged", "poi_v_mag", "slack_p_mw", "iterations",
                "max_mismatch_pu", "q_limited",
            ])
            w.writerows(
                [f"{t:.0f}", int(ok), f"{v:.9f}", f"{p:.6f}", n, f"{m:.3e}", q]
                for t, ok, v, p, n, m, q in zip(
                    sweep.timestamps, sweep.converged, sweep.poi_v_mag,
                    sweep.slack_p_mw, sweep.iterations, sweep.max_mismatch_pu,
                    sweep.q_limited,
                )
            )
        summary["sweep_bins"] = int(len(sweep.timestamps))
        summary["sweep_failed"] = int(sweep.n_failed)
        summary["sweep_max_iterations"] = int(sweep.iterations.max())
    _write_json(cfg.out_dir / "powerflow_summary.json", summary)
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


def cmd_transient(cfg: RunConfig, args) -> int:
    case = parse_case(cfg.get("case"))
    configuration = cfg.get("configuration")
    profile = cfg.get("profile").build()
    simcfg = cfg.get("simulation")
    specs = cfg.scenarios()
    idx = args.scenario
    if not (0 <= idx < len(specs)):
        raise ConfigError(f"scenario index {idx} out of range")
    spec = specs[idx]
    bins = sc.select_snapshot_bins(profile, (args.snapshot,))
    cfg.out_dir.mkdir(parents=True, exist_ok=True)

    result = sc.run_contingency(case, profile, bins[0], configuration, spec, simcfg)
    stem = f"{spec.kind}_s{spec.rng_seed}_{configuration.kind}"
    csv_path = cfg.out_dir / f"{stem}.csv"
    dyn.write_result_csv(result, csv_path)
    dyn.write_event_log(result, cfg.out_dir / f"{stem}_events.json")
    metrics = sc.extract_metrics(result, spec.t_apply, configuration.dc_bus)
    _write_json(cfg.out_dir / f"{stem}_metrics.json", metrics.__dict__)
    (cfg.out_dir / f"{stem}.gp").write_text(
        _PLOT_SCRIPT.format(stem=stem, csv=csv_path.name)
    )
    if args.dt_check:
        half = replace(simcfg, dt=simcfg.dt / 2)
        res2 = sc.run_contingency(case, profile, bins[0], configuration, spec, half)
        dyn.write_result_csv(res2, cfg.out_dir / f"{stem}_halfstep.csv")
        v1 = result.v_mag[configuration.dc_bus]
        v2 = res2.v_mag[configuration.dc_bus][::2]
        dv = float(np.max(np.abs(v1 - v2)))
        print(f"step-halving max |dV| = {dv:.3e} pu")
    print(json.dumps(metrics.__dict__, sort_keys=True))
    return 0


def cmd_compare(cfg: RunConfig, args) -> int:
    case = parse_case(cfg.get("case"))
    configuration = cfg.get("configuration")
    profile = cfg.get("profile").build()
    simcfg = cfg.get("simulation")
    specs = cfg.scenarios()
    report = sc.compare(
        case, profile, specs, simcfg, configuration,
        snapshot_selector=cfg.get("snapshot_selector"), jobs=cfg.jobs,
    )
    cfg.out_dir.mkdir(parents=True, exist_ok=True)
    (cfg.out_dir / "comparison_report.json").write_text(report.to_json())
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
    (cfg.out_dir / "comparison_summary.txt").write_text(table + "\n")
    print(table)
    return 0 if not report.failed else 3


#: Failures that `main` reports in error.json, `CaseError` and `ScenarioError`
#: among the ValueErrors; numpy overflows on huge config ints.
HANDLED_ERRORS = (
    ConfigError, TraceError, dyn.SimulationError, pf.SingularJacobianError,
    ValueError, OverflowError, OSError,
)


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(
        prog="smrgrid",
        description="Grid stability toolkit for SMR+BESS backed datacenters",
    )
    parser.add_argument("--config", help="JSON config file")
    parser.add_argument("--out", help="output directory")
    parser.add_argument("--seed", type=int, default=None, help="base RNG seed")
    parser.add_argument("--jobs", type=int, default=None, help="concurrent scenario runs")
    sub = parser.add_subparsers(dest="command", required=True)
    sub.add_parser("profile", help="build the datacenter load profile")
    sub.add_parser("powerflow", help="base power flow and snapshot sweep")
    p_tr = sub.add_parser("transient", help="run one contingency transient")
    p_tr.add_argument("--scenario", type=int, default=0, help="scenario index")
    p_tr.add_argument(
        "--snapshot", default="median", help="snapshot bin: min|median|max|<index>"
    )
    p_tr.add_argument(
        "--dt-check", action="store_true", help="also run at dt/2 and report the gap"
    )
    sub.add_parser("compare", help="paired grid-only vs IES comparison")
    args = parser.parse_args(argv)

    cfg = None
    try:
        cfg = RunConfig.load(args)
        commands = {"profile": cmd_profile, "powerflow": cmd_powerflow,
                    "transient": cmd_transient, "compare": cmd_compare}
        return commands[args.command](cfg, args)
    except HANDLED_ERRORS as exc:
        err = {"error": type(exc).__name__, "message": str(exc)}
        print(json.dumps(err, sort_keys=True), file=sys.stderr)
        try:
            # Without a loaded config, resolve the same way minus its out_dir.
            out = cfg.out_dir if cfg is not None else Path(_setting(args, {}, "out"))
            out.mkdir(parents=True, exist_ok=True)
            _write_json(out / "error.json", err)
        except OSError:
            pass
        return 2


if __name__ == "__main__":
    sys.exit(main())
