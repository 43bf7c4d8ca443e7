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
from dataclasses import fields, replace
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
    UtilizationTrace,
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
from .network import CaseError, NetworkCase, parse_case


class ConfigError(Exception):
    pass


# Keys of the config document and of its `profile` section; the other
# sections are checked against their dataclasses.
_TOP_KEYS = frozenset({
    "case", "profile", "configuration", "simulation", "scenarios",
    "snapshot_selector", "seed", "jobs", "out_dir",
})
_PROFILE_KEYS = frozenset({
    "profile_csv", "tasks_csv", "machine_events_csv", "t0", "t1",
    "target_total_peak_mw", "it", "chiller", "ambient",
})


def _check_keys(doc: dict, known, ctx: str) -> None:
    bad = set(doc) - known
    if bad:
        raise ConfigError(f"{ctx}: unknown keys {sorted(bad)}")


def _dataclass_from(cls, doc: dict, ctx: str):
    _check_keys(doc, {f.name for f in fields(cls)}, ctx)
    try:
        return cls(**doc)
    except (TypeError, ValueError) as exc:
        raise ConfigError(f"{ctx}: {exc}") from exc


# `configuration.ies` subsection -> (IesSpec field, parameter class).
_IES_PARAMS = {
    "smr": ("smr_params", dyn.SmrParams),
    "smr_machine": ("smr_machine", dyn.MachineParams),
    "bess": ("bess_params", dyn.BessParams),
}


def _ies_from(doc: dict) -> sc.IesSpec:
    _check_keys(doc, {*_IES_PARAMS, "thermal_extraction_factor"}, "configuration.ies")
    spec = {k: v for k, v in doc.items() if k not in _IES_PARAMS}
    for key, (name, cls) in _IES_PARAMS.items():
        if key in doc:
            spec[name] = _dataclass_from(cls, doc[key], f"configuration.ies.{key}")
    return _dataclass_from(sc.IesSpec, spec, "configuration.ies")


def _out_dir(args, doc: dict) -> Path:
    return Path(args.out or os.environ.get("SMRGRID_OUT") or doc.get("out_dir", "out"))


def _tupled(doc: dict) -> dict:
    return {k: tuple(v) if isinstance(v, list) else v for k, v in doc.items()}


class RunConfig:
    """Validated view over the JSON config document."""

    def __init__(self, doc: dict, out_dir: Path, seed: int, jobs: int):
        _check_keys(doc, _TOP_KEYS, "config")
        self.doc = doc
        self.out_dir = out_dir
        self.seed = seed
        self.jobs = jobs

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
        seed = (
            args.seed
            if args.seed is not None
            else int(os.environ.get("SMRGRID_SEED", doc.get("seed", 0)))
        )
        jobs = (
            args.jobs
            if args.jobs is not None
            else int(os.environ.get("SMRGRID_JOBS", doc.get("jobs", 1)))
        )
        return cls(doc, _out_dir(args, doc), seed, jobs)

    # -- section accessors ---------------------------------------------------

    def case(self) -> NetworkCase:
        path = self.doc.get("case")
        if not path:
            raise ConfigError("config missing 'case' path")
        return parse_case(path)

    def profile_section(self) -> dict:
        sec = self.doc.get("profile")
        if not sec:
            raise ConfigError("config missing 'profile' section")
        _check_keys(sec, _PROFILE_KEYS, "profile")
        return sec

    def chiller(self) -> ChillerParams:
        sec = self.doc.get("profile", {}).get("chiller")
        if not sec:
            return DEFAULT_CHILLER
        return _dataclass_from(ChillerParams, _tupled(sec), "profile.chiller")

    def ambient(self) -> AmbientConditions:
        sec = self.doc.get("profile", {}).get("ambient")
        if not sec:
            return AmbientConditions()
        return _dataclass_from(AmbientConditions, sec, "profile.ambient")

    def build_or_read_profile(self) -> LoadProfile:
        sec = self.profile_section()
        if "profile_csv" in sec:
            return read_profile_csv(sec["profile_csv"])
        t0 = float(sec.get("t0", 0.0))
        t1 = float(sec.get("t1", t0 + 7 * 24 * 3600))
        # Each trace is binned before the next is read, so that only one is
        # held at a time.
        usage = bin_tasks(read_tasks_csv(sec["tasks_csv"]), t0, t1)
        capacity = estimate_capacity(
            read_machine_events_csv(sec["machine_events_csv"]), t0, t1
        )
        trace = normalize(usage, capacity)
        chiller = self.chiller()
        ambient = self.ambient()
        if "target_total_peak_mw" in sec:
            # The target sets the IT capacity, so `it` may hold only the
            # idle fraction.
            it_sec = sec.get("it", {})
            _check_keys(it_sec, {"idle_fraction"}, "profile.it")
            it = calibrate_it_capacity(
                float(sec["target_total_peak_mw"]), chiller, ambient,
                idle_fraction=float(it_sec.get("idle_fraction", 0.5)),
            )
        else:
            it = _dataclass_from(ItPowerParams, sec.get("it", {}), "profile.it")
        return build_profile(trace, it, chiller, ambient, t_start=t0)

    def configuration(self) -> sc.Configuration:
        sec = self.doc.get("configuration")
        if not sec:
            raise ConfigError("config missing 'configuration' section")
        sec = dict(sec)
        if sec.get("ies") is None:
            sec.setdefault("kind", "grid_only")
        else:
            sec["ies"] = _ies_from(sec["ies"])
            sec.setdefault("kind", "with_ies")
        return _dataclass_from(sc.Configuration, sec, "configuration")

    def simconfig(self) -> dyn.SimConfig:
        sec = dict(self.doc.get("simulation", {}))
        if "monitor_buses" in sec:
            sec["monitor_buses"] = tuple(sec["monitor_buses"])
        return _dataclass_from(dyn.SimConfig, sec, "simulation")

    def scenarios(self) -> list[sc.ContingencySpec]:
        docs = self.doc.get("scenarios")
        if not docs:
            raise ConfigError("config missing 'scenarios' section")
        out = []
        for i, d in enumerate(docs):
            d = dict(d)
            if "target" in d and isinstance(d["target"], list):
                d["target"] = tuple(d["target"])
            d.setdefault("rng_seed", self.seed + i)
            out.append(_dataclass_from(sc.ContingencySpec, d, f"scenarios[{i}]"))
        return out


# -- subcommands -------------------------------------------------------------


def cmd_profile(cfg: RunConfig) -> int:
    profile = cfg.build_or_read_profile()
    cfg.out_dir.mkdir(parents=True, exist_ok=True)
    write_profile_csv(profile, cfg.out_dir / "profile.csv")
    summary = {
        "bins": len(profile),
        "peak_total_mw": float(profile.p_total.max()),
        "peak_it_mw": float(profile.p_it.max()),
        "min_total_mw": float(profile.p_total.min()),
        "mean_total_mw": float(profile.p_total.mean()),
    }
    (cfg.out_dir / "profile_summary.json").write_text(
        json.dumps(summary, indent=1, sort_keys=True)
    )
    print(f"profile: {summary['bins']} bins, peak {summary['peak_total_mw']:.2f} MW")
    return 0


def cmd_powerflow(cfg: RunConfig) -> int:
    case = cfg.case()
    configuration = cfg.configuration()
    cfg.out_dir.mkdir(parents=True, exist_ok=True)

    # Base-case solution, one row per bus.
    sol = pf.solve(case)
    with open(cfg.out_dir / "powerflow_base.csv", "w", newline="") as fh:
        w = csv.writer(fh)
        w.writerow(["timestamp_s", "bus", "v_mag", "v_ang_deg"])
        for b in case.buses:
            i = case.bus_index(b.id)
            w.writerow(
                ["0", b.id, f"{abs(sol.v[i]):.9f}", f"{np.degrees(np.angle(sol.v[i])):.9f}"]
            )

    summary = {
        "base_converged": bool(sol.converged),
        "base_iterations": int(sol.iterations),
        "base_slack_p_mw": float(sol.slack_p * case.system_mva_base),
        "base_slack_q_mvar": float(sol.slack_q * case.system_mva_base),
    }
    if "profile" in cfg.doc:
        profile = cfg.build_or_read_profile()
        sweep = sc.snapshot_sweep(case, profile, configuration)
        with open(cfg.out_dir / "snapshot_sweep.csv", "w", newline="") as fh:
            w = csv.writer(fh)
            w.writerow(
                ["timestamp_s", "converged", "poi_v_mag", "slack_p_mw", "iterations"]
            )
            for k in range(len(sweep.timestamps)):
                w.writerow(
                    [
                        f"{sweep.timestamps[k]:.0f}",
                        int(sweep.converged[k]),
                        f"{sweep.poi_v_mag[k]:.9f}",
                        f"{sweep.slack_p_mw[k]:.6f}",
                        sweep.iterations[k],
                    ]
                )
        summary["sweep_bins"] = int(len(sweep.timestamps))
        summary["sweep_failed"] = int(sweep.n_failed)
        summary["sweep_max_iterations"] = int(sweep.iterations.max())
    (cfg.out_dir / "powerflow_summary.json").write_text(
        json.dumps(summary, indent=1, sort_keys=True)
    )
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
    case = cfg.case()
    configuration = cfg.configuration()
    profile = cfg.build_or_read_profile()
    simcfg = cfg.simconfig()
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
    (cfg.out_dir / f"{stem}_metrics.json").write_text(
        json.dumps(metrics.__dict__, indent=1, sort_keys=True)
    )
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


def cmd_compare(cfg: RunConfig) -> int:
    case = cfg.case()
    configuration = cfg.configuration()
    profile = cfg.build_or_read_profile()
    simcfg = cfg.simconfig()
    specs = cfg.scenarios()
    selector = tuple(cfg.doc.get("snapshot_selector", ["median"]))
    report = sc.compare(
        case, profile, specs, simcfg, configuration,
        snapshot_selector=selector, jobs=cfg.jobs,
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
        if args.command == "profile":
            return cmd_profile(cfg)
        if args.command == "powerflow":
            return cmd_powerflow(cfg)
        if args.command == "transient":
            return cmd_transient(cfg, args)
        return cmd_compare(cfg)
    except (
        ConfigError,
        CaseError,
        TraceError,
        sc.ScenarioError,
        dyn.SimulationError,
        pf.SingularJacobianError,
        ValueError,
        OSError,
    ) as exc:
        err = {"error": type(exc).__name__, "message": str(exc)}
        print(json.dumps(err, sort_keys=True), file=sys.stderr)
        try:
            # Without a loaded config, resolve the same way minus its out_dir.
            out = cfg.out_dir if cfg is not None else _out_dir(args, {})
            out.mkdir(parents=True, exist_ok=True)
            (out / "error.json").write_text(json.dumps(err, indent=1, sort_keys=True))
        except OSError:
            pass
        return 2


if __name__ == "__main__":
    sys.exit(main())
