import csv
import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

from smrgrid import cli
from smrgrid import dynamics as dyn
from smrgrid import network
from smrgrid import powerflow as pf
from smrgrid import scenario as sc
from smrgrid.cli import (
    HANDLED_ERRORS, ConfigError, RunConfig, _write_series, load_config, main,
)
from smrgrid.datacenter import write_profile_csv
from smrgrid.network import CaseError, case_to_dict, parse_case, read_value

from conftest import (
    DELETE, JSON_VALUES, key_paths, make_two_bus, record_ybus_builds, replace_at,
    week_profile, zero_valued,
)


CASE = "src/smrgrid/data/ieee118.json"
README = Path(__file__).resolve().parent.parent / "README.md"
ALL = ("profile", "powerflow", "transient", "compare")
RUNS = ("transient", "compare")  # the subcommands that run the study's scenarios


@pytest.fixture()
def workdir(tmp_path):
    rng = np.random.default_rng(1)
    tasks = ["start_s,end_s,cpu"]
    for _ in range(150):
        s = float(rng.uniform(0, 3000))
        d = float(rng.uniform(60, 600))
        tasks.append(f"{s:.1f},{s + d:.1f},{rng.uniform(0.5, 4):.3f}")
    (tmp_path / "tasks.csv").write_text("\n".join(tasks) + "\n")
    machines = ["t_s,kind,machine_id,capacity"]
    machines += [f"0.0,add,m{i},4.0" for i in range(60)]
    (tmp_path / "machines.csv").write_text("\n".join(machines) + "\n")
    (tmp_path / "config.json").write_text(json.dumps(fixture_config(tmp_path)))
    return tmp_path


def fixture_config(root: Path) -> dict:
    return {
        "case": CASE,
        "profile": {
            "tasks_csv": str(root / "tasks.csv"),
            "machine_events_csv": str(root / "machines.csv"),
            "t0": 0,
            "t1": 3600,
            "target_total_peak_mw": 60.0,
        },
        "configuration": {"kind": "with_ies", "dc_bus": 25, "ies": {}},
        "simulation": {"t_end": 6.0},
        "scenarios": [
            {"kind": "bus_fault", "t_apply": 3.0, "duration": 0.1, "rng_seed": 7}
        ],
        "snapshot_selector": ["max"],
    }


def short_run(workdir, scenarios=None) -> None:
    """Cut the workdir config to a 1 s horizon with its event at 0.5 s, and
    give it `scenarios` if given."""
    cfg = json.loads((workdir / "config.json").read_text())
    cfg["simulation"] = {"t_end": 1.0}
    cfg["scenarios"] = scenarios or [dict(cfg["scenarios"][0], t_apply=0.5)]
    (workdir / "config.json").write_text(json.dumps(cfg))


def bin_of(workdir, label) -> int:
    """The profile bin that the selector `label` picks for workdir's config."""
    profile = load_config(str(workdir / "config.json")).profile.build()
    return sc.select_snapshot_bins(profile, (label,))[0]


def run(workdir, *args, out="out"):
    return main(
        ["--config", str(workdir / "config.json"), "--out", str(workdir / out)]
        + list(args)
    )


class TestProfile:
    def test_writes_profile_and_summary(self, workdir, capsys):
        assert run(workdir, "profile") == 0
        lines = (workdir / "out/profile.csv").read_text().splitlines()
        assert lines[0].startswith("timestamp_s,u,")
        assert len(lines) == 1 + 12  # one hour of 5-minute bins
        summary = json.loads((workdir / "out/profile_summary.json").read_text())
        assert summary["bins"] == 12
        assert 0 < summary["peak_total_mw"] <= 60.0

    def test_target_above_the_cooling_capacity(self, workdir, capsys):
        # 90 MW of total peak needs about 71 MW of IT, which the 80 MW-th
        # chiller bank can cool.
        cfg = json.loads((workdir / "config.json").read_text())
        cfg["profile"]["target_total_peak_mw"] = 90.0
        (workdir / "config.json").write_text(json.dumps(cfg))
        assert run(workdir, "profile") == 0
        summary = json.loads((workdir / "out/profile_summary.json").read_text())
        assert 0 < summary["peak_total_mw"] <= 90.0

    def test_malformed_row_reports_error(self, workdir, capsys):
        tasks = workdir / "tasks.csv"
        tasks.write_text("start_s,end_s,cpu\n0,600,2.5\nbroken,row,here\n")
        assert run(workdir, "profile") == 2
        err = json.loads((workdir / "out/error.json").read_text())
        assert ":3:" in err["message"]

    def test_profile_csv_missing_column_reports_error(self, workdir, capsys):
        rows = ["timestamp_s,u,p_it_mw,q_cool_mwth,p_thermal_mw,p_total_mw",
                "0,0.5,45.0,45.0,1.0,46.0"]
        (workdir / "profile.csv").write_text("\n".join(rows) + "\n")
        cfg = json.loads((workdir / "config.json").read_text())
        cfg["profile"] = {"profile_csv": str(workdir / "profile.csv")}
        (workdir / "config.json").write_text(json.dumps(cfg))
        assert run(workdir, "profile") == 2
        err = json.loads((workdir / "out/error.json").read_text())
        assert err["error"] == "TraceError"
        assert "expected header" in err["message"]

    @pytest.mark.parametrize("command", ["transient", "compare"])
    def test_header_only_profile_csv_reports_error(self, workdir, capsys, command):
        (workdir / "profile.csv").write_text(
            "timestamp_s,u,p_it_mw,q_cool_mwth,n_ch,p_thermal_mw,p_total_mw\n"
        )
        cfg = json.loads((workdir / "config.json").read_text())
        cfg["profile"] = {"profile_csv": str(workdir / "profile.csv")}
        (workdir / "config.json").write_text(json.dumps(cfg))
        assert run(workdir, command) == 2
        err = json.loads((workdir / "out/error.json").read_text())
        assert err == {"error": "ScenarioError", "message": "empty profile"}


class TestPowerflow:
    def test_base_and_sweep(self, workdir, capsys):
        assert run(workdir, "powerflow") == 0
        base = (workdir / "out/powerflow_base.csv").read_text().splitlines()
        assert len(base) == 1 + 118
        sweep = (workdir / "out/snapshot_sweep.csv").read_text().splitlines()
        assert len(sweep) == 1 + 12
        assert sweep[0].split(",") == [
            "timestamp_s", "converged", "poi_v_mag", "slack_p_mw", "iterations",
            "max_mismatch_pu", "q_limited",
        ]
        rows = [line.split(",") for line in sweep[1:]]
        assert all(float(r[5]) <= 1e-6 and int(r[6]) >= 0 for r in rows)
        summary = json.loads((workdir / "out/powerflow_summary.json").read_text())
        assert summary["base_converged"] is True
        assert summary["sweep_failed"] == 0

    def test_one_ybus_for_base_and_sweep(self, workdir, monkeypatch, capsys):
        built = record_ybus_builds(monkeypatch)
        assert run(workdir, "powerflow") == 0
        assert len(built) == 1

    def test_singular_jacobian_reports_error(self, workdir, monkeypatch, capsys):
        real = pf.compute_jacobian

        def singular(*args):
            return zero_valued(real(*args))

        monkeypatch.setattr(pf, "compute_jacobian", singular)
        assert run(workdir, "powerflow") == 2
        err = json.loads((workdir / "out/error.json").read_text())
        assert err["error"] == "SingularJacobianError"


class TestTransient:
    def test_series_metrics_and_plot_script(self, workdir, capsys):
        # The config selects the max bin; each output's stem is the
        # scenario id and the configuration kind.
        assert run(workdir, "transient") == 0
        out = workdir / "out"
        stem = f"bus_fault_s7_bin{bin_of(workdir, 'max')}_with_ies"
        assert sorted(p.name for p in out.iterdir()) == [
            f"{stem}{suffix}" for suffix in (".csv", ".gp", "_events.json", "_metrics.json")
        ]
        header = (out / f"{stem}.csv").read_text().splitlines()[0]
        assert "bus_25_vmag_pu" in header and "bus_25_fdev_hz" in header
        metrics = json.loads((out / f"{stem}_metrics.json").read_text())
        assert metrics["f_nadir_hz"] <= 0.0
        gp = (out / f"{stem}.gp").read_text()
        assert "V [pu]" in gp and "freq deviation" in gp
        assert f"'{stem}.csv'" in gp

    def test_dip_after_apply_time(self, workdir, capsys):
        assert run(workdir, "transient") == 0
        stem = f"bus_fault_s7_bin{bin_of(workdir, 'max')}_with_ies"
        rows = (workdir / f"out/{stem}.csv").read_text().splitlines()
        header = rows[0].split(",")
        it = header.index("t_s")
        iv = header.index("bus_25_vmag_pu")
        data = [r.split(",") for r in rows[1:]]
        pre = [float(r[iv]) for r in data if float(r[it]) < 3.0]
        dip = [float(r[iv]) for r in data if 3.0 <= float(r[it]) < 3.1]
        assert min(dip) < min(pre) - 0.05

    def test_csv_export_layout(self, case118, tmp_path):
        cfg = dyn.SimConfig(dt=0.01, t_end=1.0, monitor_buses=(25,))
        res = dyn.run_transient(case118, pf.solve(case118), None, [], cfg)
        path = tmp_path / "out.csv"
        _write_series(res, path)
        lines = path.read_text().splitlines()
        header = lines[0].split(",")
        assert header[0] == "t_s"
        assert "bus_25_vmag_pu" in header
        assert "bus_25_fdev_hz" in header
        # Device columns appear only when an SMR/BESS is present.
        assert "smr_pmech_mw" not in header
        assert "bess_p_mw" not in header
        assert len(lines) == 1 + len(res.t)

    def test_runs_every_scenario_at_every_selected_bin(self, workdir, capsys):
        scenarios = [
            {"kind": "bus_fault", "t_apply": 0.5, "rng_seed": 7},
            {"kind": "load_step", "t_apply": 0.5, "load_step_mw": 5.0, "rng_seed": 2},
        ]
        short_run(workdir, scenarios)
        cfg = json.loads((workdir / "config.json").read_text())
        cfg["snapshot_selector"] = ["min", "max"]
        (workdir / "config.json").write_text(json.dumps(cfg))
        assert run(workdir, "transient") == 0
        bins = [bin_of(workdir, "min"), bin_of(workdir, "max")]
        assert bins[0] != bins[1]
        stems = [f"{s['kind']}_s{s['rng_seed']}_bin{b}_with_ies"
                 for s in scenarios for b in bins]
        assert sorted(p.name for p in (workdir / "out").glob("*.csv")) == sorted(
            f"{stem}.csv" for stem in stems
        )
        # Each run's series is the one a config of that run alone writes.
        for scenario in scenarios:
            for label, b in zip(("min", "max"), bins):
                cfg.update(scenarios=[scenario], snapshot_selector=[label])
                (workdir / "config.json").write_text(json.dumps(cfg))
                out = f"one_{scenario['kind']}_{label}"
                assert run(workdir, "transient", out=out) == 0
                stem = f"{scenario['kind']}_s{scenario['rng_seed']}_bin{b}_with_ies"
                assert [p.name for p in (workdir / out).glob("*.csv")] == [f"{stem}.csv"]
                assert ((workdir / out / f"{stem}.csv").read_bytes()
                        == (workdir / "out" / f"{stem}.csv").read_bytes())

    def test_run_choice_flags_are_gone(self, workdir, capsys):
        # The config's scenarios and snapshot_selector choose the runs.
        for flag in ("--scenario=0", "--snapshot=max"):
            with pytest.raises(SystemExit) as exc:
                run(workdir, "transient", flag)
            assert exc.value.code == 2
            assert f"unrecognized arguments: {flag}" in capsys.readouterr().err

    @pytest.mark.parametrize("key, value, message", [
        ("freq_filter_tc", 0, "freq_filter_tc must be finite and >= dt"),
        ("freq_filter_tc", 0.002, "freq_filter_tc must be finite and >= dt"),
        ("f_nominal", 0, "f_nominal must be finite and > 0"),
        ("f_nominal", -60, "f_nominal must be finite and > 0"),
    ])
    def test_simulation_settings_that_break_the_run(
        self, workdir, capsys, key, value, message
    ):
        cfg = json.loads((workdir / "config.json").read_text())
        cfg["simulation"][key] = value
        (workdir / "config.json").write_text(json.dumps(cfg))
        assert run(workdir, "transient") == 2
        err = json.loads((workdir / "out/error.json").read_text())
        assert message in err["message"]

    @pytest.mark.parametrize("command", ["transient", "compare"])
    def test_zero_actuator_time_constant_rejected(self, workdir, capsys, command):
        # t_actuator 0 used to end in a ZeroDivisionError traceback.
        cfg = json.loads((workdir / "config.json").read_text())
        cfg["configuration"]["ies"] = {"smr": {"t_actuator": 0}}
        (workdir / "config.json").write_text(json.dumps(cfg))
        assert run(workdir, command) == 2
        assert [p.name for p in (workdir / "out").iterdir()] == ["error.json"]
        err = json.loads((workdir / "out/error.json").read_text())
        assert err == {"error": "ConfigError",
                       "message": "configuration.ies.smr: t_actuator must be > 0"}
        captured = capsys.readouterr()
        assert "Traceback" not in captured.out + captured.err

    @pytest.mark.parametrize("command", ["transient", "compare"])
    def test_huge_horizon_rejected(self, workdir, capsys, command):
        # t_end 1e13 s used to end in a numpy memory-error traceback while
        # allocating the run's per-step states.
        cfg = json.loads((workdir / "config.json").read_text())
        cfg["simulation"]["t_end"] = 1e13
        (workdir / "config.json").write_text(json.dumps(cfg))
        assert run(workdir, command) == 2
        assert [p.name for p in (workdir / "out").iterdir()] == ["error.json"]
        err = json.loads((workdir / "out/error.json").read_text())
        assert err == {"error": "ConfigError",
                       "message": "simulation: t_end must be at most 1000000 dt steps"}
        captured = capsys.readouterr()
        assert "Traceback" not in captured.out + captured.err

    @pytest.mark.parametrize("kind, target, message", [
        ("bus_fault", 999,
         "BusFault3ph(bus=999, fault_admittance=(-0-10000j)) at t=0.5: unknown bus id 999"),
        ("load_step", 999,
         "LoadStep(bus=999, dp_mw=0.0, dq_mvar=0.0) at t=0.5: unknown bus id 999"),
        ("line_trip", [25, 999],
         "LineTrip(from_bus=25, to_bus=999, circuit=0) at t=0.5: unknown bus id 999"),
        ("gen_trip", 999, "GenTrip(bus=999) at t=0.5: unknown bus id 999"),
        ("line_trip", [1, 118], "no in-service branch 1-118 to trip"),
        ("gen_trip", 2, "no active machine at bus 2 to trip"),
    ], ids=["bus_fault", "load_step", "line_trip", "gen_trip", "no_branch", "no_machine"])
    def test_bad_explicit_target_rejected(self, workdir, capsys, kind, target, message):
        # The transient's event compile judges the target, after the
        # snapshot power flow and before the first step.
        short_run(workdir, [{"kind": kind, "target": target, "t_apply": 0.5}])
        assert run(workdir, "transient") == 2
        assert [p.name for p in (workdir / "out").iterdir()] == ["error.json"]
        err = json.loads((workdir / "out/error.json").read_text())
        assert err == {"error": "SimulationError", "message": message}
        captured = capsys.readouterr()
        assert "Traceback" not in captured.out + captured.err

    def test_dt_check(self, tmp_path, capsys):
        # Criterion 6's fault, cut to a 3.5 s horizon.
        write_profile_csv(week_profile(2024), tmp_path / "week.csv")
        config = {
            "case": CASE,
            "profile": {"profile_csv": str(tmp_path / "week.csv")},
            "configuration": {"kind": "with_ies", "dc_bus": 25, "ies": {}},
            "simulation": {"dt": 0.005, "t_end": 3.5, "monitor_buses": [25]},
            "scenarios": [{"kind": "bus_fault", "t_apply": 3.0, "rng_seed": 60}],
        }
        (tmp_path / "config.json").write_text(json.dumps(config))
        assert run(tmp_path, "transient", "--dt-check") == 0
        printed = capsys.readouterr().out.splitlines()[0]
        assert printed.startswith("step-halving max |dV| = ") and printed.endswith(" pu")
        dv = float(printed.split("=")[1].split()[0])

        def poi_voltage(name):
            with open(tmp_path / "out" / name, newline="") as fh:
                return np.array([float(r["bus_25_vmag_pu"]) for r in csv.DictReader(fh)])

        stem = f"bus_fault_s60_bin{bin_of(tmp_path, 'median')}_with_ies"
        full = poi_voltage(f"{stem}.csv")
        half = poi_voltage(f"{stem}_halfstep.csv")
        n = round(3.5 / 0.005)
        assert (len(full), len(half)) == (n + 1, 2 * n + 1)
        # The CSVs hold 9 decimals and the printout 4 significant digits.
        recomputed = np.max(np.abs(full - half[::2]))
        assert abs(dv - recomputed) <= 1e-9 + 5e-4 * dv
        assert 0 < dv <= 1e-4

    def test_dt_check_builds_one_ybus(self, workdir, monkeypatch, capsys):
        short_run(workdir)
        built = record_ybus_builds(monkeypatch)
        assert run(workdir, "transient", "--dt-check") == 0
        assert len(built) == 1

    def test_t_end_off_the_step_grid_rejected(self, workdir, capsys):
        # The dt run would end at 1.01 s and its dt/2 check at 1.0075 s.
        cfg = json.loads((workdir / "config.json").read_text())
        cfg["simulation"] = {"dt": 0.005, "t_end": 1.0075}
        (workdir / "config.json").write_text(json.dumps(cfg))
        assert run(workdir, "transient", "--dt-check") == 2
        assert [p.name for p in (workdir / "out").iterdir()] == ["error.json"]
        err = json.loads((workdir / "out/error.json").read_text())
        assert err == {"error": "ConfigError",
                       "message": "simulation: t_end must be a whole number of dt steps"}


class TestCompare:
    def test_outputs_and_determinism(self, workdir, capsys):
        assert run(workdir, "compare", out="a") == 0
        assert run(workdir, "compare", out="b") == 0
        ra = (workdir / "a/comparison_report.json").read_bytes()
        rb = (workdir / "b/comparison_report.json").read_bytes()
        assert ra == rb
        table = (workdir / "a/comparison_summary.txt").read_text()
        assert "wins:" in table

    def test_scenario_past_the_horizon_fails_only_its_pair(self, workdir, capsys):
        cfg = json.loads((workdir / "config.json").read_text())
        late = {"kind": "load_step", "t_apply": 6.0, "load_step_mw": 10.0}
        cfg["scenarios"].append(late)
        (workdir / "config.json").write_text(json.dumps(cfg))
        assert run(workdir, "compare") == 3
        report = json.loads((workdir / "out/comparison_report.json").read_text())
        assert len(report["pairs"]) == 1
        assert [f["error_type"] for f in report["failed"]] == ["SimulationError"]
        assert report["pairs"][0]["scenario_id"].startswith("bus_fault_")
        assert report["failed"][0]["scenario"].startswith("load_step_")

    def test_one_ybus_and_one_pi_model(self, workdir, monkeypatch, capsys):
        short_run(workdir)
        built = record_ybus_builds(monkeypatch)
        pi_models = []
        real = network.branch_admittances
        monkeypatch.setattr(
            network, "branch_admittances", lambda case: pi_models.append(1) or real(case)
        )
        assert run(workdir, "compare") == 0
        assert (len(built), len(pi_models)) == (1, 1)

    def test_bus_fault_without_candidates_fails_only_its_pair(self, workdir, capsys):
        short_run(workdir, [
            {"kind": "load_step", "t_apply": 0.5, "load_step_mw": 10.0},
            {"kind": "bus_fault", "t_apply": 0.5, "max_distance": 0},
        ])
        assert run(workdir, "compare") == 3
        report = json.loads((workdir / "out/comparison_report.json").read_text())
        assert [p["scenario_id"][:10] for p in report["pairs"]] == ["load_step_"]
        (failed,) = report["failed"]
        assert failed["scenario"].startswith("bus_fault_")
        assert failed["error_type"] == "ScenarioError"
        assert failed["error"] == "no bus-fault candidates near the POI"

    @pytest.mark.parametrize("scenarios, message", [
        ([{"kind": "gen_trip", "target": 25, "t_apply": 0.5}],
         "gen_trip target 25 is the POI, where only the with-IES run has the SMR to trip"),
        ([{"kind": "load_step", "t_apply": 0.5, "rng_seed": 3},
          {"kind": "load_step", "t_apply": 0.5, "load_step_mw": 5.0, "rng_seed": 3}],
         "two runs would have the scenario id load_step_s3_bin"),
    ], ids=["poi_gen_trip", "equal_ids"])
    def test_unpairable_scenarios_rejected(self, workdir, capsys, scenarios, message):
        # Refused before any pair runs: no report, only error.json.
        short_run(workdir, scenarios)
        assert run(workdir, "compare") == 2
        assert [p.name for p in (workdir / "out").iterdir()] == ["error.json"]
        err = json.loads((workdir / "out/error.json").read_text())
        assert err["error"] == "ScenarioError"
        assert err["message"].startswith(message)
        captured = capsys.readouterr()
        assert "Traceback" not in captured.out + captured.err

    def test_missing_ies_rejected(self, workdir, capsys):
        cfg = json.loads((workdir / "config.json").read_text())
        cfg["configuration"] = {"kind": "with_ies", "dc_bus": 25}
        (workdir / "config.json").write_text(json.dumps(cfg))
        assert run(workdir, "compare") == 2
        err = json.loads((workdir / "out/error.json").read_text())
        assert "ies" in err["message"]


class TestConfigHandling:
    def test_missing_config_file(self, tmp_path, capsys):
        assert main(["--config", str(tmp_path / "nope.json"), "--out",
                     str(tmp_path / "out"), "profile"]) == 2

    def test_error_json_goes_to_default_out_dir_when_config_fails(
        self, tmp_path, monkeypatch, capsys
    ):
        monkeypatch.chdir(tmp_path)
        assert main(["--config", str(tmp_path / "nope.json"), "profile"]) == 2
        err = json.loads((tmp_path / "out/error.json").read_text())
        assert err["error"] == "ConfigError"

    @pytest.mark.parametrize("configuration, message", [
        # A POI that is not in the case fails once the run starts.
        ({"kind": "with_ies", "dc_bus": 99999, "ies": {}}, "unknown bus id 99999"),
        # A malformed section leaves the config unread.
        ({"kind": "with_ies", "dc_bus": 25},
         "configuration: with_ies configuration requires an ies section"),
    ], ids=["config-read", "config-unread"])
    def test_error_json_goes_to_the_out_flag(
        self, workdir, monkeypatch, capsys, configuration, message
    ):
        cfg = json.loads((workdir / "config.json").read_text())
        cfg["case"] = str(Path(CASE).resolve())
        cfg["configuration"] = configuration
        (workdir / "config.json").write_text(json.dumps(cfg))
        monkeypatch.chdir(workdir)
        assert run(workdir, "transient", out="flag_out") == 2
        assert [p.name for p in (workdir / "flag_out").iterdir()] == ["error.json"]
        assert not (workdir / "out").exists()
        err = json.loads((workdir / "flag_out/error.json").read_text())
        assert err["message"] == message

    @pytest.mark.parametrize("command", ALL)
    def test_memory_error_reported(self, workdir, monkeypatch, capsys, command):
        # An allocation that does not fit, such as numpy's _ArrayMemoryError.
        def out_of_memory(*args):
            raise MemoryError("cannot allocate 8 PiB")

        monkeypatch.setattr(cli, f"cmd_{command}", out_of_memory)
        assert run(workdir, command) == 2
        assert [p.name for p in (workdir / "out").iterdir()] == ["error.json"]
        err = json.loads((workdir / "out/error.json").read_text())
        assert err == {"error": "MemoryError", "message": "cannot allocate 8 PiB"}
        captured = capsys.readouterr()
        assert "Traceback" not in captured.out + captured.err

    def test_config_not_an_object_reports_error(self, tmp_path, capsys):
        (tmp_path / "list.json").write_text("[1, 2]")
        out = tmp_path / "out"
        assert main(["--config", str(tmp_path / "list.json"), "--out", str(out),
                     "profile"]) == 2
        err = json.loads((out / "error.json").read_text())
        assert err["error"] == "ConfigError"
        assert "JSON object" in err["message"]

    def test_unknown_config_key_rejected(self, workdir, capsys):
        # Every section is read before the run, the ones it does not use too.
        cfg = json.loads((workdir / "config.json").read_text())
        cfg["simulation"]["dtt"] = 0.01
        (workdir / "config.json").write_text(json.dumps(cfg))
        for command in ALL:
            assert run(workdir, command, out=f"out_{command}") == 2, command
            err = json.loads((workdir / f"out_{command}/error.json").read_text())
            assert err == {"error": "ConfigError",
                           "message": "simulation: unknown keys ['dtt']"}, command

    @pytest.mark.parametrize("jobs", [0, -2], ids=["flag-0", "flag-minus-2"])
    @pytest.mark.parametrize("command", ALL)
    def test_jobs_below_one_rejected(self, workdir, capsys, command, jobs):
        # Every subcommand refuses the flag before any work, not only compare.
        assert run(workdir, "--jobs", str(jobs), command) == 2
        assert [p.name for p in (workdir / "out").iterdir()] == ["error.json"]
        err = json.loads((workdir / "out/error.json").read_text())
        assert err == {"error": "ConfigError", "message": f"--jobs must be >= 1, got {jobs}"}

    @pytest.mark.parametrize(
        "section, key",
        [
            ("configuration", "dc_buss"),
            ("ies", "thermal_extraction_factr"),
            ("ies", "smr_rating_mw"),  # the rating is ies.smr.p_max
        ],
    )
    def test_unknown_configuration_key_rejected(self, workdir, capsys, section, key):
        cfg = json.loads((workdir / "config.json").read_text())
        sec = cfg["configuration"]
        (sec if section == "configuration" else sec["ies"])[key] = 40.0
        (workdir / "config.json").write_text(json.dumps(cfg))
        assert run(workdir, "powerflow") == 2
        err = json.loads((workdir / "out/error.json").read_text())
        assert err["error"] == "ConfigError"
        assert key in err["message"]

    @pytest.mark.parametrize(
        "command, path",
        [
            # A typo of t1 used to fall back to a one-week profile.
            ("profile", ("profile", "t_1")),
            # A typo of snapshot_selector used to fall back to the median.
            ("compare", ("snapshot_selecter",)),
            # Beside a target peak, a typo of idle_fraction fell back to 0.5.
            ("profile", ("profile", "it", "idle_frac")),
        ],
    )
    def test_unknown_top_level_or_profile_key_rejected(
        self, workdir, capsys, command, path
    ):
        cfg = json.loads((workdir / "config.json").read_text())
        sec = cfg
        for name in path[:-1]:
            sec = sec.setdefault(name, {})
        sec[path[-1]] = 0.9
        (workdir / "config.json").write_text(json.dumps(cfg))
        assert run(workdir, command) == 2
        err = json.loads((workdir / "out/error.json").read_text())
        assert err["error"] == "ConfigError"
        assert path[-1] in err["message"]
        assert not (workdir / "out/profile.csv").exists()

    @pytest.mark.parametrize(
        "section, key, value",
        [
            ("configuration", "dc_power_factor", "high"),
            ("configuration", "dc_power_factor", 1.5),
            ("ies", "thermal_extraction_factor", "x"),
        ],
    )
    def test_bad_configuration_value_rejected(
        self, workdir, capsys, section, key, value
    ):
        cfg = json.loads((workdir / "config.json").read_text())
        sec = cfg["configuration"]
        (sec if section == "configuration" else sec["ies"])[key] = value
        (workdir / "config.json").write_text(json.dumps(cfg))
        assert run(workdir, "powerflow") == 2
        assert (workdir / "out/error.json").exists()

    def test_readme_minimal_config_parses(self, tmp_path):
        text = README.read_text()
        block = text.split("Minimal config:", 1)[1].split("```json", 1)[1]
        cfg = read_value(RunConfig, json.loads(block.split("```", 1)[0]), "", ConfigError)
        assert cfg.profile.tasks_csv
        assert cfg.configuration.kind == "with_ies"
        assert cfg.configuration.ies is not None
        assert cfg.simulation.t_end > 0
        assert cfg.specs

    def test_it_p_max_sets_the_it_capacity(self, workdir, capsys):
        cfg = json.loads((workdir / "config.json").read_text())
        del cfg["profile"]["target_total_peak_mw"]
        cfg["profile"]["it"] = {"p_max": 40.0, "idle_fraction": 0.25}
        (workdir / "config.json").write_text(json.dumps(cfg))
        assert run(workdir, "profile") == 0
        rows = list(csv.DictReader((workdir / "out/profile.csv").open(newline="")))
        u = np.array([float(r["u"]) for r in rows])
        p_it = np.array([float(r["p_it_mw"]) for r in rows])
        # P_it = p_idle + (p_max - p_idle) u, from columns held to 6 decimals.
        assert np.max(np.abs(p_it - (10.0 + 30.0 * u))) <= 30 * 5e-7 + 5e-7

    @pytest.mark.parametrize("p_max", [40.0, None], ids=["both", "neither"])
    def test_it_capacity_given_once(self, workdir, capsys, p_max):
        cfg = json.loads((workdir / "config.json").read_text())
        if p_max is None:
            del cfg["profile"]["target_total_peak_mw"]
        else:
            cfg["profile"]["it"] = {"p_max": p_max}
        (workdir / "config.json").write_text(json.dumps(cfg))
        assert run(workdir, "profile") == 2
        err = json.loads((workdir / "out/error.json").read_text())
        assert err == {
            "error": "ConfigError",
            "message": "profile: give one of target_total_peak_mw and it.p_max",
        }

    def test_missing_required_key(self, workdir, capsys):
        cfg = json.loads((workdir / "config.json").read_text())
        del cfg["case"]
        (workdir / "config.json").write_text(json.dumps(cfg))
        assert run(workdir, "powerflow") == 2
        err = json.loads((workdir / "out/error.json").read_text())
        assert err == {"error": "ConfigError", "message": "config missing 'case'"}

    @pytest.mark.parametrize("target, message", [
        ("x", 'scenarios[0].target: expected an integer or an array of 2 integers '
              'or null, got "x"'),
        ([1, 2, 3], "scenarios[0].target: expected 2 items, got 3"),
    ])
    def test_malformed_scenario_target(self, workdir, capsys, target, message):
        cfg = json.loads((workdir / "config.json").read_text())
        cfg["scenarios"][0]["target"] = target
        (workdir / "config.json").write_text(json.dumps(cfg))
        assert run(workdir, "transient") == 2
        err = json.loads((workdir / "out/error.json").read_text())
        assert err == {"error": "ConfigError", "message": message}

    def test_output_path_that_is_a_file(self, workdir, capsys):
        # Not even error.json can be written; the error still reaches stderr.
        (workdir / "taken").write_text("")
        assert run(workdir, "profile", out="taken") == 2
        err = json.loads(capsys.readouterr().err)
        assert err["error"] == "FileExistsError"
        assert (workdir / "taken").read_text() == ""

    def test_config_seed_seeds_the_scenarios(self, workdir, capsys):
        cfg = json.loads((workdir / "config.json").read_text())
        del cfg["scenarios"][0]["rng_seed"]
        cfg["seed"] = 5
        (workdir / "config.json").write_text(json.dumps(cfg))
        assert run(workdir, "transient") == 0
        assert (workdir / f"out/bus_fault_s5_bin{bin_of(workdir, 'max')}_with_ies.csv").exists()
        # The seed has one source, the config file.
        with pytest.raises(SystemExit) as exc:
            run(workdir, "--seed=99", "transient")
        assert exc.value.code == 2
        assert "unrecognized arguments: --seed=99" in capsys.readouterr().err

    @pytest.mark.parametrize("seed", [None, 5])
    def test_config_seed_seeds_the_specs(self, tmp_path, seed):
        doc = fixture_config(tmp_path)
        doc["scenarios"].append({"kind": "load_step"})
        if seed is not None:
            doc["seed"] = seed
        (tmp_path / "config.json").write_text(json.dumps(doc))
        cfg = load_config(str(tmp_path / "config.json"))
        # An entry without its own rng_seed takes the seed plus its index.
        assert [s.rng_seed for s in cfg.specs] == [7, (seed or 0) + 1]

    @pytest.mark.parametrize("key, value", [("out_dir", "o"), ("jobs", 2)])
    def test_run_settings_are_no_config_keys(self, workdir, capsys, key, value):
        # Where outputs land and how many pairs run at once are flags only.
        cfg = json.loads((workdir / "config.json").read_text())
        cfg[key] = value
        (workdir / "config.json").write_text(json.dumps(cfg))
        assert run(workdir, "compare") == 2
        assert [p.name for p in (workdir / "out").iterdir()] == ["error.json"]
        err = json.loads((workdir / "out/error.json").read_text())
        assert err == {"error": "ConfigError", "message": f"unknown keys ['{key}']"}

    def test_negative_seed_rejected_before_any_work(self, workdir, capsys):
        cfg = json.loads((workdir / "config.json").read_text())
        cfg["scenarios"].insert(0, {"kind": "load_step", "load_step_mw": 5.0})
        cfg["seed"] = -1
        (workdir / "config.json").write_text(json.dumps(cfg))
        assert run(workdir, "compare") == 2
        assert [p.name for p in (workdir / "out").iterdir()] == ["error.json"]
        err = json.loads((workdir / "out/error.json").read_text())
        assert err == {"error": "ConfigError",
                       "message": "scenarios[0]: rng_seed must be >= 0"}


def _malformed_cases():
    """(key path, new value or DELETE, subcommands, fragments of the error).
    Every section is read before any subcommand runs, so a section that a
    subcommand does not use fails it too."""
    table = [
        (("profile",), 5, ALL, ["profile: expected an object (ProfileSpec), got 5"]),
        # An absent section is None in the record; a JSON null is still refused.
        (("profile",), None, ALL, ["profile: expected an object (ProfileSpec), got null"]),
        (("case",), None, ALL, ["case: expected a string, got null"]),
        (("profile", "it"), 5, ALL, ["profile.it"]),
        (("profile", "chiller"), 5, ALL, ["profile.chiller"]),
        (("profile", "t0"), [1], ALL, ["profile.t0"]),
        (("profile", "tasks_csv"), DELETE, ALL, ["profile", "tasks_csv"]),
        (("configuration",), 5, ALL, ["configuration"]),
        (("configuration", "ies"), 5, ALL, ["configuration.ies"]),
        (("configuration", "ies", "smr"), 5, ALL, ["configuration.ies.smr"]),
        # The steam path is constants in dynamics, as no output depends on it.
        *[(("configuration", "ies", "smr"), {key: 0.9}, ALL,
           [f"configuration.ies.smr: unknown keys ['{key}']"])
          for key in ("eta_t", "dh_hp", "dh_lp", "hp_fraction")],
        (("simulation",), 5, ALL, ["simulation"]),
        (("simulation", "monitor_buses"), 5, ALL, ["simulation.monitor_buses"]),
        (("scenarios",), 5, ALL, ["scenarios"]),
        (("scenarios",), [5], ALL, ["scenarios[0]"]),
        (("scenarios", 0, "fault_admittance"), [0, -1e4], ALL,
         ["scenarios[0].fault_admittance"]),
        (("seed",), [1], ALL, ["seed"]),
        # A run setting is no key: it is a flag only.
        (("jobs",), None, ALL, ["unknown keys ['jobs']"]),
        (("case",), 5, ALL, ["case"]),
        (("snapshot_selector",), 5, ALL, ["snapshot_selector"]),
        (("profile", "tasks_csv"), 0, ALL, ["profile.tasks_csv"]),
        # An explicit snapshot index must lie in the profile's 12 bins.
        (("snapshot_selector",), [99999], RUNS, ["snapshot_selector", "99999"]),
        (("snapshot_selector",), [-1], RUNS, ["snapshot_selector", "-1"]),
        (("snapshot_selector",), [], RUNS, ["empty snapshot_selector"]),
        # An Arabic-Indic one is a decimal to str.isdecimal, but no bin index.
        (("snapshot_selector",), ["\u0661"], RUNS, ["snapshot_selector", "\u0661"]),
        # A POI that is not in the case fails in compare as in powerflow.
        (("configuration", "dc_bus"), 99999, ("powerflow", "compare"),
         ["unknown bus id 99999"]),
        # The target's shape must suit the contingency kind.
        (("scenarios", 0, "target"), [24, 26], ALL, ["scenarios[0]", "target"]),
        (("scenarios", 0), {"kind": "line_trip", "target": 24}, ALL,
         ["scenarios[0]", "target"]),
    ]
    for path, value, commands, fragments in table:
        for command in commands:
            key = ".".join(map(str, path))
            shown = "del" if value is DELETE else json.dumps(value)
            yield pytest.param(
                path, value, [command], fragments, id=f"{command}-{key}={shown}"
            )


@pytest.fixture()
def stdin_at_eof():
    """fd 0 reads as /dev/null, so that a CLI reading stdin gets nothing
    rather than the terminal or the runner's pipe."""
    saved = os.dup(0)
    null = os.open(os.devnull, os.O_RDONLY)
    os.dup2(null, 0)
    os.close(null)
    yield
    os.dup2(saved, 0)
    os.close(saved)


@pytest.mark.parametrize("path, value, argv, fragments", _malformed_cases())
def test_malformed_config_reports_error(
    workdir, stdin_at_eof, capsys, path, value, argv, fragments
):
    cfg = json.loads((workdir / "config.json").read_text())
    if path:
        replace_at(cfg, path, value)
    (workdir / "config.json").write_text(json.dumps(cfg))
    assert run(workdir, *argv) == 2
    # Every section is read before any output is written.
    assert [p.name for p in (workdir / "out").iterdir()] == ["error.json"]
    err = json.loads((workdir / "out/error.json").read_text())
    for fragment in fragments:
        assert fragment in err["message"]
    captured = capsys.readouterr()
    assert "Traceback" not in captured.out + captured.err


#: Malformed case documents: (key path in the two-bus case, new value,
#: fragments of the error).
MALFORMED_CASES = [
    (("buses", 1, "v_mag"), None, ["buses[1].v_mag"]),
    (("buses",), 5, ["buses: expected an array of Bus objects, got 5"]),
    (("buses",), [5], ["buses[0]: expected an object (Bus), got 5"]),
    # A boolean is a JSON boolean, not a string.
    (("generators", 0, "status"), "false", ["generators[0].status"]),
    # A misspelt key is an error, not a load of 0 MW.
    (("buses", 1, "p_laod"), 50, ["buses[1]", "p_laod"]),
    # An id is an integer, not a number to truncate.
    (("buses", 0, "id"), 1.9, ["buses[0].id"]),
    (("buses", 1, "v_mag"), float("nan"), ["buses[1].v_mag"]),
    (("system_mva_base",), "100", ["system_mva_base"]),
    # A kind is one of the exact lowercase values.
    (("buses", 0, "kind"), "SLACK", ["buses[0].kind"]),
]


@pytest.mark.parametrize(
    "path, value, fragments", MALFORMED_CASES,
    ids=[f"{'.'.join(map(str, p))}={json.dumps(v)}" for p, v, _ in MALFORMED_CASES],
)
def test_malformed_case_reports_error(tmp_path, capsys, path, value, fragments):
    doc = case_to_dict(make_two_bus())
    replace_at(doc, path, value)
    case_path = tmp_path / "case.json"
    case_path.write_text(json.dumps(doc))
    with pytest.raises(CaseError) as exc:
        parse_case(case_path)
    for fragment in [str(case_path)] + fragments:
        assert fragment in str(exc.value)

    (tmp_path / "config.json").write_text(
        json.dumps({"case": str(case_path), "configuration": {"kind": "grid_only"}})
    )
    out = tmp_path / "out"
    argv = ["--config", str(tmp_path / "config.json"), "--out", str(out), "powerflow"]
    assert main(argv) == 2
    assert [p.name for p in out.iterdir()] == ["error.json"]
    err = json.loads((out / "error.json").read_text())
    assert err["error"] == "CaseError"
    for fragment in [str(case_path)] + fragments:
        assert fragment in err["message"]
    captured = capsys.readouterr()
    assert "Traceback" not in captured.out + captured.err


_FIXTURE = fixture_config(Path("data"))


@settings(max_examples=200, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(path=st.sampled_from(sorted(key_paths(_FIXTURE), key=repr)), value=JSON_VALUES)
def test_any_replaced_value_raises_only_handled_errors(path, value):
    doc = json.loads(json.dumps(_FIXTURE))
    replace_at(doc, path, value)
    try:
        read_value(RunConfig, doc, "", ConfigError)
    except HANDLED_ERRORS:
        pass


def test_cli_import_loads_no_scipy():
    # numpy is the only runtime dependency, so importing the CLI must not
    # load scipy.
    src = Path(__import__("smrgrid").__file__).resolve().parent.parent
    # Nor must parsing a case, which builds its dense Y-bus with numpy.
    probe = (
        "import sys, smrgrid.cli; smrgrid.load_ieee118(); "
        "print(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'))"
    )
    env = dict(os.environ, PYTHONPATH=str(src))
    done = subprocess.run(
        [sys.executable, "-c", probe], env=env, capture_output=True, text=True,
        check=True, timeout=60,
    )
    assert done.stdout.strip() == "[]"


def test_powerflow_and_transient_load_no_scipy_or_numpy_ma(workdir):
    # The Y-bus, the Newton step's Jacobian inverses and the transient's
    # network LU are numpy's, so a power flow with its profile sweep, a
    # transient and a compare run load no scipy module at all. Nor do they
    # load numpy.ma, which np.unique and np.union1d import.
    short_run(workdir)
    src = Path(__import__("smrgrid").__file__).resolve().parent.parent
    args = ["--config", str(workdir / "config.json"), "--out", str(workdir / "out")]
    probe = (
        "import sys; from smrgrid.cli import main; "
        f"codes = [main({args!r} + [cmd]) for cmd in ('powerflow', 'transient', 'compare')]; "
        "print(codes, sorted(m for m in sys.modules"
        " if m.split('.')[0] == 'scipy' or m.split('.')[:2] == ['numpy', 'ma']))"
    )
    env = dict(os.environ, PYTHONPATH=str(src))
    done = subprocess.run(
        [sys.executable, "-c", probe], env=env, cwd=src.parent, capture_output=True,
        text=True, check=True, timeout=120,
    )
    assert done.stdout.strip().splitlines()[-1] == "[0, 0, 0] []"
    sweep = (workdir / "out" / "snapshot_sweep.csv").read_text().splitlines()
    assert len(sweep) > 2  # a header and more than one profile bin
