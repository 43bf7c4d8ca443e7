import argparse
import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

from smrgrid import powerflow as pf
from smrgrid.cli import HANDLED_ERRORS, RunConfig, main
from smrgrid.network import CaseError, case_to_dict, parse_case

from conftest import (
    DELETE, JSON_VALUES, key_paths, make_two_bus, replace_at, zero_valued,
)


CASE = "src/smrgrid/data/ieee118.json"
README = Path(__file__).resolve().parent.parent / "README.md"


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
        assert run(workdir, "transient", "--snapshot", "max") == 0
        out = workdir / "out"
        csvs = list(out.glob("bus_fault_s7_with_ies.csv"))
        assert csvs
        header = csvs[0].read_text().splitlines()[0]
        assert "bus_25_vmag_pu" in header and "bus_25_fdev_hz" in header
        metrics = json.loads(
            (out / "bus_fault_s7_with_ies_metrics.json").read_text()
        )
        assert metrics["f_nadir_hz"] <= 0.0
        gp = (out / "bus_fault_s7_with_ies.gp").read_text()
        assert "V [pu]" in gp and "freq deviation" in gp

    def test_dip_after_apply_time(self, workdir, capsys):
        assert run(workdir, "transient", "--snapshot", "max") == 0
        rows = (workdir / "out/bus_fault_s7_with_ies.csv").read_text().splitlines()
        header = rows[0].split(",")
        it = header.index("t_s")
        iv = header.index("bus_25_vmag_pu")
        data = [r.split(",") for r in rows[1:]]
        pre = [float(r[iv]) for r in data if float(r[it]) < 3.0]
        dip = [float(r[iv]) for r in data if 3.0 <= float(r[it]) < 3.1]
        assert min(dip) < min(pre) - 0.05

    def test_bad_scenario_index(self, workdir, capsys):
        assert run(workdir, "transient", "--scenario", "5") == 2


class TestCompare:
    def test_outputs_and_determinism(self, workdir, capsys):
        assert run(workdir, "compare", out="a") == 0
        assert run(workdir, "compare", out="b") == 0
        ra = (workdir / "a/comparison_report.json").read_bytes()
        rb = (workdir / "b/comparison_report.json").read_bytes()
        assert ra == rb
        table = (workdir / "a/comparison_summary.txt").read_text()
        assert "wins:" in table

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

    def test_error_json_goes_to_env_out_dir_when_config_fails(
        self, tmp_path, monkeypatch, capsys
    ):
        monkeypatch.chdir(tmp_path)
        monkeypatch.setenv("SMRGRID_OUT", str(tmp_path / "env_out"))
        assert main(["--config", str(tmp_path / "nope.json"), "profile"]) == 2
        err = json.loads((tmp_path / "env_out/error.json").read_text())
        assert err["error"] == "ConfigError"
        assert not (tmp_path / "out").exists()

    def test_error_json_goes_to_config_out_dir(self, workdir, monkeypatch, capsys):
        monkeypatch.chdir(workdir)
        monkeypatch.delenv("SMRGRID_OUT", raising=False)
        cfg = json.loads((workdir / "config.json").read_text())
        cfg["out_dir"] = str(workdir / "cfg_out")
        cfg["configuration"] = {"kind": "with_ies", "dc_bus": 25}
        (workdir / "config.json").write_text(json.dumps(cfg))
        assert main(["--config", str(workdir / "config.json"), "compare"]) == 2
        assert (workdir / "cfg_out/error.json").exists()
        assert not (workdir / "out").exists()

    def test_config_not_an_object_reports_error(self, tmp_path, capsys):
        (tmp_path / "list.json").write_text("[1, 2]")
        out = tmp_path / "out"
        assert main(["--config", str(tmp_path / "list.json"), "--out", str(out),
                     "profile"]) == 2
        err = json.loads((out / "error.json").read_text())
        assert err["error"] == "ConfigError"
        assert "JSON object" in err["message"]

    def test_unknown_config_key_rejected(self, workdir, capsys):
        cfg = json.loads((workdir / "config.json").read_text())
        cfg["simulation"]["dtt"] = 0.01
        (workdir / "config.json").write_text(json.dumps(cfg))
        assert run(workdir, "powerflow") == 0  # simulation unused there
        assert run(workdir, "transient") == 2

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
        cfg = RunConfig(json.loads(block.split("```", 1)[0]))
        assert cfg.get("profile").tasks_csv
        configuration = cfg.get("configuration")
        assert configuration.kind == "with_ies"
        assert configuration.ies is not None
        assert cfg.get("simulation").t_end > 0
        assert cfg.scenarios()

    def test_env_seed_override(self, workdir, monkeypatch, capsys):
        cfg = json.loads((workdir / "config.json").read_text())
        del cfg["scenarios"][0]["rng_seed"]
        (workdir / "config.json").write_text(json.dumps(cfg))
        monkeypatch.setenv("SMRGRID_SEED", "99")
        assert main(
            ["--config", str(workdir / "config.json"),
             "--out", str(workdir / "out"), "transient", "--snapshot", "max"]
        ) == 0
        assert (workdir / "out/bus_fault_s99_with_ies.csv").exists()


ALL = ("profile", "powerflow", "transient", "compare")


def _malformed_cases():
    """(key path, new value or DELETE, subcommands, fragments of the error,
    environment)."""
    table = [
        (("profile",), 5, ALL, ["profile: expected an object (ProfileSpec), got 5"]),
        (("profile", "it"), 5, ALL, ["profile.it"]),
        (("profile", "chiller"), 5, ALL, ["profile.chiller"]),
        (("profile", "t0"), [1], ALL, ["profile.t0"]),
        (("profile", "tasks_csv"), DELETE, ALL, ["profile", "tasks_csv"]),
        (("configuration",), 5, ("powerflow", "compare"), ["configuration"]),
        (("configuration", "ies"), 5, ("powerflow", "compare"), ["configuration.ies"]),
        (("configuration", "ies", "smr"), 5, ("powerflow", "compare"),
         ["configuration.ies.smr"]),
        (("simulation",), 5, ("compare",), ["simulation"]),
        (("simulation", "monitor_buses"), 5, ("compare",), ["simulation.monitor_buses"]),
        (("scenarios",), 5, ("compare",), ["scenarios"]),
        (("scenarios",), [5], ("compare",), ["scenarios[0]"]),
        (("scenarios", 0, "fault_admittance"), [0, -1e4], ("compare",),
         ["scenarios[0].fault_admittance"]),
        (("seed",), [1], ALL, ["seed"]),
        (("jobs",), None, ALL, ["jobs"]),
        (("case",), 5, ("powerflow", "compare"), ["case"]),
        (("snapshot_selector",), 5, ("compare",), ["snapshot_selector"]),
        (("profile", "tasks_csv"), 0, ("profile",), ["profile.tasks_csv"]),
        # An explicit snapshot index must lie in the profile's 12 bins.
        (("snapshot_selector",), [99999], ("compare",), ["snapshot_selector", "99999"]),
        (("snapshot_selector",), [-1], ("compare",), ["snapshot_selector", "-1"]),
        # A POI that is not in the case fails in compare as in powerflow.
        (("configuration", "dc_bus"), 99999, ("powerflow", "compare"),
         ["unknown bus id 99999"]),
        # The target's shape must suit the contingency kind.
        (("scenarios", 0, "target"), [24, 26], ("compare",), ["scenarios[0]", "target"]),
        (("scenarios", 0), {"kind": "line_trip", "target": 24}, ("compare",),
         ["scenarios[0]", "target"]),
    ]
    for path, value, commands, fragments in table:
        for command in commands:
            key = ".".join(map(str, path))
            shown = "del" if value is DELETE else json.dumps(value)
            yield pytest.param(
                path, value, [command], fragments, {}, id=f"{command}-{key}={shown}"
            )
    for index in ("99999", "-1"):
        yield pytest.param(
            (), DELETE, ["transient", "--snapshot", index], ["snapshot_selector", index],
            {}, id=f"transient---snapshot-{index}",
        )
    for name, value in (("SMRGRID_SEED", "x"), ("SMRGRID_JOBS", "1.5")):
        yield pytest.param(
            (), DELETE, ["profile"], [name, value], {name: value},
            id=f"profile-{name}={value}",
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


@pytest.mark.parametrize("path, value, argv, fragments, env", _malformed_cases())
def test_malformed_config_reports_error(
    workdir, stdin_at_eof, capsys, monkeypatch, path, value, argv, fragments, env
):
    for name, setting in env.items():
        monkeypatch.setenv(name, setting)
    cfg = json.loads((workdir / "config.json").read_text())
    if path:
        replace_at(cfg, path, value)
    (workdir / "config.json").write_text(json.dumps(cfg))
    assert run(workdir, *argv) == 2
    # Every section the subcommand uses is read before any output is written.
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
    args = argparse.Namespace(out="out", seed=None, jobs=None)
    try:
        cfg = RunConfig(doc, args)
        for key in ("case", "profile", "configuration", "simulation",
                    "snapshot_selector"):
            cfg.get(key)
        cfg.scenarios()
    except HANDLED_ERRORS:
        pass


def test_cli_import_loads_no_scipy():
    # `smrgrid profile` needs no scipy, so importing the CLI must not load
    # it; power flow and dynamics import it where they build or factor.
    src = Path(__import__("smrgrid").__file__).resolve().parent.parent
    probe = (
        "import sys, smrgrid.cli; "
        "print(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'))"
    )
    env = dict(os.environ, PYTHONPATH=str(src))
    done = subprocess.run(
        [sys.executable, "-c", probe], env=env, capture_output=True, text=True,
        check=True, timeout=60,
    )
    assert done.stdout.strip() == "[]"
