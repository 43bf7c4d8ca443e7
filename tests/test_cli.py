import json

import numpy as np
import pytest
import scipy.sparse as sp

from smrgrid import powerflow as pf
from smrgrid.cli import main


CASE = "src/smrgrid/data/ieee118.json"


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
    config = {
        "case": CASE,
        "profile": {
            "tasks_csv": str(tmp_path / "tasks.csv"),
            "machine_events_csv": str(tmp_path / "machines.csv"),
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
    (tmp_path / "config.json").write_text(json.dumps(config))
    return tmp_path


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


class TestPowerflow:
    def test_base_and_sweep(self, workdir, capsys):
        assert run(workdir, "powerflow") == 0
        base = (workdir / "out/powerflow_base.csv").read_text().splitlines()
        assert len(base) == 1 + 118
        sweep = (workdir / "out/snapshot_sweep.csv").read_text().splitlines()
        assert len(sweep) == 1 + 12
        summary = json.loads((workdir / "out/powerflow_summary.json").read_text())
        assert summary["base_converged"] is True
        assert summary["sweep_failed"] == 0

    def test_singular_jacobian_reports_error(self, workdir, monkeypatch, capsys):
        def singular(case, ybus, v, pv_idx, pq_idx, *rest):
            m = len(pv_idx) + 2 * len(pq_idx)
            return sp.csc_matrix((m, m))

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

    def test_unknown_config_key_rejected(self, workdir, capsys):
        cfg = json.loads((workdir / "config.json").read_text())
        cfg["simulation"]["dtt"] = 0.01
        (workdir / "config.json").write_text(json.dumps(cfg))
        assert run(workdir, "powerflow") == 0  # simulation unused there
        assert run(workdir, "transient") == 2

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
