import json

import numpy as np
import pytest
import scipy.sparse as sp

from smrgrid import dynamics as dyn
from smrgrid import powerflow as pf
from smrgrid.datacenter import (
    ItPowerParams,
    UtilizationTrace,
    build_profile,
    calibrate_it_capacity,
)
from smrgrid.powerflow import solve
from smrgrid.scenario import (
    Configuration,
    ContingencySpec,
    IesSpec,
    ScenarioError,
    compare,
    electrical_neighborhood,
    extract_metrics,
    resolve_events,
    run_contingency,
    select_snapshot_bins,
    snapshot_case,
    snapshot_sweep,
)

from conftest import make_two_bus


def synthetic_result(freq, v=None, dt=0.005, bus=25):
    n = len(freq)
    t = dt * np.arange(n)
    if v is None:
        v = np.ones(n)
    return dyn.TransientResult(
        t=t,
        v_mag={bus: np.asarray(v, dtype=float)},
        freq_dev={bus: np.asarray(freq, dtype=float)},
        smr_p_mech_mw=None,
        bess_p_mw=None,
        event_log=[],
        max_state_drift=0.0,
    )


@pytest.fixture(scope="module")
def small_profile():
    u = np.array([0.0, 0.2, 0.5, 0.8, 1.0, 0.6])
    it = calibrate_it_capacity(60.0)
    return build_profile(UtilizationTrace(u=u), it)


@pytest.fixture(scope="module")
def ies_config():
    return Configuration(kind="with_ies", dc_bus=25, ies=IesSpec())


class TestConfiguration:
    def test_with_ies_requires_section(self):
        with pytest.raises(ScenarioError):
            Configuration(kind="with_ies", dc_bus=25)

    def test_unknown_kind(self):
        with pytest.raises(ScenarioError):
            Configuration(kind="islanded", dc_bus=25)

    def test_reactive_power_from_power_factor(self):
        cfg = Configuration(kind="grid_only", dc_bus=25, dc_power_factor=0.98)
        q = cfg.q_for(60.0)
        assert q == pytest.approx(60.0 * np.tan(np.arccos(0.98)))


class TestSnapshot:
    def test_grid_only_adds_full_load(self, case118):
        cfg = Configuration(kind="grid_only", dc_bus=25)
        snap, dispatch = snapshot_case(case118, cfg, 60.0)
        assert dispatch == 0.0
        assert snap.bus(25).p_load == pytest.approx(case118.bus(25).p_load + 60.0)

    def test_ies_nets_smr_dispatch(self, case118, ies_config):
        snap, dispatch = snapshot_case(case118, ies_config, 60.0)
        assert dispatch == pytest.approx(50.0)  # capped at the SMR rating
        assert snap.bus(25).p_load == pytest.approx(
            case118.bus(25).p_load + 10.0
        )

    def test_sweep_zero_load_equals_base(self, case118):
        cfg = Configuration(kind="grid_only", dc_bus=25)
        profile = build_profile(
            UtilizationTrace(u=np.zeros(3)), ItPowerParams(p_max=1e-6)
        )
        sweep = snapshot_sweep(case118, profile, cfg)
        base = solve(case118)
        assert np.all(sweep.converged)
        assert np.allclose(
            sweep.poi_v_mag, abs(base.v[case118.bus_index(25)]), atol=1e-6
        )

    def test_sweep_records_all_bins(self, case118, small_profile, ies_config):
        sweep = snapshot_sweep(case118, small_profile, ies_config)
        assert len(sweep.timestamps) == len(small_profile)
        assert np.all(sweep.converged)
        assert sweep.n_failed == 0

    def test_sweep_records_singular_jacobian_and_continues(
        self, case118, small_profile, monkeypatch
    ):
        real = pf.compute_jacobian
        calls = []

        def singular_first(case, ybus, v, pv_idx, pq_idx, *rest):
            calls.append(1)
            if len(calls) == 1:
                m = len(pv_idx) + 2 * len(pq_idx)
                return sp.csc_matrix((m, m))
            return real(case, ybus, v, pv_idx, pq_idx, *rest)

        monkeypatch.setattr(pf, "compute_jacobian", singular_first)
        sweep = snapshot_sweep(
            case118, small_profile, Configuration(kind="grid_only", dc_bus=25)
        )
        assert sweep.converged.tolist() == [False] + [True] * (len(small_profile) - 1)
        assert np.isnan(sweep.poi_v_mag[0]) and np.isnan(sweep.slack_p_mw[0])

    def test_ies_netting_relieves_the_grid(self, case118, small_profile):
        base = solve(case118)
        v_base = abs(base.v[case118.bus_index(25)])
        grid = snapshot_sweep(
            case118, small_profile, Configuration(kind="grid_only", dc_bus=25)
        )
        ies = snapshot_sweep(
            case118, small_profile, Configuration(kind="with_ies", dc_bus=25,
                                                  ies=IesSpec())
        )
        k = int(np.argmax(small_profile.p_total))
        # The POI is a voltage-controlled bus, so its magnitude is pinned in
        # both configurations; the netting shows up as reduced grid supply.
        assert abs(ies.poi_v_mag[k] - v_base) <= abs(grid.poi_v_mag[k] - v_base) + 1e-12
        assert ies.slack_p_mw[k] < grid.slack_p_mw[k] - 10.0


class TestNeighborhood:
    def test_chain_hops(self):
        case = make_two_bus()
        assert electrical_neighborhood(case, 1, 0) == {1}
        assert electrical_neighborhood(case, 1, 1) == {1, 2}

    def test_118_bus_grows_with_distance(self, case118):
        n1 = electrical_neighborhood(case118, 25, 1)
        n3 = electrical_neighborhood(case118, 25, 3)
        assert 25 in n1
        assert n1 < n3


class TestResolveEvents:
    def test_bus_fault_structure(self, case118, ies_config):
        spec = ContingencySpec(kind="bus_fault", rng_seed=3)
        events = resolve_events(case118, ies_config, spec)
        assert len(events) == 2
        assert isinstance(events[0].kind, dyn.BusFault3ph)
        assert isinstance(events[1].kind, dyn.ClearFault)
        assert events[0].t == pytest.approx(3.0)
        assert events[1].t == pytest.approx(3.1)
        assert events[0].kind.bus != 25  # never the POI itself

    def test_same_seed_same_events(self, case118, ies_config):
        spec = ContingencySpec(kind="bus_fault", rng_seed=9)
        a = resolve_events(case118, ies_config, spec)
        b = resolve_events(case118, ies_config, spec)
        assert a == b

    def test_explicit_target_respected(self, case118, ies_config):
        spec = ContingencySpec(kind="bus_fault", target=23, rng_seed=0)
        events = resolve_events(case118, ies_config, spec)
        assert events[0].kind.bus == 23

    def test_gen_trip_avoids_slack_and_poi(self, case118, ies_config):
        slack_id = case118.buses[case118.slack_index].id
        for seed in range(8):
            spec = ContingencySpec(kind="gen_trip", rng_seed=seed, max_distance=4)
            (event,) = resolve_events(case118, ies_config, spec)
            assert event.kind.bus not in (25, slack_id)

    def test_line_trip_targets_near_poi(self, case118, ies_config):
        spec = ContingencySpec(kind="line_trip", rng_seed=5)
        (event,) = resolve_events(case118, ies_config, spec)
        near = electrical_neighborhood(case118, 25, spec.max_distance)
        assert event.kind.from_bus in near and event.kind.to_bus in near


class TestMetrics:
    def test_flat_series(self):
        res = synthetic_result(np.zeros(2000))
        m = extract_metrics(res, t_apply=3.0, poi_bus=25)
        assert m.f_nadir_hz == 0.0
        assert m.f_peak_hz == 0.0
        assert m.t_settle_f == pytest.approx(3.0)
        assert m.f_settled and m.v_settled

    def test_damped_sinusoid_nadir_matches_dense_scan(self):
        dt = 0.005
        t = dt * np.arange(4000)
        freq = 0.5 * np.exp(-t) * np.sin(2 * np.pi * t)
        res = synthetic_result(freq, dt=dt)
        m = extract_metrics(res, t_apply=0.005, poi_bus=25)
        # dense numerical scan of the closed form as the oracle
        ts = np.linspace(0, 20, 2_000_001)
        oracle = np.min(0.5 * np.exp(-ts) * np.sin(2 * np.pi * ts))
        # first trough: t* solves tan(2*pi*t) = 2*pi, value ~ -0.2392
        assert oracle == pytest.approx(-0.2392, abs=1e-3)
        assert m.f_nadir_hz == pytest.approx(oracle, abs=5e-4)

    def test_never_settling_flagged(self):
        freq = np.full(3000, 0.5)  # parked far outside the band
        freq[:600] = 0.0
        res = synthetic_result(freq)
        m = extract_metrics(res, t_apply=1.0, poi_bus=25)
        # steady value is the final level, but the entry into the band is the
        # step itself; a series still outside the band at the end is flagged
        assert m.f_settled  # settles at the new level by the window tail
        drifting = synthetic_result(np.linspace(0, 1, 3000))
        m2 = extract_metrics(drifting, t_apply=1.0, poi_bus=25)
        assert not m2.f_settled

    def test_sanity_signs(self):
        freq = 0.3 * np.sin(np.linspace(0, 20, 3000))
        res = synthetic_result(freq)
        m = extract_metrics(res, t_apply=0.5, poi_bus=25)
        assert m.f_nadir_hz <= 0.0 <= m.f_peak_hz
        assert m.v_min_pu <= 1.0

    def test_horizon_must_cover_apply_time(self):
        res = synthetic_result(np.zeros(100))
        with pytest.raises(ScenarioError):
            extract_metrics(res, t_apply=10.0, poi_bus=25)


class TestSelectBins:
    def test_labels_and_indices(self, small_profile):
        total = small_profile.p_total
        bins = select_snapshot_bins(small_profile, ("min", "max", "median", 2))
        assert bins[0] == int(np.argmin(total))
        assert bins[1] == int(np.argmax(total))
        assert bins[3] == 2
        order = np.argsort(total, kind="stable")
        assert bins[2] == int(order[len(order) // 2])


class TestRunContingency:
    SIM = dyn.SimConfig(dt=0.005, t_end=6.0, monitor_buses=(25,))

    def test_zero_load_step_equilibrium(self, case118, small_profile, ies_config):
        spec = ContingencySpec(kind="load_step", t_apply=3.0, load_step_mw=0.0)
        res = run_contingency(case118, small_profile, 4, ies_config, spec, self.SIM)
        assert res.max_state_drift <= 1e-6

    def test_gen_trip_sign_correctness(self, case118, small_profile, ies_config):
        spec = ContingencySpec(kind="gen_trip", t_apply=3.0, rng_seed=2)
        # low-load bin: the SMR runs below rating and has governor headroom
        res = run_contingency(case118, small_profile, 0, ies_config, spec, self.SIM)
        k0 = int(3.0 / self.SIM.dt)
        k1 = int(4.0 / self.SIM.dt)
        # Lost generation: the SMR governor raises mechanical power and the
        # battery discharges during the first swing.
        assert np.max(res.smr_p_mech_mw[k0:k1]) > res.smr_p_mech_mw[0] + 1e-6
        assert np.min(res.bess_p_mw[k0:k1]) >= -1e-9
        assert np.max(res.bess_p_mw[k0:k1]) > 1e-4

    def test_ramp_limit_respected(self, case118, small_profile, ies_config):
        spec = ContingencySpec(kind="bus_fault", t_apply=3.0, rng_seed=4)
        res = run_contingency(case118, small_profile, 4, ies_config, spec, self.SIM)
        limit = ies_config.ies.smr_params.ramp_limit
        assert res.smr_ramp_max <= limit + 1e-9
        dp = np.abs(np.diff(res.smr_p_mech_mw)) / ies_config.ies.smr_params.p_max
        assert np.max(dp) / self.SIM.dt <= limit + 1e-9


COMPARE_SIM = dyn.SimConfig(dt=0.005, t_end=6.0, monitor_buses=(25,))


@pytest.fixture(scope="module")
def report(case118, small_profile, ies_config):
    specs = [
        ContingencySpec(kind="bus_fault", rng_seed=1),
        ContingencySpec(kind="bus_fault", rng_seed=2),
    ]
    return compare(
        case118, small_profile, specs, COMPARE_SIM, ies_config,
        snapshot_selector=("max",),
    )


class TestCompare:
    SIM = COMPARE_SIM

    def test_pairs_complete(self, report):
        assert len(report.pairs) == 2
        assert report.failed == []

    def test_pairing_integrity(self, report):
        for pair in report.pairs:
            assert pair.events  # shared event log recorded per pair
            assert pair.grid_only.f_nadir_hz <= 0.0
            assert pair.with_ies.f_nadir_hz <= 0.0

    def test_deterministic_serialization(self, case118, small_profile,
                                         ies_config, report):
        specs = [
            ContingencySpec(kind="bus_fault", rng_seed=1),
            ContingencySpec(kind="bus_fault", rng_seed=2),
        ]
        again = compare(
            case118, small_profile, specs, self.SIM, ies_config,
            snapshot_selector=("max",),
        )
        assert again.to_json() == report.to_json()

    def test_jobs_parallel_identical(self, case118, small_profile, ies_config,
                                     report):
        specs = [
            ContingencySpec(kind="bus_fault", rng_seed=1),
            ContingencySpec(kind="bus_fault", rng_seed=2),
        ]
        par = compare(
            case118, small_profile, specs, self.SIM, ies_config,
            snapshot_selector=("max",), jobs=2,
        )
        assert par.to_json() == report.to_json()

    def test_report_json_is_valid(self, report):
        doc = json.loads(report.to_json())
        assert doc["aggregate"]["pairs"] == 2
        assert set(doc["pairs"][0]) >= {
            "scenario_id", "events", "grid_only", "with_ies", "deltas", "wins"
        }

    def test_requires_ies_configuration(self, case118, small_profile):
        with pytest.raises(ScenarioError):
            compare(
                case118, small_profile,
                [ContingencySpec(kind="bus_fault")],
                self.SIM,
                Configuration(kind="grid_only", dc_bus=25),
            )
