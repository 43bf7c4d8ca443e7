import json
from dataclasses import fields, replace

import numpy as np
import pytest

from smrgrid import dynamics as dyn
from smrgrid import powerflow as pf
from smrgrid import scenario as sc
from smrgrid.datacenter import (
    ItPowerParams,
    LoadProfile,
    UtilizationTrace,
    build_profile,
    calibrate_it_capacity,
)
from smrgrid.network import CaseArrays, NetworkCase
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

from conftest import (
    assert_cached_patterns_fresh, make_two_bus, record_ybus_builds, week_profile,
    zero_valued,
)


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

    def test_kind_defaults_from_ies(self):
        assert Configuration(ies=IesSpec()).kind == "with_ies"
        assert Configuration().kind == "grid_only"

    def test_unknown_kind(self):
        with pytest.raises(ScenarioError):
            Configuration(kind="islanded", dc_bus=25)

    def test_power_factor_range(self):
        with pytest.raises(ScenarioError):
            Configuration(kind="grid_only", dc_bus=25, dc_power_factor=1.5)

    def test_negative_thermal_extraction_rejected(self):
        with pytest.raises(ScenarioError):
            IesSpec(thermal_extraction_factor=-1.0)

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

        def singular_first(*args):
            calls.append(1)
            jac = real(*args)
            return zero_valued(jac) if len(calls) == 1 else jac

        monkeypatch.setattr(pf, "compute_jacobian", singular_first)
        sweep = snapshot_sweep(
            case118, small_profile, Configuration(kind="grid_only", dc_bus=25)
        )
        assert sweep.converged.tolist() == [False] + [True] * (len(small_profile) - 1)
        assert np.isnan(sweep.poi_v_mag[0]) and np.isnan(sweep.slack_p_mw[0])

    def test_sweep_bins_equal_solves_on_fresh_cases(self, case118, monkeypatch):
        # Each bin's case is built by the full constructor, so its arrays
        # are derived afresh rather than shared through with_bus, and each
        # solve is warm-started from the previous bin's voltage. The
        # reference chain shares one dict of held Jacobian inverses, as the
        # sweep does, so it must equal the sweep exactly; a second chain
        # holds no inverse at the start of any bin.
        week = week_profile(2024)  # criterion 2's profile
        profile = LoadProfile(
            **{f.name: getattr(week, f.name)[:96] for f in fields(LoadProfile)}
        )
        cfg = Configuration(kind="grid_only", dc_bus=25)
        swept, cases = [], []

        def recording_solve(case, *args, **kwargs):
            cases.append(case)
            swept.append(solve(case, *args, **kwargs))
            return swept[-1]

        monkeypatch.setattr(pf, "solve", recording_solve)
        sweep = snapshot_sweep(case118, profile, cfg)
        assert len(swept) == len(profile)
        # Every snapshot solves on the case's own Y-bus.
        assert all(c.ybus is case118.ybus for c in cases)
        poi = case118.bus_index(25)
        v = v_own = None
        factors = {}
        for k, got in enumerate(swept):
            p = float(profile.p_total[k])
            buses = list(case118.buses)
            bus = buses[poi]
            buses[poi] = replace(
                bus, p_load=bus.p_load + p, q_load=bus.q_load + cfg.q_for(p)
            )
            fresh = NetworkCase(
                case118.system_mva_base, tuple(buses), case118.branches,
                case118.generators,
            )
            for name in CaseArrays.__dataclass_fields__:
                np.testing.assert_array_equal(
                    getattr(cases[k].arrays, name), getattr(fresh.arrays, name)
                )
            # Held inverses are keyed by the Jacobian patterns of a Y-bus,
            # so the reference chain solves on the case's own Y-bus, which
            # the fresh case's equals bit for bit.
            np.testing.assert_array_equal(fresh.ybus.matrix, case118.ybus.matrix)
            object.__setattr__(fresh, "ybus", case118.ybus)
            want = solve(fresh, v0=v, factors=factors)
            v = want.v
            assert (got.iterations, got.converged, got.q_limited_buses) == (
                want.iterations, want.converged, want.q_limited_buses
            )
            np.testing.assert_array_equal(got.v, want.v)
            # Held inverses do not change the Newton path.
            own = solve(fresh, v0=v_own, factors={})
            v_own = own.v
            assert (own.iterations, own.converged, own.q_limited_buses) == (
                want.iterations, want.converged, want.q_limited_buses
            )
            assert np.max(np.abs(own.v - want.v)) <= 1e-12
            assert sweep.iterations[k] == want.iterations
            assert sweep.q_limited[k] == len(want.q_limited_buses)
            assert sweep.max_mismatch_pu[k] == want.mismatch_norms[-1]
            assert sweep.poi_v_mag[k] == pytest.approx(abs(want.v[poi]), abs=1e-12)
            assert sweep.slack_p_mw[k] == pytest.approx(
                want.slack_p * case118.system_mva_base, abs=1e-9
            )
        # The window meets Q-limited bins, with and without switching.
        assert sweep.q_limited.max() > 0

    def test_sweep_pattern_cache_matches_fresh_patterns(self, case118, monkeypatch):
        built = record_ybus_builds(monkeypatch)
        u = 0.5 + 0.5 * np.sin(np.linspace(0.0, 2 * np.pi, 24))
        profile = build_profile(UtilizationTrace(u=u), calibrate_it_capacity(60.0))
        sweep = snapshot_sweep(
            replace(case118), profile, Configuration(kind="grid_only", dc_bus=25)
        )
        assert np.all(sweep.converged)
        (ybus,) = built
        # More than one partition occurs, and far fewer patterns than
        # Newton loops are built.
        assert 1 < len(ybus.jacobian_patterns) < len(profile)
        assert_cached_patterns_fresh(ybus)

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

    @pytest.mark.parametrize("kind, target, message", [
        ("gen_trip", 2, "gen_trip target bus 2 has no in-service generator"),
        ("line_trip", (1, 118), r"line_trip target \[1, 118\] is not an in-service branch"),
    ])
    def test_explicit_target_must_be_in_the_case(
        self, case118, ies_config, kind, target, message
    ):
        # Buses that exist, but no generator at bus 2 and no branch 1-118.
        spec = ContingencySpec(kind=kind, target=target)
        with pytest.raises(ScenarioError, match=message):
            resolve_events(case118, ies_config, spec)

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
        limit = ies_config.ies.smr.ramp_limit
        assert res.smr_ramp_max <= limit + 1e-9
        dp = np.abs(np.diff(res.smr_p_mech_mw)) / ies_config.ies.smr.p_max
        assert np.max(dp) / self.SIM.dt <= limit + 1e-9

    @pytest.mark.parametrize("p_rating", [10.0, 20.0])
    def test_battery_acts_on_reported_frequency(self, case118, small_profile, p_rating):
        # The battery output recorded after each step is the PI update on the
        # POI frequency reported at that step, to the last bit, at the
        # battery's own rating.
        ies = IesSpec(bess=dyn.BessParams(p_rating=p_rating))
        cfg = Configuration(kind="with_ies", dc_bus=25, ies=ies)
        spec = ContingencySpec(kind="bus_fault", t_apply=3.0, rng_seed=4)
        res = run_contingency(case118, small_profile, 4, cfg, spec, self.SIM)
        params = ies.bess
        state, replayed = dyn.BessState(), []
        for f in res.freq_dev[25][:-1]:
            p, state = dyn.bess_power(-f / self.SIM.f_nominal, state, params, self.SIM.dt)
            replayed.append(p * params.p_rating)
        assert np.max(np.abs(res.bess_p_mw)) > 1e-3
        assert np.array_equal(replayed, res.bess_p_mw[1:])

    def test_smr_rating_is_smr_p_max(self, case118, small_profile):
        # At the 60 MW bin a 40 MW SMR runs at its rating and the grid
        # carries the rest.
        b = select_snapshot_bins(small_profile, ("max",))[0]
        assert small_profile.p_total[b] > 40.0
        cfg = Configuration(
            kind="with_ies", dc_bus=25, ies=IesSpec(smr=dyn.SmrParams(p_max=40.0))
        )
        spec = ContingencySpec(kind="bus_fault", t_apply=3.0, rng_seed=4)
        res = run_contingency(case118, small_profile, b, cfg, spec, self.SIM)
        assert res.smr_p_mech_mw[0] == pytest.approx(40.0, abs=1e-6)


def flat_profile(p_mw) -> LoadProfile:
    """A profile whose bins draw p_mw, all of it IT power."""
    n = len(p_mw)
    zeros = np.zeros(n)
    return LoadProfile(
        timestamps=300.0 * np.arange(n), u=zeros, p_it=np.array(p_mw, dtype=float),
        q_cool=zeros, n_ch=np.zeros(n, dtype=int), p_thermal=zeros,
    )


GRID = Configuration(kind="grid_only", dc_bus=25)


class TestFailurePaths:
    """Inputs the study cannot use end as a ScenarioError, or as a bin the
    sweep records as failed."""

    def test_empty_profile(self, case118):
        with pytest.raises(ScenarioError, match="^empty profile$"):
            snapshot_sweep(case118, flat_profile([]), GRID)

    def test_diverging_bin_resets_the_warm_start(self, case118, monkeypatch):
        # 2000 MW at bus 25 diverges (see powerflow.DIVERGENCE_FACTOR); the
        # bin after it must start cold, and the one after that warm again.
        cold_starts = []
        real = pf.solve

        def recording(case, v0=None, factors=None):
            cold_starts.append(v0 is None)
            return real(case, v0=v0, factors=factors)

        monkeypatch.setattr(pf, "solve", recording)
        sweep = snapshot_sweep(case118, flat_profile([40.0, 2000.0, 40.0, 40.0]), GRID)
        assert sweep.converged.tolist() == [True, False, True, True]
        assert cold_starts == [True, False, True, False]
        assert np.isnan(sweep.poi_v_mag[1]) and sweep.max_mismatch_pu[1] > 1.0

    @pytest.mark.parametrize("kind, message", [
        ("line_trip", "no line-trip candidates near the POI"),
        ("gen_trip", "no gen-trip candidates near the POI"),
    ])
    def test_no_random_candidates(self, kind, message):
        # The two-bus case's load bus hangs on its only branch, which is the
        # last path out of the POI, and its only generator is the slack's.
        with pytest.raises(ScenarioError, match=f"^{message}$"):
            resolve_events(
                make_two_bus(), Configuration(kind="grid_only", dc_bus=2),
                ContingencySpec(kind=kind, max_distance=1),
            )

    def test_no_random_bus_fault_candidates(self, case118):
        # Within 0 hops of the POI lies the POI alone, which is no candidate.
        with pytest.raises(ScenarioError, match="^no bus-fault candidates near the POI$"):
            resolve_events(
                case118, GRID, ContingencySpec(kind="bus_fault", max_distance=0)
            )

    def test_snapshot_that_does_not_converge(self, case118):
        with pytest.raises(ScenarioError, match="^snapshot bin 0 did not converge$"):
            run_contingency(
                case118, flat_profile([2000.0]), 0, GRID,
                ContingencySpec(kind="load_step"), dyn.SimConfig(t_end=1.0),
            )

    def test_empty_result_series(self):
        with pytest.raises(ScenarioError, match="^empty result series$"):
            extract_metrics(synthetic_result([]), 1.0, 25)

    def test_no_contingency_specs(self, case118, small_profile, ies_config):
        with pytest.raises(ScenarioError, match="^no contingency specs$"):
            compare(case118, small_profile, [], COMPARE_SIM, ies_config)

    def test_paired_runs_with_different_event_logs(
        self, case118, small_profile, ies_config, monkeypatch
    ):
        real = sc.run_contingency

        def extra_event_with_ies(case, profile, b, cfg, *args, **kwargs):
            res = real(case, profile, b, cfg, *args, **kwargs)
            if cfg.kind == "with_ies":
                res.event_log.append({"t": 1.0, "kind": "LoadStep", "detail": ""})
            return res

        monkeypatch.setattr(sc, "run_contingency", extra_event_with_ies)
        rep = compare(
            case118, small_profile, [ContingencySpec(kind="load_step", rng_seed=3)],
            dyn.SimConfig(dt=0.005, t_end=3.5, monitor_buses=(25,)), ies_config,
            snapshot_selector=(0,),
        )
        assert rep.pairs == []
        assert rep.failed == [{
            "scenario": "load_step_s3_bin0",
            "error": "paired runs consumed different event lists",
            "error_type": "ScenarioError",
        }]


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
                                         ies_config, report, monkeypatch):
        specs = [
            ContingencySpec(kind="bus_fault", rng_seed=1),
            ContingencySpec(kind="bus_fault", rng_seed=2),
        ]
        built = record_ybus_builds(monkeypatch)
        again = compare(
            replace(case118), small_profile, specs, self.SIM, ies_config,
            snapshot_selector=("max",),
        )
        assert again.to_json() == report.to_json()
        assert len(built) == 1  # one Y-bus shared by all four runs

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

    @pytest.mark.parametrize("jobs", [1, 2])
    def test_singular_snapshot_voids_only_its_pair(
        self, case118, small_profile, ies_config, monkeypatch, jobs
    ):
        bins = select_snapshot_bins(small_profile, ("min", "max"))
        grid = Configuration(kind="grid_only", dc_bus=25)
        bad, _ = snapshot_case(case118, grid, float(small_profile.p_total[bins[1]]))
        bad_load = bad.bus(25).p_load
        real = pf.solve

        def singular_at_max_bin(case, *args, **kwargs):
            if case.bus(25).p_load == bad_load:
                raise pf.SingularJacobianError(0)
            return real(case, *args, **kwargs)

        monkeypatch.setattr(pf, "solve", singular_at_max_bin)
        rep = compare(
            case118, small_profile,
            [ContingencySpec(kind="bus_fault", rng_seed=1)],
            dyn.SimConfig(dt=0.005, t_end=4.0, monitor_buses=(25,)),
            ies_config, snapshot_selector=("min", "max"), jobs=jobs,
        )
        assert [p.snapshot_bin for p in rep.pairs] == [bins[0]]
        assert rep.failed == [{
            "scenario": f"bus_fault_s1_bin{bins[1]}",
            "error": "singular Jacobian at iteration 0",
            "error_type": "SingularJacobianError",
        }]
        assert rep.aggregate()["failed"] == 1

    @pytest.mark.parametrize("kind, target, message", [
        ("bus_fault", 999, "bus_fault target bus 999 is not in the case"),
        ("load_step", 999, "load_step target bus 999 is not in the case"),
        ("line_trip", (25, 999), "line_trip target [25, 999] is not an in-service branch"),
        ("gen_trip", 999, "gen_trip target bus 999 has no in-service generator"),
    ])
    def test_unknown_target_voids_only_its_pair(
        self, case118, small_profile, ies_config, monkeypatch, kind, target, message
    ):
        # The bad pair fails as it resolves its events, before any power
        # flow; the good pair's two runs make the only two solves.
        solves = []
        real = pf.solve
        monkeypatch.setattr(pf, "solve", lambda *a, **k: solves.append(1) or real(*a, **k))
        bad = ContingencySpec(kind=kind, target=target, rng_seed=4)
        good = ContingencySpec(kind="load_step", load_step_mw=10.0, rng_seed=5)
        rep = compare(
            case118, small_profile, [bad, good],
            dyn.SimConfig(dt=0.005, t_end=4.0, monitor_buses=(25,)),
            ies_config, snapshot_selector=("max",),
        )
        b = select_snapshot_bins(small_profile, ("max",))[0]
        assert [p.scenario_id for p in rep.pairs] == [f"load_step_s5_bin{b}"]
        assert rep.failed == [{
            "scenario": f"{kind}_s4_bin{b}",
            "error": message,
            "error_type": "ScenarioError",
        }]
        assert len(solves) == 2

    def test_requires_ies_configuration(self, case118, small_profile):
        with pytest.raises(ScenarioError):
            compare(
                case118, small_profile,
                [ContingencySpec(kind="bus_fault")],
                self.SIM,
                Configuration(kind="grid_only", dc_bus=25),
            )


#: (call, message) for each record and argument check; each raises
#: ScenarioError.
CHECKS = [
    (lambda: IesSpec(thermal_extraction_factor=-1.0),
     "thermal_extraction_factor must be >= 0"),
    (lambda: Configuration(kind="hybrid"), "unknown configuration kind 'hybrid'"),
    (lambda: Configuration(kind="with_ies"),
     "with_ies configuration requires an ies section"),
    (lambda: Configuration(dc_power_factor=0.0), "dc_power_factor must be in (0, 1]"),
    (lambda: ContingencySpec(kind="earthquake"), "unknown contingency kind 'earthquake'"),
    (lambda: ContingencySpec(kind="bus_fault", t_apply=0.0), "t_apply must be > 0"),
    (lambda: ContingencySpec(kind="bus_fault", duration=0.0),
     "fault duration must be > 0"),
    (lambda: ContingencySpec(kind="load_step", rng_seed=-1), "rng_seed must be >= 0"),
    (lambda: ContingencySpec(kind="line_trip", target=25),
     "line_trip target 25 is not a [from, to] pair"),
    (lambda: ContingencySpec(kind="gen_trip", target=(25, 26)),
     "gen_trip target (25, 26) is not a bus id"),
    (lambda: select_snapshot_bins(flat_profile([1.0, 2.0]), ("peak",)),
     "snapshot_selector 'peak': not min, median, max or a bin < 2"),
    (lambda: select_snapshot_bins(flat_profile([1.0, 2.0]), ()),
     "empty snapshot_selector"),
    # An Arabic-Indic one is a decimal to str.isdecimal, but no bin index.
    (lambda: select_snapshot_bins(flat_profile([1.0, 2.0]), ("\u0661",)),
     "snapshot_selector '\u0661': not min, median, max or a bin < 2"),
    (lambda: compare(None, None, [ContingencySpec(kind="bus_fault")], COMPARE_SIM,
                     Configuration(ies=IesSpec()), jobs=0),
     "jobs must be >= 1, got 0"),
    (lambda: compare(None, None, [ContingencySpec(kind="bus_fault")], COMPARE_SIM, GRID),
     "compare requires the with_ies configuration"),
]


@pytest.mark.parametrize("build, message", CHECKS, ids=[c[1] for c in CHECKS])
def test_record_and_argument_checks(build, message):
    with pytest.raises(ScenarioError) as exc:
        build()
    assert str(exc.value) == message
