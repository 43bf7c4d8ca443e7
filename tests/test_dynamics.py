import math
import re
from dataclasses import replace

import numpy as np
import pytest
import scipy.sparse as sp
import scipy.sparse.linalg as spla
from hypothesis import given, settings, strategies as st

import smrgrid.dynamics as dynamics
from smrgrid.dynamics import (
    BessParams,
    BessState,
    BusFault3ph,
    ClearFault,
    Event,
    DH_HP,
    DH_LP,
    ETA_T,
    GRID_MACHINE,
    GenTrip,
    HP_FRACTION,
    IesUnit,
    LineTrip,
    LoadStep,
    MachineParams,
    SimConfig,
    SimulationError,
    SmrParams,
    apply_load_limiter,
    bess_power,
    bus_frequency_estimate,
    compute_droop,
    governor_power_correction,
    rk4_step,
    run_transient,
    smr_flows_from_power,
    turbine_mechanical_power,
    _compile_events,
    _IesControl,
    _Network,
    initialize_devices,
)
from smrgrid import scenario as sc
from smrgrid.powerflow import solve
from smrgrid.network import build_ybus

from conftest import relabelled


SMR = SmrParams()
W_S = 2 * math.pi * 60.0  # synchronous speed, rad/s


class TestTurbinePower:
    def test_zero_flows(self):
        assert turbine_mechanical_power(0.9, 1100, 850, 0, 0) == 0.0

    def test_unit_arithmetic(self):
        # 1000 kJ/kg * 50 kg/s = 50 MW at unity efficiency
        assert turbine_mechanical_power(1.0, 1000, 0, 50, 0) == pytest.approx(50.0)

    def test_linearity(self):
        p1 = turbine_mechanical_power(0.9, 1100, 850, 20, 10)
        p2 = turbine_mechanical_power(0.9, 1100, 850, 40, 20)
        assert p2 == pytest.approx(2 * p1)

    def test_negative_flow_rejected(self):
        with pytest.raises(ValueError):
            turbine_mechanical_power(0.9, 1100, 850, -1, 0)

    def test_flow_inversion_round_trip(self):
        m_hp, m_lp = smr_flows_from_power(50.0)
        back = turbine_mechanical_power(ETA_T, DH_HP, DH_LP, m_hp, m_lp)
        assert back == pytest.approx(50.0, abs=1e-9)

    def test_declared_hp_split(self):
        m_hp, _ = smr_flows_from_power(50.0)
        expected = HP_FRACTION * (50_000.0 / ETA_T) / DH_HP
        assert m_hp == pytest.approx(expected)

    @given(p=st.floats(0.0, SMR.p_max))
    @settings(max_examples=500)
    def test_steam_path_is_an_identity(self, p):
        # run_transient sets the SMR's mechanical power to its command
        # directly; this round trip is what that skips.
        m_hp, m_lp = smr_flows_from_power(p)
        back = turbine_mechanical_power(ETA_T, DH_HP, DH_LP, m_hp, m_lp)
        assert abs(back - p) <= 4 * math.ulp(p)


class TestDroop:
    def test_lower_boundary(self):
        assert compute_droop(0.0, 0.0, SMR) == SMR.m_min

    def test_upper_boundary(self):
        assert compute_droop(SMR.p_max, SMR.q_dot_max, SMR) == SMR.m_max

    def test_linear_midpoint(self):
        m = compute_droop(0.5 * SMR.p_max, 0.5 * SMR.q_dot_max, SMR)
        assert m == pytest.approx(0.5 * (SMR.m_min + SMR.m_max))

    def test_negative_input_rejected(self):
        with pytest.raises(ValueError):
            compute_droop(-1.0, 0.0, SMR)

    @given(
        p1=st.floats(0, SMR.p_max), p2=st.floats(0, SMR.p_max),
        q=st.floats(0, SMR.q_dot_max),
    )
    @settings(max_examples=200)
    def test_monotone_in_electrical_load(self, p1, p2, q):
        lo, hi = sorted([p1, p2])
        assert compute_droop(lo, q, SMR) <= compute_droop(hi, q, SMR)

    @given(
        q1=st.floats(0, SMR.q_dot_max), q2=st.floats(0, SMR.q_dot_max),
        p=st.floats(0, SMR.p_max),
    )
    @settings(max_examples=200)
    def test_monotone_in_thermal_load(self, q1, q2, p):
        lo, hi = sorted([q1, q2])
        assert compute_droop(p, lo, SMR) <= compute_droop(p, hi, SMR)

    @given(p=st.floats(0, SMR.p_max), q=st.floats(0, SMR.q_dot_max))
    @settings(max_examples=200)
    def test_range(self, p, q):
        assert SMR.m_min <= compute_droop(p, q, SMR) <= SMR.m_max


class TestGovernor:
    def test_zero_deviation(self):
        assert governor_power_correction(0.0, 0.05, 0.0) == 0.0

    def test_under_frequency_raises_power(self):
        assert governor_power_correction(-0.01, 0.05, 0.0) == pytest.approx(0.2)

    def test_deadband_suppresses(self):
        assert governor_power_correction(0.0002, 0.05, 0.0003) == 0.0

    def test_invalid_droop(self):
        with pytest.raises(ValueError):
            governor_power_correction(0.01, 0.0, 0.0)


class TestLoadLimiter:
    def test_within_band_unchanged(self):
        assert apply_load_limiter(0.50005, 0.5, 0.02, 0.005) == pytest.approx(0.50005)

    def test_upward_clamp(self):
        assert apply_load_limiter(0.9, 0.5, 0.02, 0.005) == pytest.approx(0.5001)

    def test_downward_clamp_symmetric(self):
        assert apply_load_limiter(0.1, 0.5, 0.02, 0.005) == pytest.approx(0.4999)

    def test_output_bounded_to_unit_interval(self):
        assert apply_load_limiter(5.0, 0.9999999, 100.0, 1.0) == 1.0
        assert apply_load_limiter(-5.0, 1e-9, 100.0, 1.0) == 0.0


class TestBess:
    def test_zero_signal_zero_output(self):
        state = BessState()
        params = BessParams()
        for _ in range(100):
            p, state = bess_power(0.0, state, params, 0.005)
            assert p == 0.0

    def test_pure_proportional(self):
        p, _ = bess_power(0.01, BessState(), BessParams(k_p=20, k_i=0), 0.005)
        assert p == pytest.approx(0.2)

    def test_pure_integral_closed_form(self):
        # Constant deviation 0.01 held 1 s, trapezoidal from a zero state:
        # integrator after n steps = 0.01*(n - 0.5)*dt.
        params = BessParams(k_p=0, k_i=5)
        dt = 0.005
        state = BessState()
        n = round(1.0 / dt)
        for _ in range(n):
            p, state = bess_power(0.01, state, params, dt)
        exact = 5 * 0.01 * (n - 0.5) * dt
        assert p == pytest.approx(exact, abs=1e-12)
        assert p == pytest.approx(0.05, abs=5 * 0.01 * dt)  # dt-order gap

    def test_saturation(self):
        p, _ = bess_power(0.5, BessState(), BessParams(k_p=20, k_i=5), 0.005)
        assert p == 1.0
        p, _ = bess_power(-0.5, BessState(), BessParams(k_p=20, k_i=5), 0.005)
        assert p == -1.0

    @given(
        st.lists(st.floats(-0.2, 0.2), min_size=1, max_size=300),
        st.floats(0.0, 50.0),
        st.floats(0.0, 20.0),
    )
    @settings(max_examples=100)
    def test_saturation_and_antiwindup_invariants(self, signal, k_p, k_i):
        params = BessParams(k_p=k_p, k_i=k_i)
        state = BessState()
        dt = 0.005
        for df in signal:
            prev_int = state.integrator
            p, state = bess_power(df, state, params, dt)
            assert abs(p) <= 1.0
            assert abs(state.integrator) <= params.integrator_limit + 1e-15
            if abs(p) == 1.0:
                # frozen integrator while saturated
                assert state.integrator == prev_int


class TestBusFrequency:
    def test_constant_angle(self):
        theta = np.zeros(200)
        f = bus_frequency_estimate(theta, 0.05, 0.005)
        assert np.max(np.abs(f)) == 0.0

    def test_ramp_converges_to_slope(self):
        dt = 0.005
        t = np.arange(0, 2, dt)
        theta = 2 * np.pi * 0.1 * t
        f = bus_frequency_estimate(theta, 0.05, dt)
        assert f[-1] == pytest.approx(0.1, abs=1e-6)

    def test_step_response_discrete_closed_form(self):
        # A single angle step produces one raw-derivative impulse; the filter
        # output then decays geometrically by (1 - dt/tc) each sample.
        dt, tc = 0.005, 0.05
        step = 0.3
        theta = np.concatenate([np.zeros(1), np.full(100, step)])
        f = bus_frequency_estimate(theta, tc, dt)
        a = dt / tc
        impulse = step / dt / (2 * np.pi)
        expected = a * impulse * (1 - a) ** np.arange(100)
        assert np.allclose(f[1:], expected, atol=1e-12)

    def test_wraparound_handled(self):
        dt = 0.005
        t = np.arange(0, 2, dt)
        theta = np.mod(2 * np.pi * 0.1 * t + np.pi, 2 * np.pi) - np.pi
        f = bus_frequency_estimate(theta, 0.05, dt)
        assert f[-1] == pytest.approx(0.1, abs=1e-6)

    def test_too_short(self):
        with pytest.raises(ValueError):
            bus_frequency_estimate(np.zeros(1), 0.05, 0.005)


class TestRk4:
    def test_exact_on_cubic(self):
        # RK4 integrates polynomials up to degree 4 in t exactly.
        f = lambda t, x: np.array([3 * t**2])
        x = rk4_step(f, 0.0, np.array([0.0]), 0.5)
        assert x[0] == pytest.approx(0.5**3, abs=1e-14)

    def test_fourth_order_on_linear_system(self):
        # Undamped oscillator with analytic solution; halving dt must shrink
        # the global error by at least 2^4 = 16 (allow margin: >= 12).
        w = 2 * np.pi

        def f(_t, x):
            return np.array([x[1], -(w**2) * x[0]])

        def global_error(dt):
            x = np.array([1.0, 0.0])
            n = round(1.0 / dt)
            for k in range(n):
                x = rk4_step(f, k * dt, x, dt)
            return abs(x[0] - np.cos(w * 1.0))

        ratio = global_error(0.01) / global_error(0.005)
        assert ratio >= 12.0


@pytest.fixture(scope="module")
def snapshot(case118):
    sol = solve(case118)
    assert sol.converged
    return sol


class TestRunTransient:
    def test_equilibrium_hold(self, case118, snapshot):
        cfg = SimConfig(dt=0.005, t_end=5.0, monitor_buses=(25,))
        res = run_transient(case118, snapshot, None, [], cfg)
        assert res.max_state_drift <= 1e-6
        v25 = res.v_mag[25]
        assert np.max(np.abs(v25 - v25[0])) <= 1e-6
        assert np.max(np.abs(res.freq_dev[25])) <= 1e-6

    def test_zero_load_step_is_equilibrium(self, case118, snapshot):
        cfg = SimConfig(dt=0.005, t_end=4.0, monitor_buses=(25,))
        res = run_transient(
            case118, snapshot, None,
            [Event(1.0, LoadStep(25, 0.0, 0.0))], cfg,
        )
        assert res.max_state_drift <= 1e-6

    def test_load_step_perturbs_then_logs(self, case118, snapshot):
        cfg = SimConfig(dt=0.005, t_end=4.0, monitor_buses=(25,))
        res = run_transient(
            case118, snapshot, None,
            [Event(1.0, LoadStep(25, 40.0, 10.0))], cfg,
        )
        assert res.max_state_drift > 1e-4
        assert len(res.event_log) == 1
        assert res.event_log[0]["t"] == pytest.approx(1.0)
        v25 = res.v_mag[25]
        k = int(1.0 / cfg.dt)
        assert np.max(np.abs(v25[:k] - v25[0])) < 1e-8  # flat before the event
        assert v25[-1] < v25[0]  # extra load depresses the bus voltage

    def test_t_end_must_cover_events(self, case118, snapshot):
        with pytest.raises(SimulationError, match="t_end must exceed the last event time"):
            run_transient(
                case118, snapshot, None,
                [Event(5.0, LoadStep(25, 1.0))],
                SimConfig(t_end=4.0),
            )

    def test_event_past_the_last_grid_point_rejected(self, case118, snapshot):
        # t_end 4e-12 s past grid point 200 is on the grid within 1e-9
        # steps; an event between the two would fire at no step.
        cfg = SimConfig(dt=0.005, t_end=1.0 + 4e-12)
        with pytest.raises(SimulationError, match="^t_end must exceed the last event time$"):
            run_transient(case118, snapshot, None, [Event(1.0 + 3e-12, LoadStep(25, 1.0))], cfg)

    def test_smr_dispatch_above_rating_rejected(self, case118, snapshot):
        ies = IesUnit(
            bus=25,
            machine=MachineParams(h=6.0, d=10.0, xd_p=0.3, mva_base=60.0),
            smr=SmrParams(p_max=40.0),
            bess=BessParams(),
            p_dispatch_mw=40.5,
        )
        with pytest.raises(SimulationError, match="exceeds rating"):
            run_transient(case118, snapshot, ies, [], SimConfig(t_end=1.0))

    def test_nan_event_time_rejected(self):
        # NaN passes `t < 0`, and an event at NaN would never fire.
        with pytest.raises(ValueError, match="event time must be >= 0"):
            Event(math.nan, LoadStep(25, 50.0))

    @pytest.mark.parametrize("kind", [
        BusFault3ph(999), ClearFault(999), LineTrip(25, 999), GenTrip(999),
        LoadStep(999, 10.0),
    ], ids=lambda kind: type(kind).__name__)
    def test_unknown_event_bus_fails_before_the_first_step(
        self, case118, snapshot, monkeypatch, kind
    ):
        # A SimulationError, which compare voids as one pair, raised before
        # any step is taken rather than when the event comes due.
        steps = []
        monkeypatch.setattr(dynamics, "rk4_step", lambda *a: steps.append(1))
        with pytest.raises(SimulationError) as exc:
            run_transient(case118, snapshot, None, [Event(1.5, kind)], SimConfig(t_end=2.0))
        assert str(exc.value) == f"{kind!r} at t=1.5: unknown bus id 999"
        assert steps == []

    def test_event_fires_at_the_first_step_boundary_at_or_after_its_time(
        self, case118, snapshot
    ):
        # Within 1e-12 of a grid point, an event fires at that point; a
        # five-cycle clearing time (0.0833 s) waits for the next one.
        machines, _ = initialize_devices(case118, snapshot, None)
        t_grid = np.linspace(0.0, 0.5, 101)
        at = {0.1: 20, 0.0833: 17, t_grid[40] - 5e-13: 40, t_grid[60] + 5e-13: 60}
        events = [Event(t, LoadStep(25, 1.0)) for t in sorted(at)]
        actions = _compile_events(case118, machines, events, t_grid)
        assert [a.event for a in actions] == events
        assert [a.step for a in actions] == [at[ev.t] for ev in events]
        assert t_grid[17] == pytest.approx(0.085, abs=1e-15)

    @pytest.mark.parametrize("dp_mw", [40.0, -40.0])
    def test_drift_is_the_largest_state_change(
        self, case118, snapshot, monkeypatch, dp_mw
    ):
        # A grid-only run moves only the machine states, which rk4_step
        # returns; the reported drift is their largest change from x(0),
        # whether the speeds fall (load added) or rise (load shed).
        rk4 = dynamics.rk4_step
        states = []

        def recording(f, t, x, dt):
            if not states:
                states.append(x.copy())
            states.append(rk4(f, t, x, dt))
            return states[-1]

        monkeypatch.setattr(dynamics, "rk4_step", recording)
        cfg = SimConfig(dt=0.005, t_end=2.0, monitor_buses=(25,))
        res = run_transient(
            case118, snapshot, None, [Event(0.5, LoadStep(25, dp_mw))], cfg
        )
        assert len(states) == len(res.t)
        x = np.array(states)
        assert res.max_state_drift == np.abs(x - x[0]).max() > 1e-4

    def test_monitoring_a_load_step_bus_does_not_change_dynamics(
        self, case118, snapshot
    ):
        # Bus 2 is a PQ bus with no machine; the load step alone makes it a
        # network port, so monitoring it must leave every shared trace as is.
        events = [Event(1.0, LoadStep(2, 40.0, 10.0))]
        plain, watched = (
            run_transient(
                case118, snapshot, None, events,
                SimConfig(dt=0.005, t_end=3.0, monitor_buses=mon),
            )
            for mon in ((25,), (25, 2))
        )
        assert plain.max_state_drift > 1e-4
        assert abs(plain.max_state_drift - watched.max_state_drift) <= 1e-12
        assert set(plain.v_mag) == {25}
        for series in ("v_mag", "freq_dev"):
            a, b = getattr(plain, series)[25], getattr(watched, series)[25]
            assert np.max(np.abs(a - b)) <= 1e-12
        v2 = watched.v_mag[2]
        assert v2[-1] < v2[0]  # the step depresses its own bus


IES_UNIT = IesUnit(
    bus=25,
    machine=MachineParams(h=6.0, d=10.0, xd_p=0.3, mva_base=60.0),
    smr=SmrParams(),
    bess=BessParams(),
    p_dispatch_mw=20.0,
)


class TestFailurePaths:
    """Each numerical failure ends as a SimulationError that names the time
    of the step boundary where it was seen."""

    CFG = SimConfig(dt=0.005, t_end=1.0, monitor_buses=(25,))
    STEP = [Event(0.5, LoadStep(25, 10.0))]
    NETWORK_NAN = r"NaN in network solution at t=0\.5000s"

    def test_nan_in_the_network_operator(self, case118, snapshot, monkeypatch):
        # Poison every dense operator that the event's refactor builds.
        refactor = _Network.refactor
        calls = []

        def poisoned(net):
            refactor(net)
            calls.append(net)
            if len(calls) > 1:
                for value in vars(net).values():
                    if isinstance(value, np.ndarray) and value.ndim == 2:
                        value[...] = np.nan

        monkeypatch.setattr(_Network, "refactor", poisoned)
        with pytest.raises(SimulationError, match=self.NETWORK_NAN):
            run_transient(case118, snapshot, None, self.STEP, self.CFG)
        assert len(calls) == 2

    def test_nan_from_the_factorisation(self, case118, snapshot, monkeypatch):
        # The event's LU solves to NaN, so every operator built from it is
        # NaN before any step uses it.
        real_solve = np.linalg.solve
        calls = []

        def solve_nan(a, b):
            calls.append(a)
            z = real_solve(a, b)
            return np.full_like(z, np.nan) if len(calls) > 1 else z

        monkeypatch.setattr(np.linalg, "solve", solve_nan)
        with pytest.raises(SimulationError, match=self.NETWORK_NAN):
            run_transient(case118, snapshot, None, self.STEP, self.CFG)
        assert len(calls) == 2

    def test_nan_in_the_device_states(self, case118, snapshot, monkeypatch):
        rk4 = dynamics.rk4_step

        def nan_from_half_time(f, t, x, dt):
            x = rk4(f, t, x, dt)
            if t >= 0.5 - 1e-9:
                x[0] = np.nan
            return x

        monkeypatch.setattr(dynamics, "rk4_step", nan_from_half_time)
        states_nan = r"NaN in device states at t=0\.5050s"
        with pytest.raises(SimulationError, match=states_nan):
            run_transient(case118, snapshot, IES_UNIT, [], self.CFG)

    def test_bolted_fault_at_the_battery_bus(self, case118, snapshot):
        # An infinite fault admittance holds the POI at exactly 0 V, where
        # the battery's constant-power current is undefined.
        events = [
            Event(0.5, BusFault3ph(25, complex(0.0, -math.inf))),
            Event(0.6, ClearFault(25)),
        ]
        with pytest.raises(SimulationError, match=r"t=0\.5"):
            run_transient(case118, snapshot, IES_UNIT, events, self.CFG)


class TestRunTimeErrors:
    """Inputs that a transient cannot run on end as a SimulationError."""

    CFG = SimConfig(dt=0.005, t_end=0.5, monitor_buses=(25,))

    def test_non_converged_snapshot(self, case118, snapshot):
        with pytest.raises(
            SimulationError, match="cannot initialize from a non-converged solution"
        ):
            run_transient(case118, replace(snapshot, converged=False), None, [], self.CFG)

    def test_islanding_a_bus_without_load_or_machine(self, case118, snapshot):
        # Bus 10 has no load and hangs on branch 9-10 alone; with its
        # generator tripped, the trip leaves an all-zero row and column.
        events = [Event(0.1, GenTrip(10)), Event(0.2, LineTrip(9, 10))]
        with pytest.raises(SimulationError, match="singular network matrix"):
            run_transient(case118, snapshot, None, events, self.CFG)

    @pytest.mark.parametrize(
        "events, message",
        [
            ([Event(0.1, LineTrip(1, 118))], "no in-service branch 1-118 to trip"),
            ([Event(0.1, LineTrip(9, 10)), Event(0.2, LineTrip(10, 9))],
             "no in-service branch 10-9 to trip"),
            # A circuit names one of the in-service parallel branches.
            ([Event(0.1, LineTrip(1, 2, circuit=3))],
             "no in-service circuit 3 of branch 1-2 to trip (1 in service)"),
            ([Event(0.1, LineTrip(42, 49, circuit=1)), Event(0.2, LineTrip(49, 42, circuit=1))],
             "no in-service circuit 1 of branch 49-42 to trip (1 in service)"),
            ([Event(0.1, GenTrip(2))], "no active machine at bus 2 to trip"),
            ([Event(0.1, GenTrip(12)), Event(0.2, GenTrip(12))],
             "no active machine at bus 12 to trip"),
            ([Event(0.1, "open breaker")], "unknown event kind 'open breaker'"),
        ],
        ids=["no_branch", "branch_tripped", "no_circuit", "circuit_tripped", "no_machine",
             "machine_tripped", "unknown"],
    )
    def test_event_that_cannot_apply(self, case118, snapshot, monkeypatch, events, message):
        # Compiled before the first step: no RK4 step is taken, though the
        # events come due only after 20 or 40 steps.
        steps = []
        monkeypatch.setattr(dynamics, "rk4_step", lambda *a: steps.append(1))
        with pytest.raises(SimulationError, match=f"^{re.escape(message)}$"):
            run_transient(case118, snapshot, None, events, self.CFG)
        assert steps == []

    @pytest.mark.parametrize("circuit", [0, 1])
    def test_line_trip_takes_the_named_parallel_circuit(self, case118, snapshot, circuit):
        machines, s_load = initialize_devices(case118, snapshot, None)
        net = _Network(case118, s_load, snapshot.v, machines, W_S, [0], 0)
        parallel = [k for k, br in enumerate(case118.branches)
                    if {br.from_bus, br.to_bus} == {42, 49} and br.status]
        assert len(parallel) == 2
        (action,) = _compile_events(
            case118, machines, [Event(0.0, LineTrip(42, 49, circuit))], np.zeros(1)
        )
        assert net.tripped == set()
        action.apply(net, None)
        assert net.tripped == {parallel[circuit]}

    def test_ies_bus_joins_the_monitored_buses(self, case118, snapshot):
        cfg = SimConfig(dt=0.005, t_end=0.1, monitor_buses=(12,))
        res = run_transient(case118, snapshot, IES_UNIT, [], cfg)
        assert list(res.v_mag) == list(res.freq_dev) == [12, 25]
        assert run_transient(
            case118, snapshot, IES_UNIT, [], replace(cfg, monitor_buses=())
        ).v_mag.keys() == {25}

    def test_first_bus_monitored_when_none_given(self, case118, snapshot):
        res = run_transient(case118, snapshot, None, [], SimConfig(t_end=0.1))
        assert list(res.v_mag) == list(res.freq_dev) == [case118.buses[0].id]
        assert len(res.v_mag[1]) == len(res.t) == 21


class TestReducedNetwork:
    """The network operators against a full sparse solve of the augmented
    admittance matrix, built here from the case without the event stamps."""

    FAULT_BUS = 30
    TRIP = (23, 25)
    GEN_BUS = 26

    @pytest.mark.parametrize(
        "topology", ["pre_fault", "fault", "line_trip", "gen_trip", "with_ies"]
    )
    def test_operators_match_full_solve(self, case118, snapshot, topology):
        # With the IES, the SMR shares bus 25 with the grid generator there,
        # and the battery injects at that bus too.
        ies = IES_UNIT if topology == "with_ies" else None
        machines, s_load = initialize_devices(case118, snapshot, ies)
        rng = np.random.default_rng(11)
        # Random EMF magnitudes, folded into the operators at refactor.
        machines.e_p[:] = rng.uniform(0.8, 1.3, machines.e_p.size)
        bess_idx = case118.bus_index(25 if ies else 2)
        if ies:
            assert (machines.bus_idx == bess_idx).sum() == 2
        monitored = [case118.bus_index(b) for b in (25, 75)]
        net = _Network(case118, s_load, snapshot.v, machines, W_S, monitored, bess_idx)
        net.refactor()

        shunt = np.conj(s_load) / np.abs(snapshot.v) ** 2
        full_case = case118
        kind = {
            "fault": BusFault3ph(self.FAULT_BUS, -1e4j),
            "line_trip": LineTrip(*self.TRIP),
            "gen_trip": GenTrip(self.GEN_BUS),
        }.get(topology)
        if kind is not None:
            (action,) = _compile_events(case118, machines, [Event(0.0, kind)], np.zeros(1))
            action.apply(net, snapshot.v[net.read_bus])
            net.refactor()
        if topology == "fault":
            shunt[case118.bus_index(self.FAULT_BUS)] += -1e4j
        if topology == "line_trip":
            k = next(
                k for k, br in enumerate(case118.branches)
                if {br.from_bus, br.to_bus} == set(self.TRIP) and br.status
            )
            branches = list(case118.branches)
            branches[k] = replace(branches[k], status=False)
            full_case = replace(case118, branches=tuple(branches))
        on = machines.active
        if topology == "gen_trip":
            assert not on.all()
            assert (machines.bus_idx[~on] == case118.bus_index(self.GEN_BUS)).all()
        else:
            assert on.all()
        np.add.at(shunt, machines.bus_idx[on], machines.y_m[on])
        y_aug = (sp.csc_matrix(build_ybus(full_case).matrix) + sp.diags(shunt)).tocsc()

        machine_bus = machines.bus_idx
        nm = len(machine_bus)
        # Machine currents are read scaled by e_p/2H, tripped machines as 0.
        scale = np.where(on, machines.e_p / machines.h2, 0.0)
        for _ in range(3):
            delta = rng.uniform(-np.pi, np.pi, nm)
            emf = machines.e_p * np.exp(1j * delta)
            i_bess = complex(rng.normal(), rng.normal())
            rhs = np.zeros(case118.n_bus, dtype=complex)
            np.add.at(rhs, machine_bus[on], machines.y_m[on] * emf[on])
            rhs[bess_idx] += i_bess
            v_full = spla.spsolve(y_aug, rhs)
            i_full = scale * machines.y_m * (emf - v_full[machine_bus])

            z = np.append(np.exp(1j * delta), i_bess)
            j = net.solve(z)
            p_e = (np.exp(1j * delta) * np.conj(i_full)).real  # P_e / 2H
            # deriv's speed rates at rest are pm/2H - P_e/2H.
            net.z[-1] = i_bess
            rates = net.deriv(0.0, np.append(delta, np.zeros(nm)))
            for got, want in (
                (j, i_full),
                (net.solve(z, read=True), v_full[net.read_bus]),
                (net.pm_h - rates[nm:], p_e),
            ):
                rel = np.linalg.norm(got - want) / np.linalg.norm(want)
                assert rel <= 1e-12
            assert (j[~on] == 0).all()
        assert set(net.read_bus) >= set(monitored) | {bess_idx}


#: Criterion 6's bound on the equilibrium drift of every device state over a
#: 15 s hold: rad for angles, pu for speeds and the IES states.
EQUILIBRIUM_DRIFT = 1e-6

#: One run of each event kind near the POI (bus 25), each explicit: the
#: relations below need the same events in both runs, not rng draws.
EVENT_SETS = {
    "bus_fault": [Event(0.5, BusFault3ph(23)), Event(0.6, ClearFault(23))],
    "line_trip": [Event(0.5, LineTrip(23, 25))],
    "gen_trip": [Event(0.5, GenTrip(26))],
    "load_step": [Event(0.5, LoadStep(25, 40.0, 10.0))],
}


def ies_snapshot(case, with_ies):
    """(snapshot case, its solution, IesUnit or None): 40 MW drawn at bus 25,
    netted against the SMR's dispatch with the IES."""
    cfg = sc.Configuration(dc_bus=25, ies=sc.IesSpec() if with_ies else None)
    snap, dispatch = sc.snapshot_case(case, cfg, 40.0)
    ies = None
    if with_ies:
        ies = IesUnit(bus=25, machine=cfg.ies.smr_machine, smr=cfg.ies.smr,
                      bess=cfg.ies.bess, p_dispatch_mw=dispatch)
    return snap, solve(snap), ies


def series(res, buses):
    """Every monitored series of a result, the buses in the given order."""
    out = [res.v_mag[b] for b in buses] + [res.freq_dev[b] for b in buses]
    return out + [s for s in (res.smr_p_mech_mw, res.bess_p_mw) if s is not None]


@pytest.mark.parametrize("with_ies", [False, True], ids=["grid_only", "with_ies"])
@pytest.mark.parametrize("kind", list(EVENT_SETS))
class TestMetamorphicTransient:
    """Relations between transients that need no reference solution (Chen,
    Cheung & Yiu, HKUST-CS98-01, 1998)."""

    MONITOR = (25, 23, 30)

    def test_relabelled_case_has_the_same_series(self, case118, kind, with_ies):
        # Renumbering the bus ids and reordering the buses and branches
        # permutes the plant's states and read buses; the series must not
        # change beyond rounding.
        snap, sol, ies = ies_snapshot(case118, with_ies)
        other, new_id = relabelled(snap, 4)
        cfg = SimConfig(dt=0.005, t_end=1.5, monitor_buses=self.MONITOR)
        want = run_transient(snap, sol, ies, EVENT_SETS[kind], cfg)
        moved = [
            Event(ev.t, replace(ev.kind, **{
                f: new_id[getattr(ev.kind, f)]
                for f in ("bus", "from_bus", "to_bus") if hasattr(ev.kind, f)
            }))
            for ev in EVENT_SETS[kind]
        ]
        if ies is not None:
            ies = replace(ies, bus=new_id[ies.bus])
        got = run_transient(
            other, solve(other), ies, moved,
            replace(cfg, monitor_buses=tuple(new_id[b] for b in self.MONITOR)),
        )
        assert [(e["t"], e["kind"]) for e in got.event_log] == [
            (e["t"], e["kind"]) for e in want.event_log
        ]
        assert want.max_state_drift > 1e-4
        assert abs(got.max_state_drift - want.max_state_drift) <= 1e-12
        for a, b in zip(series(got, [new_id[b] for b in self.MONITOR]),
                        series(want, self.MONITOR), strict=True):
            assert np.max(np.abs(a - b)) <= 1e-12

    def test_translated_events_translate_the_series(self, case118, kind, with_ies):
        # Shifting every event and t_end by m steps shifts the series by m
        # samples from the first event on. The runs differ only by the m
        # extra steps of equilibrium hold before the events, and criterion 6
        # bounds any state's drift over a 15 s hold by EQUILIBRIUM_DRIFT.
        # The bounds are that drift in each series' units: pu for |V|, the
        # speed drift times f_nominal in Hz, and MW on each IES rating.
        snap, sol, ies = ies_snapshot(case118, with_ies)
        cfg = SimConfig(dt=0.005, t_end=1.5, monitor_buses=self.MONITOR)
        m = 100
        shift = m * cfg.dt
        want = run_transient(snap, sol, ies, EVENT_SETS[kind], cfg)
        got = run_transient(
            snap, sol, ies, [Event(ev.t + shift, ev.kind) for ev in EVENT_SETS[kind]],
            replace(cfg, t_end=cfg.t_end + shift),
        )
        assert want.max_state_drift > 1e-4
        assert [e["t"] for e in got.event_log] == pytest.approx(
            [e["t"] + shift for e in want.event_log], abs=1e-12
        )
        k0 = int(round(EVENT_SETS[kind][0].t / cfg.dt))
        assert len(got.t) == len(want.t) + m
        n_mon = len(self.MONITOR)
        bounds = [EQUILIBRIUM_DRIFT] * n_mon + [EQUILIBRIUM_DRIFT * cfg.f_nominal] * n_mon
        if with_ies:
            bounds += [EQUILIBRIUM_DRIFT * ies.smr.p_max, EQUILIBRIUM_DRIFT * ies.bess.p_rating]
        for a, b, bound in zip(series(got, self.MONITOR), series(want, self.MONITOR),
                               bounds, strict=True):
            assert np.max(np.abs(a[k0 + m:] - b[k0:])) <= bound
            # Before the first event both runs hold the equilibrium.
            assert np.max(np.abs(a[:k0 + m] - b[0])) <= bound


def plant(case, sol, ies):
    """The transient's plant and machines at the snapshot `sol`, set up as
    run_transient sets them up, reading bus 25 and the battery bus of `ies`."""
    machines, s_load = initialize_devices(case, sol, ies)
    bess_idx = None if ies is None else case.bus_index(ies.bus)
    net = _Network(case, s_load, sol.v, machines, W_S, [case.bus_index(25)], bess_idx)
    net.refactor()
    return net, machines


class TestPlantAndController:
    """The plant's swing equations and the IES controller, each alone."""

    CFG = SimConfig(dt=0.005, t_end=1.0, monitor_buses=(25,))

    def test_machines_split_the_solution_injections(self, case118, snapshot):
        # The generation at a bus is the solution's net injection plus the
        # load. Each bus of the shipped case has one machine, which takes
        # all of it, so its EMF behind xd' follows from that generation.
        machines, s_load = initialize_devices(case118, snapshot, None)
        b = machines.bus_idx
        assert len(set(b.tolist())) == b.size
        s_gen = (snapshot.p_inj + 1j * snapshot.q_inj + s_load)[b]
        mva = np.array([g.mva_base for g in case118.generators if g.status])
        xd = GRID_MACHINE["xd_p"] * case118.system_mva_base / mva
        v = snapshot.v[b]
        emf = v + 1j * xd * np.conj(s_gen / v)
        # abs of each scalar, as the set-up takes it: numpy's array abs
        # may round differently.
        assert np.array_equal([abs(e) for e in emf], machines.e_p)
        assert np.array_equal(np.angle(emf), machines.delta)

    @pytest.mark.parametrize("ies", [None, IES_UNIT], ids=["grid_only", "ies"])
    def test_rates_vanish_at_the_initial_equilibrium(self, case118, snapshot, ies):
        net, machines = plant(case118, snapshot, ies)
        x = np.concatenate([machines.delta, np.zeros(machines.delta.size)])
        net.read(x)
        assert np.abs(net.deriv(0.0, x)).max() <= 1e-12
        assert np.abs(net.deriv(0.0, x.copy())).max() <= 1e-12  # phasors taken afresh

    def test_rk4_step_matches_a_textbook_rk4(self, case118, snapshot):
        # Speeds of 1e-2 pu turn the rotors by about 1e-2 rad within a step,
        # so a stage that reused the step boundary's rotor phasors would be off.
        net, machines = plant(case118, snapshot, IES_UNIT)
        nm = machines.delta.size
        rng = np.random.default_rng(5)
        x = np.concatenate([machines.delta, rng.uniform(-1e-2, 1e-2, nm)])
        net.z[-1] = 0.05 - 0.02j  # a battery current

        def f(_t, xs):
            d, w = xs[:nm], xs[nm:]
            rotor = np.exp(1j * d)
            p_e = (np.conj(rotor) * (net.current @ np.append(rotor, net.z[-1]))).real
            return np.concatenate([net.w_gain * w, net.pm_h - p_e - net.dh * w])

        dt = self.CFG.dt
        k1 = f(0.0, x)
        k2 = f(0.5 * dt, x + 0.5 * dt * k1)
        k3 = f(0.5 * dt, x + 0.5 * dt * k2)
        k4 = f(dt, x + dt * k3)
        want = x + dt / 6.0 * (k1 + 2 * k2 + 2 * k3 + k4)
        net.read(x)
        got = rk4_step(net.deriv, 0.0, x, dt)
        assert np.abs(got - want).max() <= 1e-13
        assert np.abs(want - x).max() > 1e-4  # the step moves the state

    def test_controller_respects_the_ramp_limit(self, case118, snapshot):
        _, machines = plant(case118, snapshot, IES_UNIT)
        ctl = _IesControl(IES_UNIT, machines, case118.system_mva_base, self.CFG)
        limit = IES_UNIT.smr.ramp_limit * self.CFG.dt
        rng = np.random.default_rng(3)
        cmds = [ctl.cmd]
        for k in range(400):
            # Frequency steps of up to +-3 Hz, held for 40 steps each.
            if k % 40 == 0:
                f_poi = rng.uniform(-3.0, 3.0)
                speed = -f_poi / self.CFG.f_nominal
            i_b = ctl.step(f_poi, 1.0 + 0j, (complex(1.0, 0.1), speed))
            assert abs(ctl.cmd - cmds[-1]) <= limit + 1e-15
            assert 0.0 <= ctl.cmd <= 1.0
            assert ctl.p_smr == ctl.cmd * IES_UNIT.smr.p_max / case118.system_mva_base
            assert ctl.state()[1] == ctl.bess.p_out
            assert math.isfinite(abs(i_b))
            cmds.append(ctl.cmd)
        assert max(cmds) - min(cmds) > 20 * limit  # the limiter was reached

    def test_battery_acts_while_the_smr_is_tripped(self, case118, snapshot):
        _, machines = plant(case118, snapshot, IES_UNIT)
        ctl = _IesControl(IES_UNIT, machines, case118.system_mva_base, self.CFG)
        valve_cmd = ctl.state()[3:]
        assert ctl.p_smr > 0
        i_b = ctl.step(-0.5, 1.0 + 0j, None)  # under-frequency
        assert i_b.real > 0 and ctl.bess.p_out > 0  # discharge
        assert ctl.p_smr == 0.0  # a tripped SMR delivers no power
        assert ctl.state()[3:] == valve_cmd  # its valve and command hold


GRID = dict(h=4.0, d=2.0, xd_p=0.25, mva_base=100.0)

#: (call, exception type, message) for each record and argument check.
CHECKS = [
    (lambda: MachineParams(**{**GRID, "h": 0.0}), ValueError, "inertia h must be > 0"),
    (lambda: MachineParams(**{**GRID, "xd_p": 0.0}), ValueError, "xd_p must be > 0"),
    (lambda: MachineParams(**{**GRID, "mva_base": 0.0}), ValueError,
     "mva_base must be > 0"),
    (lambda: SmrParams(m_min=0.09), ValueError, "need 0 < m_min <= m_max"),
    (lambda: SmrParams(q_dot_max=-1.0), ValueError,
     "p_max must be > 0 and q_dot_max >= 0"),
    (lambda: SmrParams(ramp_limit=0.0), ValueError, "ramp_limit must be > 0"),
    (lambda: BessParams(p_rating=0.0), ValueError, "p_rating must be > 0"),
    (lambda: BessParams(k_i=-1.0), ValueError, "gains must be >= 0"),
    *[
        (lambda v=v: LineTrip(1, 2, circuit=v), ValueError, "circuit must be >= 0")
        for v in (-1, math.nan)
    ],
    (lambda: Event(-1.0, GenTrip(12)), ValueError, "event time must be >= 0"),
    (lambda: SimConfig(dt=0.05), ValueError, "dt must be in (0, 0.02]"),
    *[
        (lambda v=v: SimConfig(t_end=v), ValueError, "t_end must be finite and > 0")
        for v in (0.0, math.inf, math.nan)
    ],
    (lambda: SimConfig(dt=0.005, t_end=1.0075), ValueError,
     "t_end must be a whole number of dt steps"),
    *[
        (lambda v=v: SimConfig(dt=0.005, t_end=v), ValueError,
         "t_end must be at most 1000000 dt steps")
        for v in (5000.005, 1e13)
    ],
    *[
        (lambda v=v: SimConfig(freq_filter_tc=v), ValueError,
         "freq_filter_tc must be finite and >= dt")
        for v in (0.0, 0.002, math.inf, math.nan)
    ],
    *[
        (lambda v=v: SimConfig(f_nominal=v), ValueError, "f_nominal must be finite and > 0")
        for v in (0.0, -60.0, math.inf, math.nan)
    ],
    (lambda: turbine_mechanical_power(0.9, 1100, 850, 10, -1), ValueError,
     "mass flows must be >= 0"),
    (lambda: turbine_mechanical_power(1.5, 1100, 850, 10, 10), ValueError,
     "eta_t must be in (0, 1]"),
    (lambda: compute_droop(-1.0, 0.0, SMR), ValueError, "loadings must be >= 0"),
    (lambda: governor_power_correction(0.01, 0.0, 0.0), ValueError, "droop must be > 0"),
    (lambda: apply_load_limiter(0.5, 0.4, 0.02, 0.0), ValueError, "dt must be > 0"),
    (lambda: bess_power(0.01, BessState(), BessParams(), 0.0), ValueError,
     "dt must be > 0"),
    (lambda: smr_flows_from_power(-1.0), ValueError, "p_mech must be >= 0"),
    (lambda: bus_frequency_estimate(np.zeros(1), 0.05, 0.005), ValueError,
     "need at least 2 samples"),
]


@pytest.mark.parametrize("build, error, message", CHECKS, ids=[c[2] for c in CHECKS])
def test_record_and_argument_checks(build, error, message):
    with pytest.raises(error) as exc:
        build()
    assert type(exc.value) is error
    assert str(exc.value) == message


def test_longest_run_accepted():
    assert dynamics.MAX_STEPS == 10**6
    assert SimConfig(dt=0.005, t_end=5000.0).t_end == 5000.0


#: (record, field, refused values, message): every field a device record
#: checks, at 0 where 0 is out of range, below its range, and NaN.
DEVICE_FIELD_CHECKS = [
    (MachineParams, "h", (0.0, -4.0, math.nan), "inertia h must be > 0"),
    (MachineParams, "d", (-5.0, math.nan), "damping d must be >= 0"),
    (MachineParams, "xd_p", (0.0, -0.25, math.nan), "xd_p must be > 0"),
    (MachineParams, "mva_base", (0.0, -100.0, math.nan), "mva_base must be > 0"),
    (SmrParams, "m_min", (0.0, -0.04, math.nan), "need 0 < m_min <= m_max"),
    (SmrParams, "m_max", (0.0, -0.08, math.nan), "need 0 < m_min <= m_max"),
    (SmrParams, "p_max", (0.0, -50.0, math.nan), "p_max must be > 0 and q_dot_max >= 0"),
    (SmrParams, "q_dot_max", (-1.0, math.nan), "p_max must be > 0 and q_dot_max >= 0"),
    (SmrParams, "ramp_limit", (0.0, -0.02, math.nan), "ramp_limit must be > 0"),
    (SmrParams, "t_actuator", (0.0, -0.1, math.nan), "t_actuator must be > 0"),
    (SmrParams, "freq_deadband", (-1.0, math.nan), "freq_deadband must be >= 0"),
    (BessParams, "k_p", (-20.0, math.nan), "gains must be >= 0"),
    (BessParams, "k_i", (-5.0, math.nan), "gains must be >= 0"),
    (BessParams, "p_rating", (0.0, -10.0, math.nan), "p_rating must be > 0"),
    (BessParams, "integrator_limit", (-1.0, math.nan), "integrator_limit must be >= 0"),
]


@pytest.mark.parametrize("record, field, value, message", [
    pytest.param(record, field, value, message, id=f"{record.__name__}.{field}={value}")
    for record, field, values, message in DEVICE_FIELD_CHECKS for value in values
])
def test_device_field_checks(record, field, value, message):
    base = GRID if record is MachineParams else {}
    with pytest.raises(ValueError) as exc:
        record(**{**base, field: value})
    assert str(exc.value) == message


@pytest.mark.parametrize("record, field, value", [
    (MachineParams, "d", 0.0),
    (SmrParams, "q_dot_max", 0.0),
    (SmrParams, "freq_deadband", 0.0),
    (BessParams, "k_p", 0.0),
    (BessParams, "integrator_limit", 0.0),
])
def test_device_field_range_ends_accepted(record, field, value):
    base = GRID if record is MachineParams else {}
    assert getattr(record(**{**base, field: value}), field) == value
