"""End-to-end acceptance gate.

Each numbered test prints one pass/fail line (collected into the terminal
summary) and asserts the stated threshold. The power-flow reference in
criterion 1 is an independently formulated rectangular-coordinates solver
built on scipy's dense root finder, sharing no code with the package solver.
"""

import math
import time

import numpy as np
import pytest
from scipy.optimize import fsolve

from smrgrid import dynamics as dyn
from smrgrid.datacenter import (
    BIN_SECONDS,
    ItPowerParams,
    MachineEvent,
    TaskRecord,
    bin_tasks,
    calibrate_it_capacity,
    estimate_capacity,
    it_power,
)
from smrgrid.network import build_ybus
from smrgrid.powerflow import solve
from smrgrid.scenario import (
    Configuration,
    ContingencySpec,
    IesSpec,
    compare,
    run_contingency,
    select_snapshot_bins,
    snapshot_sweep,
)

from conftest import ACCEPTANCE_LINES, event_table, task_table, week_profile

SMR = dyn.SmrParams()

#: ramp observations accumulated across every transient run in this module
RAMP_OBSERVATIONS: list[tuple[str, float]] = []


def record(criterion: int, passed: bool, detail: str):
    tag = "PASS" if passed else "FAIL"
    ACCEPTANCE_LINES.append(f"[{tag}] criterion {criterion}: {detail}")
    assert passed, f"criterion {criterion}: {detail}"


def track_ramp(label: str, result: dyn.TransientResult):
    RAMP_OBSERVATIONS.append((label, result.smr_ramp_max))
    return result


# -- shared fixtures ---------------------------------------------------------


@pytest.fixture(scope="module")
def weekly_profile():
    return week_profile(2024)


@pytest.fixture(scope="module")
def ies_config():
    return Configuration(kind="with_ies", dc_bus=25, ies=IesSpec())


@pytest.fixture(scope="module")
def sim_config():
    return dyn.SimConfig(dt=0.005, t_end=15.0, monitor_buses=(25,))


def independent_powerflow_oracle(case):
    """Rectangular-coordinates power flow via scipy's dense root finder,
    with its own outer Q-limit loop. Shares only the parsed case data with
    the package solver."""
    y = build_ybus(case).matrix
    n = case.n_bus
    base = case.system_mva_base
    p_sched = np.zeros(n)
    q_load = np.zeros(n)
    vset = {}
    qmin = np.zeros(n)
    qmax = np.zeros(n)
    for b in case.buses:
        i = case.bus_index(b.id)
        p_sched[i] -= b.p_load / base
        q_load[i] = b.q_load / base
    for g in case.generators:
        if not g.status:
            continue
        i = case.bus_index(g.bus)
        p_sched[i] += g.p_set / base
        vset[i] = g.v_set
        qmin[i] += g.q_min / base
        qmax[i] += g.q_max / base
    slack = case.slack_index
    is_pv = np.array([b.kind.value == "pv" for b in case.buses])
    q_sched = -q_load.copy()

    def solve_partition(pv_mask, q_sched_now):
        def residual(z):
            e = z[:n].copy()
            f = z[n:].copy()
            v = e + 1j * f
            s = v * np.conj(y @ v)
            r = np.zeros(2 * n)
            for i in range(n):
                if i == slack:
                    r[i] = e[i] - vset.get(slack, 1.0)
                    r[n + i] = f[i]
                elif pv_mask[i]:
                    r[i] = s.real[i] - p_sched[i]
                    r[n + i] = e[i] ** 2 + f[i] ** 2 - vset[i] ** 2
                else:
                    r[i] = s.real[i] - p_sched[i]
                    r[n + i] = s.imag[i] - q_sched_now[i]
            return r

        z0 = np.concatenate([np.ones(n), np.zeros(n)])
        z, _, ier, msg = fsolve(residual, z0, full_output=True, xtol=1e-12)
        if ier != 1:
            raise RuntimeError(f"oracle did not converge: {msg}")
        return z[:n] + 1j * z[n:]

    pv = is_pv.copy()
    qs = q_sched.copy()
    for _ in range(10):
        v = solve_partition(pv, qs)
        s = v * np.conj(y @ v)
        changed = False
        for i in range(n):
            if not pv[i]:
                continue
            q_gen = s.imag[i] + q_load[i]
            if q_gen > qmax[i] + 1e-9:
                pv[i] = False
                qs[i] = qmax[i] - q_load[i]
                changed = True
            elif q_gen < qmin[i] - 1e-9:
                pv[i] = False
                qs[i] = qmin[i] - q_load[i]
                changed = True
        if not changed:
            return v
    raise RuntimeError("oracle Q-limit loop did not settle")


# -- criteria ----------------------------------------------------------------


def test_criterion_1_powerflow_vs_independent_oracle(case118):
    t0 = time.perf_counter()
    sol = solve(case118)
    elapsed = time.perf_counter() - t0
    v_oracle = independent_powerflow_oracle(case118)
    dv = float(np.max(np.abs(np.abs(sol.v) - np.abs(v_oracle))))
    ok = (
        sol.converged
        and sol.iterations <= 10
        and sol.max_mismatch <= 1e-6
        and dv <= 1e-4
        and elapsed < 1.0
    )
    record(
        1, ok,
        f"118-bus power flow: {sol.iterations} iters, mismatch "
        f"{sol.max_mismatch:.2e}, |V| vs oracle {dv:.2e} pu, {elapsed*1e3:.0f} ms",
    )


def test_criterion_2_weekly_sweep(case118, weekly_profile):
    assert len(weekly_profile) == 2016
    assert float(np.max(weekly_profile.p_total)) == pytest.approx(60.0, abs=1e-3)
    cfg = Configuration(kind="grid_only", dc_bus=25)
    t0 = time.perf_counter()
    sweep = snapshot_sweep(case118, weekly_profile, cfg)
    elapsed = time.perf_counter() - t0
    ok = sweep.n_failed == 0 and len(sweep.timestamps) == 2016 and elapsed < 60.0
    record(
        2, ok,
        f"weekly sweep: {len(sweep.timestamps)} solves, "
        f"{sweep.n_failed} failures, {elapsed:.1f} s",
    )


def test_criterion_3_droop_suite():
    boundary = (
        dyn.compute_droop(0.0, 0.0, SMR) == SMR.m_min
        and dyn.compute_droop(SMR.p_max, SMR.q_dot_max, SMR) == SMR.m_max
    )
    mid = dyn.compute_droop(0.5 * SMR.p_max, 0.5 * SMR.q_dot_max, SMR)
    midpoint = mid == pytest.approx(0.5 * (SMR.m_min + SMR.m_max), abs=1e-15)
    rng = np.random.default_rng(3)
    p = rng.uniform(0, SMR.p_max, 10_000)
    q = rng.uniform(0, SMR.q_dot_max, 10_000)
    m = np.array([dyn.compute_droop(pi, qi, SMR) for pi, qi in zip(p, q)])
    dp = rng.uniform(0, SMR.p_max - p)
    m_up = np.array(
        [dyn.compute_droop(pi + di, qi, SMR) for pi, di, qi in zip(p, dp, q)]
    )
    monotone = bool(np.all(m_up >= m - 1e-15))
    in_range = bool(np.all((m >= SMR.m_min) & (m <= SMR.m_max)))
    ok = boundary and midpoint and monotone and in_range
    record(
        3, ok,
        "droop map: boundaries exact, midpoint exact, monotone and in "
        "range over 10^4 random loadings",
    )


def test_criterion_4_bess_suite():
    dt = 0.005
    # pure proportional: exact
    p_prop, _ = dyn.bess_power(0.01, dyn.BessState(), dyn.BessParams(k_p=20, k_i=0), dt)
    prop_ok = p_prop == pytest.approx(0.2, abs=1e-15)
    # pure integral: 1 s of constant deviation, dt-order gap to k_i*df*t
    params = dyn.BessParams(k_p=0, k_i=5)
    state = dyn.BessState()
    for _ in range(round(1.0 / dt)):
        p_int, state = dyn.bess_power(0.01, state, params, dt)
    int_ok = abs(p_int - 0.05) <= 5 * 0.01 * dt
    # randomized saturation / anti-windup invariants
    rng = np.random.default_rng(4)
    inv_ok = True
    for _ in range(50):
        params = dyn.BessParams(
            k_p=float(rng.uniform(0, 60)), k_i=float(rng.uniform(0, 20))
        )
        state = dyn.BessState()
        for df in rng.uniform(-0.3, 0.3, 400):
            prev = state.integrator
            p, state = dyn.bess_power(float(df), state, params, dt)
            if abs(p) > 1.0 or (abs(p) == 1.0 and state.integrator != prev):
                inv_ok = False
                break
        if not inv_ok:
            break
    ok = prop_ok and int_ok and inv_ok
    record(
        4, ok,
        f"battery PI: pure-P exact, pure-I gap {abs(p_int - 0.05):.2e} "
        "(dt-order), saturation/anti-windup invariants over random signals",
    )


def test_criterion_6_equilibrium_and_step_halving(
    case118, weekly_profile, ies_config, sim_config
):
    # no-event hold from a converged snapshot, full 15 s horizon
    spec = ContingencySpec(kind="load_step", t_apply=3.0, load_step_mw=0.0)
    bins = select_snapshot_bins(weekly_profile, ("median",))
    t0 = time.perf_counter()
    res = track_ramp(
        "equilibrium",
        run_contingency(case118, weekly_profile, bins[0], ies_config, spec,
                        sim_config),
    )
    hold_s = time.perf_counter() - t0
    drift_ok = res.max_state_drift <= 1e-6

    # step-halving on a fault run
    fault = ContingencySpec(kind="bus_fault", t_apply=3.0, rng_seed=60)
    full = track_ramp(
        "halving/full",
        run_contingency(case118, weekly_profile, bins[0], ies_config, fault,
                        sim_config),
    )
    half_cfg = dyn.SimConfig(
        dt=sim_config.dt / 2, t_end=sim_config.t_end,
        freq_filter_tc=sim_config.freq_filter_tc,
        monitor_buses=sim_config.monitor_buses,
    )
    half = track_ramp(
        "halving/half",
        run_contingency(case118, weekly_profile, bins[0], ies_config, fault,
                        half_cfg),
    )
    dv = float(np.max(np.abs(full.v_mag[25] - half.v_mag[25][::2])))
    halving_ok = dv <= 1e-4
    ok = drift_ok and halving_ok
    record(
        6, ok,
        f"equilibrium drift {res.max_state_drift:.2e} over 15 s "
        f"({hold_s:.2f} s wall), step-halving |dV| {dv:.2e} pu",
    )


def test_criterion_7_ies_vs_grid_comparison(
    case118, weekly_profile, ies_config, sim_config
):
    specs = [
        ContingencySpec(kind="bus_fault", t_apply=3.0, duration=0.1, rng_seed=s)
        for s in range(10)
    ]
    # single-run wall-time check on the 15 s horizon
    t0 = time.perf_counter()
    single = track_ramp(
        "compare/timing",
        run_contingency(case118, weekly_profile,
                        select_snapshot_bins(weekly_profile, ("max",))[0],
                        ies_config, specs[0], sim_config),
    )
    single_s = time.perf_counter() - t0
    report = compare(
        case118, weekly_profile, specs, sim_config, ies_config,
        snapshot_selector=("max",),
    )
    agg = report.aggregate()
    n = agg["pairs"]
    ok = (
        n >= 10
        and agg["failed"] == 0
        and agg["wins_f_nadir"] >= math.ceil(0.9 * n)
        and agg["wins_v_min"] >= math.ceil(0.9 * n)
        and agg["wins_t_settle_f"] >= math.ceil(0.9 * n)
        and single_s < 5.0
    )
    # stash for criterion 10
    test_criterion_7_ies_vs_grid_comparison.report = report
    record(
        7, ok,
        f"IES vs grid over {n} paired contingencies: wins f_nadir "
        f"{agg['wins_f_nadir']}/{n}, v_min {agg['wins_v_min']}/{n}, "
        f"t_settle_f {agg['wins_t_settle_f']}/{n}; 15 s transient "
        f"{single_s:.2f} s wall",
    )


def test_criterion_8_trace_oracles():
    rng = np.random.default_rng(8)
    max_bin_err = 0.0
    max_cap_err = 0.0
    worst_conservation = 0.0
    for _ in range(100):
        n_bins = int(rng.integers(2, 5))
        t1 = BIN_SECONDS * n_bins
        seconds = np.arange(0, int(t1))

        tasks = []
        for _ in range(int(rng.integers(1, 25))):
            a = int(rng.integers(0, int(t1) - 1))
            b = int(rng.integers(a + 1, int(t1) + 1))
            tasks.append(TaskRecord(float(a), float(b), float(rng.uniform(0.1, 4))))
        got = bin_tasks(task_table(tasks), 0.0, t1)
        active = np.zeros(int(t1))
        for tk in tasks:
            active[int(tk.start):int(tk.end)] += tk.cpu
        want = active.reshape(n_bins, BIN_SECONDS).sum(axis=1) / BIN_SECONDS
        max_bin_err = max(max_bin_err, float(np.max(np.abs(got - want))))
        total_binned = float(np.sum(got)) * BIN_SECONDS
        total_direct = sum(tk.cpu * (tk.end - tk.start) for tk in tasks)
        worst_conservation = max(
            worst_conservation,
            abs(total_binned - total_direct) / max(total_direct, 1e-12),
        )

        events = []
        alive = []
        for mid in range(int(rng.integers(2, 15))):
            t_add = int(rng.integers(0, int(t1)))
            events.append(MachineEvent(float(t_add), "add", f"m{mid}",
                                       float(rng.uniform(1, 8))))
            alive.append((f"m{mid}", t_add))
            if rng.random() < 0.5:
                t_rm = int(rng.integers(t_add, int(t1)))
                events.append(MachineEvent(float(t_rm), "remove", f"m{mid}", 0.0))
        got_c = estimate_capacity(event_table(events), 0.0, t1)
        level = np.zeros(int(t1))
        fleet = {}
        evs = sorted(events, key=lambda e: e.t)
        ei = 0
        for s in seconds:
            while ei < len(evs) and evs[ei].t <= s:
                ev = evs[ei]
                if ev.kind == "add" and ev.machine_id not in fleet:
                    fleet[ev.machine_id] = ev.capacity
                elif ev.kind == "remove" and ev.machine_id in fleet:
                    del fleet[ev.machine_id]
                ei += 1
            level[s] = sum(fleet.values())
        want_c = level.reshape(n_bins, BIN_SECONDS).mean(axis=1)
        max_cap_err = max(max_cap_err, float(np.max(np.abs(got_c - want_c))))

    ok = max_bin_err < 1e-9 and max_cap_err < 1e-9 and worst_conservation < 1e-6
    record(
        8, ok,
        f"trace oracles: bin error {max_bin_err:.1e}, capacity error "
        f"{max_cap_err:.1e} over 100 instances; conservation "
        f"{worst_conservation:.1e} relative",
    )


def test_criterion_9_it_power_facts(weekly_profile):
    it = ItPowerParams(p_max=60.0)
    idle_exact = it_power(0.0, it) == 30.0
    peak_exact = it_power(1.0, it) == 60.0
    p_idle = np.min(weekly_profile.p_it)
    p_peak = np.max(weekly_profile.p_it)
    it_cal = calibrate_it_capacity(60.0)
    bounds = bool(
        np.all(weekly_profile.p_it >= it_cal.p_idle - 1e-9)
        and np.all(weekly_profile.p_it <= it_cal.p_max + 1e-9)
    )
    ok = idle_exact and peak_exact and bounds
    record(
        9, ok,
        f"IT power: u=0 -> 30 MW exactly, u=1 -> 60 MW exactly; weekly "
        f"profile bounded to [{p_idle:.2f}, {p_peak:.2f}] MW",
    )


def test_criterion_10_deterministic_compare(
    case118, weekly_profile, ies_config, sim_config
):
    first = getattr(test_criterion_7_ies_vs_grid_comparison, "report", None)
    assert first is not None, "criterion 7 must run first"
    specs = [
        ContingencySpec(kind="bus_fault", t_apply=3.0, duration=0.1, rng_seed=s)
        for s in range(10)
    ]
    again = compare(
        case118, weekly_profile, specs, sim_config, ies_config,
        snapshot_selector=("max",),
    )
    ok = again.to_json().encode() == first.to_json().encode()
    record(10, ok, "repeated seeded compare produced byte-identical reports")


def test_criterion_5_ramp_safety_across_all_runs(
    case118, weekly_profile, ies_config, sim_config
):
    # Defined last so it runs after every other transient in this module has
    # been tracked; adds a few extra contingency kinds for coverage.
    bins = select_snapshot_bins(weekly_profile, ("min", "median"))
    extra = [
        ContingencySpec(kind="gen_trip", t_apply=3.0, rng_seed=21),
        ContingencySpec(kind="line_trip", t_apply=3.0, rng_seed=22),
        ContingencySpec(kind="load_step", t_apply=3.0, load_step_mw=30.0),
    ]
    for spec, b in zip(extra, bins + bins[:1]):
        track_ramp(
            f"ramp/{spec.kind}",
            run_contingency(case118, weekly_profile, b, ies_config, spec,
                            sim_config),
        )
    tracked = RAMP_OBSERVATIONS
    assert tracked, "no transient runs observed"
    worst = max(r for _, r in tracked)
    ok = worst <= SMR.ramp_limit + 1e-9
    record(
        5, ok,
        f"ramp safety: worst |dp_mech|/dt {worst:.6f} pu/s over "
        f"{len(tracked)} tracked runs (limit {SMR.ramp_limit})",
    )
