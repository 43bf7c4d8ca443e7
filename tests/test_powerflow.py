import sys
from concurrent.futures import ThreadPoolExecutor
from dataclasses import replace

import numpy as np
import pytest
import scipy.sparse as sp

from smrgrid import powerflow as pf
from smrgrid import scenario as sc
from smrgrid.datacenter import UtilizationTrace, build_profile, calibrate_it_capacity
from smrgrid.network import (
    Bus,
    BusKind,
    Branch,
    Generator,
    NetworkCase,
    build_ybus,
)
from smrgrid.powerflow import (
    DIVERGENCE_FACTOR,
    PowerFlowOptions,
    SingularJacobianError,
    _bus_partitions,
    _cached_pattern,
    _initial_voltage,
    _newton_step,
    _nr_core,
    apply_snapshot,
    compute_jacobian,
    compute_mismatch,
    jacobian_pattern,
    scheduled_injection,
    solve,
    total_losses,
)

from conftest import make_two_bus, two_bus_exact_voltage, week_profile, zero_valued


def finite_difference_jacobian(case, ybus, v, eps=1e-7):
    """Central finite differences of the computed-injection mismatch.

    compute_mismatch returns scheduled - computed, so its derivative is the
    negated Jacobian of the computed injections.
    """
    pv_idx, pq_idx = _bus_partitions(case)
    pvpq = np.sort(np.concatenate([pv_idx, pq_idx]))
    th0 = np.angle(v)
    vm0 = np.abs(v)

    def mism(th, vm):
        return compute_mismatch(case, ybus, vm * np.exp(1j * th), pvpq, pq_idx)

    cols = []
    for k in pvpq:
        th = th0.copy()
        th[k] += eps
        hi = mism(th, vm0)
        th[k] -= 2 * eps
        lo = mism(th, vm0)
        cols.append(-(hi - lo) / (2 * eps))
    for k in pq_idx:
        vm = vm0.copy()
        vm[k] += eps
        hi = mism(th0, vm)
        vm[k] -= 2 * eps
        lo = mism(th0, vm)
        cols.append(-(hi - lo) / (2 * eps))
    return np.column_stack(cols)


def q_limits_by_bus(case):
    """Bus id -> (q_min, q_max) of its in-service generators, summed, pu."""
    base = case.system_mva_base
    lims = {}
    for g in case.generators:
        if g.status:
            lo, hi = lims.get(g.bus, (0.0, 0.0))
            lims[g.bus] = (lo + g.q_min / base, hi + g.q_max / base)
    return lims


def one_bus_case(p_load=0.0):
    return NetworkCase(
        system_mva_base=100.0,
        buses=(
            Bus(id=1, kind=BusKind.SLACK, v_mag=1.0, v_ang_deg=0.0, base_kv=138.0,
                p_load=p_load),
        ),
        branches=(),
        generators=(Generator(bus=1, p_set=0.0, q_min=-999, q_max=999, v_set=1.0),),
    )


class TestMismatch:
    def test_flat_start_two_bus_equals_negated_load(self):
        case = make_two_bus(p_load=0.5, q_load=0.2)
        ybus = build_ybus(case)
        mis = compute_mismatch(case, ybus, np.ones(2, dtype=complex))
        assert mis == pytest.approx([-0.5, -0.2])

    def test_zero_load_flat_start_zero_mismatch(self):
        case = make_two_bus(p_load=0.0, q_load=0.0)
        ybus = build_ybus(case)
        mis = compute_mismatch(case, ybus, np.ones(2, dtype=complex))
        assert np.max(np.abs(mis)) < 1e-14

    def test_exact_solution_is_fixed_point(self):
        case = make_two_bus()
        ybus = build_ybus(case)
        v2 = two_bus_exact_voltage()
        mis = compute_mismatch(case, ybus, np.array([1.0 + 0j, v2]))
        assert np.max(np.abs(mis)) < 1e-12


class TestJacobian:
    def test_two_bus_matches_finite_differences(self):
        for tap in (1.0, 0.95):  # nominal and off-nominal (from side)
            case = make_two_bus(r=0.02)
            case = replace(case, branches=(replace(case.branches[0], tap=tap),))
            ybus = build_ybus(case)
            v = np.array([1.0 + 0j, 0.97 * np.exp(-0.06j)])
            jac = compute_jacobian(case, ybus, v).toarray()
            fd = finite_difference_jacobian(case, ybus, v)
            assert np.max(np.abs(jac - fd)) < 1e-6

    def test_118_bus_flat_start_matches_finite_differences(self, case118):
        ybus = build_ybus(case118)
        v = np.ones(case118.n_bus, dtype=complex)
        jac = compute_jacobian(case118, ybus, v).toarray()
        fd = finite_difference_jacobian(case118, ybus, v)
        assert np.max(np.abs(jac - fd)) < 1e-5

    def test_118_bus_solved_point_matches_finite_differences(self, case118):
        ybus = build_ybus(case118)
        sol = solve(case118, ybus)
        assert sol.q_limited_buses
        # The base partition, then the one the Q-limit loop leaves, with
        # the limited PV buses switched to PQ.
        q_limited = case118
        for bid in sol.q_limited_buses:
            q_limited = q_limited.with_bus(replace(q_limited.bus(bid), kind=BusKind.PQ))
        for case in (case118, q_limited):
            jac = compute_jacobian(case, ybus, sol.v)
            assert jac.format == "csc"
            fd = finite_difference_jacobian(case, ybus, sol.v)
            assert np.max(np.abs(jac.toarray() - fd)) < 1e-5

    def test_lossless_line_decoupled_at_flat_start(self):
        case = make_two_bus(r=0.0)
        ybus = build_ybus(case)
        jac = compute_jacobian(case, ybus, np.ones(2, dtype=complex)).toarray()
        # unknowns: [theta_2, vm_2]; dP/dV and dQ/dtheta cross terms vanish
        assert abs(jac[0, 1]) < 1e-12
        assert abs(jac[1, 0]) < 1e-12


class TestSolve:
    def test_one_bus_no_load(self):
        sol = solve(one_bus_case(0.0))
        assert sol.converged
        assert sol.iterations == 0
        assert sol.slack_p == pytest.approx(0.0, abs=1e-12)

    def test_one_bus_with_load(self):
        sol = solve(one_bus_case(30.0))
        assert sol.converged
        assert sol.slack_p == pytest.approx(0.3)

    TIGHT = PowerFlowOptions(tol=1e-12)

    def test_two_bus_closed_form(self):
        case = make_two_bus(p_load=0.5, q_load=0.2, x=0.1)
        sol = solve(case, opts=self.TIGHT)
        assert sol.converged
        v2 = two_bus_exact_voltage(0.5, 0.2, 0.1)
        assert abs(sol.v[1] - v2) < 1e-8
        # Lossless line: the slack delivers exactly the load P.
        assert sol.slack_p == pytest.approx(0.5, abs=1e-8)

    def test_two_bus_closed_form_other_loadings(self):
        for p, q, x in [(0.2, 0.05, 0.05), (0.8, 0.3, 0.08), (0.1, 0.0, 0.2)]:
            sol = solve(make_two_bus(p_load=p, q_load=q, x=x), opts=self.TIGHT)
            assert sol.converged
            assert abs(sol.v[1] - two_bus_exact_voltage(p, q, x)) < 1e-8

    def test_118_bus_converges(self, case118):
        sol = solve(case118)
        assert sol.converged
        assert sol.iterations <= 10
        assert sol.max_mismatch <= 1e-6

    def test_self_consistency(self, case118):
        sol = solve(case118)
        ybus = build_ybus(case118)
        s = sol.v * np.conj(ybus.matrix @ sol.v)
        assert np.max(np.abs(s.real - sol.p_inj)) < 1e-10
        assert np.max(np.abs(s.imag - sol.q_inj)) < 1e-10

    def test_power_balance(self, case118):
        sol = solve(case118)
        losses = total_losses(case118, sol.v)
        # Sum of net injections equals network losses (shunt-adjusted).
        assert abs(np.sum(sol.p_inj) - losses.real) < 1e-8

    def test_quadratic_convergence_118(self, case118):
        opts = PowerFlowOptions(tol=1e-10, flat_start=True, enforce_q_limits=False)
        sol = solve(case118, opts=opts)
        assert sol.converged
        norms = sol.mismatch_norms
        assert len(norms) == sol.iterations + 1
        assert norms[-1] == sol.max_mismatch
        assert norms[-1] / norms[-2] <= 1e-2
        # Once close, each step squares the mismatch (5.9, 0.83, 1e-2,
        # 3e-6, 4e-13 from flat start).
        for prev, nxt in zip(norms[1:], norms[2:]):
            assert nxt <= prev**2

    def test_history_spans_every_q_limit_pass(self, case118):
        sol = solve(case118, opts=PowerFlowOptions(flat_start=True))
        assert sol.converged and sol.q_limited_buses
        norms = sol.mismatch_norms
        # Each pass starts with its own initial mismatch, so the history
        # holds one entry per pass beyond the iterations.
        passes = len(norms) - sol.iterations
        assert passes > 1
        assert sum(n <= 1e-6 for n in norms) == passes
        assert norms[-1] == sol.max_mismatch

    def test_divergence_stops_early(self, case118):
        # 2000 MW / 400 MVAr at bus 25 has no solution; the mismatch goes
        # 18, 7.7, 15, 190, 5.9e4 and would run on for all max_iter.
        snap = apply_snapshot(case118, 25, 2000.0, 400.0)
        opts = PowerFlowOptions()
        sol = solve(snap, opts=opts)
        assert not sol.converged
        assert sol.iterations < opts.max_iter
        norms = sol.mismatch_norms
        assert len(norms) == sol.iterations + 1
        assert norms[-1] > DIVERGENCE_FACTOR * min(norms)
        assert all(
            n <= DIVERGENCE_FACTOR * min(norms[: k + 1])
            for k, n in enumerate(norms[:-1])
        )

    def test_non_convergence_is_result_state(self):
        # Load far beyond the static transfer limit cannot be solved.
        case = make_two_bus(p_load=6.0, q_load=3.0, x=0.5)
        sol = solve(case, opts=PowerFlowOptions(max_iter=15))
        assert not sol.converged

    def test_warm_start_reuses_solution(self, case118):
        ybus = build_ybus(case118)
        sol = solve(case118, ybus)
        again = solve(case118, ybus, v0=sol.v)
        assert again.converged
        assert again.iterations == 0


@pytest.fixture(scope="module")
def sweep_ybus(case118):
    """The Y-bus of a 24-bin grid-only sweep at bus 25, holding the cached
    pattern of every PV/PQ partition the sweep met."""
    built = []

    def recording_build_ybus(case):
        built.append(build_ybus(case))
        return built[-1]

    u = 0.5 + 0.5 * np.sin(np.linspace(0.0, 2 * np.pi, 24))
    profile = build_profile(UtilizationTrace(u=u), calibrate_it_capacity(60.0))
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(sc, "build_ybus", recording_build_ybus)
        sweep = sc.snapshot_sweep(
            case118, profile, sc.Configuration(kind="grid_only", dc_bus=25)
        )
    assert np.all(sweep.converged)
    (ybus,) = built
    return ybus


def q_limited_partition(case, sol):
    """The base PV/PQ partition with sol's Q-limited buses moved to PQ."""
    pv_idx, pq_idx = _bus_partitions(case)
    lim = [case.bus_index(b) for b in sol.q_limited_buses]
    return np.setdiff1d(pv_idx, lim), np.union1d(pq_idx, lim)


def newton_step_error(case, ybus, pattern, pv_idx, pq_idx, v):
    """Relative difference of the banded Newton step from a dense solve."""
    jac = compute_jacobian(case, ybus, v, pv_idx, pq_idx, pattern)
    mis = compute_mismatch(case, ybus, v, pattern.pvpq, pq_idx)
    dx = _newton_step(pattern, jac, mis, pattern.band_matrix(), 0)
    ref = np.linalg.solve(jac.toarray(), mis)
    return np.max(np.abs(dx - ref)) / np.max(np.abs(ref))


def tripped_first_branch(case):
    br = case.branches
    return replace(case, branches=(replace(br[0], status=False),) + br[1:])


class TestColumnOrdering:
    """The band order of each Jacobian pattern and the banded Newton step."""

    def test_band_holds_the_reordered_jacobian(self, case118):
        ybus = build_ybus(case118)
        sol = solve(case118, ybus)
        pv_idx, pq_idx = _bus_partitions(case118)
        pattern = jacobian_pattern(ybus, pv_idx, pq_idx)
        assert (pattern.dim, len(pattern.indices)) == (181, 1051)
        # scipy's reverse Cuthill-McKee, started at a least-degree node,
        # gives 38 here.
        assert (pattern.kl, pattern.ku) == (24, 24)
        np.testing.assert_array_equal(np.sort(pattern.order), np.arange(pattern.dim))
        # The order depends on the structure alone: a second build, on a
        # Y-bus of its own, gives the same one.
        again = jacobian_pattern(build_ybus(case118), pv_idx, pq_idx)
        np.testing.assert_array_equal(again.order, pattern.order)
        jac = compute_jacobian(case118, ybus, sol.v, pv_idx, pq_idx, pattern)
        # Read the band back into a dense matrix: it must be the Jacobian
        # with rows and columns in band order, nothing outside the band.
        band = pattern.band_matrix()
        band.ravel(order="F")[pattern.band_slot] = jac.data
        n, kl, ku = pattern.dim, pattern.kl, pattern.ku
        dense = np.zeros((n, n))
        for j in range(n):
            i = np.arange(max(0, j - ku), min(n, j + kl + 1))
            dense[i, j] = band[kl + ku + i - j, j]
        order = pattern.order
        np.testing.assert_array_equal(dense, jac.toarray()[np.ix_(order, order)])

    def test_newton_step_matches_dense_solve(self, case118, sweep_ybus):
        # Every partition a sweep met, the Q-limited partition of the base
        # solve, and the base partition on a Y-bus with a tripped line.
        sol = solve(case118, sweep_ybus)
        cases = [
            (case118, sweep_ybus,
             np.frombuffer(key[0], dtype=np.intp), np.frombuffer(key[1], dtype=np.intp))
            for key in sweep_ybus.jacobian_patterns
        ]
        assert len(cases) > 1
        cases.append((case118, sweep_ybus) + q_limited_partition(case118, sol))
        tripped = tripped_first_branch(case118)
        cases.append((tripped, build_ybus(tripped)) + _bus_partitions(tripped))
        rng = np.random.default_rng(3)
        points = [np.ones(case118.n_bus, dtype=complex), sol.v] + [
            sol.v * (1 + 0.05 * rng.standard_normal(case118.n_bus))
            * np.exp(0.05j * rng.standard_normal(case118.n_bus))
            for _ in range(2)
        ]
        for case, ybus, pv_idx, pq_idx in cases:
            pattern = _cached_pattern(ybus, pv_idx, pq_idx)
            for v in points:
                assert newton_step_error(case, ybus, pattern, pv_idx, pq_idx, v) <= 1e-10

    def test_band_width_on_every_weekly_sweep_pattern(self, case118, monkeypatch):
        built = []

        def recording_build_ybus(case):
            built.append(build_ybus(case))
            return built[-1]

        monkeypatch.setattr(sc, "build_ybus", recording_build_ybus)
        sweep = sc.snapshot_sweep(
            case118, week_profile(0), sc.Configuration(kind="grid_only", dc_bus=25)
        )
        assert np.all(sweep.converged)
        (ybus,) = built
        assert len(ybus.jacobian_patterns) > 1
        for pattern in ybus.jacobian_patterns.values():
            np.testing.assert_array_equal(np.sort(pattern.order), np.arange(pattern.dim))
            assert max(pattern.kl, pattern.ku) <= 25

    def test_band_order_of_scrambled_paths(self):
        # Two paths, 0-1-...-9 and 10-...-16, their nodes numbered at
        # random: each component is ordered end to end, bandwidth 1.
        rng = np.random.default_rng(5)
        label = rng.permutation(17)
        edges = [(k, k + 1) for k in range(9)] + [(k, k + 1) for k in range(10, 16)]
        rows = [label[a] for a, b in edges] + [label[b] for a, b in edges]
        cols = [label[b] for a, b in edges] + [label[a] for a, b in edges]
        structure = sp.csc_matrix((np.ones(len(rows)), (rows, cols)), shape=(17, 17))
        order = pf._band_order(structure.indices, structure.indptr)
        np.testing.assert_array_equal(np.sort(order), np.arange(17))
        position = np.empty(17, dtype=np.intp)
        position[order] = np.arange(17)
        assert np.max(np.abs(position[rows] - position[cols])) == 1

    def test_band_order_built_once_per_pattern(self, case118, monkeypatch):
        real = pf._band_order
        calls = []

        def counting(*args):
            calls.append(1)
            return real(*args)

        monkeypatch.setattr(pf, "_band_order", counting)
        ybus = build_ybus(case118)
        snaps = [apply_snapshot(case118, 25, p) for p in np.linspace(0.0, 300.0, 12)]
        for snap in snaps * 2:
            assert solve(snap, ybus).converged
        assert len(ybus.jacobian_patterns) > 1
        assert len(calls) == len(ybus.jacobian_patterns)

    def test_tripped_line_gets_its_own_ordering(self, case118):
        ybus = build_ybus(case118)
        tripped = tripped_first_branch(case118)
        ybus_tripped = build_ybus(tripped)
        pv_idx, pq_idx = _bus_partitions(case118)
        base = _cached_pattern(ybus, pv_idx, pq_idx)
        own = _cached_pattern(ybus_tripped, pv_idx, pq_idx)
        assert len(own.indices) < len(base.indices)
        fresh = jacobian_pattern(ybus_tripped, pv_idx, pq_idx)
        assert (own.kl, own.ku) == (fresh.kl, fresh.ku)
        for name in ("order", "band_slot"):
            np.testing.assert_array_equal(getattr(own, name), getattr(fresh, name))
        sol = solve(tripped, ybus_tripped)
        assert sol.converged
        for v in (np.ones(case118.n_bus, dtype=complex), sol.v):
            assert newton_step_error(tripped, ybus_tripped, own, pv_idx, pq_idx, v) <= 1e-10

    def test_threads_share_patterns(self, case118):
        # compare solves on a thread pool, and every solve on one Y-bus
        # shares its cached patterns; each Newton loop writes only its own
        # matrices, so concurrent solves equal serial ones bit for bit.
        snaps = [apply_snapshot(case118, 25, p, 0.2 * p) for p in (0.0, 60.0, 250.0, 400.0)]
        serial = [solve(s, build_ybus(s)).v for s in snaps]
        shared = build_ybus(case118)
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            with ThreadPoolExecutor(max_workers=6) as pool:
                futures = [pool.submit(solve, s, shared) for s in snaps * 3]
                results = [f.result(timeout=60) for f in futures]
        finally:
            sys.setswitchinterval(interval)
        for k, sol in enumerate(results):
            np.testing.assert_array_equal(sol.v, serial[k % len(snaps)])
        assert all(
            not p.natural.data.flags.writeable and not p.natural.data.any()
            for p in shared.jacobian_patterns.values()
        )

    def test_exactly_singular_step_raises(self, case118):
        # One zero column stays exactly zero through the elimination, so
        # its pivot is exactly zero whatever the row exchanges.
        ybus = build_ybus(case118)
        sol = solve(case118, ybus)
        pv_idx, pq_idx = _bus_partitions(case118)
        pattern = _cached_pattern(ybus, pv_idx, pq_idx)
        jac = compute_jacobian(case118, ybus, sol.v, pv_idx, pq_idx, pattern)
        mis = compute_mismatch(case118, ybus, sol.v * 1.01, pattern.pvpq, pq_idx)
        k = pattern.dim // 2
        jac.data[jac.indptr[k]:jac.indptr[k + 1]] = 0.0
        with pytest.raises(SingularJacobianError) as exc:
            _newton_step(pattern, jac, mis, pattern.band_matrix(), 5)
        assert exc.value.iteration == 5

    def test_one_bus_case_has_no_unknowns(self):
        case = one_bus_case(p_load=0.0)
        ybus = build_ybus(case)
        pattern = jacobian_pattern(ybus, *_bus_partitions(case))
        assert pattern.dim == 0 and len(pattern.order) == 0
        assert (pattern.kl, pattern.ku) == (0, 0)
        assert pattern.band_matrix().shape == (1, 0)
        sol = solve(case, ybus)
        assert sol.converged and sol.iterations == 0

    @pytest.mark.parametrize("singular_call", [1, 3])
    def test_singular_jacobian_raises(self, case118, monkeypatch, singular_call):
        real = pf.compute_jacobian
        calls = []

        def singular_on_call(*args):
            calls.append(1)
            jac = real(*args)
            return zero_valued(jac) if len(calls) == singular_call else jac

        monkeypatch.setattr(pf, "compute_jacobian", singular_on_call)
        # From flat start the first Newton loop takes 4 iterations, so both
        # calls fall inside it.
        with pytest.raises(SingularJacobianError) as exc:
            solve(case118, opts=PowerFlowOptions(flat_start=True))
        assert exc.value.iteration == singular_call - 1
        assert len(calls) == singular_call


class TestQLimits:
    @staticmethod
    def limited_case(q_max_mvar=20.0):
        return NetworkCase(
            system_mva_base=100.0,
            buses=(
                Bus(id=1, kind=BusKind.SLACK, v_mag=1.0, v_ang_deg=0.0, base_kv=138.0),
                Bus(id=2, kind=BusKind.PV, v_mag=1.05, v_ang_deg=0.0, base_kv=138.0,
                    p_load=80.0, q_load=60.0),
            ),
            branches=(Branch(from_bus=1, to_bus=2, r=0.01, x=0.1),),
            generators=(
                Generator(bus=1, p_set=0.0, q_min=-999, q_max=999, v_set=1.0),
                Generator(bus=2, p_set=80.0, q_min=0.0, q_max=q_max_mvar, v_set=1.05),
            ),
        )

    def test_pv_switches_and_holds_limit(self):
        case = self.limited_case(20.0)
        sol = solve(case)
        assert sol.converged
        assert sol.q_limited_buses == (2,)
        q_gen = sol.q_inj[1] + 60.0 / 100.0
        assert q_gen == pytest.approx(0.2, abs=1e-6)
        assert abs(sol.v[1]) < 1.05  # cannot hold the setpoint at the limit

    def test_generous_limit_keeps_pv(self):
        case = self.limited_case(999.0)
        sol = solve(case)
        assert sol.converged
        assert sol.q_limited_buses == ()
        assert abs(sol.v[1]) == pytest.approx(1.05, abs=1e-8)

    def test_118_bus_limits_respected(self, case118):
        sol = solve(case118)
        assert sol.converged
        base = case118.system_mva_base
        lims = q_limits_by_bus(case118)
        for bid, (qlo, qhi) in lims.items():
            i = case118.bus_index(bid)
            if case118.buses[i].kind is not BusKind.PV:
                continue
            q_gen = sol.q_inj[i] + case118.buses[i].q_load / base
            assert qlo - 1e-6 <= q_gen <= qhi + 1e-6

    def test_out_of_passes_is_not_converged(self):
        # Warm-started far below the setpoint, the two-bus PV generator is
        # pinned at q_min, released back to PV, then pinned at q_max: the
        # third pass, the loop's last (n_bus + 1), still switches a bus, and
        # its voltage is the PV solution, whose Q exceeds q_max.
        case = self.limited_case(20.0)
        sol = solve(case, v0=np.array([1.0, 0.9], dtype=complex))
        assert not sol.converged
        assert sol.q_limited_buses == (2,)
        assert sol.q_inj[1] + 0.6 > 0.2 + 1e-6

    @staticmethod
    def switched_case_oracle(case, ybus, v, opts):
        """The Q-limit loop on explicit case copies: every switch is a
        with_bus copy, each pass a Newton loop on the copy's own partition
        and scheduled injection. Returns (v, iterations, switched case)."""
        base = case.system_mva_base
        lims = q_limits_by_bus(case)
        vset = {g.bus: g.v_set for g in case.generators if g.status}
        work, pinned, released, total = case, {}, set(), 0
        for _ in range(case.n_bus + 1):
            v, it, ok, _, _, _ = _nr_core(work, ybus, v, opts)
            total += it
            assert ok
            q_gen = (v * np.conj(ybus.matrix @ v)).imag
            changed = False
            for bid, (qlo, qhi) in lims.items():
                bus, i = case.bus(bid), case.bus_index(bid)
                if bus.kind is not BusKind.PV:
                    continue
                if bid not in pinned:
                    q = q_gen[i] + bus.q_load / base
                    side = "hi" if q > qhi + 1e-9 else "lo" if q < qlo - 1e-9 else None
                    if side:
                        qfix = qhi if side == "hi" else qlo
                        work = work.with_bus(
                            replace(bus, kind=BusKind.PQ, q_load=bus.q_load - qfix * base)
                        )
                        pinned[bid] = side
                        changed = True
                elif bid not in released:
                    vm = abs(v[i])
                    if (pinned[bid] == "hi" and vm > vset[bid] + 1e-6) or (
                        pinned[bid] == "lo" and vm < vset[bid] - 1e-6
                    ):
                        work = work.with_bus(bus)
                        v[i] = vset[bid] * np.exp(1j * np.angle(v[i]))
                        del pinned[bid]
                        released.add(bid)
                        changed = True
            if not changed:
                return v, total, work
        raise AssertionError("oracle ran out of passes")

    @pytest.mark.parametrize("p_dc_mw", [0.0, 60.0, 250.0])
    def test_mask_switching_matches_switched_case(self, case118, p_dc_mw):
        snap = apply_snapshot(case118, 25, p_dc_mw, 0.2 * p_dc_mw)
        ybus = build_ybus(snap)
        opts = PowerFlowOptions()
        sol = solve(snap, ybus, opts)
        assert sol.converged and sol.q_limited_buses
        v0 = _initial_voltage(snap, opts.flat_start)
        v, iterations, switched = self.switched_case_oracle(snap, ybus, v0, opts)
        # The oracle's last pass solved the case with exactly the reported
        # buses set to PQ, their Q pinned at a limit.
        assert tuple(
            b.id for b, b0 in zip(switched.buses, snap.buses)
            if b.kind is not b0.kind
        ) == sol.q_limited_buses
        assert all(
            switched.bus(bid).kind is BusKind.PQ
            and switched.bus(bid).q_load != snap.bus(bid).q_load
            for bid in sol.q_limited_buses
        )
        assert np.max(np.abs(sol.v - v)) <= 1e-10
        assert sol.iterations == iterations


class TestApplySnapshot:
    def test_load_added(self, case118):
        snap = apply_snapshot(case118, 25, 60.0, 12.0)
        assert snap.bus(25).p_load == pytest.approx(case118.bus(25).p_load + 60.0)
        assert snap.bus(25).q_load == pytest.approx(case118.bus(25).q_load + 12.0)

    def test_full_netting_cancels(self, case118):
        snap = apply_snapshot(case118, 25, 60.0, 0.0, local_gen_mw=60.0,
                              local_gen_limit_mw=60.0)
        assert snap.bus(25).p_load == pytest.approx(case118.bus(25).p_load)

    def test_zero_load_noop(self, case118):
        snap = apply_snapshot(case118, 25, 0.0)
        assert snap.bus(25).p_load == pytest.approx(case118.bus(25).p_load)

    def test_dispatch_over_rating_rejected(self, case118):
        with pytest.raises(ValueError, match="exceeds rating"):
            apply_snapshot(case118, 25, 60.0, local_gen_mw=70.0,
                           local_gen_limit_mw=50.0)

    def test_monotone_load_voltage_two_bus(self):
        vmags = []
        for p in np.linspace(0.1, 0.9, 9):
            sol = solve(make_two_bus(p_load=float(p), q_load=float(p) * 0.3))
            assert sol.converged
            vmags.append(abs(sol.v[1]))
        assert all(a > b for a, b in zip(vmags, vmags[1:]))
