import math
import pickle
import sys
from concurrent.futures import ThreadPoolExecutor
from dataclasses import replace

import numpy as np
import pytest
import scipy.linalg

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
    MAX_ITER,
    SingularJacobianError,
    _initial_voltage,
    _newton_step,
    _nr_core,
    compute_jacobian,
    jacobian_pattern,
    scheduled_injection,
    solve,
    total_losses,
)

from conftest import (
    assert_cached_patterns_fresh,
    case_mismatch,
    flat_start,
    make_two_bus,
    record_pattern_builds,
    record_ybus_builds,
    relabelled,
    terms_to_dense,
    two_bus_exact_voltage,
    week_profile,
    with_added_load,
    zero_valued,
)


def finite_difference_jacobian(case, ybus, v, eps=1e-7):
    """Central finite differences of the computed-injection mismatch.

    The mismatch is scheduled - computed, so its derivative is the
    negated Jacobian of the computed injections.
    """
    pv_idx, pq_idx = case.arrays.pv_idx, case.arrays.pq_idx
    pvpq = np.sort(np.concatenate([pv_idx, pq_idx]))
    th0 = np.angle(v)
    vm0 = np.abs(v)

    def mism(th, vm):
        return case_mismatch(case, ybus, vm * np.exp(1j * th), pvpq, pq_idx)

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


def dense_jacobian(case, ybus, v):
    """compute_jacobian on the case's own partition, its terms scattered
    into a dense matrix."""
    pattern = jacobian_pattern(ybus, case.arrays.pv_idx, case.arrays.pq_idx)
    return terms_to_dense(pattern, compute_jacobian(v, pattern, ybus.matrix @ v))


def dense_oracle_jacobian(ybus, v, pv_idx, pq_idx):
    """The same Jacobian from dense matrix products, as MATPOWER's dSbus_dV
    forms it (Zimmerman, Murillo-Sanchez & Thomas, IEEE Trans. Power Syst.
    26(1), 2011): dS/dth = j diag(V) conj(diag(I) - Y diag(V)) and
    dS/d|V| = diag(V) conj(Y diag(V/|V|)) + conj(diag(I)) diag(V/|V|)."""
    y = ybus.matrix
    i = y @ v
    d_th = 1j * np.diag(v) @ np.conj(np.diag(i) - y @ np.diag(v))
    d_vm = np.diag(v) @ np.conj(y @ np.diag(v / abs(v))) + np.diag(np.conj(i) * v / abs(v))
    pvpq = np.sort(np.concatenate([pv_idx, pq_idx]))
    return np.block([
        [d_th.real[np.ix_(pvpq, pvpq)], d_vm.real[np.ix_(pvpq, pq_idx)]],
        [d_th.imag[np.ix_(pq_idx, pvpq)], d_vm.imag[np.ix_(pq_idx, pq_idx)]],
    ])


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
        mis = case_mismatch(case, ybus, np.ones(2, dtype=complex))
        assert mis == pytest.approx([-0.5, -0.2])

    def test_zero_load_flat_start_zero_mismatch(self):
        case = make_two_bus(p_load=0.0, q_load=0.0)
        ybus = build_ybus(case)
        mis = case_mismatch(case, ybus, np.ones(2, dtype=complex))
        assert np.max(np.abs(mis)) < 1e-14

    def test_exact_solution_is_fixed_point(self):
        case = make_two_bus()
        ybus = build_ybus(case)
        v2 = two_bus_exact_voltage()
        mis = case_mismatch(case, ybus, np.array([1.0 + 0j, v2]))
        assert np.max(np.abs(mis)) < 1e-12


class TestJacobian:
    def test_two_bus_matches_finite_differences(self):
        for tap in (1.0, 0.95):  # nominal and off-nominal (from side)
            case = make_two_bus(r=0.02)
            case = replace(case, branches=(replace(case.branches[0], tap=tap),))
            ybus = build_ybus(case)
            v = np.array([1.0 + 0j, 0.97 * np.exp(-0.06j)])
            jac = dense_jacobian(case, ybus, v)
            fd = finite_difference_jacobian(case, ybus, v)
            assert np.max(np.abs(jac - fd)) < 1e-6

    def test_118_bus_flat_start_matches_finite_differences(self, case118):
        ybus = build_ybus(case118)
        v = np.ones(case118.n_bus, dtype=complex)
        jac = dense_jacobian(case118, ybus, v)
        fd = finite_difference_jacobian(case118, ybus, v)
        assert np.max(np.abs(jac - fd)) < 1e-5

    def test_118_bus_solved_point_matches_finite_differences(self, case118):
        ybus = case118.ybus
        sol = solve(case118)
        assert sol.q_limited_buses
        # The base partition, then the one the Q-limit loop leaves, with
        # the limited PV buses switched to PQ.
        q_limited = replace(case118, buses=tuple(
            replace(b, kind=BusKind.PQ) if b.id in sol.q_limited_buses else b
            for b in case118.buses
        ))
        for case in (case118, q_limited):
            pattern = jacobian_pattern(ybus, case.arrays.pv_idx, case.arrays.pq_idx)
            terms = compute_jacobian(sol.v, pattern, ybus.matrix @ sol.v)
            # One real term per (row, column) entry of the pattern.
            assert terms.shape == pattern.jr.shape and terms.dtype == np.float64
            fd = finite_difference_jacobian(case, ybus, sol.v)
            assert np.max(np.abs(terms_to_dense(pattern, terms) - fd)) < 1e-5

    def test_lossless_line_decoupled_at_flat_start(self):
        case = make_two_bus(r=0.0)
        ybus = build_ybus(case)
        jac = dense_jacobian(case, ybus, np.ones(2, dtype=complex))
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

    @pytest.fixture()
    def tight(self, monkeypatch):
        # At the default 1e-6 the (0.1, 0.0, 0.2) case stops 4.0e-8 off its
        # closed form.
        monkeypatch.setattr(pf, "TOL", 1e-12)

    def test_two_bus_closed_form(self, tight):
        case = make_two_bus(p_load=0.5, q_load=0.2, x=0.1)
        sol = solve(case)
        assert sol.converged
        v2 = two_bus_exact_voltage(0.5, 0.2, 0.1)
        assert abs(sol.v[1] - v2) < 1e-8
        # Lossless line: the slack delivers exactly the load P.
        assert sol.slack_p == pytest.approx(0.5, abs=1e-8)

    def test_two_bus_closed_form_other_loadings(self, tight):
        for p, q, x in [(0.2, 0.05, 0.05), (0.8, 0.3, 0.08), (0.1, 0.0, 0.2)]:
            sol = solve(make_two_bus(p_load=p, q_load=q, x=x))
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

    def test_quadratic_convergence_118(self, case118, monkeypatch):
        # One Newton loop on the base partition, without Q-limit passes.
        monkeypatch.setattr(pf, "TOL", 1e-10)
        a = case118.arrays
        _, iterations, converged, norms, _ = _nr_core(
            case118.ybus, flat_start(case118), a.pv_idx, a.pq_idx,
            scheduled_injection(case118), {},
        )
        assert converged
        assert len(norms) == iterations + 1
        assert norms[-1] / norms[-2] <= 1e-2
        # Once close, each step squares the mismatch (5.9, 0.83, 1e-2,
        # 3e-6, 4e-13 from flat start).
        for prev, nxt in zip(norms[1:], norms[2:]):
            assert nxt <= prev**2

    def test_history_spans_every_q_limit_pass(self, case118):
        sol = solve(case118, v0=flat_start(case118))
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
        snap = with_added_load(case118, 25, 2000.0, 400.0)
        sol = solve(snap)
        assert not sol.converged
        assert sol.iterations < MAX_ITER
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
        sol = solve(case)
        assert not sol.converged

    def test_warm_start_reuses_solution(self, case118):
        sol = solve(case118)
        again = solve(case118, v0=sol.v)
        assert again.converged
        assert again.iterations == 0


@pytest.fixture(scope="module")
def swept_case(case118):
    """A copy of case118 after a 24-bin grid-only sweep at bus 25, and the
    (ybus, pv_idx bytes, pq_idx bytes) key of every PV/PQ partition the
    sweep met, all on the copy's own Y-bus."""
    u = 0.5 + 0.5 * np.sin(np.linspace(0.0, 2 * np.pi, 24))
    profile = build_profile(UtilizationTrace(u=u), calibrate_it_capacity(60.0))
    with pytest.MonkeyPatch.context() as mp:
        built = record_ybus_builds(mp)
        partitions = record_pattern_builds(mp)
        case = replace(case118)  # a Y-bus of its own
        sweep = sc.snapshot_sweep(
            case, profile, sc.Configuration(kind="grid_only", dc_bus=25)
        )
    assert np.all(sweep.converged)
    (ybus,) = built
    assert ybus is case.ybus
    return case, partitions


def q_limited_partition(case, sol):
    """The base PV/PQ partition with sol's Q-limited buses moved to PQ."""
    pv_idx, pq_idx = case.arrays.pv_idx, case.arrays.pq_idx
    lim = [case.bus_index(b) for b in sol.q_limited_buses]
    return np.setdiff1d(pv_idx, lim), np.union1d(pq_idx, lim)


def count_inverses(monkeypatch) -> list:
    """Make np.linalg.inv append 1 to the returned list at each call."""
    calls = []
    real = np.linalg.inv

    def counting(a):
        calls.append(1)
        return real(a)

    monkeypatch.setattr(np.linalg, "inv", counting)
    return calls


def held_inverse(ybus, pattern, v):
    """The inverse of pattern's Jacobian at v, for a chain's entry."""
    terms = compute_jacobian(v, pattern, ybus.matrix @ v)
    return scipy.linalg.inv(terms_to_dense(pattern, terms))


def check_newton_step(case, ybus, entry, pq_idx, v):
    """The Newton step at v with a chain's [pattern, inverse] entry, against
    a dense LU solve of the Jacobian scattered from its terms: the step
    within 1e-10 relative of the oracle's, and its residual within 1e-11
    of the mismatch norm."""
    pattern = entry[0]
    terms = compute_jacobian(v, pattern, ybus.matrix @ v)
    jac = terms_to_dense(pattern, terms)
    mis = case_mismatch(case, ybus, v, pattern.pvpq, pq_idx)
    dx = _newton_step(entry, terms, mis, 0)
    ref = scipy.linalg.lu_solve(scipy.linalg.lu_factor(jac), mis)
    assert np.max(np.abs(dx - ref)) <= 1e-10 * np.max(np.abs(ref))
    assert np.max(np.abs(jac @ dx - mis)) <= 1e-11 * np.max(np.abs(mis))


def tripped_first_branch(case):
    br = case.branches
    return replace(case, branches=(replace(br[0], status=False),) + br[1:])


def rebuilt_with_bus(case, bus):
    """The case built through the constructor with the bus of bus.id replaced by bus."""
    return replace(case, buses=tuple(bus if b.id == bus.id else b for b in case.buses))


def perturbed(v, rng, scale):
    """v with each magnitude and angle moved by `scale` times a standard
    normal draw from rng."""
    n = len(v)
    return v * (1 + scale * rng.standard_normal(n)) * np.exp(scale * 1j * rng.standard_normal(n))


class TestColumnOrdering:
    """The Jacobian patterns, and the Newton step with held inverses."""

    def test_terms_sum_to_the_jacobian(self, case118):
        ybus = case118.ybus
        sol = solve(case118)
        pv_idx, pq_idx = case118.arrays.pv_idx, case118.arrays.pq_idx
        pattern = jacobian_pattern(ybus, pv_idx, pq_idx)
        # 181 unknowns and 1051 structural entries.
        positions = np.unique(pattern.jr * pattern.dim + pattern.jc)
        assert (pattern.dim, len(positions)) == (181, 1051)
        # The layout depends on the structure alone: a second build, on a
        # Y-bus of its own, gives the same one.
        again = jacobian_pattern(build_ybus(case118), pv_idx, pq_idx)
        np.testing.assert_array_equal(again.jr, pattern.jr)
        np.testing.assert_array_equal(again.jc, pattern.jc)
        # Summed, the terms must match a dense build. At the solution every
        # one of the 1051 entries is nonzero; at flat start, lines without
        # resistance give exact zeros.
        for v in (np.ones(case118.n_bus, dtype=complex), sol.v):
            jac = terms_to_dense(pattern, compute_jacobian(v, pattern, ybus.matrix @ v))
            oracle = dense_oracle_jacobian(ybus, v, pv_idx, pq_idx)
            assert np.max(np.abs(jac - oracle)) <= 1e-12 * np.max(np.abs(oracle))
        assert np.count_nonzero(jac) == 1051

    def test_newton_step_matches_dense_solve(self, case118, swept_case, monkeypatch):
        # Every partition a sweep met, the Q-limited partition of the base
        # solve, and the base partition on a Y-bus with a tripped line; at
        # flat start, the solution and two points away from it. Each step
        # starts with no inverse held, with the inverse at a nearby iterate,
        # or with the inverse at flat start.
        swept, partitions = swept_case
        sol = solve(swept)
        cases = [
            (swept, ybus, np.frombuffer(pv, dtype=np.intp), np.frombuffer(pq, dtype=np.intp))
            for ybus, pv, pq in partitions
        ]
        assert len(cases) > 1 and all(c[1] is swept.ybus for c in cases)
        cases.append((swept, swept.ybus) + q_limited_partition(swept, sol))
        tripped = tripped_first_branch(case118)
        cases.append(
            (tripped, tripped.ybus, tripped.arrays.pv_idx, tripped.arrays.pq_idx)
        )
        rng = np.random.default_rng(3)
        flat = np.ones(case118.n_bus, dtype=complex)
        points = [flat, sol.v] + [perturbed(sol.v, rng, 0.05) for _ in range(2)]
        inverses = count_inverses(monkeypatch)
        for case, ybus, pv_idx, pq_idx in cases:
            pattern = jacobian_pattern(ybus, pv_idx, pq_idx)
            at_flat = held_inverse(ybus, pattern, flat)
            for v in points:
                nearby = held_inverse(ybus, pattern, perturbed(v, rng, 1e-3))
                for held, formed in ((None, 1), (nearby, 0), (at_flat, int(v is not flat))):
                    entry = [pattern, held]
                    inverses.clear()
                    check_newton_step(case, ybus, entry, pq_idx, v)
                    assert len(inverses) == formed
                    # A formed inverse replaces the held one in the entry.
                    assert entry[0] is pattern
                    assert (entry[1] is held) == (not formed)

    def test_stalled_correction_forms_the_inverse_again(self, case118, monkeypatch):
        # Half the exact inverse halves the residual at each correction, so
        # the first correction fails to cut it tenfold: the held inverse is
        # dropped after one correction, not used for all six.
        class Counted(np.ndarray):
            products = 0

            def __matmul__(self, other):
                Counted.products += 1
                return np.asarray(self) @ other

        ybus = case118.ybus
        sol = solve(case118)
        pv_idx, pq_idx = case118.arrays.pv_idx, case118.arrays.pq_idx
        pattern = jacobian_pattern(ybus, pv_idx, pq_idx)
        halved = (0.5 * held_inverse(ybus, pattern, sol.v)).view(Counted)
        entry = [pattern, halved]
        inverses = count_inverses(monkeypatch)
        check_newton_step(case118, ybus, entry, pq_idx, sol.v * 1.01)
        assert (Counted.products, len(inverses)) == (2, 1)
        assert entry[1] is not halved

    def test_weekly_sweep_forms_few_inverses(self, case118, monkeypatch):
        # The benchmark's seed-0 week: 2016 bins and 3648 Newton steps, as
        # many as an exact solve of every step takes, on 5 partitions.
        built = record_pattern_builds(monkeypatch)
        inverses = count_inverses(monkeypatch)
        grid = sc.Configuration(kind="grid_only", dc_bus=25)
        sweep = sc.snapshot_sweep(case118, week_profile(0), grid)
        assert np.all(sweep.converged)
        assert sweep.iterations.sum() == 3648
        # The week's one chain builds each partition's pattern once.
        partitions = len(set(built))
        assert 1 < partitions == len(built)
        # Each partition forms its inverse once, and a held inverse that
        # fails to refine is formed again: 6 in all.
        assert partitions <= len(inverses) <= 2 * partitions

    def test_pattern_built_once_per_partition(self, case118, monkeypatch):
        built = record_pattern_builds(monkeypatch)
        snaps = [with_added_load(case118, 25, p) for p in np.linspace(0.0, 300.0, 12)]
        factors = {}  # one chain through all 24 solves
        for snap in snaps * 2:
            assert solve(snap, factors=factors).converged
        assert len(factors) > 1
        assert sorted(built) == sorted(factors)
        assert_cached_patterns_fresh(case118.ybus, factors)
        # A second chain builds every pattern again, for itself alone.
        built.clear()
        other = {}
        for snap in snaps:
            solve(snap, factors=other)
        assert sorted(built) == sorted(other) == sorted(factors)
        assert all(other[key][0] is not factors[key][0] for key in factors)

    def test_tripped_line_gets_its_own_ordering(self, case118):
        ybus = case118.ybus
        tripped = tripped_first_branch(case118)
        ybus_tripped = tripped.ybus
        pv_idx, pq_idx = case118.arrays.pv_idx, case118.arrays.pq_idx
        base = jacobian_pattern(ybus, pv_idx, pq_idx)
        own = jacobian_pattern(ybus_tripped, pv_idx, pq_idx)

        def entries(p):
            return len(np.unique(p.jr * p.dim + p.jc))

        assert entries(own) < entries(base)
        sol = solve(tripped)
        assert sol.converged
        for v in (np.ones(case118.n_bus, dtype=complex), sol.v):
            check_newton_step(tripped, ybus_tripped, [own, None], pq_idx, v)

    def test_reused_chain_keeps_each_ybus_apart(self, case118):
        # One dict through a solve on the case and one on a topology of its
        # own: the second solve must not reuse the first Y-bus's patterns
        # and inverses, so it equals a solve with a dict of its own.
        tripped = tripped_first_branch(case118)
        factors = {}
        assert solve(case118, factors=factors).converged
        got = solve(tripped, factors=factors)
        want = solve(tripped, factors={})
        assert want.converged
        assert (got.iterations, got.converged, got.q_limited_buses) == (
            want.iterations, want.converged, want.q_limited_buses
        )
        np.testing.assert_array_equal(got.v, want.v)
        assert {key[0] for key in factors} == {case118.ybus, tripped.ybus}

    def test_concurrent_solves_leave_the_ybus_unchanged(self, case118):
        # compare solves on a thread pool, and every solve on snapshots of
        # one case reads its Y-bus. Each solve is a chain of its own with
        # its own Newton state, so concurrent solves equal serial ones bit
        # for bit, and no solve writes to the shared Y-bus.
        case = replace(case118)  # a Y-bus of its own
        before = pickle.dumps(vars(case.ybus))
        snaps = [with_added_load(case, 25, p, 0.2 * p) for p in (0.0, 60.0, 250.0, 400.0)]
        assert all(s.ybus is case.ybus for s in snaps)
        serial = [solve(s).v for s in snaps]
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            with ThreadPoolExecutor(max_workers=6) as pool:
                futures = [pool.submit(solve, s) for s in snaps * 3]
                results = [f.result(timeout=60) for f in futures]
        finally:
            sys.setswitchinterval(interval)
        for k, sol in enumerate(results):
            np.testing.assert_array_equal(sol.v, serial[k % len(snaps)])
        assert pickle.dumps(vars(case.ybus)) == before

    def test_exactly_singular_step_raises(self, case118):
        # One zero column stays exactly zero through the elimination, so
        # its pivot is exactly zero whatever the row exchanges.
        ybus = case118.ybus
        sol = solve(case118)
        pv_idx, pq_idx = case118.arrays.pv_idx, case118.arrays.pq_idx
        pattern = jacobian_pattern(ybus, pv_idx, pq_idx)
        terms = compute_jacobian(sol.v, pattern, ybus.matrix @ sol.v)
        mis = case_mismatch(case118, ybus, sol.v * 1.01, pattern.pvpq, pq_idx)
        column = pattern.jc == pattern.dim // 2
        assert terms[column].any()
        terms[column] = 0.0
        with pytest.raises(SingularJacobianError) as exc:
            _newton_step([pattern, None], terms, mis, 5)
        assert exc.value.iteration == 5

    def test_zero_jacobian_raises_with_and_without_a_held_inverse(self, case118):
        ybus = case118.ybus
        sol = solve(case118)
        pv_idx, pq_idx = case118.arrays.pv_idx, case118.arrays.pq_idx
        pattern = jacobian_pattern(ybus, pv_idx, pq_idx)
        zero = zero_valued(compute_jacobian(sol.v, pattern, ybus.matrix @ sol.v))
        mis = case_mismatch(case118, ybus, sol.v * 1.01, pattern.pvpq, pq_idx)
        for held in (None, held_inverse(ybus, pattern, sol.v)):
            with pytest.raises(SingularJacobianError) as exc:
                _newton_step([pattern, held], zero, mis, 3)
            assert exc.value.iteration == 3

    def test_one_bus_case_has_no_unknowns(self):
        case = one_bus_case(p_load=0.0)
        ybus = build_ybus(case)
        pattern = jacobian_pattern(ybus, case.arrays.pv_idx, case.arrays.pq_idx)
        assert pattern.dim == 0 and len(pattern.jr) == len(pattern.jc) == 0
        v = np.ones(1, dtype=complex)
        assert compute_jacobian(v, pattern, ybus.matrix @ v).shape == (0,)
        sol = solve(case)
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
            solve(case118, v0=flat_start(case118))
        assert exc.value.iteration == singular_call - 1
        assert len(calls) == singular_call


class TestArgumentChecks:
    def test_non_finite_newton_step(self):
        # From a 1e300 pu start the Jacobian overflows to inf and nan, and
        # its inverse, formed without a zero pivot, gives a nan step.
        case = make_two_bus()
        with np.errstate(all="ignore"), pytest.raises(SingularJacobianError) as exc:
            solve(case, v0=np.array([1.0, 1e300], dtype=complex))
        assert exc.value.iteration == 0


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
    def switched_case_oracle(case, ybus, v):
        """The Q-limit loop on explicit case copies: every switch builds a
        case through the constructor with the one bus replaced, each pass a
        Newton loop on the copy's own partition and scheduled injection.
        Returns (v, iterations, switched case)."""
        base = case.system_mva_base
        lims = q_limits_by_bus(case)
        vset = {g.bus: g.v_set for g in case.generators if g.status}
        work, pinned, released, total = case, {}, set(), 0
        factors = {}  # one chain's Newton state, shared by the passes as in solve
        for _ in range(case.n_bus + 1):
            v, it, ok, _, _ = _nr_core(
                ybus, v, work.arrays.pv_idx, work.arrays.pq_idx,
                scheduled_injection(work), factors,
            )
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
                        work = rebuilt_with_bus(
                            work, replace(bus, kind=BusKind.PQ, q_load=bus.q_load - qfix * base)
                        )
                        pinned[bid] = side
                        changed = True
                elif bid not in released:
                    vm = abs(v[i])
                    if (pinned[bid] == "hi" and vm > vset[bid] + 1e-6) or (
                        pinned[bid] == "lo" and vm < vset[bid] - 1e-6
                    ):
                        work = rebuilt_with_bus(work, bus)
                        v[i] = vset[bid] * np.exp(1j * np.angle(v[i]))
                        del pinned[bid]
                        released.add(bid)
                        changed = True
            if not changed:
                return v, total, work
        raise AssertionError("oracle ran out of passes")

    @pytest.mark.parametrize("p_dc_mw", [0.0, 60.0, 250.0])
    def test_mask_switching_matches_switched_case(self, case118, p_dc_mw):
        snap = with_added_load(case118, 25, p_dc_mw, 0.2 * p_dc_mw)
        ybus = snap.ybus
        sol = solve(snap)
        assert sol.converged and sol.q_limited_buses
        v0 = _initial_voltage(snap)
        v, iterations, switched = self.switched_case_oracle(snap, ybus, v0)
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


class TestMetamorphic:
    """Relations between solves that need no reference solution (Chen,
    Cheung & Yiu, HKUST-CS98-01, 1998)."""

    @pytest.mark.parametrize("seed", [0, 1, 2])
    @pytest.mark.parametrize("p_dc_mw", [0.0, 250.0])
    def test_relabelled_case_has_the_same_solution(self, case118, seed, p_dc_mw):
        # Renumbering and reordering the buses and reordering the branches
        # permutes the unknowns, so the Jacobian pattern changes; the
        # solution must not.
        snap = with_added_load(case118, 25, p_dc_mw, 0.2 * p_dc_mw)
        other, new_id = relabelled(snap, seed)
        assert [b.id for b in other.buses] != [new_id[b.id] for b in snap.buses]
        want, got = solve(snap), solve(other)
        assert want.converged and got.converged and want.q_limited_buses
        back = [other.bus_index(new_id[b.id]) for b in snap.buses]
        assert np.max(np.abs(got.v[back] - want.v)) <= 1e-9
        assert set(got.q_limited_buses) == {new_id[b] for b in want.q_limited_buses}

    def test_shipped_ybus_is_symmetric(self, case118):
        # Taps are real and no branch shifts phase, so Y = Y^T exactly.
        y = case118.ybus.matrix
        np.testing.assert_array_equal(y, y.T)


class TestApplySnapshot:
    GRID = sc.Configuration(kind="grid_only", dc_bus=25, dc_power_factor=0.98)

    def test_load_added(self, case118):
        snap, dispatch = sc.snapshot_case(case118, self.GRID, 60.0)
        base = case118.bus(25)
        assert dispatch == 0.0
        assert snap.bus(25).p_load == base.p_load + 60.0
        assert snap.bus(25).q_load == base.q_load + 60.0 * math.tan(math.acos(0.98))
        assert snap.ybus is case118.ybus

    def test_zero_load_noop(self, case118):
        snap, _ = sc.snapshot_case(case118, self.GRID, 0.0)
        assert snap == case118

    def test_monotone_load_voltage_two_bus(self):
        vmags = []
        for p in np.linspace(0.1, 0.9, 9):
            sol = solve(make_two_bus(p_load=float(p), q_load=float(p) * 0.3))
            assert sol.converged
            vmags.append(abs(sol.v[1]))
        assert all(a > b for a, b in zip(vmags, vmags[1:]))
