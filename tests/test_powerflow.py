from dataclasses import replace

import numpy as np
import pytest

from smrgrid.network import (
    Bus,
    BusKind,
    Branch,
    Generator,
    NetworkCase,
    build_ybus,
)
from smrgrid.powerflow import (
    PowerFlowOptions,
    _bus_partitions,
    _nr_core,
    apply_snapshot,
    compute_jacobian,
    compute_mismatch,
    scheduled_injection,
    solve,
    total_losses,
)

from conftest import make_two_bus, two_bus_exact_voltage


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
        return compute_mismatch(case, ybus, vm * np.exp(1j * th), pv_idx, pq_idx)

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


def one_bus_case(p_load=0.0):
    return NetworkCase(
        system_mva_base=100.0,
        buses=(
            Bus(id=1, kind=BusKind.SLACK, v_mag=1.0, v_ang=0.0, base_kv=138.0,
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
        ybus = build_ybus(case118)
        v0 = np.ones(case118.n_bus, dtype=complex)
        from smrgrid.powerflow import _initial_voltage

        v0 = _initial_voltage(case118, flat_start=True)
        opts = PowerFlowOptions(tol=1e-10, enforce_q_limits=False)
        _, _, ok, _, norms = _nr_core(case118, ybus, v0, opts)
        assert ok
        assert norms[-1] / norms[-2] <= 1e-2

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


class TestQLimits:
    @staticmethod
    def limited_case(q_max_mvar=20.0):
        return NetworkCase(
            system_mva_base=100.0,
            buses=(
                Bus(id=1, kind=BusKind.SLACK, v_mag=1.0, v_ang=0.0, base_kv=138.0),
                Bus(id=2, kind=BusKind.PV, v_mag=1.05, v_ang=0.0, base_kv=138.0,
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
        from smrgrid.powerflow import _gen_q_limits_pu

        lims = _gen_q_limits_pu(case118)
        base = case118.system_mva_base
        for i, (qlo, qhi) in lims.items():
            if case118.buses[i].kind is not BusKind.PV:
                continue
            q_gen = sol.q_inj[i] + case118.buses[i].q_load / base
            assert qlo - 1e-6 <= q_gen <= qhi + 1e-6


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
