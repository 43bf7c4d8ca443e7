"""Newton-Raphson AC power flow in polar form with sparse LU linear solves.

Produces the pre-fault operating point for each 5-minute load snapshot.
Non-convergence is a result state (converged=False), not an exception, so
batch sweeps can record failures and continue. A singular Jacobian raises
SingularJacobianError, which sweeps record as a non-converged bin.

The Jacobian is assembled into a fixed sparsity pattern: each Newton loop
holds the Y-bus and the PV/PQ partition fixed, so jacobian_pattern computes
the CSC structure and the scatter indices once per loop, and every
iteration only computes the per-entry derivative values and sums them into
the CSC data with one bincount. compute_jacobian returns CSC, which the
sparse solver takes without conversion.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace

import numpy as np
import scipy.sparse as sp
import scipy.sparse.linalg as spla

from .network import (
    AdmittanceMatrix,
    BusKind,
    NetworkCase,
    branch_admittances,
    build_ybus,
)


class SingularJacobianError(Exception):
    def __init__(self, iteration: int):
        super().__init__(f"singular Jacobian at iteration {iteration}")
        self.iteration = iteration


@dataclass(frozen=True)
class PowerFlowOptions:
    tol: float = 1e-6
    max_iter: int = 20
    flat_start: bool = False
    enforce_q_limits: bool = True

    def __post_init__(self):
        if self.tol <= 0:
            raise ValueError("tol must be > 0")
        if self.max_iter < 1:
            raise ValueError("max_iter must be >= 1")


@dataclass(frozen=True)
class PowerFlowSolution:
    v: np.ndarray  # complex pu, bus order
    p_inj: np.ndarray  # pu net injections
    q_inj: np.ndarray
    slack_p: float  # pu
    slack_q: float
    iterations: int
    converged: bool
    max_mismatch: float
    q_limited_buses: tuple[int, ...] = ()  # bus ids switched PV->PQ


def scheduled_injection(case: NetworkCase) -> np.ndarray:
    """Net scheduled complex injection per bus (generation minus load), pu.

    Slack-bus generation is excluded (it is solved for); PV-bus Q is excluded
    (only P is scheduled there).
    """
    s = -case.load_pu()
    base = case.system_mva_base
    for g in case.generators:
        if not g.status:
            continue
        i = case.bus_index(g.bus)
        if case.buses[i].kind is not BusKind.SLACK:
            s[i] += g.p_set / base
    return s


def compute_mismatch(
    case: NetworkCase,
    ybus: AdmittanceMatrix,
    v: np.ndarray,
    pv_idx: np.ndarray | None = None,
    pq_idx: np.ndarray | None = None,
    s_sched: np.ndarray | None = None,
) -> np.ndarray:
    """Power mismatch [dP at PV+PQ buses; dQ at PQ buses] in bus order, pu.

    dP/dQ = scheduled minus computed injection, so at flat start with a pure
    load the mismatch equals the negated load. s_sched, when given, is
    scheduled_injection(case), hoisted by callers that hold the case fixed.
    """
    if pv_idx is None or pq_idx is None:
        pv_idx, pq_idx = _bus_partitions(case)
    if s_sched is None:
        s_sched = scheduled_injection(case)
    s_calc = v * np.conj(ybus.matrix @ v)
    ds = s_sched - s_calc
    pvpq = np.concatenate([pv_idx, pq_idx])
    pvpq.sort()
    return np.concatenate([ds[pvpq].real, ds[pq_idx].imag])


@dataclass(frozen=True)
class JacobianPattern:
    """Fixed CSC structure of the Jacobian for one (Y-bus, PV/PQ partition).

    Each Y-bus entry (rows, cols, y), followed by one diagonal term per bus,
    contributes a dS/dth and a dS/d|V| value. Of the stacked vector
    [dS/dth.real, dS/dth.imag, dS/d|V|.real, dS/d|V|.imag], the elements at
    ``src`` fall inside the J11/J21/J12/J22 blocks and sum into
    ``data[dest]`` of the CSC matrix (indices, indptr).
    """

    rows: np.ndarray  # bus row of each Y-bus entry
    cols: np.ndarray  # bus column of each Y-bus entry
    y: np.ndarray  # Y-bus entry values
    src: np.ndarray
    dest: np.ndarray
    indices: np.ndarray
    indptr: np.ndarray
    dim: int


def jacobian_pattern(
    ybus: AdmittanceMatrix, pv_idx: np.ndarray, pq_idx: np.ndarray
) -> JacobianPattern:
    """Scatter indices of every Jacobian term into a fixed CSC structure."""
    n = ybus.dimension
    y = ybus.matrix.tocoo()
    pvpq = np.sort(np.concatenate([pv_idx, pq_idx]))
    npvpq = len(pvpq)
    dim = npvpq + len(pq_idx)
    # Jacobian row/column of each bus's angle (dP row) and magnitude (dQ
    # row) unknown; -1 where the bus has none.
    ith = np.full(n, -1)
    ith[pvpq] = np.arange(npvpq)
    ivm = np.full(n, -1)
    ivm[pq_idx] = npvpq + np.arange(len(pq_idx))
    r = np.concatenate([y.row, np.arange(n)])
    c = np.concatenate([y.col, np.arange(n)])
    src, jr, jc = [], [], []
    # (stacked part, row map, column map): J11, J21, J12, J22.
    for part, rmap, cmap in ((0, ith, ith), (1, ivm, ith), (2, ith, ivm), (3, ivm, ivm)):
        rr, cc = rmap[r], cmap[c]
        keep = np.flatnonzero((rr >= 0) & (cc >= 0))
        src.append(part * len(r) + keep)
        jr.append(rr[keep])
        jc.append(cc[keep])
    jr, jc = np.concatenate(jr), np.concatenate(jc)
    slots, dest = np.unique(jc * dim + jr, return_inverse=True)
    return JacobianPattern(
        rows=y.row.astype(np.intp),
        cols=y.col.astype(np.intp),
        y=y.data,
        src=np.concatenate(src),
        dest=dest,
        indices=(slots % dim).astype(np.int32),
        indptr=np.searchsorted(slots, dim * np.arange(dim + 1)).astype(np.int32),
        dim=dim,
    )


def compute_jacobian(
    case: NetworkCase,
    ybus: AdmittanceMatrix,
    v: np.ndarray,
    pv_idx: np.ndarray | None = None,
    pq_idx: np.ndarray | None = None,
    pattern: JacobianPattern | None = None,
) -> sp.csc_matrix:
    """Polar-form Jacobian [dP/dth dP/dVm; dQ/dth dQ/dVm] of the computed
    injections, row/column ordered as compute_mismatch unknowns, as CSC.

    pattern, when given, is jacobian_pattern(ybus, pv_idx, pq_idx), built
    once by callers that hold the Y-bus and the partition fixed.
    """
    if pattern is None:
        if pv_idx is None or pq_idx is None:
            pv_idx, pq_idx = _bus_partitions(case)
        pattern = jacobian_pattern(ybus, pv_idx, pq_idx)
    p = pattern
    vm = np.abs(v)
    ibus = ybus.matrix @ v
    # Y-bus entry (r, c): dS_r/dth_c = -j V_r conj(y V_c) and
    # dS_r/d|V_c| = V_r conj(y V_c) / |V_c|; plus the bus diagonal terms
    # j V conj(I) and conj(I) V / |V|.
    a = v[p.rows] * np.conj(p.y * v[p.cols])
    ds_dth = np.concatenate([-1j * a, 1j * v * np.conj(ibus)])
    ds_dvm = np.concatenate([a / vm[p.cols], np.conj(ibus) * v / vm])
    parts = np.concatenate([ds_dth.real, ds_dth.imag, ds_dvm.real, ds_dvm.imag])
    data = np.bincount(p.dest, weights=parts[p.src], minlength=len(p.indices))
    return sp.csc_matrix((data, p.indices, p.indptr), shape=(p.dim, p.dim))


def _bus_partitions(case: NetworkCase) -> tuple[np.ndarray, np.ndarray]:
    pv = [i for i, b in enumerate(case.buses) if b.kind is BusKind.PV]
    pq = [i for i, b in enumerate(case.buses) if b.kind is BusKind.PQ]
    return np.array(pv, dtype=int), np.array(pq, dtype=int)


def _initial_voltage(case: NetworkCase, flat_start: bool) -> np.ndarray:
    if flat_start:
        v = np.ones(case.n_bus, dtype=complex)
    else:
        v = np.array(
            [b.v_mag * np.exp(1j * b.v_ang) for b in case.buses], dtype=complex
        )
    # PV/slack magnitudes pinned to generator setpoints.
    vset = _vset_by_index(case)
    for i, b in enumerate(case.buses):
        if b.kind is not BusKind.PQ and i in vset:
            v[i] = vset[i] * np.exp(1j * np.angle(v[i]))
    return v


def _vset_by_index(case: NetworkCase) -> dict[int, float]:
    out: dict[int, float] = {}
    for g in case.generators:
        if g.status:
            out[case.bus_index(g.bus)] = g.v_set
    return out


def _nr_core(case, ybus, v0, opts):
    """One Newton loop for a fixed PV/PQ partition."""
    pv_idx, pq_idx = _bus_partitions(case)
    pvpq = np.concatenate([pv_idx, pq_idx])
    pvpq.sort()
    npq = len(pq_idx)
    s_sched = scheduled_injection(case)
    pattern = jacobian_pattern(ybus, pv_idx, pq_idx)
    v = v0.copy()
    mis = compute_mismatch(case, ybus, v, pv_idx, pq_idx, s_sched)
    norm = np.max(np.abs(mis)) if mis.size else 0.0
    norms = [norm]
    it = 0
    while norm > opts.tol and it < opts.max_iter:
        jac = compute_jacobian(case, ybus, v, pv_idx, pq_idx, pattern)
        # spsolve reports a singular factor as MatrixRankWarning plus a NaN
        # result; the warning arrives as an exception when warnings are errors.
        try:
            dx = spla.spsolve(jac, mis)
        except (RuntimeError, spla.MatrixRankWarning) as exc:
            raise SingularJacobianError(it) from exc
        if not np.all(np.isfinite(dx)):
            raise SingularJacobianError(it)
        th = np.angle(v)
        vm = np.abs(v)
        th[pvpq] += dx[: len(pvpq)]
        if npq:
            vm[pq_idx] += dx[len(pvpq):]
        v = vm * np.exp(1j * th)
        mis = compute_mismatch(case, ybus, v, pv_idx, pq_idx, s_sched)
        norm = np.max(np.abs(mis)) if mis.size else 0.0
        norms.append(norm)
        it += 1
    return v, it, norm <= opts.tol, norm, norms


def _bus_q_injection(case, ybus, v):
    return (v * np.conj(ybus.matrix @ v)).imag


def _gen_q_limits_pu(case: NetworkCase) -> dict[int, tuple[float, float]]:
    """Aggregate generator Q limits per bus index, pu."""
    lims: dict[int, tuple[float, float]] = {}
    base = case.system_mva_base
    for g in case.generators:
        if not g.status:
            continue
        i = case.bus_index(g.bus)
        lo, hi = lims.get(i, (0.0, 0.0))
        lims[i] = (lo + g.q_min / base, hi + g.q_max / base)
    return lims


def solve(
    case: NetworkCase,
    ybus: AdmittanceMatrix | None = None,
    opts: PowerFlowOptions = PowerFlowOptions(),
    v0: np.ndarray | None = None,
) -> PowerFlowSolution:
    """Full Newton-Raphson solve with optional PV->PQ Q-limit switching.

    v0 overrides the starting voltage (warm starts for snapshot sweeps).
    Each PV bus may switch to PQ at a violated limit and re-switch back to PV
    at most once (prevents cycling).
    """
    if ybus is None:
        ybus = build_ybus(case)
    base = case.system_mva_base
    lims = _gen_q_limits_pu(case)
    work = case
    v = v0.copy() if v0 is not None else _initial_voltage(case, opts.flat_start)
    vset = _vset_by_index(case)
    pinned: dict[int, str] = {}  # bus index -> "hi"/"lo"
    reswitched: set[int] = set()
    total_it = 0
    ok, norm = False, np.inf
    for _ in range(case.n_bus + 1):  # each pass may switch buses; bounded
        v, it, ok, norm, _ = _nr_core(work, ybus, v, opts)
        total_it += it
        if not ok or not opts.enforce_q_limits:
            break
        q_inj = _bus_q_injection(work, ybus, v)
        changed = False
        for i, (qlo, qhi) in lims.items():
            if case.buses[i].kind is not BusKind.PV:
                continue
            bus_now = work.buses[i]
            if i not in pinned:
                q_gen = q_inj[i] + case.buses[i].q_load / base
                qfix = None
                if q_gen > qhi + 1e-9:
                    qfix, side = qhi, "hi"
                elif q_gen < qlo - 1e-9:
                    qfix, side = qlo, "lo"
                if qfix is not None:
                    work = work.with_bus(
                        replace(
                            bus_now,
                            kind=BusKind.PQ,
                            q_load=case.buses[i].q_load - qfix * base,
                        )
                    )
                    pinned[i] = side
                    changed = True
            elif i not in reswitched:
                # Pinned at a limit: if the solved voltage overshoots the
                # setpoint on the releasing side, restore PV once.
                vm = abs(v[i])
                vs = vset.get(i, case.buses[i].v_mag)
                if (pinned[i] == "hi" and vm > vs + 1e-6) or (
                    pinned[i] == "lo" and vm < vs - 1e-6
                ):
                    work = work.with_bus(replace(case.buses[i], kind=BusKind.PV))
                    v[i] = vs * np.exp(1j * np.angle(v[i]))
                    del pinned[i]
                    reswitched.add(i)
                    changed = True
        if not changed:
            break
    s_inj = v * np.conj(ybus.matrix @ v)
    sl = case.slack_index
    s_load = case.load_pu()
    return PowerFlowSolution(
        v=v,
        p_inj=s_inj.real,
        q_inj=s_inj.imag,
        slack_p=float(s_inj.real[sl] + s_load.real[sl]),
        slack_q=float(s_inj.imag[sl] + s_load.imag[sl]),
        iterations=total_it,
        converged=ok,
        max_mismatch=float(norm),
        q_limited_buses=tuple(sorted(case.buses[i].id for i in pinned)),
    )


# -- snapshot handling -------------------------------------------------------


def apply_snapshot(
    case: NetworkCase,
    dc_bus: int,
    p_mw: float,
    q_mvar: float = 0.0,
    local_gen_mw: float = 0.0,
    local_gen_limit_mw: float | None = None,
) -> NetworkCase:
    """Case copy with the datacenter load placed at dc_bus.

    local_gen_mw is netted at the same bus (IES configuration); callers that
    later run a transient with explicit IES devices must account for the
    netting (dynamics un-nets device dispatch when converting loads).
    """
    if local_gen_limit_mw is not None and local_gen_mw > local_gen_limit_mw + 1e-9:
        raise ValueError(
            f"local generation dispatch {local_gen_mw} MW exceeds rating "
            f"{local_gen_limit_mw} MW"
        )
    bus = case.bus(dc_bus)
    return case.with_bus(
        replace(
            bus,
            p_load=bus.p_load + p_mw - local_gen_mw,
            q_load=bus.q_load + q_mvar,
        )
    )


@dataclass(frozen=True)
class BranchFlow:
    from_bus: int
    to_bus: int
    s_from: complex  # pu, into branch at from end
    s_to: complex


def branch_flows(case: NetworkCase, v: np.ndarray) -> list[BranchFlow]:
    br = branch_admittances(case)
    k = np.flatnonzero(br.in_service)
    vf, vt = v[br.f[k]], v[br.t[k]]
    s_from = vf * np.conj(br.yff[k] * vf + br.yft[k] * vt)
    s_to = vt * np.conj(br.ytf[k] * vf + br.ytt[k] * vt)
    return [
        BranchFlow(case.branches[i].from_bus, case.branches[i].to_bus, sf, st)
        for i, sf, st in zip(k, s_from, s_to)
    ]


def total_losses(case: NetworkCase, v: np.ndarray) -> complex:
    return sum(f.s_from + f.s_to for f in branch_flows(case, v))
