"""Newton-Raphson AC power flow in polar form, numpy only.

Produces the pre-fault operating point for each 5-minute load snapshot.
Non-convergence is a result state (converged=False), not an exception, so
batch sweeps can record failures and continue. A Newton loop whose mismatch
grows far beyond its best value stops early as non-converged. A singular
Jacobian raises SingularJacobianError, which sweeps record as a
non-converged bin.

solve works on the case's Y-bus (NetworkCase.ybus) and bus arrays
(NetworkCase.arrays), which hold everything that stays fixed for the case:
the PV/PQ partition, the per-bus generator injection, and the index, Q
limits and setpoints of the checked buses (PV buses with an in-service
generator). A snapshot copy made by NetworkCase.with_bus shares all of them
and only replaces its loads, so a sweep derives none of them per bin.
Q-limit enforcement switches a checked bus to PQ by mask, as MATPOWER does
with its bus types: the bus joins the PQ set and its generator Q, pinned at
the limit, moves into the scheduled injection. No case copy is made. The
check after each pass looks at the checked buses only, and the slack power
is read from the slack bus's own entries.

A warm start (v0) keeps each PV bus at its magnitude in v0, not at its
setpoint. Resetting it to the setpoint changes the sweep's iteration
counts, so it is left for a change that also re-records the benchmark's
reference iterations.

The Jacobian is built as coordinate-form terms. Their row and column
depend only on the Y-bus and the PV/PQ partition, so jacobian_pattern
computes them once per partition and each pattern is cached on its
AdmittanceMatrix: a weekly sweep on one Y-bus builds a handful. Each
iteration computes the terms afresh.

The Newton step solves J dx = mis by iterative refinement with a held
inverse (Moler, J. ACM 14(2), 1967; Higham, Accuracy and Stability of
Numerical Algorithms, 2nd ed., SIAM 2002, ch. 12). A solve chain (one
solve, or every bin of a sweep) holds one dense inverse M per partition in
its own dict. The step takes dx = M mis, then adds M r for the residual
r = mis - J dx, with J applied from its terms by one bincount, until
max|r| <= 1e-11 max|mis|. A new M = inv(J) is formed only when none is
held or when a correction fails to cut max|r| tenfold (at most 6
corrections). As M is refined against the exact J, the iterates are those
of exact Newton: on the benchmark's seed-0 week (2016 bins) every bin takes
as many iterations as with an exact banded LU solve of each step, and the
POI voltage stays within 7.1e-15 pu and the slack power within 1.2e-11 MW
of that solve's. That week forms 6 inverses on 5 partitions (seeds 1-3
too), about 1.3 ms each for the 181 unknowns of the 118-bus case, and
makes about 3.6 corrections per step, about 80 us a step on a 2-core VM.
A cold solve forms about 4 inverses in its 6 iterations. Why 1e-11 is
safe: a residual r moves the next mismatch by about r, at most about 1e-11
pu, while the mismatch norm closest to the 1e-6 tolerance on that week is
1.6e-9 away from it, so no convergence decision can flip. The dense
inverse costs n^2 doubles per partition and O(n^3) time per formation;
that suits cases of hundreds of buses, as the dense Y-bus does, not many
thousands.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace

import numpy as np

from .network import AdmittanceMatrix, NetworkCase


class SingularJacobianError(Exception):
    def __init__(self, iteration: int):
        super().__init__(f"singular Jacobian at iteration {iteration}")
        self.iteration = iteration


@dataclass(frozen=True)
class PowerFlowOptions:
    tol: float = 1e-6
    max_iter: int = 20
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
    # Max-abs mismatch, pu, before the first and after every Newton
    # iteration, over all Q-limit passes in order; never empty.
    mismatch_norms: tuple[float, ...]
    q_limited_buses: tuple[int, ...] = ()  # bus ids switched PV->PQ

    @property
    def max_mismatch(self) -> float:
        """The final max-abs mismatch, pu."""
        return self.mismatch_norms[-1]


def scheduled_injection(
    case: NetworkCase, q_fixed: np.ndarray | None = None
) -> np.ndarray:
    """Net scheduled complex injection per bus (generation minus load), pu.

    Slack-bus generation is excluded (it is solved for); PV-bus Q is excluded
    (only P is scheduled there). q_fixed, pu per bus, is generator Q held at
    a limit by buses switched to PQ; it enters as negative reactive load,
    exactly as in a case with the switched buses' q_load lowered by it.
    """
    a = case.arrays
    base = case.system_mva_base
    q_load = a.q_load if q_fixed is None else a.q_load - q_fixed * base
    s = -((a.p_load + 1j * q_load) / base)
    s.real += a.gen_p
    return s


def compute_mismatch(
    v: np.ndarray,
    ibus: np.ndarray,
    s_sched: np.ndarray,
    pvpq: np.ndarray,
    pq_idx: np.ndarray,
) -> np.ndarray:
    """Power mismatch [dP at pvpq; dQ at pq_idx] in bus order, pu.

    dP/dQ = scheduled minus computed injection, so at flat start with a pure
    load the mismatch equals the negated load. ibus is the bus current
    ybus.matrix @ v, s_sched the scheduled injection (scheduled_injection),
    pvpq the PV and PQ bus indices in ascending order (a pattern's
    ``pvpq``) and pq_idx the PQ bus indices.
    """
    ds = s_sched - v * np.conj(ibus)
    return np.concatenate([ds[pvpq].real, ds[pq_idx].imag])


@dataclass(frozen=True, eq=False)
class JacobianPattern:
    """Coordinate layout of the Jacobian for one (Y-bus, PV/PQ partition).

    Each Y-bus entry (rows, cols, y), followed by one diagonal term per bus,
    contributes a dS/dth and a dS/d|V| value. Of the stacked vector
    [dS/dth.real, dS/dth.imag, dS/d|V|.real, dS/d|V|.imag], the elements at
    ``src`` fall inside the J11/J21/J12/J22 blocks, and term i sits at
    Jacobian row ``jr[i]`` and column ``jc[i]``; terms at one position sum.
    A pattern is shared by every solve on its Y-bus, threads included, and
    holds no buffer. It compares and hashes by identity, so a solve chain
    can key its held Jacobian inverses by it.
    """

    rows: np.ndarray  # bus row of each Y-bus entry
    cols: np.ndarray  # bus column of each Y-bus entry
    y: np.ndarray  # Y-bus entry values
    src: np.ndarray
    jr: np.ndarray
    jc: np.ndarray
    dim: int
    pvpq: np.ndarray  # PV+PQ bus indices, sorted: the angle unknowns


def jacobian_pattern(
    ybus: AdmittanceMatrix, pv_idx: np.ndarray, pq_idx: np.ndarray
) -> JacobianPattern:
    """The Jacobian row and column of every Jacobian term."""
    n = ybus.matrix.shape[0]
    # The nonzero entries column by column, rows ascending in each.
    cols, rows = np.nonzero(ybus.matrix.T)
    pvpq = np.sort(np.concatenate([pv_idx, pq_idx]))
    npvpq = len(pvpq)
    # Jacobian row/column of each bus's angle (dP row) and magnitude (dQ
    # row) unknown; -1 where the bus has none.
    ith = np.full(n, -1)
    ith[pvpq] = np.arange(npvpq)
    ivm = np.full(n, -1)
    ivm[pq_idx] = npvpq + np.arange(len(pq_idx))
    r = np.concatenate([rows, np.arange(n)])
    c = np.concatenate([cols, np.arange(n)])
    src, jr, jc = [], [], []
    # (stacked part, row map, column map): J11, J21, J12, J22.
    for part, rmap, cmap in ((0, ith, ith), (1, ivm, ith), (2, ith, ivm), (3, ivm, ivm)):
        rr, cc = rmap[r], cmap[c]
        keep = np.flatnonzero((rr >= 0) & (cc >= 0))
        src.append(part * len(r) + keep)
        jr.append(rr[keep])
        jc.append(cc[keep])
    return JacobianPattern(
        rows=rows,
        cols=cols,
        y=ybus.matrix[rows, cols],
        src=np.concatenate(src),
        jr=np.concatenate(jr),
        jc=np.concatenate(jc),
        dim=npvpq + len(pq_idx),
        pvpq=pvpq,
    )


def _cached_pattern(
    ybus: AdmittanceMatrix, pv_idx: np.ndarray, pq_idx: np.ndarray
) -> JacobianPattern:
    """jacobian_pattern(ybus, pv_idx, pq_idx), built once per Y-bus and
    partition. The key holds the index bytes (np.intp)."""
    pv_idx = np.asarray(pv_idx, dtype=np.intp)
    pq_idx = np.asarray(pq_idx, dtype=np.intp)
    key = (pv_idx.tobytes(), pq_idx.tobytes())
    pattern = ybus.jacobian_patterns.get(key)
    if pattern is None:
        # Threads that build one partition at once all get the pattern
        # stored first, the key of every held inverse of that partition.
        pattern = ybus.jacobian_patterns.setdefault(
            key, jacobian_pattern(ybus, pv_idx, pq_idx)
        )
    return pattern


def compute_jacobian(
    v: np.ndarray, pattern: JacobianPattern, ibus: np.ndarray
) -> np.ndarray:
    """Polar-form Jacobian [dP/dth dP/dVm; dQ/dth dQ/dVm] of the computed
    injections, unknowns ordered as compute_mismatch's, as its terms: a new
    array whose element i sits at row pattern.jr[i] and column
    pattern.jc[i], pattern being a jacobian_pattern of the Y-bus. Terms at
    one position sum. ibus is the bus current ybus.matrix @ v.
    """
    p = pattern
    vm = np.abs(v)
    # Y-bus entry (r, c): dS_r/dth_c = -j V_r conj(y V_c) and
    # dS_r/d|V_c| = V_r conj(y V_c) / |V_c|; plus the bus diagonal terms
    # j V conj(I) and conj(I) V / |V|.
    a = v[p.rows] * np.conj(p.y * v[p.cols])
    ds_dth = np.concatenate([-1j * a, 1j * v * np.conj(ibus)])
    ds_dvm = np.concatenate([a / vm[p.cols], np.conj(ibus) * v / vm])
    parts = np.concatenate([ds_dth.real, ds_dth.imag, ds_dvm.real, ds_dvm.imag])
    return parts[p.src]


def _initial_voltage(case: NetworkCase) -> np.ndarray:
    v = np.array(
        [b.v_mag * np.exp(1j * math.radians(b.v_ang_deg)) for b in case.buses],
        dtype=complex,
    )
    # PV/slack magnitudes pinned to generator setpoints.
    a = case.arrays
    pin = a.has_gen & ~a.is_pq
    v[pin] = a.v_set[pin] * np.exp(1j * np.angle(v[pin]))
    return v


# A Newton step is refined until its residual is this many times the
# mismatch norm or less (see the module docstring).
REFINE_TOL = 1e-11
# Corrections one held inverse may make in one step before it is formed
# again; each must cut the residual norm tenfold.
MAX_CORRECTIONS = 6


def _refine(pattern, terms, mis, inv):
    """Iterative refinement of jac @ dx = mis with inv, an approximate
    inverse of jac: returns (dx, whether its residual met REFINE_TOL)."""
    goal = REFINE_TOL * np.abs(mis).max()
    dx = inv @ mis
    last = np.inf
    for _ in range(MAX_CORRECTIONS + 1):
        # The residual against the exact jac, applied from its terms.
        r = mis - np.bincount(pattern.jr, weights=terms * dx[pattern.jc], minlength=pattern.dim)
        norm = np.abs(r).max()
        if norm <= goal:
            return dx, True
        if not norm <= 0.1 * last:  # a nan norm fails too
            break
        last = norm
        dx = dx + inv @ r
    return dx, False


def _newton_step(
    pattern: JacobianPattern,
    terms: np.ndarray,
    mis: np.ndarray,
    iteration: int,
    factors: dict,
) -> np.ndarray:
    """Solve jac @ dx = mis, where terms are jac's as compute_jacobian
    returns them, by refinement with the inverse held in factors[pattern].

    A new inverse of the dense jac is formed, and held, when none is held
    or when the held one fails to refine. Raises
    SingularJacobianError(iteration) when jac has no inverse.
    """
    inv = factors.get(pattern)
    if inv is not None:
        dx, ok = _refine(pattern, terms, mis, inv)
        if ok:
            return dx
    n = pattern.dim
    jac = np.bincount(pattern.jr * n + pattern.jc, weights=terms, minlength=n * n)
    try:
        inv = factors[pattern] = np.linalg.inv(jac.reshape(n, n))
    except np.linalg.LinAlgError:
        raise SingularJacobianError(iteration) from None
    return _refine(pattern, terms, mis, inv)[0]


# A Newton loop whose mismatch norm grows this many times beyond its best
# value has left the region where it converges (2000 MW at bus 25 goes
# 18, 7.7, 15, 190, 5.9e4, ...). No loop of a weekly sweep grows at all.
DIVERGENCE_FACTOR = 1e3


def _nr_core(ybus, v0, opts, pv_idx, pq_idx, s_sched, factors):
    """One Newton loop for the PV/PQ partition (pv_idx, pq_idx) and the
    scheduled injection s_sched, with the Jacobian inverses held in
    factors (see _newton_step). The loop stops, not converged, once the
    mismatch norm exceeds DIVERGENCE_FACTOR times its smallest value.
    Returns (v, iterations, converged, final mismatch norm, mismatch norms,
    bus current ybus.matrix @ v); v is v0 itself when the loop makes no
    iteration."""
    pattern = _cached_pattern(ybus, pv_idx, pq_idx)
    pvpq = pattern.pvpq
    npvpq = len(pvpq)
    v = v0
    # The angles and magnitudes carry from one iteration to the next, and
    # v is rebuilt from them.
    th, vm = np.angle(v), np.abs(v)
    ibus = ybus.matrix @ v
    mis = compute_mismatch(v, ibus, s_sched, pvpq, pq_idx)
    norm = best = np.abs(mis).max() if mis.size else 0.0
    norms = [norm]
    it = 0
    while norm > opts.tol and it < opts.max_iter and norm <= DIVERGENCE_FACTOR * best:
        terms = compute_jacobian(v, pattern, ibus)
        dx = _newton_step(pattern, terms, mis, it, factors)
        if not np.isfinite(dx).all():
            raise SingularJacobianError(it)
        th[pvpq] += dx[:npvpq]
        vm[pq_idx] += dx[npvpq:]
        v = vm * np.exp(1j * th)
        ibus = ybus.matrix @ v
        mis = compute_mismatch(v, ibus, s_sched, pvpq, pq_idx)
        norm = np.abs(mis).max() if mis.size else 0.0
        best = min(best, norm)
        norms.append(norm)
        it += 1
    return v, it, norm <= opts.tol, norm, norms, ibus


def solve(
    case: NetworkCase,
    opts: PowerFlowOptions = PowerFlowOptions(),
    v0: np.ndarray | None = None,
    factors: dict | None = None,
) -> PowerFlowSolution:
    """Full Newton-Raphson solve with optional PV->PQ Q-limit switching.

    v0 sets the start of the solve (a flat start, or a warm start as in
    snapshot sweeps); without it, the solve starts from the case's bus
    voltages with each generator bus at its setpoint magnitude.
    factors holds the Newton steps' Jacobian inverses, keyed by pattern:
    a chain of solves on one Y-bus, such as a sweep, passes one dict to
    each solve. Two threads must not share one. Without it the solve
    starts with an empty dict of its own.
    A PV bus whose generator Q leaves its limits switches to PQ with Q
    pinned at the limit; a pinned bus whose voltage passes its setpoint on
    the releasing side returns to PV, at most once (prevents cycling). The
    loop makes at most n_bus + 1 passes; if the last one still switches a
    bus, the result is not converged. Only the case's checked buses
    (CaseArrays.checked) can switch, so the check looks at them alone.
    """
    ybus = case.ybus
    a = case.arrays
    base = case.system_mva_base
    v = v0.copy() if v0 is not None else _initial_voltage(case)
    checked = a.checked
    side = np.zeros(len(checked), dtype=np.int8)  # +1 pinned at q_max, -1 at q_min
    released = np.zeros(len(checked), dtype=bool)
    pv_idx, pq_idx = a.pv_idx, a.pq_idx
    s_sched = scheduled_injection(case)
    factors = {} if factors is None else factors
    total_it = 0
    norms = []
    ok = False
    for _ in range(case.n_bus + 1):  # each pass may switch buses; bounded
        v, it, ok, _, pass_norms, ibus = _nr_core(
            ybus, v, opts, pv_idx, pq_idx, s_sched, factors
        )
        total_it += it
        norms += pass_norms
        if not ok or not opts.enforce_q_limits:
            break
        vc = v[checked]
        q_gen = (vc * ibus[checked].conj()).imag + a.q_load[checked] / base
        free = side == 0
        hi = free & (q_gen > a.q_max + 1e-9)
        lo = free & (q_gen < a.q_min - 1e-9)  # q_min <= q_max: never both
        # A pinned bus whose voltage overshoots the setpoint on the
        # releasing side returns to PV once, at its setpoint.
        release = np.zeros(len(checked), dtype=bool)
        if np.count_nonzero(side):
            vm, v_set = np.abs(vc), a.v_set[checked]
            release = ~released & (
                (side == 1) & (vm > v_set + 1e-6) | (side == -1) & (vm < v_set - 1e-6)
            )
        if not np.count_nonzero(hi | lo | release):
            break
        side[hi], side[lo], side[release] = 1, -1, 0
        released |= release
        back = checked[release]
        v[back] = a.v_set[back] * np.exp(1j * np.angle(v[back]))
        pinned = np.zeros(case.n_bus, dtype=bool)
        pinned[checked[side != 0]] = True
        pv_idx = np.flatnonzero(a.is_pv & ~pinned)
        pq_idx = np.flatnonzero(a.is_pq | pinned)
        q_fixed = np.zeros(case.n_bus)
        q_fixed[checked] = np.where(side == 1, a.q_max, np.where(side == -1, a.q_min, 0.0))
        s_sched = scheduled_injection(case, q_fixed)
    else:
        ok = False  # out of passes while the last pass still switched
        ibus = ybus.matrix @ v  # released buses moved v after the last pass
    s_inj = v * np.conj(ibus)
    sl = case.slack_index
    return PowerFlowSolution(
        v=v,
        p_inj=s_inj.real,
        q_inj=s_inj.imag,
        slack_p=float(s_inj.real[sl] + a.p_load[sl] / base),
        slack_q=float(s_inj.imag[sl] + a.q_load[sl] / base),
        iterations=total_it,
        converged=ok,
        mismatch_norms=tuple(map(float, norms)),
        q_limited_buses=tuple(sorted(case.buses[i].id for i in checked[side != 0])),
    )


# -- snapshot handling -------------------------------------------------------


def apply_snapshot(
    case: NetworkCase,
    dc_bus: int,
    p_mw: float,
    q_mvar: float = 0.0,
    local_gen_mw: float = 0.0,
) -> NetworkCase:
    """Case copy with the datacenter load placed at dc_bus.

    local_gen_mw is netted at the same bus (IES configuration); callers that
    later run a transient with explicit IES devices must account for the
    netting (dynamics un-nets device dispatch when converting loads).
    """
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
    br = case.ybus.branches
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
