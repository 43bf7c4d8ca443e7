"""Newton-Raphson AC power flow in polar form with banded LU linear solves.

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

The Jacobian is built directly in LAPACK band storage, the form the
Newton step solves. Its layout depends only on the Y-bus and the PV/PQ
partition, so jacobian_pattern computes it once per partition and each
pattern is cached on its AdmittanceMatrix: a weekly sweep on one Y-bus
builds a handful of them. Once per pattern, the unknowns are put in the
reverse Cuthill-McKee order of the symmetrised Jacobian structure
(Cuthill & McKee, 1969), each component started at a George-Liu
pseudo-peripheral node (George & Liu, 1981; Gibbs, Poole & Stockmeyer,
SIAM J. Numer. Anal. 13(2), 1976) with every tie broken by index, so the
order depends on the structure alone. That gathers the entries into a
band of kl sub- and ku super-diagonals: kl = ku = 24 at 181 unknowns and
1051 entries on the shipped 118-bus case, and at most 25 on every
partition of the benchmark's seed-0 weekly sweep, where a start at a
least-degree node gives 38 on each. The pattern maps every derivative
term to its slot in the band, so each iteration computes the terms and
sums them into a new band with one bincount. The step is LAPACK's dgbsv
(Anderson et al., LAPACK Users' Guide, 3rd ed., 1999), which pivots
partially inside the band. That costs O(n kl (kl + ku)) time and
(2 kl + ku + 1) n doubles of memory, so it suits networks whose band
stays narrow, as transmission grids of this size do; it is not meant for
cases of many thousand buses.
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


@dataclass(frozen=True)
class JacobianPattern:
    """Band layout of the Jacobian for one (Y-bus, PV/PQ partition).

    Each Y-bus entry (rows, cols, y), followed by one diagonal term per bus,
    contributes a dS/dth and a dS/d|V| value. Of the stacked vector
    [dS/dth.real, dS/dth.imag, dS/d|V|.real, dS/d|V|.imag], the elements at
    ``src`` fall inside the J11/J21/J12/J22 blocks.

    Band row and column k hold unknown ``order[k]``; in that order every
    entry lies within ``kl`` sub- and ``ku`` super-diagonals, and term
    ``src[i]`` sums into element ``band_dest[i]`` of a LAPACK band array of
    (2 kl + ku + 1) rows and ``dim`` columns, read in Fortran order. A
    pattern is shared by every solve on its Y-bus, threads included; it
    holds no buffer, and compute_jacobian hands out a new band per call.
    """

    rows: np.ndarray  # bus row of each Y-bus entry
    cols: np.ndarray  # bus column of each Y-bus entry
    y: np.ndarray  # Y-bus entry values
    src: np.ndarray
    band_dest: np.ndarray
    dim: int
    pvpq: np.ndarray  # PV+PQ bus indices, sorted: the angle unknowns
    order: np.ndarray
    kl: int
    ku: int


def _levels(adj: list[list[int]], root: int) -> list[list[int]]:
    """Level structure rooted at root: the nodes of root's component by
    distance from root, each level in the order a breadth-first search
    that visits every adjacency list in order meets them."""
    seen = {root}
    levels = [[root]]
    while True:
        nxt = []
        for u in levels[-1]:
            for w in adj[u]:
                if w not in seen:
                    seen.add(w)
                    nxt.append(w)
        if not nxt:
            return levels
        levels.append(nxt)


def _band_order(r: np.ndarray, c: np.ndarray, dim: int) -> np.ndarray:
    """Reverse Cuthill-McKee order of the dim x dim structure with entries
    at (r, c), repeats allowed, symmetrised: the unknown at each band
    position.

    Each connected component is numbered from a pseudo-peripheral node,
    found as George and Liu do (Computer Solution of Large Sparse Positive
    Definite Systems, 1981, sec. 4.3): from the component's node of least
    degree, move to the least-degree node of the last level for as long as
    that makes the level structure deeper. Cuthill-McKee then visits
    neighbours by increasing degree. Every tie goes to the lower index, so
    the order depends on the structure alone.
    """
    r, c = np.concatenate([r, c]), np.concatenate([c, r])
    edges = np.unique(r[r != c] * dim + c[r != c])  # by node, then neighbour
    bounds = np.searchsorted(edges // dim, np.arange(dim + 1)).tolist()
    nbr = (edges % dim).tolist()
    degree = np.diff(bounds).tolist()

    def rank(w):
        return degree[w], w

    adj = [sorted(nbr[bounds[i]:bounds[i + 1]], key=rank) for i in range(dim)]
    placed = np.zeros(dim, dtype=bool)
    order = []
    for node in range(dim):
        if placed[node]:
            continue
        component = [w for lv in _levels(adj, node) for w in lv]
        levels = _levels(adj, min(component, key=rank))
        while True:
            deeper = _levels(adj, min(levels[-1], key=rank))
            if len(deeper) <= len(levels):
                break
            levels = deeper
        cuthill_mckee = [w for lv in levels for w in lv]
        placed[cuthill_mckee] = True
        order += cuthill_mckee
    return np.array(order[::-1], dtype=np.intp)


def jacobian_pattern(
    ybus: AdmittanceMatrix, pv_idx: np.ndarray, pq_idx: np.ndarray
) -> JacobianPattern:
    """The band order of the Jacobian's structure and the band slot of
    every Jacobian term."""
    n = ybus.matrix.shape[0]
    # The nonzero entries column by column, rows ascending in each.
    cols, rows = np.nonzero(ybus.matrix.T)
    pvpq = np.sort(np.concatenate([pv_idx, pq_idx]))
    npvpq = len(pvpq)
    dim = npvpq + len(pq_idx)
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
    jr, jc = np.concatenate(jr), np.concatenate(jc)
    order = _band_order(jr, jc, dim)
    # Band position of each term's row and column.
    position = np.empty(dim, dtype=np.intp)
    position[order] = np.arange(dim)
    br, bc = position[jr], position[jc]
    kl = int(np.max(br - bc, initial=0))
    ku = int(np.max(bc - br, initial=0))
    return JacobianPattern(
        rows=rows,
        cols=cols,
        y=ybus.matrix[rows, cols],
        src=np.concatenate(src),
        # Band storage keeps entry (i, j) at row kl + ku + i - j of column j.
        band_dest=bc * (2 * kl + ku + 1) + kl + ku + br - bc,
        dim=dim,
        pvpq=pvpq,
        order=order,
        kl=kl,
        ku=ku,
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
        pattern = ybus.jacobian_patterns[key] = jacobian_pattern(ybus, pv_idx, pq_idx)
    return pattern


def compute_jacobian(
    v: np.ndarray, pattern: JacobianPattern, ibus: np.ndarray
) -> np.ndarray:
    """Polar-form Jacobian [dP/dth dP/dVm; dQ/dth dQ/dVm] of the computed
    injections, unknowns ordered as compute_mismatch's, in the LAPACK band
    storage of pattern, a jacobian_pattern of the Y-bus: a new array of
    (2 kl + ku + 1) rows and one column per unknown, Fortran order, whose
    row kl + ku + i - j of column j holds the entry at band position (i, j).
    ibus is the bus current ybus.matrix @ v.
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
    height = 2 * p.kl + p.ku + 1
    band = np.bincount(p.band_dest, weights=parts[p.src], minlength=height * p.dim)
    return band.reshape((height, p.dim), order="F")


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


def _newton_step(
    pattern: JacobianPattern, band: np.ndarray, mis: np.ndarray, iteration: int
) -> np.ndarray:
    """Solve jac @ dx = mis by banded LU in the pattern's band order.

    band is jac as compute_jacobian returns it, and is overwritten. Raises
    SingularJacobianError(iteration) when a pivot is exactly zero.
    """
    from scipy.linalg.lapack import dgbsv

    _, _, x, info = dgbsv(
        pattern.kl, pattern.ku, band, mis[pattern.order],
        overwrite_ab=True, overwrite_b=True,
    )
    if info > 0:
        raise SingularJacobianError(iteration)
    dx = np.empty_like(mis)
    dx[pattern.order] = x
    return dx


# A Newton loop whose mismatch norm grows this many times beyond its best
# value has left the region where it converges (2000 MW at bus 25 goes
# 18, 7.7, 15, 190, 5.9e4, ...). No loop of a weekly sweep grows at all.
DIVERGENCE_FACTOR = 1e3


def _nr_core(ybus, v0, opts, pv_idx, pq_idx, s_sched):
    """One Newton loop for the PV/PQ partition (pv_idx, pq_idx) and the
    scheduled injection s_sched. The loop stops, not converged, once the
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
        band = compute_jacobian(v, pattern, ibus)
        dx = _newton_step(pattern, band, mis, it)
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
) -> PowerFlowSolution:
    """Full Newton-Raphson solve with optional PV->PQ Q-limit switching.

    v0 sets the start of the solve (a flat start, or a warm start as in
    snapshot sweeps); without it, the solve starts from the case's bus
    voltages with each generator bus at its setpoint magnitude.
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
    total_it = 0
    norms = []
    ok = False
    for _ in range(case.n_bus + 1):  # each pass may switch buses; bounded
        v, it, ok, _, pass_norms, ibus = _nr_core(ybus, v, opts, pv_idx, pq_idx, s_sched)
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
