"""Fixed-step transient simulator: classical machines, the SMR governor with
load-dependent droop and a thermal-safety ramp limiter, the PI-controlled
battery, and network fault/trip/load-step events.

Scheme: device ODEs advance with RK4 over dt; at every stage the network is
solved algebraically with loads as constant admittance (converted at the
pre-fault voltage), machines as EMF-behind-reactance sources, and the battery
as a current injection. Events restamp the augmented admittance matrix at
their timestamps.

Sign conventions (documented, the source material leaves them open):
  * governor input is the machine speed deviation (f - f_nom)/f_nom in pu,
    and the correction is -df/m, so under-frequency raises power;
  * battery input is (f_nom - f)/f_nom in pu, so under-frequency yields
    discharge (positive injection).
"""

from __future__ import annotations

import math
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
from .powerflow import PowerFlowSolution

F_NOMINAL_HZ = 60.0


class SimulationError(Exception):
    """Numerical failure during a transient run (singular network, NaN)."""


# -- device parameters and states --------------------------------------------


@dataclass(frozen=True)
class MachineParams:
    h: float  # inertia constant, s, machine base
    d: float  # damping, pu/pu, machine base
    xd_p: float  # transient reactance, pu, machine base
    mva_base: float

    def __post_init__(self):
        if self.h <= 0:
            raise ValueError("inertia h must be > 0")
        if self.xd_p <= 0:
            raise ValueError("xd_p must be > 0")
        if self.mva_base <= 0:
            raise ValueError("mva_base must be > 0")


@dataclass
class MachineState:
    delta: float  # rad
    omega_dev: float  # pu speed deviation
    e_p: float  # internal EMF, pu system base voltage
    p_mech: float  # pu system base


@dataclass(frozen=True)
class SmrParams:
    eta_t: float = 0.90  # turbine efficiency
    dh_hp: float = 1100.0  # kJ/kg
    dh_lp: float = 850.0
    m_min: float = 0.04  # droop bounds, pu
    m_max: float = 0.08
    p_max: float = 50.0  # MW electrical rating
    q_dot_max: float = 60.0  # MW-thermal extraction ceiling
    ramp_limit: float = 0.02  # pu/s on p_max
    t_actuator: float = 0.2  # s
    freq_deadband: float = 0.0  # pu
    hp_fraction: float = 0.7  # HP/LP power split (under-determined flow map)

    def __post_init__(self):
        if not (0.0 < self.m_min <= self.m_max):
            raise ValueError("need 0 < m_min <= m_max")
        if self.p_max <= 0 or self.q_dot_max < 0:
            raise ValueError("p_max must be > 0 and q_dot_max >= 0")
        if self.ramp_limit <= 0:
            raise ValueError("ramp_limit must be > 0")
        if not (0.0 <= self.hp_fraction <= 1.0):
            raise ValueError("hp_fraction must be in [0, 1]")


@dataclass
class SmrState:
    m_dot_hp: float  # kg/s
    m_dot_lp: float
    valve_cmd: float  # pu of p_max, actuator output
    p_mech_cmd: float  # pu of p_max, after limiter
    q_dot: float  # MW-thermal
    droop_now: float


@dataclass(frozen=True)
class BessParams:
    k_p: float = 20.0  # pu power per pu freq deviation
    k_i: float = 5.0  # pu/(pu s)
    p_rating: float = 10.0  # MW
    integrator_limit: float = 0.5  # pu s anti-windup clamp

    def __post_init__(self):
        if self.p_rating <= 0:
            raise ValueError("p_rating must be > 0")
        if self.k_p < 0 or self.k_i < 0:
            raise ValueError("gains must be >= 0")


@dataclass
class BessState:
    integrator: float = 0.0  # pu s
    p_out: float = 0.0  # pu device base
    prev_df: float = 0.0  # last pu deviation seen (trapezoidal rule)


# -- events ------------------------------------------------------------------


@dataclass(frozen=True)
class BusFault3ph:
    bus: int
    fault_admittance: complex = -1e4j  # pu shunt added during fault


@dataclass(frozen=True)
class ClearFault:
    bus: int


@dataclass(frozen=True)
class LineTrip:
    from_bus: int
    to_bus: int
    circuit: int = 0  # among parallel in-service branches


@dataclass(frozen=True)
class GenTrip:
    bus: int  # all machines at this bus trip


@dataclass(frozen=True)
class LoadStep:
    bus: int
    dp_mw: float
    dq_mvar: float = 0.0


EventKind = BusFault3ph | ClearFault | LineTrip | GenTrip | LoadStep


@dataclass(frozen=True)
class Event:
    t: float
    kind: EventKind

    def __post_init__(self):
        if self.t < 0:
            raise ValueError("event time must be >= 0")


@dataclass(frozen=True)
class SimConfig:
    dt: float = 0.005
    t_end: float = 15.0
    freq_filter_tc: float = 0.05
    monitor_buses: tuple[int, ...] = ()
    f_nominal: float = F_NOMINAL_HZ

    def __post_init__(self):
        if not (0.0 < self.dt <= 0.02):
            raise ValueError("dt must be in (0, 0.02]")
        if self.t_end <= 0:
            raise ValueError("t_end must be > 0")


@dataclass
class TransientResult:
    t: np.ndarray
    v_mag: dict[int, np.ndarray]  # bus id -> pu series
    freq_dev: dict[int, np.ndarray]  # bus id -> Hz series
    smr_p_mech_mw: np.ndarray | None
    bess_p_mw: np.ndarray | None
    event_log: list[dict]
    max_state_drift: float  # max |x(t)-x(0)| over all device states
    smr_ramp_max: float = 0.0  # max |dp_mech/dt| seen, pu/s device base


# -- elementary operations ---------------------------------------------------


def turbine_mechanical_power(
    eta_t: float, dh_hp: float, dh_lp: float, m_dot_hp: float, m_dot_lp: float
) -> float:
    """Turbine power in MW from stage enthalpy drops (kJ/kg) and controlled
    steam flows (kg/s)."""
    if m_dot_hp < 0 or m_dot_lp < 0:
        raise ValueError("mass flows must be >= 0")
    if not (0.0 < eta_t <= 1.0):
        raise ValueError("eta_t must be in (0, 1]")
    return eta_t * (dh_hp * m_dot_hp + dh_lp * m_dot_lp) / 1000.0


def compute_droop(p_e: float, q_dot: float, params: SmrParams) -> float:
    """Load-adaptive droop: low loading gives the stiffest response (m_min),
    full electrical+thermal loading the softest (m_max)."""
    if p_e < 0 or q_dot < 0:
        raise ValueError("loadings must be >= 0")
    frac = (p_e + q_dot) / (params.p_max + params.q_dot_max)
    m = params.m_min + frac * (params.m_max - params.m_min)
    return min(max(m, params.m_min), params.m_max)


def governor_power_correction(delta_f: float, droop: float, deadband: float) -> float:
    """Droop correction -df/m (pu), zero inside the deadband.

    delta_f is (f - f_nom)/f_nom so under-frequency raises power.
    """
    if droop <= 0:
        raise ValueError("droop must be > 0")
    if abs(delta_f) <= deadband:
        return 0.0
    return -delta_f / droop


def apply_load_limiter(p_cmd: float, p_prev: float, ramp_limit: float, dt: float) -> float:
    """Thermal-safety limiter: step bounded by ramp_limit*dt, output in [0, 1]."""
    if dt <= 0:
        raise ValueError("dt must be > 0")
    step = min(max(p_cmd - p_prev, -ramp_limit * dt), ramp_limit * dt)
    return min(max(p_prev + step, 0.0), 1.0)


def bess_power(
    delta_f: float, state: BessState, params: BessParams, dt: float
) -> tuple[float, BessState]:
    """One PI update. delta_f is (f_nom - f)/f_nom in pu.

    Trapezoidal integration with the integrator frozen while the output is
    saturated at +/-1 device pu (anti-windup).
    """
    if dt <= 0:
        raise ValueError("dt must be > 0")
    cand = state.integrator + 0.5 * (state.prev_df + delta_f) * dt
    cand = min(max(cand, -params.integrator_limit), params.integrator_limit)
    raw = params.k_p * delta_f + params.k_i * cand
    if abs(raw) > 1.0:
        p_out = math.copysign(1.0, raw)
        integrator = state.integrator  # frozen
    else:
        p_out = raw
        integrator = cand
    return p_out, BessState(integrator=integrator, p_out=p_out, prev_df=delta_f)


def bus_frequency_estimate(theta: np.ndarray, freq_filter_tc: float, dt: float) -> np.ndarray:
    """Washout-filtered angle derivative as a Hz deviation series.

    First-order low-pass (time constant freq_filter_tc) applied to the raw
    finite-difference derivative; angle differences are wrapped to (-pi, pi].
    """
    theta = np.asarray(theta, dtype=float)
    if theta.size < 2:
        raise ValueError("need at least 2 samples")
    dth = np.diff(theta)
    dth = (dth + np.pi) % (2 * np.pi) - np.pi
    raw = dth / dt / (2 * np.pi)
    out = np.zeros_like(theta)
    a = dt / freq_filter_tc
    for k in range(1, theta.size):
        out[k] = out[k - 1] + a * (raw[k - 1] - out[k - 1])
    return out


def rk4_step(f, t: float, x: np.ndarray, dt: float) -> np.ndarray:
    k1 = f(t, x)
    k2 = f(t + 0.5 * dt, x + 0.5 * dt * k1)
    k3 = f(t + 0.5 * dt, x + 0.5 * dt * k2)
    k4 = f(t + dt, x + dt * k3)
    return x + (dt / 6.0) * (k1 + 2 * k2 + 2 * k3 + k4)


# -- device descriptions -----------------------------------------------------


@dataclass(frozen=True)
class SyncMachine:
    bus: int
    params: MachineParams


@dataclass(frozen=True)
class SmrUnit:
    bus: int
    machine: MachineParams
    params: SmrParams
    p_dispatch_mw: float
    q_dispatch_mvar: float = 0.0
    thermal_mw: float = 0.0  # cooling thermal extraction feeding the droop map
    netted_in_case: bool = True  # dispatch was netted into the bus load


@dataclass(frozen=True)
class BessDevice:
    bus: int
    params: BessParams
    netted_in_case: bool = True


@dataclass(frozen=True)
class DeviceSet:
    machines: tuple[SyncMachine, ...]
    smr: SmrUnit | None = None
    bess: BessDevice | None = None


def default_machine_params(mva_base: float) -> MachineParams:
    return MachineParams(h=4.0, d=2.0, xd_p=0.25, mva_base=mva_base)


def default_machines(case: NetworkCase) -> tuple[SyncMachine, ...]:
    """One classical machine per in-service generator with typical constants."""
    out = []
    for g in case.generators:
        if g.status:
            out.append(SyncMachine(g.bus, default_machine_params(g.mva_base)))
    return tuple(out)


# -- initialization ----------------------------------------------------------


@dataclass
class _MachineModel:
    bus_idx: int
    bus_id: int
    y_m: complex  # 1/(j xd') on system base
    h2_sys: float  # 2H on system base
    d_sys: float
    state: MachineState
    is_smr: bool = False
    active: bool = True


def smr_flows_from_power(p_mech_mw: float, params: SmrParams) -> tuple[float, float]:
    """Back out HP/LP steam flows (kg/s) from a mechanical power command using
    the declared HP/LP power split."""
    if p_mech_mw < 0:
        raise ValueError("p_mech must be >= 0")
    kw = 1000.0 * p_mech_mw / params.eta_t
    m_hp = params.hp_fraction * kw / params.dh_hp
    m_lp = (1.0 - params.hp_fraction) * kw / params.dh_lp
    return m_hp, m_lp


def initialize_devices(
    case: NetworkCase,
    ybus: AdmittanceMatrix,
    solution: PowerFlowSolution,
    devices: DeviceSet,
) -> tuple[list[_MachineModel], SmrState | None, BessState | None, np.ndarray]:
    """Device states consistent with the converged snapshot.

    Returns (machine models, smr state, bess state, effective bus load pu).
    The effective load un-nets IES dispatch that apply_snapshot folded into
    the bus load, so the network sees the full datacenter draw while the
    devices inject their dispatch explicitly.
    """
    if not solution.converged:
        raise SimulationError("cannot initialize from a non-converged solution")
    sbase = case.system_mva_base
    v = solution.v
    s_load = case.load_pu().astype(complex)
    if devices.smr is not None and devices.smr.netted_in_case:
        i = case.bus_index(devices.smr.bus)
        s_load[i] += complex(devices.smr.p_dispatch_mw, devices.smr.q_dispatch_mvar) / sbase
    s_inj = v * np.conj(ybus.matrix @ v)
    s_gen_bus = s_inj + s_load  # generation per bus, pu

    # Dispatch shares: SMR takes its own dispatch; other machines split the
    # remaining bus generation in proportion to mva_base.
    by_bus: dict[int, list] = {}
    entries: list[tuple[SyncMachine | SmrUnit, bool]] = [
        (m, False) for m in devices.machines
    ]
    if devices.smr is not None:
        entries.append((devices.smr, True))
    for dev, is_smr in entries:
        by_bus.setdefault(case.bus_index(dev.bus), []).append((dev, is_smr))

    models: list[_MachineModel] = []
    smr_state: SmrState | None = None
    for bidx, devs in by_bus.items():
        vb = v[bidx]
        s_bus = s_gen_bus[bidx]
        smr_here = [(d, s) for d, s in devs if s]
        plain = [(d, s) for d, s in devs if not s]
        shares: list[tuple[object, bool, complex]] = []
        s_rem = s_bus
        for dev, _ in smr_here:
            s_smr = complex(dev.p_dispatch_mw, dev.q_dispatch_mvar) / sbase
            shares.append((dev, True, s_smr))
            s_rem -= s_smr
        wsum = sum(d.params.mva_base for d, _ in plain) or 1.0
        for dev, _ in plain:
            shares.append((dev, False, s_rem * (dev.params.mva_base / wsum)))
        for dev, is_smr, s_i in shares:
            mp = dev.machine if is_smr else dev.params
            xd_sys = mp.xd_p * sbase / mp.mva_base
            y_m = 1.0 / complex(0.0, xd_sys)
            i_i = np.conj(s_i / vb)
            e_c = vb + 1j * xd_sys * i_i
            p_air = float((e_c * np.conj((e_c - vb) * y_m)).real)
            if is_smr and dev.p_dispatch_mw > dev.params.p_max + 1e-9:
                raise SimulationError("SMR dispatch exceeds rating")
            models.append(
                _MachineModel(
                    bus_idx=bidx,
                    bus_id=dev.bus,
                    y_m=y_m,
                    h2_sys=2.0 * mp.h * mp.mva_base / sbase,
                    d_sys=mp.d * mp.mva_base / sbase,
                    state=MachineState(
                        delta=float(np.angle(e_c)),
                        omega_dev=0.0,
                        e_p=float(abs(e_c)),
                        p_mech=p_air,
                    ),
                    is_smr=is_smr,
                )
            )
            if is_smr:
                p_dev = dev.p_dispatch_mw
                m_hp, m_lp = smr_flows_from_power(p_dev, dev.params)
                smr_state = SmrState(
                    m_dot_hp=m_hp,
                    m_dot_lp=m_lp,
                    valve_cmd=p_dev / dev.params.p_max,
                    p_mech_cmd=p_dev / dev.params.p_max,
                    q_dot=min(dev.thermal_mw, dev.params.q_dot_max),
                    droop_now=compute_droop(
                        min(p_dev, dev.params.p_max),
                        min(dev.thermal_mw, dev.params.q_dot_max),
                        dev.params,
                    ),
                )
    bess_state = BessState() if devices.bess is not None else None
    return models, smr_state, bess_state, s_load


# -- transient engine --------------------------------------------------------


class _Network:
    """Augmented admittance matrix with load/machine stamps and event state."""

    def __init__(
        self,
        case: NetworkCase,
        ybase: sp.csc_matrix,
        s_load: np.ndarray,
        v0: np.ndarray,
    ):
        self.branches = branch_admittances(case)
        self.ybase = ybase
        self.n = case.n_bus
        vm2 = np.abs(v0) ** 2
        self.y_load = np.conj(s_load) / vm2  # constant-admittance loads
        self.fault_shunts: dict[int, complex] = {}
        self.tripped: set[int] = set()  # branch indices
        self.load_extra = np.zeros(self.n, dtype=complex)
        self.lu = None

    def refactor(self, models: list[_MachineModel]):
        y = self.ybase
        if self.tripped:
            y = y - self.branches.stamp(self.n, np.array(sorted(self.tripped)))
        diag = self.y_load + self.load_extra
        for m in models:
            if m.active:
                diag[m.bus_idx] += m.y_m
        for bidx, yf in self.fault_shunts.items():
            diag[bidx] += yf
        try:
            self.lu = spla.splu((y + sp.diags(diag)).tocsc())
        except RuntimeError as exc:
            raise SimulationError(f"singular network matrix: {exc}") from exc

    def solve(self, rhs: np.ndarray) -> np.ndarray:
        return self.lu.solve(rhs)


def _apply_event(net: _Network, case: NetworkCase, models, kind: EventKind, v_pre):
    if isinstance(kind, BusFault3ph):
        net.fault_shunts[case.bus_index(kind.bus)] = kind.fault_admittance
    elif isinstance(kind, ClearFault):
        net.fault_shunts.pop(case.bus_index(kind.bus), None)
    elif isinstance(kind, LineTrip):
        hits = [
            k
            for k, br in enumerate(case.branches)
            if {br.from_bus, br.to_bus} == {kind.from_bus, kind.to_bus}
            and br.status
            and k not in net.tripped
        ]
        if not hits:
            raise SimulationError(
                f"no in-service branch {kind.from_bus}-{kind.to_bus} to trip"
            )
        net.tripped.add(hits[min(kind.circuit, len(hits) - 1)])
    elif isinstance(kind, GenTrip):
        found = False
        for m in models:
            if m.bus_id == kind.bus and m.active:
                m.active = False
                found = True
        if not found:
            raise SimulationError(f"no active machine at bus {kind.bus} to trip")
    elif isinstance(kind, LoadStep):
        i = case.bus_index(kind.bus)
        ds = complex(kind.dp_mw, kind.dq_mvar) / case.system_mva_base
        net.load_extra[i] += np.conj(ds) / (abs(v_pre[i]) ** 2)
    else:
        raise SimulationError(f"unknown event kind {kind!r}")


def run_transient(
    case: NetworkCase,
    solution: PowerFlowSolution,
    devices: DeviceSet,
    events: list[Event],
    cfg: SimConfig,
    ybus: AdmittanceMatrix | None = None,
) -> TransientResult:
    if ybus is None:
        ybus = build_ybus(case)
    events = sorted(events, key=lambda e: e.t)
    if events and cfg.t_end <= events[-1].t:
        raise ValueError("t_end must exceed the last event time")
    models, smr_state, bess_state, s_load = initialize_devices(
        case, ybus, solution, devices
    )
    sbase = case.system_mva_base
    f_nom = cfg.f_nominal
    w_s = 2.0 * math.pi * f_nom
    n_steps = int(round(cfg.t_end / cfg.dt))
    dt = cfg.dt
    v = solution.v.copy()

    smr = devices.smr
    smr_mi = next((i for i, m in enumerate(models) if m.is_smr), None)

    monitor = list(cfg.monitor_buses)
    if devices.bess is not None and devices.bess.bus not in monitor:
        monitor.append(devices.bess.bus)
    if not monitor:
        monitor = [case.buses[0].id]
    mon_idx = {b: case.bus_index(b) for b in monitor}

    net = _Network(case, ybus.matrix, s_load, solution.v)
    net.refactor(models)

    nm = len(models)
    delta = np.array([m.state.delta for m in models])
    omega = np.zeros(nm)
    e_p = np.array([m.state.e_p for m in models])
    p_mech = np.array([m.state.p_mech for m in models])
    bus_of = np.array([m.bus_idx for m in models])
    y_m = np.array([m.y_m for m in models])
    h2 = np.array([m.h2_sys for m in models])
    d_sys = np.array([m.d_sys for m in models])
    active = np.array([m.active for m in models])

    bess = devices.bess
    bess_i_inj = 0.0 + 0.0j
    bess_bidx = case.bus_index(bess.bus) if bess is not None else -1
    # Online POI frequency filter feeding the battery controller.
    poi_fdev_hz = 0.0
    poi_theta_prev = float(np.angle(v[bess_bidx])) if bess is not None else 0.0

    def network_voltage(delta_v, e_v, act):
        rhs = np.zeros(net.n, dtype=complex)
        emf = e_v * np.exp(1j * delta_v)
        src = emf * y_m
        np.add.at(rhs, bus_of[act], src[act])
        if bess is not None:
            rhs[bess_bidx] += bess_i_inj
        vv = net.solve(rhs)
        return vv, emf

    def deriv(_t, x):
        d_v = x[:nm]
        w_v = x[nm:]
        vv, emf = network_voltage(d_v, e_p, active)
        i_m = (emf - vv[bus_of]) * y_m
        p_e = (emf * np.conj(i_m)).real
        dd = np.where(active, w_v * w_s, 0.0)
        dw = np.where(active, (p_mech - p_e - d_sys * w_v) / h2, 0.0)
        return np.concatenate([dd, dw])

    t_grid = np.linspace(0.0, n_steps * dt, n_steps + 1)
    vmag_out = {b: np.empty(n_steps + 1) for b in monitor}
    theta_out = {b: np.empty(n_steps + 1) for b in monitor}
    smr_series = np.empty(n_steps + 1) if smr is not None else None
    bess_series = np.empty(n_steps + 1) if bess is not None else None
    event_log: list[dict] = []

    state0 = None
    max_drift = 0.0
    smr_ramp_max = 0.0
    ev_i = 0
    alpha_f = dt / cfg.freq_filter_tc

    x = np.concatenate([delta, omega])
    for k in range(n_steps + 1):
        t = t_grid[k]
        # Fire events due at this step boundary.
        while ev_i < len(events) and events[ev_i].t <= t + 1e-12:
            ev = events[ev_i]
            _apply_event(net, case, models, ev.kind, v)
            active = np.array([m.active for m in models])
            net.refactor(models)
            event_log.append({"t": float(ev.t), "kind": type(ev.kind).__name__,
                              "detail": repr(ev.kind)})
            ev_i += 1

        vv, emf = network_voltage(x[:nm], e_p, active)
        if not np.all(np.isfinite(vv)):
            raise SimulationError(f"NaN in network solution at t={t:.4f}s")
        v = vv
        for b, bi in mon_idx.items():
            vmag_out[b][k] = abs(v[bi])
            theta_out[b][k] = np.angle(v[bi])
        if smr is not None:
            smr_series[k] = p_mech[smr_mi] * sbase
        if bess is not None:
            bess_series[k] = bess_state.p_out * bess.params.p_rating

        # Drift bookkeeping over every device state.
        svec = np.concatenate(
            [
                x,
                p_mech,
                [bess_state.integrator, bess_state.p_out] if bess else [],
                [smr_state.valve_cmd, smr_state.p_mech_cmd] if smr else [],
            ]
        )
        if state0 is None:
            state0 = svec
        else:
            max_drift = max(max_drift, float(np.max(np.abs(svec - state0))))

        if k == n_steps:
            break

        # Controller updates (piecewise-constant over the step).
        if bess is not None:
            th = float(np.angle(v[bess_bidx]))
            dth = (th - poi_theta_prev + math.pi) % (2 * math.pi) - math.pi
            raw_hz = dth / dt / (2 * math.pi) if k > 0 else 0.0
            poi_fdev_hz += alpha_f * (raw_hz - poi_fdev_hz)
            poi_theta_prev = th
            df_pu = -poi_fdev_hz / f_nom
            p_out, bess_state = bess_power(df_pu, bess_state, bess.params, dt)
            s_b = complex(p_out * bess.params.p_rating / sbase, 0.0)
            bess_i_inj = np.conj(s_b / v[bess_bidx])
        if smr is not None and models[smr_mi].active:
            mi = smr_mi
            p_e_mw = float(
                (emf[mi] * np.conj((emf[mi] - v[models[mi].bus_idx]) * y_m[mi])).real
            ) * sbase
            droop = compute_droop(
                min(max(p_e_mw, 0.0), smr.params.p_max),
                smr_state.q_dot,
                smr.params,
            )
            corr = governor_power_correction(
                float(x[nm + mi]), droop, smr.params.freq_deadband
            )
            target = smr.p_dispatch_mw / smr.params.p_max + corr
            target = min(max(target, 0.0), 1.0)
            a = 1.0 - math.exp(-dt / smr.params.t_actuator)
            valve = smr_state.valve_cmd + a * (target - smr_state.valve_cmd)
            p_cmd = apply_load_limiter(
                valve, smr_state.p_mech_cmd, smr.params.ramp_limit, dt
            )
            smr_ramp_max = max(
                smr_ramp_max, abs(p_cmd - smr_state.p_mech_cmd) / dt
            )
            m_hp, m_lp = smr_flows_from_power(p_cmd * smr.params.p_max, smr.params)
            smr_state = replace(
                smr_state,
                valve_cmd=valve,
                p_mech_cmd=p_cmd,
                m_dot_hp=m_hp,
                m_dot_lp=m_lp,
                droop_now=droop,
            )
            p_mech[mi] = (
                turbine_mechanical_power(
                    smr.params.eta_t, smr.params.dh_hp, smr.params.dh_lp, m_hp, m_lp
                )
                / sbase
            )

        x = rk4_step(deriv, t, x, dt)
        if not np.all(np.isfinite(x)):
            raise SimulationError(f"NaN in device states at t={t + dt:.4f}s")

    freq_out = {
        b: bus_frequency_estimate(theta_out[b], cfg.freq_filter_tc, dt)
        for b in monitor
    }
    for m, dlt, om in zip(models, x[:nm], x[nm:]):
        m.state = replace(m.state, delta=float(dlt), omega_dev=float(om))
    return TransientResult(
        t=t_grid,
        v_mag=vmag_out,
        freq_dev=freq_out,
        smr_p_mech_mw=smr_series,
        bess_p_mw=bess_series,
        event_log=event_log,
        max_state_drift=max_drift,
        smr_ramp_max=smr_ramp_max,
    )


# -- result export -----------------------------------------------------------


def write_result_csv(result: TransientResult, path) -> None:
    """Time-series CSV: t_s, bus_<id>_vmag_pu, bus_<id>_fdev_hz, then
    smr_pmech_mw / bess_p_mw when those devices are present."""
    import csv

    buses = sorted(result.v_mag)
    header = ["t_s"]
    for b in buses:
        header += [f"bus_{b}_vmag_pu", f"bus_{b}_fdev_hz"]
    if result.smr_p_mech_mw is not None:
        header.append("smr_pmech_mw")
    if result.bess_p_mw is not None:
        header.append("bess_p_mw")
    with open(path, "w", newline="") as fh:
        w = csv.writer(fh)
        w.writerow(header)
        for k in range(len(result.t)):
            row = [f"{result.t[k]:.6f}"]
            for b in buses:
                row += [f"{result.v_mag[b][k]:.9f}", f"{result.freq_dev[b][k]:.9f}"]
            if result.smr_p_mech_mw is not None:
                row.append(f"{result.smr_p_mech_mw[k]:.9f}")
            if result.bess_p_mw is not None:
                row.append(f"{result.bess_p_mw[k]:.9f}")
            w.writerow(row)


def write_event_log(result: TransientResult, path) -> None:
    import json

    with open(path, "w") as fh:
        json.dump(result.event_log, fh, indent=1, sort_keys=True)
