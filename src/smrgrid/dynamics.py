"""Fixed-step transient simulator: classical machines, the SMR governor with
load-dependent droop and a thermal-safety ramp limiter, the PI-controlled
battery, and network fault/trip/load-step events.

Scheme: a plant and one controller. The plant, `_Network`, holds every
machine (one record of arrays, `initialize_devices`, the SMR's included) and
the network, solved at each RK4 stage with loads as constant admittance
(converted at the pre-fault voltage), machines as EMF-behind-reactance
sources and the battery as a current injection. Linear between events, the
network is reduced once per topology, by one dense LU of the augmented
admittance matrix, to two complex operators on the stage phasors
[e^{j delta}; battery current]: one gives the machine currents scaled by
e_p/2H for each stage (`_Network.deriv`), the other the read buses' voltages
at each step boundary (`_Network.read`); events restamp and rebuild both.
The controller, `_IesControl`, is the `IesUnit`'s SMR governor and battery
PI loop, updated once per step from the POI frequency and voltage.

Events are compiled once, before the first step (`_compile_events`), to
actions in index form at the steps where they fire; an event that cannot
apply fails there, before any step is taken.

Bus frequency is measured once, online: each step the washout filter
(`washout_update`) advances for every monitored bus, the battery acts on the
POI's value, and those values are the reported `freq_dev` series.
`bus_frequency_estimate` runs the same filter over a recorded angle series.

Sign conventions (documented, the source material leaves them open):
  * governor input is the machine speed deviation (f - f_nom)/f_nom in pu,
    and the correction is -df/m, so under-frequency raises power;
  * battery input is (f_nom - f)/f_nom in pu, so under-frequency yields
    discharge (positive injection).
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass
from typing import Callable, NamedTuple

import numpy as np

from .network import CaseError, NetworkCase
from .powerflow import PowerFlowSolution

F_NOMINAL_HZ = 60.0


class SimulationError(Exception):
    """A transient that cannot run: an event at or past the horizon or one
    that cannot apply, both raised before the first step, or a numerical
    failure (singular network, NaN)."""


# -- device parameters and states --------------------------------------------


@dataclass(frozen=True)
class MachineParams:
    h: float  # inertia constant, s, machine base
    d: float  # damping, pu/pu, machine base
    xd_p: float  # transient reactance, pu, machine base
    mva_base: float

    def __post_init__(self):
        # Negated comparisons, so that NaN fails each check.
        if not self.h > 0:
            raise ValueError("inertia h must be > 0")
        if not self.d >= 0:
            raise ValueError("damping d must be >= 0")
        if not self.xd_p > 0:
            raise ValueError("xd_p must be > 0")
        if not self.mva_base > 0:
            raise ValueError("mva_base must be > 0")


@dataclass(frozen=True)
class SmrParams:
    m_min: float = 0.04  # droop bounds, pu
    m_max: float = 0.08
    p_max: float = 50.0  # MW electrical rating
    q_dot_max: float = 60.0  # MW-thermal extraction ceiling
    ramp_limit: float = 0.02  # pu/s on p_max
    t_actuator: float = 0.2  # s
    freq_deadband: float = 0.0  # pu

    def __post_init__(self):
        if not (0.0 < self.m_min <= self.m_max):
            raise ValueError("need 0 < m_min <= m_max")
        if not (self.p_max > 0 and self.q_dot_max >= 0):
            raise ValueError("p_max must be > 0 and q_dot_max >= 0")
        if not self.ramp_limit > 0:
            raise ValueError("ramp_limit must be > 0")
        if not self.t_actuator > 0:
            raise ValueError("t_actuator must be > 0")
        if not self.freq_deadband >= 0:
            raise ValueError("freq_deadband must be >= 0")


@dataclass(frozen=True)
class BessParams:
    k_p: float = 20.0  # pu power per pu freq deviation
    k_i: float = 5.0  # pu/(pu s)
    p_rating: float = 10.0  # MW
    integrator_limit: float = 0.5  # pu s anti-windup clamp

    def __post_init__(self):
        if not self.p_rating > 0:
            raise ValueError("p_rating must be > 0")
        if not (self.k_p >= 0 and self.k_i >= 0):
            raise ValueError("gains must be >= 0")
        if not self.integrator_limit >= 0:
            raise ValueError("integrator_limit must be >= 0")


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

    def __post_init__(self):
        if not self.circuit >= 0:
            raise ValueError("circuit must be >= 0")


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
        if not self.t >= 0:
            raise ValueError("event time must be >= 0")


#: The most steps a run may take (5000 s at the default dt): a run holds every
#: step's states, so a 1e13 s horizon would ask for petabytes. The largest run
#: of the tests and benchmark, criterion 6's dt/2 rerun, takes 6000.
MAX_STEPS = 10**6


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
        if not (0.0 < self.t_end < math.inf):
            raise ValueError("t_end must be finite and > 0")
        steps = self.t_end / self.dt  # so that the run and its dt/2 rerun end at t_end
        if not steps <= MAX_STEPS:
            raise ValueError(f"t_end must be at most {MAX_STEPS} dt steps")
        if abs(steps - round(steps)) > 1e-9:
            raise ValueError("t_end must be a whole number of dt steps")
        if not (self.dt <= self.freq_filter_tc < math.inf):  # washout gain <= 1
            raise ValueError("freq_filter_tc must be finite and >= dt")
        if not (0.0 < self.f_nominal < math.inf):
            raise ValueError("f_nominal must be finite and > 0")


@dataclass
class TransientResult:
    t: np.ndarray
    v_mag: dict[int, np.ndarray]  # bus id -> pu series
    freq_dev: dict[int, np.ndarray]  # bus id -> Hz series
    smr_p_mech_mw: np.ndarray | None
    bess_p_mw: np.ndarray | None
    event_log: list[dict]
    max_state_drift: float  # max |x(t)-x(0)| over all device states
    # max |d cmd/dt|, pu/s device base: the ramp of the SMR governor's command,
    # which the thermal-safety limiter bounds. A trip drops smr_p_mech_mw to 0
    # in one sample, and that drop is no ramp of the command.
    smr_ramp_max: float = 0.0


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


def washout_update(
    f_prev: float, theta: float, theta_prev: float, alpha: float, dt: float
) -> float:
    """One sample of the washout-filtered bus frequency, a Hz deviation.

    First-order low-pass with gain alpha = dt/tc applied to the raw
    finite-difference derivative of the bus angle; the angle difference is
    wrapped to [-pi, pi).
    """
    dth = (theta - theta_prev + math.pi) % (2 * math.pi) - math.pi
    return f_prev + alpha * (dth / dt / (2 * math.pi) - f_prev)


def bus_frequency_estimate(theta, freq_filter_tc: float, dt: float) -> np.ndarray:
    """`washout_update` run over a recorded angle series (radians, one
    sample per dt), as `run_transient` runs it: the first sample reads 0."""
    theta = [float(th) for th in theta]
    if len(theta) < 2:
        raise ValueError("need at least 2 samples")
    f = [0.0]
    alpha = dt / freq_filter_tc
    for th_prev, th in zip(theta, theta[1:]):
        f.append(washout_update(f[-1], th, th_prev, alpha, dt))
    return np.array(f)


def rk4_step(f, t: float, x: np.ndarray, dt: float) -> np.ndarray:
    k1 = f(t, x)
    k2 = f(t + 0.5 * dt, x + 0.5 * dt * k1)
    k3 = f(t + 0.5 * dt, x + 0.5 * dt * k2)
    k4 = f(t + dt, x + dt * k3)
    return x + (dt / 6.0) * (k1 + 2 * k2 + 2 * k3 + k4)


# -- the integrated energy system --------------------------------------------


@dataclass(frozen=True)
class IesUnit:
    """The SMR and its battery at one bus: the SMR machine, its governor
    and steam-path parameters (rating `smr.p_max`), the battery (rating
    `bess.p_rating`), the SMR's pre-fault dispatch and the cooling thermal
    extraction that feeds its droop map."""

    bus: int
    machine: MachineParams
    smr: SmrParams
    bess: BessParams
    p_dispatch_mw: float
    thermal_mw: float = 0.0


# Classical constants of every network generator's machine (machine base).
GRID_MACHINE = {"h": 4.0, "d": 2.0, "xd_p": 0.25}


# -- initialization ----------------------------------------------------------


@dataclass(frozen=True, eq=False)
class _Machines:
    """Classical machines as arrays, one entry per machine in device order.

    The order (buses in order of first appearance, the SMR first at its bus)
    fixes the summation order of every network product. Only `active`
    (cleared by `GenTrip`) changes during a run.
    """

    bus_idx: np.ndarray  # bus index
    y_m: np.ndarray  # 1/(j xd') on system base
    h2: np.ndarray  # 2H on system base
    d: np.ndarray  # damping on system base
    delta: np.ndarray  # initial rotor angle, rad
    e_p: np.ndarray  # internal EMF, pu system base voltage
    p_mech: np.ndarray  # pu system base
    active: np.ndarray  # bool
    smr: int | None = None  # index of the SMR machine


# The SMR's steam path: turbine efficiency, HP and LP stage enthalpy drops
# (kJ/kg) and the HP stage's share of the power. No output depends on them:
# the transient sets the SMR's mechanical power to its command.
ETA_T, DH_HP, DH_LP, HP_FRACTION = 0.90, 1100.0, 850.0, 0.7


def smr_flows_from_power(p_mech_mw: float) -> tuple[float, float]:
    """Back out HP/LP steam flows (kg/s) from a mechanical power command using
    the steam-path constants' HP/LP power split."""
    if p_mech_mw < 0:
        raise ValueError("p_mech must be >= 0")
    kw = 1000.0 * p_mech_mw / ETA_T
    m_hp = HP_FRACTION * kw / DH_HP
    m_lp = (1.0 - HP_FRACTION) * kw / DH_LP
    return m_hp, m_lp


def initialize_devices(
    case: NetworkCase,
    solution: PowerFlowSolution,
    ies: IesUnit | None,
) -> tuple[_Machines, np.ndarray]:
    """Machine states consistent with the converged snapshot: one classical
    machine (`GRID_MACHINE`) per in-service generator, plus the SMR's
    machine when `ies` is given, sharing the bus generation: the
    solution's net injection plus the bus load.

    Returns (machines, effective bus load pu). The effective load un-nets
    the SMR dispatch that `scenario.snapshot_case` nets in the POI bus's
    load, so the network sees the full datacenter draw while the devices
    inject their dispatch explicitly.
    """
    if not solution.converged:
        raise SimulationError("cannot initialize from a non-converged solution")
    sbase = case.system_mva_base
    v = solution.v
    # Dispatch shares: the SMR takes its own dispatch; the other machines
    # split the remaining bus generation in proportion to mva_base.
    by_bus: dict[int, list[MachineParams]] = {}
    for g in case.generators:
        if g.status:
            by_bus.setdefault(case.bus_index(g.bus), []).append(
                MachineParams(**GRID_MACHINE, mva_base=g.mva_base)
            )
    s_load = case.load_pu().astype(complex)
    smr_bidx = smr_i = None
    if ies is not None:
        if ies.p_dispatch_mw > ies.smr.p_max + 1e-9:
            raise SimulationError("SMR dispatch exceeds rating")
        smr_bidx = case.bus_index(ies.bus)
        s_smr = complex(ies.p_dispatch_mw / sbase)
        s_load[smr_bidx] += s_smr
        by_bus.setdefault(smr_bidx, [])
    s_gen_bus = solution.p_inj + 1j * solution.q_inj + s_load  # generation per bus, pu

    shares = []  # (bus index, machine params, complex power pu)
    for bidx, plain in by_bus.items():
        s_rem = s_gen_bus[bidx]
        if bidx == smr_bidx:
            smr_i = len(shares)
            shares.append((bidx, ies.machine, s_smr))
            s_rem -= s_smr
        wsum = sum(mp.mva_base for mp in plain) or 1.0
        shares += [(bidx, mp, s_rem * (mp.mva_base / wsum)) for mp in plain]

    rows = []
    for bidx, mp, s_i in shares:
        vb = v[bidx]
        xd_sys = mp.xd_p * sbase / mp.mva_base
        y_m = 1.0 / complex(0.0, xd_sys)
        i_i = np.conj(s_i / vb)
        e_c = vb + 1j * xd_sys * i_i
        p_air = float((e_c * np.conj((e_c - vb) * y_m)).real)
        rows.append((
            bidx, y_m,
            2.0 * mp.h * mp.mva_base / sbase, mp.d * mp.mva_base / sbase,
            float(np.angle(e_c)), float(abs(e_c)), p_air,
        ))
    cols = list(zip(*rows)) or [()] * 7
    dtypes = (int, complex, float, float, float, float, float)
    machines = _Machines(*(np.array(c, dtype=t) for c, t in zip(cols, dtypes)),
                         active=np.ones(len(rows), dtype=bool), smr=smr_i)
    return machines, s_load


# -- transient engine --------------------------------------------------------


class _Network:
    """The plant: the machines, the augmented admittance matrix and event
    state, reduced to the machine currents and read voltages, and the
    machines' swing equations.

    Current enters only at machine buses (y_m E behind each active machine's
    reactance, E = e_p e^{j delta}) and at the battery bus (i_b), and only
    the machine currents and the read buses' voltages (monitored, battery
    and load-step buses) are needed. So after each `refactor` the network is
    two complex operators on the stage input z = [e^{j delta}; i_b]:

      * `current` (nm x nm + 1) maps z to J, the machine currents
        y_m (E - V_terminal) scaled by e_p/2H, zero for tripped machines;
        the electrical power over 2H is then Re(conj(e^{j delta}) J);
      * `read_op` (r x nm + 1) maps z to the read-bus voltages, ordered as
        `read_bus`.

    The base matrix is the case's Y-bus (`NetworkCase.ybus`), and a branch
    trip subtracts the pi-model that the Y-bus was stamped from.
    """

    def __init__(
        self,
        case: NetworkCase,
        s_load: np.ndarray,
        v0: np.ndarray,
        machines: _Machines,
        w_s: float,
        read_buses,
        bess_idx: int | None = None,
    ):
        self.ybus = case.ybus
        self.machines = machines
        self.w_s = w_s
        self.nm = machines.bus_idx.size
        self.z = np.zeros(self.nm + 1, dtype=complex)  # the caller sets i_b
        self.x = None  # the state whose rotor phasors `z` holds
        self.n = case.n_bus
        vm2 = np.abs(v0) ** 2
        self.y_load = np.conj(s_load) / vm2  # constant-admittance loads
        self.fault = np.zeros(self.n, dtype=complex)  # fault shunt per bus
        self.tripped: set[int] = set()  # branch indices
        self.load_extra = np.zeros(self.n, dtype=complex)
        # Sorted sets of a few bus indices (np.unique would import numpy.ma).
        battery = set() if bess_idx is None else {int(bess_idx)}
        read = sorted({int(b) for b in read_buses} | battery)
        self.read_bus = np.array(read, dtype=int)
        self.read_of = {b: k for k, b in enumerate(read)}
        self.sources = np.array(sorted(set(machines.bus_idx.tolist()) | battery), dtype=int)
        self.machine_col = np.searchsorted(self.sources, machines.bus_idx)
        self.bess_col = None if bess_idx is None else int(
            np.searchsorted(self.sources, bess_idx)
        )

    def refactor(self):
        machines = self.machines
        y = self.ybus.matrix
        if self.tripped:
            y = y - self.ybus.branches.stamp(self.n, np.array(sorted(self.tripped)))
        on = machines.active
        diag = self.y_load + self.load_extra
        np.add.at(diag, machines.bus_idx[on], machines.y_m[on])
        diag += self.fault  # + 0 leaves an unfaulted bus's entry as it is
        # Columns of the impedance matrix at the sources.
        n_src = self.sources.size
        unit = np.zeros((self.n, n_src), dtype=complex)
        unit[self.sources, np.arange(n_src)] = 1.0
        try:
            z = np.linalg.solve(y + np.diag(diag), unit)
        except np.linalg.LinAlgError as exc:
            raise SimulationError(f"singular network matrix: {exc}") from exc
        # Bus voltages per unit e^{j delta} of each active machine, and per
        # unit battery current.
        v_m = z[:, self.machine_col] * np.where(on, machines.y_m * machines.e_p, 0j)
        v_b = np.zeros(self.n, dtype=complex)
        if self.bess_col is not None:
            v_b = z[:, self.bess_col]
        # Per-machine rates over 2H; tripped ones (h2_inv 0) hold their state.
        self.h2_inv = h2_inv = on / machines.h2
        self.w_gain = self.w_s * on
        self.pm_h, self.dh = machines.p_mech * h2_inv, machines.d * h2_inv
        rows = machines.bus_idx
        g = machines.y_m * machines.e_p * on / machines.h2
        self.current = np.column_stack(
            (g[:, None] * (np.diag(machines.e_p) - v_m[rows]), -g * v_b[rows])
        )
        self.read_op = np.column_stack((v_m[self.read_bus], v_b[self.read_bus]))
        self.finite = bool(
            np.isfinite(self.current).all() and np.isfinite(self.read_op).all()
        )

    def solve(self, z: np.ndarray, read: bool = False) -> np.ndarray:
        """The scaled machine currents for the stage input `z`, or with
        `read` the read-bus voltages (see the class docstring)."""
        return (self.read_op if read else self.current) @ z

    def _load(self, x: np.ndarray):
        self.x, delta, rotor = x, x[:self.nm], self.z[:self.nm]
        np.cos(delta, out=rotor.real)
        np.sin(delta, out=rotor.imag)

    def read(self, x: np.ndarray) -> np.ndarray:
        """The read-bus voltages at the step-boundary state `x`."""
        self._load(x)
        return self.solve(self.z, read=True)

    def deriv(self, _t: float, x: np.ndarray) -> np.ndarray:
        """The rates of `x` = [delta; speed]: the swing equations."""
        if x is not self.x:  # the first stage reuses the step boundary's phasors
            self._load(x)
        nm = self.nm
        pe_h = (self.z[:nm].conj() * self.solve(self.z)).real  # P_e / 2H
        w = x[nm:]
        dw = self.pm_h - pe_h - self.dh * w
        return np.concatenate((self.w_gain * w, dw))


class _Action(NamedTuple):
    """An event in index form: at step boundary `step`, `apply(net, v_pre)`
    patches the plant, reading the pre-event voltages of the buses `reads`."""

    step: int
    event: Event
    apply: Callable[[_Network, np.ndarray], object]
    reads: tuple[int, ...]


def _compile_events(case, machines: _Machines, events: list[Event], t_grid) -> list[_Action]:
    """The time-sorted `events` as actions, each at the first step k with
    t <= t_grid[k] + 1e-12. They are replayed on copies of the tripped
    branches and active machines, so an event that cannot apply (an unknown
    bus, no such branch or circuit, no active machine, a repeated trip, an
    unknown kind) raises SimulationError before the first step."""
    tripped, active = set(), machines.active.copy()

    def action(kind):  # (apply, reads)
        if isinstance(kind, LineTrip):
            case.bus_index(kind.from_bus), case.bus_index(kind.to_bus)  # known buses
            ends = {kind.from_bus, kind.to_bus}
            hits = [k for k, br in enumerate(case.branches)
                    if br.status and {br.from_bus, br.to_bus} == ends and k not in tripped]
            line = f"{kind.from_bus}-{kind.to_bus}"
            if not hits:
                raise SimulationError(f"no in-service branch {line} to trip")
            if kind.circuit >= len(hits):
                raise SimulationError(f"no in-service circuit {kind.circuit} of branch "
                                      f"{line} to trip ({len(hits)} in service)")
            k = hits[kind.circuit]
            tripped.add(k)
            return lambda net, v: net.tripped.add(k), ()
        if not isinstance(kind, (BusFault3ph, ClearFault, GenTrip, LoadStep)):
            raise SimulationError(f"unknown event kind {kind!r}")
        i = case.bus_index(kind.bus)
        if isinstance(kind, BusFault3ph):
            return lambda net, v: np.put(net.fault, i, kind.fault_admittance), ()
        if isinstance(kind, ClearFault):
            return lambda net, v: np.put(net.fault, i, 0.0), ()
        if isinstance(kind, GenTrip):
            hit = np.flatnonzero(active & (machines.bus_idx == i))
            if not hit.size:
                raise SimulationError(f"no active machine at bus {kind.bus} to trip")
            active[hit] = False
            return lambda net, v: np.put(net.machines.active, hit, False), ()
        y = np.conj(complex(kind.dp_mw, kind.dq_mvar) / case.system_mva_base)
        return lambda net, v: np.add.at(net.load_extra, i, y / abs(v[net.read_of[i]]) ** 2), (i,)

    compiled = []
    steps = np.searchsorted(t_grid + 1e-12, [ev.t for ev in events]).tolist()
    for step, ev in zip(steps, events):
        try:
            compiled.append(_Action(step, ev, *action(ev.kind)))
        except CaseError as exc:
            raise SimulationError(f"{ev.kind!r} at t={ev.t}: {exc}") from None
    return compiled


class _IesControl:
    """The IES loop, held over each step: the battery's PI state, the SMR
    governor's valve and ramp-limited command (pu of p_max) and the SMR's
    mechanical power `p_smr` (pu system base)."""

    def __init__(self, ies: IesUnit, machines: _Machines, sbase: float, cfg: SimConfig):
        self.ies, self.sbase, self.f_nom, self.dt = ies, sbase, cfg.f_nominal, cfg.dt
        i = machines.smr
        self.e, self.y = float(machines.e_p[i]), complex(machines.y_m[i])
        self.bess = BessState()
        self.p_smr = float(machines.p_mech[i])
        self.valve = self.cmd = ies.p_dispatch_mw / ies.smr.p_max
        self.q_dot = min(ies.thermal_mw, ies.smr.q_dot_max)  # MW-thermal
        self.a_act = 1.0 - math.exp(-self.dt / ies.smr.t_actuator)

    def state(self) -> tuple[float, float, float, float, float]:
        """Battery integrator and output, SMR power, valve and command."""
        return (self.bess.integrator, self.bess.p_out, self.p_smr, self.valve, self.cmd)

    def step(self, f_poi: float, v_poi: complex, rotor: tuple[complex, float] | None):
        """One update from the POI's filtered frequency deviation (Hz) and
        voltage (pu) and the SMR's rotor (e^{j delta}, speed in pu), None
        while the SMR is tripped: it then delivers no power, and its valve
        and command hold. Returns the battery current (pu)."""
        ies, smr = self.ies, self.ies.smr
        p_out, self.bess = bess_power(-f_poi / self.f_nom, self.bess, ies.bess, self.dt)
        if rotor is None:
            self.p_smr = 0.0
        else:
            emf = self.e * rotor[0]
            p_e_mw = (emf * ((emf - v_poi) * self.y).conjugate()).real * self.sbase
            droop = compute_droop(min(max(p_e_mw, 0.0), smr.p_max), self.q_dot, smr)
            corr = governor_power_correction(rotor[1], droop, smr.freq_deadband)
            target = min(max(ies.p_dispatch_mw / smr.p_max + corr, 0.0), 1.0)
            self.valve = self.valve + self.a_act * (target - self.valve)
            self.cmd = apply_load_limiter(self.valve, self.cmd, smr.ramp_limit, self.dt)
            # The steam path is a declared identity: the HP/LP flows that
            # smr_flows_from_power gives turbine_mechanical_power cmd back.
            self.p_smr = self.cmd * smr.p_max / self.sbase
        return (complex(p_out * ies.bess.p_rating / self.sbase, 0.0) / v_poi).conjugate()


def run_transient(
    case: NetworkCase,
    solution: PowerFlowSolution,
    ies: IesUnit | None,
    events: list[Event],
    cfg: SimConfig,
) -> TransientResult:
    """Transient from the converged snapshot `solution`; `ies` is the
    datacenter's SMR and battery, None for a grid-only run."""
    events = sorted(events, key=lambda e: e.t)
    n_steps = int(round(cfg.t_end / cfg.dt))
    dt = cfg.dt
    t_grid = np.linspace(0.0, n_steps * dt, n_steps + 1)
    # t_end may sit up to 1e-9 steps off the grid: an event after its last
    # point (beyond the step rule's tolerance) would fire at no step.
    if events and not events[-1].t < min(cfg.t_end, t_grid[-1] + 1e-12):
        raise SimulationError("t_end must exceed the last event time")
    machines, s_load = initialize_devices(case, solution, ies)
    actions = _compile_events(case, machines, events, t_grid)
    pending = actions[::-1]  # the next one last

    monitor = list(cfg.monitor_buses)
    ctl = bess_idx = None
    smr = machines.smr
    if ies is not None:
        ctl = _IesControl(ies, machines, case.system_mva_base, cfg)
        bess_idx = case.bus_index(ies.bus)
        if ies.bus not in monitor:
            monitor.append(ies.bus)
        poi_j = monitor.index(ies.bus)
        ies_states = np.tile(ctl.state(), (n_steps + 1, 1))  # one row per boundary
    monitor = monitor or [case.buses[0].id]
    net = _Network(
        case, s_load, solution.v, machines, 2.0 * math.pi * cfg.f_nominal,
        [case.bus_index(b) for b in monitor] + [i for a in actions for i in a.reads],
        bess_idx,
    )
    net.refactor()
    # Where each monitored bus's voltage sits in a read vector.
    mon_at = [net.read_of[case.bus_index(b)] for b in monitor]

    v_hist = np.empty((n_steps + 1, net.read_bus.size), dtype=complex)  # read vectors
    # Washout-filtered frequency of every monitored bus, filtered online on
    # Python floats so the battery acts on the reported POI frequency.
    f_mon = [[0.0] for _ in monitor]
    th_prev = [0.0] * len(monitor)
    alpha_f = dt / cfg.freq_filter_tc

    x = np.concatenate([machines.delta, np.zeros_like(machines.delta)])
    # Drift bookkeeping: the running extremes of the machine states (the IES
    # states are kept per step). Rounding is monotone, so max - x0 is the
    # largest rounded x - x0.
    x0, x_hi, x_lo = x, x.copy(), x.copy()
    for k in range(n_steps + 1):
        t = t_grid[k]
        while pending and pending[-1].step == k:  # the actions due at this boundary
            pending.pop().apply(net, v_hist[k - 1] if k else solution.v[net.read_bus])
            net.refactor()

        v_hist[k] = v_vec = net.read(x)
        v_out = v_vec.tolist()  # every read bus's voltage, as a Python complex
        if not (net.finite and cmath.isfinite(sum(v_out))):
            raise SimulationError(f"NaN in network solution at t={t:.4f}s")
        for j, at in enumerate(mon_at):
            th = cmath.phase(v_out[at])
            if k:
                f_j = f_mon[j]
                f_j.append(washout_update(f_j[-1], th, th_prev[j], alpha_f, dt))
            th_prev[j] = th

        if k == n_steps:
            break

        if ctl:
            v_poi = v_out[mon_at[poi_j]]
            if v_poi == 0:
                raise SimulationError(f"zero voltage at the battery bus at t={t:.4f}s")
            rotor = None if not machines.active[smr] else (
                complex(net.z[smr]), float(x[net.nm + smr]))
            net.z[-1] = ctl.step(f_mon[poi_j][-1], v_poi, rotor)
            net.pm_h[smr] = ctl.p_smr * net.h2_inv[smr]
            ies_states[k + 1] = ctl.state()

        x = rk4_step(net.deriv, t, x, dt)
        if not math.isfinite(x.sum()):
            raise SimulationError(f"NaN in device states at t={t + dt:.4f}s")
        np.maximum(x_hi, x, out=x_hi)
        np.minimum(x_lo, x, out=x_lo)

    max_drift = float(max((x_hi - x0).max(initial=0.0), (x0 - x_lo).max(initial=0.0)))
    smr_series = bess_series = None
    smr_ramp_max = 0.0
    if ctl:
        max_drift = max(max_drift, float(np.abs(ies_states - ies_states[0]).max()))
        smr_series = ies_states[:, 2] * case.system_mva_base
        bess_series = ies_states[:, 1] * ies.bess.p_rating
        smr_ramp_max = float(np.abs(np.diff(ies_states[:, 4])).max(initial=0.0)) / dt
    return TransientResult(
        t=t_grid,
        v_mag={b: np.abs(v_hist[:, at]) for at, b in zip(mon_at, monitor)},
        freq_dev={b: np.array(f_mon[j]) for j, b in enumerate(monitor)},
        smr_p_mech_mw=smr_series,
        bess_p_mw=bess_series,
        event_log=[{"t": float(a.event.t), "kind": type(a.event.kind).__name__,
                    "detail": repr(a.event.kind)} for a in actions],
        max_state_drift=max_drift,
        smr_ramp_max=smr_ramp_max,
    )
