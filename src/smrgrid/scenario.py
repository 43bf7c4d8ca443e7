"""Two-step stability methodology: per-snapshot power flow, contingency
injection at a fixed apply time, metric extraction, and paired comparison of
the grid-only and IES-backed datacenter configurations.

Pairs share the exact same case, snapshot, and resolved event list; only the
presence of the local SMR+BESS differs.
"""

from __future__ import annotations

import json
import math
from dataclasses import asdict, dataclass, field, replace

import numpy as np

from . import dynamics as dyn
from . import powerflow as pf
from .datacenter import LoadProfile
from .network import NetworkCase


class ScenarioError(ValueError):
    pass


@dataclass(frozen=True)
class IesSpec:
    """The datacenter's SMR and battery; their ratings are `smr.p_max` and
    `bess.p_rating`."""

    smr: dyn.SmrParams = field(default_factory=dyn.SmrParams)
    smr_machine: dyn.MachineParams = field(
        default_factory=lambda: dyn.MachineParams(h=6.0, d=10.0, xd_p=0.3, mva_base=60.0)
    )
    bess: dyn.BessParams = field(default_factory=dyn.BessParams)
    thermal_extraction_factor: float = 1.0  # cooling MW-th routed to the SMR

    def __post_init__(self):
        if not self.thermal_extraction_factor >= 0:
            raise ScenarioError("thermal_extraction_factor must be >= 0")


@dataclass(frozen=True)
class Configuration:
    kind: str | None = None  # "grid_only" | "with_ies"; default: with_ies given an ies
    dc_bus: int = 25
    ies: IesSpec | None = None
    dc_power_factor: float = 0.98

    def __post_init__(self):
        if self.kind is None:
            object.__setattr__(self, "kind", "with_ies" if self.ies else "grid_only")
        if self.kind not in ("grid_only", "with_ies"):
            raise ScenarioError(f"unknown configuration kind '{self.kind}'")
        if self.kind == "with_ies" and self.ies is None:
            raise ScenarioError("with_ies configuration requires an ies section")
        if not 0.0 < self.dc_power_factor <= 1.0:
            raise ScenarioError("dc_power_factor must be in (0, 1]")

    def q_for(self, p_mw: float) -> float:
        phi = math.acos(self.dc_power_factor)
        return p_mw * math.tan(phi)


@dataclass(frozen=True)
class ContingencySpec:
    kind: str  # bus_fault | line_trip | gen_trip | load_step
    target: int | tuple[int, int] | None = None  # explicit id(s); None = random
    max_distance: int = 3  # hops from the POI for random selection
    t_apply: float = 3.0
    duration: float = 0.1  # faults only
    rng_seed: int = 0
    fault_admittance: complex = dyn.BusFault3ph.fault_admittance
    load_step_mw: float = 0.0
    load_step_mvar: float = 0.0

    def __post_init__(self):
        if self.kind not in ("bus_fault", "line_trip", "gen_trip", "load_step"):
            raise ScenarioError(f"unknown contingency kind '{self.kind}'")
        if not self.t_apply > 0:
            raise ScenarioError("t_apply must be > 0")
        if self.kind == "bus_fault" and not self.duration > 0:
            raise ScenarioError("fault duration must be > 0")
        if self.rng_seed < 0:
            raise ScenarioError("rng_seed must be >= 0")
        pair = self.kind == "line_trip"
        if self.target is not None and (
            isinstance(self.target, tuple) != pair or pair and len(self.target) != 2
        ):
            shape = "a [from, to] pair" if pair else "a bus id"
            raise ScenarioError(f"{self.kind} target {self.target!r} is not {shape}")


#: extract_metrics' settling bands around the post-fault steady values.
SETTLE_F_BAND_HZ = 0.02
SETTLE_V_BAND_PU = 0.01
#: A with-IES frequency settling time at most this much later than the
#: grid-only one (two washout time constants) is a tie: the difference sits
#: under the resolution of the filtered frequency measurement.
SETTLE_TIE_S = 0.1


@dataclass(frozen=True)
class StabilityMetrics:
    f_nadir_hz: float
    f_peak_hz: float
    v_min_pu: float
    v_max_pu: float
    t_settle_f: float
    t_settle_v: float
    f_settled: bool
    v_settled: bool
    rocof_max_hz_per_s: float


@dataclass
class ComparisonPair:
    scenario_id: str
    snapshot_bin: int
    events: list[dict]
    grid_only: StabilityMetrics
    with_ies: StabilityMetrics

    def deltas(self) -> dict:
        return {
            "abs_f_nadir": abs(self.with_ies.f_nadir_hz) - abs(self.grid_only.f_nadir_hz),
            "v_min": self.with_ies.v_min_pu - self.grid_only.v_min_pu,
            "t_settle_f": self.with_ies.t_settle_f - self.grid_only.t_settle_f,
        }

    def wins(self) -> dict:
        """Per-metric "IES no worse" outcomes, a settling time up to
        SETTLE_TIE_S later counting as a tie."""
        d = self.deltas()
        return {
            "f_nadir": d["abs_f_nadir"] <= 0.0,
            "v_min": d["v_min"] >= 0.0,
            "t_settle_f": d["t_settle_f"] <= SETTLE_TIE_S,
        }


@dataclass
class ComparisonReport:
    pairs: list[ComparisonPair]
    failed: list[dict] = field(default_factory=list)

    def aggregate(self) -> dict:
        n = len(self.pairs)
        agg = {"pairs": n, "failed": len(self.failed)}
        for key in ("f_nadir", "v_min", "t_settle_f"):
            agg[f"wins_{key}"] = sum(1 for p in self.pairs if p.wins()[key])
        return agg

    def to_json(self) -> str:
        doc = {
            "aggregate": self.aggregate(),
            "pairs": [
                {
                    "scenario_id": p.scenario_id,
                    "snapshot_bin": p.snapshot_bin,
                    "events": p.events,
                    "grid_only": asdict(p.grid_only),
                    "with_ies": asdict(p.with_ies),
                    "deltas": p.deltas(),
                    "wins": p.wins(),
                }
                for p in self.pairs
            ],
            "failed": self.failed,
        }
        return json.dumps(doc, indent=1, sort_keys=True)


# -- snapshot sweep ----------------------------------------------------------


@dataclass
class SweepResult:
    timestamps: np.ndarray
    converged: np.ndarray  # bool per bin
    poi_v_mag: np.ndarray
    slack_p_mw: np.ndarray
    iterations: np.ndarray
    max_mismatch_pu: np.ndarray  # final mismatch norm; nan for a singular Jacobian
    q_limited: np.ndarray  # number of buses held at a Q limit

    @property
    def n_failed(self) -> int:
        return int(np.sum(~self.converged))


def snapshot_case(
    case: NetworkCase, cfg: Configuration, p_dc_mw: float
) -> tuple[NetworkCase, float]:
    """Snapshot case with the datacenter load applied at the POI bus;
    returns the case and the IES dispatch (SMR only; the battery idles
    pre-fault).

    With the IES, the SMR's dispatch is netted against the datacenter draw
    in the POI bus's load, so the power flow sees only what the grid
    supplies. `dynamics.initialize_devices` un-nets it: the transient's
    network sees the full draw, and the SMR's machine injects its dispatch.
    """
    q_dc = cfg.q_for(p_dc_mw)
    smr_dispatch = 0.0
    if cfg.kind == "with_ies":
        smr_dispatch = min(p_dc_mw, cfg.ies.smr.p_max)
    bus = case.bus(cfg.dc_bus)
    snap = case.with_load(
        cfg.dc_bus, bus.p_load + p_dc_mw - smr_dispatch, bus.q_load + q_dc
    )
    return snap, smr_dispatch


def snapshot_sweep(case: NetworkCase, profile: LoadProfile, cfg: Configuration) -> SweepResult:
    """One power-flow solve per profile bin; non-convergence, including a
    singular Jacobian, is recorded, not fatal. Warm-started from the previous
    bin's converged solution. The bins make one solve chain, so they share
    its Newton state: one Jacobian pattern and held inverse per partition."""
    if len(profile) == 0:
        raise ScenarioError("empty profile")
    n = len(profile)
    conv = np.zeros(n, dtype=bool)
    vpoi = np.full(n, np.nan)
    slack = np.full(n, np.nan)
    iters = np.zeros(n, dtype=int)
    mismatch = np.full(n, np.nan)
    q_limited = np.zeros(n, dtype=int)
    poi = case.bus_index(cfg.dc_bus)
    v_warm = None
    factors = {}  # the chain's Newton state (see powerflow.solve)
    for k, p_dc in enumerate(profile.p_total.tolist()):
        snap, _ = snapshot_case(case, cfg, p_dc)
        try:
            sol = pf.solve(snap, v0=v_warm, factors=factors)
        except pf.SingularJacobianError:
            v_warm = None
            continue
        conv[k] = sol.converged
        iters[k] = sol.iterations
        mismatch[k] = sol.max_mismatch
        q_limited[k] = len(sol.q_limited_buses)
        if sol.converged:
            vpoi[k] = abs(sol.v[poi])
            slack[k] = sol.slack_p * case.system_mva_base
            v_warm = sol.v
        else:
            v_warm = None
    return SweepResult(
        timestamps=profile.timestamps.copy(),
        converged=conv, poi_v_mag=vpoi, slack_p_mw=slack, iterations=iters,
        max_mismatch_pu=mismatch, q_limited=q_limited,
    )


# -- contingency construction ------------------------------------------------


def electrical_neighborhood(case: NetworkCase, bus: int, k: int) -> set[int]:
    """Bus ids within k in-service branch hops of the given bus."""
    return {b for b, d in case.hops(bus).items() if d <= k}


def _random_target(case: NetworkCase, cfg: Configuration, spec: ContingencySpec):
    """One draw, with the spec's own seed, from the kind's candidates within
    `max_distance` hops of the POI: any bus but the POI for a fault; any
    in-service branch, but never the POI's last, for a line trip; and a bus
    with an in-service generator, neither the POI nor the slack, for a
    generator trip."""
    poi = cfg.dc_bus
    near = electrical_neighborhood(case, poi, spec.max_distance)
    if spec.kind == "bus_fault":
        cands = sorted(near - {poi})
    elif spec.kind == "gen_trip":
        slack_id = case.buses[case.slack_index].id
        cands = sorted({g.bus for g in case.generators if g.status and g.bus in near}
                       - {poi, slack_id})
    else:  # line_trip
        lines = [(br.from_bus, br.to_bus) for br in case.branches if br.status]
        cands = [line for line in lines if near.issuperset(line)]
        if sum(poi in line for line in lines) <= 1:  # the POI's last branch
            cands = [line for line in cands if poi not in line]
    if not cands:
        raise ScenarioError(f"no {spec.kind.replace('_', '-')} candidates near the POI")
    return cands[int(np.random.default_rng(spec.rng_seed).integers(len(cands)))]


def resolve_events(
    case: NetworkCase, cfg: Configuration, spec: ContingencySpec
) -> list[dyn.Event]:
    """Concrete event list for a contingency spec. An explicit target is
    taken as given: the transient's event compile judges whether it applies.
    Without one, a load step is at the POI and any other kind draws its
    target near the POI (`_random_target`), so paired runs resolve
    identically."""
    target = spec.target
    if target is None:
        target = cfg.dc_bus if spec.kind == "load_step" else _random_target(case, cfg, spec)
    t = spec.t_apply
    if spec.kind == "bus_fault":
        bus = int(target)
        return [
            dyn.Event(t, dyn.BusFault3ph(bus, spec.fault_admittance)),
            dyn.Event(t + spec.duration, dyn.ClearFault(bus)),
        ]
    if spec.kind == "line_trip":
        f, to = map(int, target)
        return [dyn.Event(t, dyn.LineTrip(f, to))]
    if spec.kind == "gen_trip":
        return [dyn.Event(t, dyn.GenTrip(int(target)))]
    return [dyn.Event(t, dyn.LoadStep(int(target), spec.load_step_mw, spec.load_step_mvar))]


def run_contingency(
    case: NetworkCase,
    profile: LoadProfile,
    snapshot_bin: int,
    cfg: Configuration,
    spec: ContingencySpec,
    simcfg: dyn.SimConfig,
    events: list[dyn.Event] | None = None,
) -> dyn.TransientResult:
    """Power flow at one profile bin, then the transient with the resolved
    contingency events, monitoring the POI. The snapshot changes only bus
    loads, so both run on the Y-bus of `case` (`NetworkCase.ybus`), built
    once however many snapshots of it run."""
    p_dc = float(profile.p_total[snapshot_bin])
    q_th = float(profile.q_cool[snapshot_bin])
    snap, smr_dispatch = snapshot_case(case, cfg, p_dc)
    if events is None:
        events = resolve_events(snap, cfg, spec)
    sol = pf.solve(snap)
    if not sol.converged:
        raise ScenarioError(f"snapshot bin {snapshot_bin} did not converge")
    ies = None
    if cfg.kind == "with_ies":
        ies = dyn.IesUnit(
            bus=cfg.dc_bus,
            machine=cfg.ies.smr_machine,
            smr=cfg.ies.smr,
            bess=cfg.ies.bess,
            p_dispatch_mw=smr_dispatch,
            thermal_mw=q_th * cfg.ies.thermal_extraction_factor,
        )
    if cfg.dc_bus not in simcfg.monitor_buses:
        simcfg = replace(simcfg, monitor_buses=tuple(simcfg.monitor_buses) + (cfg.dc_bus,))
    return dyn.run_transient(snap, sol, ies, events, simcfg)


# -- metrics -----------------------------------------------------------------


def extract_metrics(
    result: dyn.TransientResult, t_apply: float, poi_bus: int
) -> StabilityMetrics:
    """Nadir/peak, settling times against the post-fault steady value (into
    bands of SETTLE_F_BAND_HZ and SETTLE_V_BAND_PU), and maximum RoCoF at
    the monitored bus poi_bus, all evaluated from the apply time onward."""
    t = result.t
    if t.size == 0:
        raise ScenarioError("empty result series")
    if t[-1] <= t_apply:
        raise ScenarioError("result horizon ends before t_apply")
    f = result.freq_dev[poi_bus]
    v = result.v_mag[poi_bus]
    w = t >= t_apply
    fw, vw, tw = f[w], v[w], t[w]
    dt = t[1] - t[0]
    tail = max(int(1.0 / dt), 1)  # last second defines the steady value
    f_steady = float(np.mean(fw[-tail:]))
    v_steady = float(np.mean(vw[-tail:]))

    def settle(series, steady, band):
        out = np.abs(series - steady) > band
        if not np.any(out):
            return float(t_apply), True
        last = int(np.max(np.nonzero(out)))
        if last >= len(series) - 1:
            return float(tw[-1]), False
        return float(tw[last + 1]), True

    t_f, f_ok = settle(fw, f_steady, SETTLE_F_BAND_HZ)
    t_v, v_ok = settle(vw, v_steady, SETTLE_V_BAND_PU)
    rocof = float(np.max(np.abs(np.gradient(fw, dt)))) if fw.size > 2 else 0.0
    return StabilityMetrics(
        f_nadir_hz=float(min(fw.min(), 0.0)),
        f_peak_hz=float(max(fw.max(), 0.0)),
        v_min_pu=float(vw.min()),
        v_max_pu=float(vw.max()),
        t_settle_f=t_f,
        t_settle_v=t_v,
        f_settled=f_ok,
        v_settled=v_ok,
        rocof_max_hz_per_s=rocof,
    )


# -- paired comparison -------------------------------------------------------


def select_snapshot_bins(profile: LoadProfile, selector) -> list[int]:
    """{min, median, max} labels or explicit indices into the profile."""
    if len(profile) == 0:
        raise ScenarioError("empty profile")
    if not selector:
        raise ScenarioError("empty snapshot_selector")
    total = profile.p_total
    out = []
    for sel in selector:
        if sel == "min":
            out.append(int(np.argmin(total)))
        elif sel == "max":
            out.append(int(np.argmax(total)))
        elif sel == "median":
            order = np.argsort(total, kind="stable")
            out.append(int(order[len(order) // 2]))
        elif str(sel).isascii() and str(sel).isdecimal() and int(sel) < len(total):
            out.append(int(sel))
        else:
            raise ScenarioError(
                f"snapshot_selector {sel!r}: not min, median, max or a bin < {len(total)}"
            )
    return out


def study_runs(profile: LoadProfile, specs, snapshot_selector) -> dict:
    """The study's runs as {scenario id: (spec, bin)}, spec by spec and, for
    each, bin by bin of the selected snapshots. The id is
    `{kind}_s{rng_seed}_bin{bin}`; two runs with one id (one kind and
    rng_seed, or one bin selected twice) are refused."""
    if not specs:
        raise ScenarioError("no contingency specs")
    bins = select_snapshot_bins(profile, snapshot_selector)
    runs = {}
    for spec in specs:
        for b in bins:
            scenario_id = f"{spec.kind}_s{spec.rng_seed}_bin{b}"
            if scenario_id in runs:
                raise ScenarioError(f"two runs would have the scenario id {scenario_id}")
            runs[scenario_id] = (spec, b)
    return runs


def compare(
    case: NetworkCase,
    profile: LoadProfile,
    specs: list[ContingencySpec],
    simcfg: dyn.SimConfig,
    ies_config: Configuration,
    snapshot_selector=("median",),
    jobs: int = 1,
) -> ComparisonReport:
    """Run every (contingency, snapshot) pair under both configurations with
    identical events; a failed run, including a singular snapshot power
    flow, voids only its pair, which is listed in `failed` with its
    exception type. jobs is the number of pairs run at once, at least 1.
    Before any pair runs, it refuses what it cannot pair: a gen_trip at the
    POI, which would trip the SMR in the with-IES run alone, and two pairs
    with one scenario id (`study_runs`)."""
    if jobs < 1:
        raise ScenarioError(f"jobs must be >= 1, got {jobs}")
    if ies_config.kind != "with_ies":
        raise ScenarioError("compare requires the with_ies configuration")
    grid_config = Configuration(
        kind="grid_only", dc_bus=ies_config.dc_bus,
        dc_power_factor=ies_config.dc_power_factor,
    )
    for spec in specs:
        if spec.kind == "gen_trip" and spec.target == ies_config.dc_bus:
            raise ScenarioError(f"gen_trip target {spec.target} is the POI, where only "
                                "the with-IES run has the SMR to trip")
    tasks = study_runs(profile, specs, snapshot_selector)

    def run_pair(spec, b, scenario_id):
        events = resolve_events(case, grid_config, spec)
        grid, ies = (run_contingency(case, profile, b, cfg, spec, simcfg, events=events)
                     for cfg in (grid_config, ies_config))
        if grid.event_log != ies.event_log:
            raise ScenarioError("paired runs consumed different event lists")
        grid_m, ies_m = (extract_metrics(r, spec.t_apply, ies_config.dc_bus) for r in (grid, ies))
        return ComparisonPair(scenario_id, b, grid.event_log, grid_m, ies_m)

    def attempt(scenario_id) -> ComparisonPair | dict:
        spec, b = tasks[scenario_id]
        try:
            return run_pair(spec, b, scenario_id)
        except (ScenarioError, dyn.SimulationError, pf.SingularJacobianError) as exc:
            return {
                "scenario": scenario_id,
                "error": str(exc),
                "error_type": type(exc).__name__,
            }

    if jobs > 1:
        from concurrent.futures import ThreadPoolExecutor

        with ThreadPoolExecutor(max_workers=jobs) as ex:
            outcomes = list(ex.map(attempt, tasks))
    else:
        outcomes = [attempt(i) for i in tasks]
    pairs = [oc for oc in outcomes if isinstance(oc, ComparisonPair)]
    failed = [oc for oc in outcomes if not isinstance(oc, ComparisonPair)]
    return ComparisonReport(pairs=pairs, failed=failed)
