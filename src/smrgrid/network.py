"""Transmission network data model, JSON case ingestion, and Y-bus assembly.

All electrical quantities are per-unit on the system MVA base internally.
MW/MVAr and degrees appear only at the file boundary.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, field, replace
from enum import Enum
from pathlib import Path

import numpy as np
import scipy.sparse as sp


class CaseError(Exception):
    """Raised for schema violations or invariant failures in a network case."""


class BusKind(str, Enum):
    SLACK = "slack"
    PV = "pv"
    PQ = "pq"


@dataclass(frozen=True)
class Bus:
    id: int
    kind: BusKind
    v_mag: float = 1.0
    v_ang: float = 0.0  # radians
    base_kv: float = 138.0
    p_load: float = 0.0  # MW
    q_load: float = 0.0  # MVAr

    def __post_init__(self):
        if self.id <= 0:
            raise CaseError(f"bus id must be positive, got {self.id}")
        if self.v_mag <= 0:
            raise CaseError(f"bus {self.id}: v_mag must be > 0")
        if self.base_kv <= 0:
            raise CaseError(f"bus {self.id}: base_kv must be > 0")


@dataclass(frozen=True)
class Branch:
    from_bus: int
    to_bus: int
    r: float
    x: float
    b_shunt: float = 0.0  # total line charging, pu
    tap: float = 1.0
    status: bool = True

    def __post_init__(self):
        if self.from_bus == self.to_bus:
            raise CaseError(f"branch {self.from_bus}-{self.to_bus}: self-loop")
        if self.status and self.x == 0.0 and self.r == 0.0:
            raise CaseError(
                f"branch {self.from_bus}-{self.to_bus}: zero impedance in service"
            )
        if self.tap <= 0:
            raise CaseError(f"branch {self.from_bus}-{self.to_bus}: tap must be > 0")


@dataclass(frozen=True)
class Generator:
    bus: int
    p_set: float  # MW
    q_min: float = -9999.0  # MVAr
    q_max: float = 9999.0
    mva_base: float = 100.0
    v_set: float = 1.0
    dynamic_model: str | None = None
    status: bool = True

    def __post_init__(self):
        if self.q_min > self.q_max:
            raise CaseError(f"generator at bus {self.bus}: q_min > q_max")
        if self.mva_base <= 0:
            raise CaseError(f"generator at bus {self.bus}: mva_base must be > 0")


@dataclass(frozen=True)
class NetworkCase:
    system_mva_base: float
    buses: tuple[Bus, ...]
    branches: tuple[Branch, ...]
    generators: tuple[Generator, ...] = ()
    _index: dict[int, int] = field(default=None, repr=False, compare=False)

    def __post_init__(self):
        if self.system_mva_base <= 0:
            raise CaseError("system_mva_base must be > 0")
        ids = [b.id for b in self.buses]
        if len(set(ids)) != len(ids):
            raise CaseError("duplicate bus ids")
        object.__setattr__(self, "_index", {bid: i for i, bid in enumerate(ids)})
        slacks = [b.id for b in self.buses if b.kind is BusKind.SLACK]
        if len(slacks) == 0:
            raise CaseError("no slack bus")
        if len(slacks) > 1:
            raise CaseError(f"multiple slack buses: {slacks}")
        known = set(ids)
        for br in self.branches:
            if br.from_bus not in known or br.to_bus not in known:
                raise CaseError(
                    f"branch {br.from_bus}-{br.to_bus}: dangling bus reference"
                )
        for g in self.generators:
            if g.bus not in known:
                raise CaseError(f"generator references unknown bus {g.bus}")
        self._check_connected()

    def _check_connected(self):
        n = len(self.buses)
        if n <= 1:
            return
        adj: dict[int, list[int]] = {b.id: [] for b in self.buses}
        for br in self.branches:
            if br.status:
                adj[br.from_bus].append(br.to_bus)
                adj[br.to_bus].append(br.from_bus)
        seen = {self.buses[0].id}
        stack = [self.buses[0].id]
        while stack:
            for nb in adj[stack.pop()]:
                if nb not in seen:
                    seen.add(nb)
                    stack.append(nb)
        if len(seen) != n:
            missing = sorted(set(b.id for b in self.buses) - seen)[:5]
            raise CaseError(f"network is islanded; unreachable buses include {missing}")

    # -- lookups -------------------------------------------------------------

    @property
    def n_bus(self) -> int:
        return len(self.buses)

    def bus_index(self, bus_id: int) -> int:
        try:
            return self._index[bus_id]
        except KeyError:
            raise CaseError(f"unknown bus id {bus_id}") from None

    def bus(self, bus_id: int) -> Bus:
        return self.buses[self.bus_index(bus_id)]

    @property
    def slack_index(self) -> int:
        return next(i for i, b in enumerate(self.buses) if b.kind is BusKind.SLACK)

    def with_bus(self, bus: Bus) -> "NetworkCase":
        """Copy of the case with one bus replaced (same id)."""
        i = self.bus_index(bus.id)
        buses = list(self.buses)
        buses[i] = bus
        return replace(self, buses=tuple(buses))

    def load_pu(self) -> np.ndarray:
        """Complex per-unit load vector in bus order."""
        s = np.array(
            [complex(b.p_load, b.q_load) for b in self.buses], dtype=complex
        )
        return s / self.system_mva_base


@dataclass(frozen=True)
class AdmittanceMatrix:
    dimension: int
    matrix: sp.csc_matrix  # complex, pu

    def dense(self) -> np.ndarray:
        return self.matrix.toarray()


@dataclass(frozen=True)
class BranchAdmittances:
    """Pi-model admittances of every branch, in case order.

    Branch k injects ``I_f = yff*V_f + yft*V_t`` at its from bus ``f[k]`` and
    ``I_t = ytf*V_f + ytt*V_t`` at its to bus ``t[k]``. The off-nominal tap
    sits on the from side. Out-of-service branches have zero admittances.
    """

    f: np.ndarray  # from-bus index
    t: np.ndarray  # to-bus index
    yff: np.ndarray
    yft: np.ndarray
    ytf: np.ndarray
    ytt: np.ndarray
    in_service: np.ndarray  # bool

    def stamp(self, n: int, k: np.ndarray) -> sp.csc_matrix:
        """The n x n nodal admittance contribution of the branches k."""
        f, t = self.f[k], self.t[k]
        # Entries interleaved per branch so duplicates sum in branch order.
        rows = np.column_stack([f, f, t, t]).ravel()
        cols = np.column_stack([f, t, f, t]).ravel()
        vals = np.column_stack(
            [self.yff[k], self.yft[k], self.ytf[k], self.ytt[k]]
        ).ravel()
        return sp.coo_matrix((vals, (rows, cols)), shape=(n, n)).tocsc()


def branch_admittances(case: NetworkCase) -> BranchAdmittances:
    """The standard pi branch model of every branch, vectorised."""
    brs = case.branches
    on = np.array([br.status for br in brs], dtype=bool)
    z = np.array([complex(br.r, br.x) for br in brs], dtype=complex)
    bc = 0.5j * np.array([br.b_shunt for br in brs], dtype=float)
    tap = np.array([br.tap for br in brs], dtype=float)
    # Out-of-service branches may have zero impedance; leave them at zero.
    ys = np.zeros(len(brs), dtype=complex)
    ys[on] = 1.0 / z[on]
    bc[~on] = 0.0
    yft = -ys / tap
    return BranchAdmittances(
        f=np.array([case.bus_index(br.from_bus) for br in brs], dtype=int),
        t=np.array([case.bus_index(br.to_bus) for br in brs], dtype=int),
        yff=(ys + bc) / (tap * tap),
        yft=yft,
        ytf=yft,
        ytt=ys + bc,
        in_service=on,
    )


def build_ybus(case: NetworkCase) -> AdmittanceMatrix:
    """Assemble the nodal admittance matrix with the standard pi branch model."""
    br = branch_admittances(case)
    y = br.stamp(case.n_bus, np.flatnonzero(br.in_service))
    return AdmittanceMatrix(dimension=case.n_bus, matrix=y)


# -- JSON case file boundary -------------------------------------------------

_BUS_KINDS = {"slack": BusKind.SLACK, "pv": BusKind.PV, "pq": BusKind.PQ}


def _require(d: dict, key: str, ctx: str):
    if key not in d:
        raise CaseError(f"{ctx}: missing field '{key}'")
    return d[key]


def case_from_dict(doc: dict) -> NetworkCase:
    if not isinstance(doc, dict):
        raise CaseError("case document must be a JSON object")
    base = _require(doc, "system_mva_base", "case")
    buses = []
    for raw in _require(doc, "buses", "case"):
        kind = str(_require(raw, "kind", "bus")).lower()
        if kind not in _BUS_KINDS:
            raise CaseError(f"bus {raw.get('id')}: unknown kind '{kind}'")
        buses.append(
            Bus(
                id=int(_require(raw, "id", "bus")),
                kind=_BUS_KINDS[kind],
                v_mag=float(raw.get("v_mag", 1.0)),
                v_ang=math.radians(float(raw.get("v_ang_deg", 0.0))),
                base_kv=float(raw.get("base_kv", 138.0)),
                p_load=float(raw.get("p_load", 0.0)),
                q_load=float(raw.get("q_load", 0.0)),
            )
        )
    branches = []
    for raw in _require(doc, "branches", "case"):
        branches.append(
            Branch(
                from_bus=int(_require(raw, "from_bus", "branch")),
                to_bus=int(_require(raw, "to_bus", "branch")),
                r=float(_require(raw, "r", "branch")),
                x=float(_require(raw, "x", "branch")),
                b_shunt=float(raw.get("b_shunt", 0.0)),
                tap=float(raw.get("tap", 1.0)),
                status=bool(raw.get("status", True)),
            )
        )
    generators = []
    for raw in doc.get("generators", []):
        generators.append(
            Generator(
                bus=int(_require(raw, "bus", "generator")),
                p_set=float(_require(raw, "p_set", "generator")),
                q_min=float(raw.get("q_min", -9999.0)),
                q_max=float(raw.get("q_max", 9999.0)),
                mva_base=float(raw.get("mva_base", 100.0)),
                v_set=float(raw.get("v_set", 1.0)),
                dynamic_model=raw.get("dynamic_model"),
                status=bool(raw.get("status", True)),
            )
        )
    return NetworkCase(
        system_mva_base=float(base),
        buses=tuple(buses),
        branches=tuple(branches),
        generators=tuple(generators),
    )


def case_to_dict(case: NetworkCase) -> dict:
    return {
        "system_mva_base": case.system_mva_base,
        "buses": [
            {
                "id": b.id,
                "kind": b.kind.value,
                "v_mag": b.v_mag,
                "v_ang_deg": math.degrees(b.v_ang),
                "base_kv": b.base_kv,
                "p_load": b.p_load,
                "q_load": b.q_load,
            }
            for b in case.buses
        ],
        "branches": [
            {
                "from_bus": br.from_bus,
                "to_bus": br.to_bus,
                "r": br.r,
                "x": br.x,
                "b_shunt": br.b_shunt,
                "tap": br.tap,
                "status": br.status,
            }
            for br in case.branches
        ],
        "generators": [
            {
                "bus": g.bus,
                "p_set": g.p_set,
                "q_min": g.q_min,
                "q_max": g.q_max,
                "mva_base": g.mva_base,
                "v_set": g.v_set,
                "dynamic_model": g.dynamic_model,
                "status": g.status,
            }
            for g in case.generators
        ],
    }


def parse_case(path: str | Path) -> NetworkCase:
    path = Path(path)
    if not path.exists():
        raise CaseError(f"case file not found: {path}")
    try:
        doc = json.loads(path.read_text())
    except json.JSONDecodeError as exc:
        raise CaseError(f"{path}: invalid JSON ({exc})") from exc
    return case_from_dict(doc)


def save_case(case: NetworkCase, path: str | Path) -> None:
    Path(path).write_text(json.dumps(case_to_dict(case), indent=1))


def load_ieee118() -> NetworkCase:
    """The bundled IEEE 118-bus case (see data/ieee118.json provenance note)."""
    here = Path(__file__).parent / "data" / "ieee118.json"
    return parse_case(here)
