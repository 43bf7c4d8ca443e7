"""Transmission network data model, JSON case ingestion, and Y-bus assembly.

Each case builds its Y-bus, a dense complex array, when it is made
(`NetworkCase.ybus`); on the 118-bus case that is 223 KB. Like the power
flow's dense Jacobian inverses, that suits cases of hundreds of buses, not
many thousands.

The case records keep the file's units: loads and generator outputs in
MW/MVAr, bus angles in degrees. The solvers convert them where they use
them and work per-unit on the system MVA base.
"""

from __future__ import annotations

import functools
import json
import math
from dataclasses import dataclass, field, fields, is_dataclass
from enum import Enum
from pathlib import Path
from types import UnionType
from typing import get_args, get_origin, get_type_hints

import numpy as np


class CaseError(ValueError):
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
    v_ang_deg: float = 0.0
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


@dataclass(frozen=True, eq=False)
class CaseArrays:
    """Bus and in-service generator data of a case as read-only arrays, for
    vectorised solvers: everything a power flow needs that stays fixed for
    the case, so each solve derives none of it again.

    Loads are MW/MVAr as on the buses; generator quantities are per-unit on
    the system base. The checked buses are the PV buses with an in-service
    generator, whose Q limits the power flow enforces; their limits are
    summed in generator order. A bus's setpoint is its last generator's.
    """

    is_pv: np.ndarray  # bool per bus
    is_pq: np.ndarray  # bool per bus
    pv_idx: np.ndarray  # indices of the PV buses
    pq_idx: np.ndarray  # indices of the PQ buses
    p_load: np.ndarray  # MW per bus
    q_load: np.ndarray  # MVAr per bus
    gen_p: np.ndarray  # scheduled P of the non-slack generators, pu per bus
    has_gen: np.ndarray  # bool per bus
    v_set: np.ndarray  # pu per bus, nan where no generator
    checked: np.ndarray  # indices of the checked buses, ascending
    q_min: np.ndarray  # pu per checked bus
    q_max: np.ndarray

    def with_load(self, i: int, p_load: float, q_load: float) -> "CaseArrays":
        """The arrays with the load of bus index i replaced; every other
        array is shared."""
        return _copy_with(
            self,
            p_load=_frozen_with(self.p_load, i, p_load),
            q_load=_frozen_with(self.q_load, i, q_load),
        )


def _copy_with(record, **changes):
    """Shallow copy of `record` with some attributes replaced. Unlike
    dataclasses.replace or a constructor it runs no checks, so callers
    change only what keeps the record valid."""
    new = object.__new__(type(record))
    new.__dict__.update(record.__dict__, **changes)
    return new


def _frozen(a, dtype=None) -> np.ndarray:
    a = np.asarray(a, dtype=dtype)
    a.flags.writeable = False
    return a


def _frozen_with(a: np.ndarray, i: int, value) -> np.ndarray:
    out = a.copy()
    out[i] = value
    return _frozen(out)


def _case_arrays(case: "NetworkCase") -> CaseArrays:
    buses, n, base = case.buses, case.n_bus, case.system_mva_base
    gens = [g for g in case.generators if g.status]
    gen_bus = np.array([case.bus_index(g.bus) for g in gens], dtype=np.intp)
    v_set = np.full(n, np.nan)
    for i, g in zip(gen_bus, gens):
        v_set[i] = g.v_set
    is_pv = np.array([b.kind is BusKind.PV for b in buses], dtype=bool)
    is_pq = np.array([b.kind is BusKind.PQ for b in buses], dtype=bool)
    has_gen = np.bincount(gen_bus, minlength=n) > 0
    checked = np.flatnonzero(is_pv & has_gen)
    p_set = np.array([g.p_set / base for g in gens], dtype=float)
    scheduled = gen_bus != case.slack_index  # slack generation is solved for
    # bincount adds each bus's generators in case order, from 0.0.
    return CaseArrays(
        is_pv=_frozen(is_pv),
        is_pq=_frozen(is_pq),
        pv_idx=_frozen(np.flatnonzero(is_pv)),
        pq_idx=_frozen(np.flatnonzero(is_pq)),
        p_load=_frozen([b.p_load for b in buses], float),
        q_load=_frozen([b.q_load for b in buses], float),
        gen_p=_frozen(np.bincount(gen_bus[scheduled], p_set[scheduled], n)),
        has_gen=_frozen(has_gen),
        v_set=_frozen(v_set),
        checked=_frozen(checked),
        q_min=_frozen(np.bincount(gen_bus, [g.q_min / base for g in gens], n)[checked]),
        q_max=_frozen(np.bincount(gen_bus, [g.q_max / base for g in gens], n)[checked]),
    )


def _slack_of(buses) -> int:
    """Index of the one slack bus; CaseError unless there is exactly one."""
    slacks = [i for i, b in enumerate(buses) if b.kind is BusKind.SLACK]
    if len(slacks) == 0:
        raise CaseError("no slack bus")
    if len(slacks) > 1:
        raise CaseError(f"multiple slack buses: {[buses[i].id for i in slacks]}")
    return slacks[0]


@dataclass(frozen=True)
class NetworkCase:
    system_mva_base: float
    buses: tuple[Bus, ...]
    branches: tuple[Branch, ...]
    generators: tuple[Generator, ...] = ()
    _index: dict[int, int] = field(init=False, repr=False, compare=False)
    _slack: int = field(init=False, repr=False, compare=False)
    arrays: CaseArrays = field(init=False, repr=False, compare=False)
    # Built with the case and shared by every `with_bus` copy, as it
    # depends on the branches alone.
    ybus: AdmittanceMatrix = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        if self.system_mva_base <= 0:
            raise CaseError("system_mva_base must be > 0")
        ids = [b.id for b in self.buses]
        if len(set(ids)) != len(ids):
            raise CaseError("duplicate bus ids")
        object.__setattr__(self, "_index", {bid: i for i, bid in enumerate(ids)})
        object.__setattr__(self, "_slack", _slack_of(self.buses))
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
        object.__setattr__(self, "arrays", _case_arrays(self))
        object.__setattr__(self, "ybus", build_ybus(self))

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
        return self._slack

    def with_bus(self, bus: Bus) -> "NetworkCase":
        """Copy of the case with one bus replaced (same id).

        Bus ids, branches and generators are unchanged, so the copy skips
        the id, reference and connectivity checks and shares the bus index
        and the Y-bus.
        A bus of the same kind changes only the load arrays, and the copy
        shares every other array; a change of kind checks that one slack
        bus remains and derives the arrays again.
        """
        i = self.bus_index(bus.id)
        buses = self.buses[:i] + (bus,) + self.buses[i + 1:]
        if bus.kind is self.buses[i].kind:
            arrays = self.arrays.with_load(i, bus.p_load, bus.q_load)
            return _copy_with(self, buses=buses, arrays=arrays)
        new = _copy_with(self, buses=buses, _slack=_slack_of(buses))
        object.__setattr__(new, "arrays", _case_arrays(new))
        return new

    def load_pu(self) -> np.ndarray:
        """Complex per-unit load vector in bus order."""
        return (self.arrays.p_load + 1j * self.arrays.q_load) / self.system_mva_base


@dataclass(frozen=True)
class AdmittanceMatrix:
    matrix: np.ndarray  # n x n complex, pu, dense and read-only
    branches: BranchAdmittances  # the pi-models `matrix` was stamped from
    # Newton Jacobian patterns of this matrix, filled by the power flow and
    # keyed by the PV/PQ partition. They stay valid because `matrix` cannot
    # change in place: a new topology is always a new AdmittanceMatrix.
    jacobian_patterns: dict = field(default_factory=dict, compare=False, repr=False)


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

    def stamp(self, n: int, k: np.ndarray) -> np.ndarray:
        """The dense n x n nodal admittance contribution of the branches k."""
        f, t = self.f[k], self.t[k]
        # Entries interleaved per branch so duplicates sum in branch order.
        rows = np.column_stack([f, f, t, t]).ravel()
        cols = np.column_stack([f, t, f, t]).ravel()
        vals = np.column_stack(
            [self.yff[k], self.yft[k], self.ytf[k], self.ytt[k]]
        ).ravel()
        y = np.zeros((n, n), dtype=complex)
        np.add.at(y, (rows, cols), vals)
        return y


def branch_admittances(case: NetworkCase) -> BranchAdmittances:
    """The standard pi branch model of every branch, vectorised; CaseError
    names the first branch whose admittances are not all finite."""
    brs = case.branches
    on = np.array([br.status for br in brs], dtype=bool)
    z = np.array([complex(br.r, br.x) for br in brs], dtype=complex)
    bc = 0.5j * np.array([br.b_shunt for br in brs], dtype=float)
    tap = np.array([br.tap for br in brs], dtype=float)
    # Out-of-service branches may have zero impedance; leave them at zero.
    ys = np.zeros(len(brs), dtype=complex)
    bc[~on] = 0.0
    # A subnormal impedance or tap overflows; such a branch is named below.
    with np.errstate(all="ignore"):
        ys[on] = 1.0 / z[on]
        yft = -ys / tap
        ytt = ys + bc
        yff = ytt / (tap * tap)
    bad = np.flatnonzero(~(np.isfinite(yff) & np.isfinite(yft) & np.isfinite(ytt)))
    if len(bad):
        br = brs[bad[0]]
        raise CaseError(f"branch {br.from_bus}-{br.to_bus}: pi-model admittance is not finite")
    return BranchAdmittances(
        f=np.array([case.bus_index(br.from_bus) for br in brs], dtype=int),
        t=np.array([case.bus_index(br.to_bus) for br in brs], dtype=int),
        yff=yff,
        yft=yft,
        ytf=yft,
        ytt=ytt,
        in_service=on,
    )


def build_ybus(case: NetworkCase) -> AdmittanceMatrix:
    """Assemble the nodal admittance matrix with the standard pi branch model."""
    br = branch_admittances(case)
    y = br.stamp(case.n_bus, np.flatnonzero(br.in_service))
    return AdmittanceMatrix(matrix=_frozen(y), branches=br)


# -- JSON records ------------------------------------------------------------


@functools.cache
def _fields(cls) -> dict:
    """Init field name -> type hint of the record class `cls`."""
    hints = get_type_hints(cls)
    return {f.name: hints[f.name] for f in fields(cls) if f.init}


@functools.cache
def _arms(hint) -> tuple:
    """(arm, shape, JSON types) for each alternative of the union hint
    `hint`, or for the hint alone; the shape is "record", "tuple", "enum"
    or "plain"."""
    arms = []
    for arm in get_args(hint) if get_origin(hint) is UnionType else (hint,):
        if is_dataclass(arm):
            arms.append((arm, "record", dict))
        elif get_origin(arm) is tuple:
            arms.append((arm, "tuple", list))
        elif isinstance(arm, type) and issubclass(arm, Enum):
            arms.append((arm, "enum", str))
        else:
            types = (int, float) if arm in (float, complex) else arm
            arms.append((arm, "plain", types))
    return tuple(arms)


#: JSON kind of each plain hint, (singular, plural), for error messages.
_PLAIN_KINDS = {
    bool: ("a boolean", "booleans"), int: ("an integer", "integers"),
    float: ("a number", "numbers"), complex: ("a number", "numbers"),
    str: ("a string", "strings"), dict: ("an object", "objects"),
    type(None): ("null", "nulls"),
}


@functools.cache
def _json_kind(hint, plural: bool = False) -> str:
    """The JSON kind `read_value` accepts for `hint`, in words: "an object
    (Bus)", "an array of Bus objects", "an integer or null"; with plural,
    "Bus objects" and the like."""
    kinds = []
    for arm, shape, _ in _arms(hint):
        if shape == "record":
            kinds.append(f"{arm.__name__} objects" if plural else f"an object ({arm.__name__})")
        elif shape == "enum":
            values = ", ".join(json.dumps(m.value) for m in arm)
            kinds.append(f"strings from {values}" if plural else f"one of {values}")
        elif shape == "tuple":
            items = get_args(arm)
            if items[-1] is Ellipsis:
                what = _json_kind(items[0], True)
            else:  # every fixed-length tuple of the records is homogeneous
                what = f"{len(items)} {_json_kind(items[0], True)}"
            kinds.append(f"{'arrays' if plural else 'an array'} of {what}")
        else:
            kinds.append(_PLAIN_KINDS[arm][plural])
    return " or ".join(kinds)


def _fits(arm, shape: str, types, value) -> bool:
    """Whether `value` has the JSON kind of `arm`: an object for a record,
    an array for a tuple, a member's exact value for an enum, else an
    instance, where an int is also a float or a complex, a bool is no
    number and a number must be finite."""
    if not isinstance(value, types) or isinstance(value, bool) != (arm is bool):
        return False
    if shape == "enum":
        return value in arm._value2member_map_
    return not isinstance(value, float) or math.isfinite(value)


def _fail(error: type[Exception], ctx: str, message: str) -> Exception:
    return error(f"{ctx}: {message}" if ctx else message)


def read_value(hint, value, ctx: str, error: type[Exception]):
    """`value` checked against the type hint `hint` at key path `ctx`; a
    mismatch raises `error` naming the path. An object becomes a record
    whose keys must all be its init fields, an array a tuple and a string
    an enum member; any other value is returned as given, so an int stays
    an int in a float field. A record constructor's TypeError, ValueError
    or OverflowError is raised as `error` too."""
    for arm, shape, types in _arms(hint):
        if _fits(arm, shape, types, value):
            break
    else:
        raise _fail(error, ctx, f"expected {_json_kind(hint)}, got {json.dumps(value)[:40]}")
    if shape == "plain":
        return value
    if shape == "enum":
        return arm(value)
    if shape == "record":
        known = _fields(arm)
        unknown = value.keys() - known.keys()
        if unknown:
            raise _fail(error, ctx, f"unknown keys {sorted(unknown)}")
        given = {
            k: read_value(known[k], v, f"{ctx}.{k}" if ctx else k, error)
            for k, v in value.items()
        }
        try:
            return arm(**given)
        except (TypeError, ValueError, OverflowError) as exc:
            raise _fail(error, ctx, str(exc)) from exc
    items = get_args(arm)
    if items[-1] is Ellipsis:
        items = items[:1] * len(value)
    elif len(items) != len(value):
        raise _fail(error, ctx, f"expected {len(items)} items, got {len(value)}")
    return tuple(
        read_value(t, v, f"{ctx}[{i}]", error)
        for i, (t, v) in enumerate(zip(items, value))
    )


def _plain(value):
    """The JSON form of a record, tuple or enum member; `read_value` inverts it."""
    if is_dataclass(value):
        return {k: _plain(getattr(value, k)) for k in _fields(type(value))}
    if isinstance(value, tuple):
        return [_plain(v) for v in value]
    return value.value if isinstance(value, Enum) else value


def case_from_dict(doc) -> NetworkCase:
    """The case in the JSON document `doc`; any failure is a `CaseError`
    naming the key path, such as `buses[3].v_mag`."""
    return read_value(NetworkCase, doc, "", CaseError)


def case_to_dict(case: NetworkCase) -> dict:
    return _plain(case)


def parse_case(path: str | Path) -> NetworkCase:
    path = Path(path)
    if not path.exists():
        raise CaseError(f"case file not found: {path}")
    try:
        return case_from_dict(json.loads(path.read_text()))
    except CaseError as exc:
        raise CaseError(f"{path}: {exc}") from exc
    except ValueError as exc:  # JSONDecodeError, or an int too long to convert
        raise CaseError(f"{path}: invalid JSON ({exc})") from exc


def save_case(case: NetworkCase, path: str | Path) -> None:
    Path(path).write_text(json.dumps(case_to_dict(case), indent=1))


def load_ieee118() -> NetworkCase:
    """The bundled IEEE 118-bus case (see data/ieee118.json provenance note)."""
    here = Path(__file__).parent / "data" / "ieee118.json"
    return parse_case(here)
