"""Datacenter demand pipeline: workload-trace binning, capacity estimation,
the affine IT power model, and the staged chiller-bank cooling model.

All operations are pure functions on immutable inputs; the 5-minute bin
width is fixed by the profile contract. Traces are columnar: the readers
return a `TaskTable` and a `MachineEventTable`, and the power models take a
scalar or an array with one value per bin, so a profile is computed and
written a column at a time.

The three trace files (tasks, machine events, profile) are read by one
reader. It checks the header with csv, then hands np.loadtxt the file's
path, so that numpy parses the body in C (the bulk path). Where that fails,
or where numpy may have changed a quoted line end in a text field, csv rows
are read instead (the row path), and a bad row is named by its line. Both
paths read numbers in np.loadtxt's grammar, which refuses digit separators
("1_000") and non-ASCII digits. Only the machine-event file takes short
rows. A leading UTF-8 byte-order mark is accepted. Every CSV table that
smrgrid writes, this profile and the CLI's power-flow and transient tables,
goes through one writer, `write_csv`.
"""

from __future__ import annotations

import csv
import math
import os
import warnings
from contextlib import contextmanager
from dataclasses import dataclass
from itertools import chain, islice
from operator import itemgetter
from pathlib import Path

import numpy as np

BIN_SECONDS = 300


class TraceError(Exception):
    """Malformed trace input."""


@dataclass(frozen=True)
class TaskRecord:
    start: float  # s
    end: float
    cpu: float  # capacity units while active

    def __post_init__(self):
        # Negated comparisons so that NaN fails them.
        if not self.end > self.start:
            raise TraceError(f"task end {self.end} <= start {self.start}")
        if not self.cpu >= 0:
            raise TraceError("task cpu must be >= 0")


@dataclass(frozen=True, eq=False)
class TaskTable:
    """Columnar task trace: row i is the task active on [start[i], end[i])
    at cpu[i] capacity units."""

    start: np.ndarray  # s
    end: np.ndarray
    cpu: np.ndarray

    def __post_init__(self):
        start, end, cpu = (
            np.asarray(col, dtype=float) for col in (self.start, self.end, self.cpu)
        )
        if start.ndim != 1 or start.shape != end.shape or start.shape != cpu.shape:
            raise TraceError("task columns must be 1-D and of one length")
        bad = np.flatnonzero(~(end > start) | ~(cpu >= 0))
        if bad.size:
            i = bad[0]
            TaskRecord(float(start[i]), float(end[i]), float(cpu[i]))  # raises
        object.__setattr__(self, "start", start)
        object.__setattr__(self, "end", end)
        object.__setattr__(self, "cpu", cpu)

    def __len__(self) -> int:
        return len(self.start)


_EVENT_KINDS = ("add", "remove", "update")


@dataclass(frozen=True)
class MachineEvent:
    t: float
    kind: str  # add | remove | update
    machine_id: str
    capacity: float = 0.0

    def __post_init__(self):
        if self.kind not in _EVENT_KINDS:
            raise TraceError(f"unknown machine event kind '{self.kind}'")
        # Negated comparisons so that NaN fails them.
        if not -math.inf <= self.t <= math.inf:
            raise TraceError(f"event time {self.t} is not a number")
        if not self.capacity >= 0:
            raise TraceError("capacity must be >= 0")


@dataclass(frozen=True, eq=False)
class MachineEventTable:
    """Columnar machine-event stream: row i is event kind[i] of machine
    machine_id[i] at t[i] s, with capacity[i] units for add and update."""

    t: np.ndarray  # s
    kind: np.ndarray  # add | remove | update
    machine_id: np.ndarray
    capacity: np.ndarray

    def __post_init__(self):
        t = np.asarray(self.t, dtype=float)
        kind = np.asarray(self.kind, dtype=object)
        machine_id = np.asarray(self.machine_id, dtype=object)
        capacity = np.asarray(self.capacity, dtype=float)
        if t.ndim != 1 or any(c.shape != t.shape for c in (kind, machine_id, capacity)):
            raise TraceError("machine event columns must be 1-D and of one length")
        bad = np.flatnonzero(
            ~np.isin(kind, _EVENT_KINDS) | np.isnan(t) | ~(capacity >= 0)
        )
        if bad.size:
            i = bad[0]
            MachineEvent(float(t[i]), kind[i], machine_id[i], float(capacity[i]))
        object.__setattr__(self, "t", t)
        object.__setattr__(self, "kind", kind)
        object.__setattr__(self, "machine_id", machine_id)
        object.__setattr__(self, "capacity", capacity)

    def __len__(self) -> int:
        return len(self.t)


@dataclass(frozen=True)
class UtilizationTrace:
    u: np.ndarray  # normalized utilization per 5-minute bin

    def __post_init__(self):
        u = np.asarray(self.u, dtype=float)
        if u.size and (u.min() < 0.0 or u.max() > 1.0):
            raise TraceError("utilization values must lie in [0, 1]")
        object.__setattr__(self, "u", u)


@dataclass(frozen=True)
class ItPowerParams:
    p_max: float  # MW peak IT capacity
    idle_fraction: float = 0.5

    def __post_init__(self):
        if self.p_max <= 0:
            raise ValueError("p_max must be > 0")
        if not (0.0 <= self.idle_fraction <= 1.0):
            raise ValueError("idle_fraction must be in [0, 1]")

    @property
    def p_idle(self) -> float:
        return self.idle_fraction * self.p_max


@dataclass(frozen=True)
class AmbientConditions:
    """Ambient state; each field is a number, or an array with one value per
    bin (see build_profile)."""

    t_amb: float = 30.0  # C
    phi_amb: float = 0.5  # relative humidity
    t_rw: float = 15.0  # return chilled water, C

    def __post_init__(self):
        phi = np.asarray(self.phi_amb)
        if not np.all((0.0 <= phi) & (phi <= 1.0)):
            raise ValueError("phi_amb must be in [0, 1]")


@dataclass(frozen=True)
class ChillerParams:
    # cubic-in-flow subsystem coefficients: (c1, c2, c3, c0) -> kW
    alpha: tuple[float, float, float, float]  # tower fan vs m_dot_tf
    beta: tuple[float, float, float, float]  # condenser pump vs m_dot_cd
    gamma: tuple[float, float, float, float]  # evaporator pump vs m_dot_ev
    # multilinear compressor surrogate (q0..q5), see compressor_power
    compressor_coeffs: tuple[float, float, float, float, float, float]
    q_rated: float  # MW-thermal per chiller
    n_total: int
    flow_min: tuple[float, float, float]  # (tf, cd, ev) kg/s
    flow_rated: tuple[float, float, float]

    def __post_init__(self):
        if self.q_rated <= 0:
            raise ValueError("q_rated must be > 0")
        if self.n_total < 1:
            raise ValueError("n_total must be >= 1")
        for lo, hi in zip(self.flow_min, self.flow_rated):
            if lo > hi:
                raise ValueError("min flow exceeds rated flow")


#: Illustrative coefficient set with plausible magnitudes (about COP 4 at the
#: rated point). Not identified from any measured plant.
DEFAULT_CHILLER = ChillerParams(
    alpha=(2.0, 0.04, 2e-4, 10.0),
    beta=(1.0, 0.004, 5e-6, 12.0),
    gamma=(1.0, 0.005, 8e-6, 10.0),
    compressor_coeffs=(150.0, 10.0, 20.0, 100.0, 8.0, 0.1),
    q_rated=10.0,
    n_total=8,
    flow_min=(15.0, 36.0, 30.0),
    flow_rated=(50.0, 120.0, 100.0),
)


@dataclass(frozen=True)
class LoadProfile:
    timestamps: np.ndarray  # s, 5-minute grid
    u: np.ndarray
    p_it: np.ndarray  # MW
    q_cool: np.ndarray  # MW-thermal
    n_ch: np.ndarray  # active chillers
    p_thermal: np.ndarray  # MW electrical cooling draw

    def __post_init__(self):
        n = len(self.timestamps)
        for name, series in vars(self).items():
            if len(series) != n:
                raise ValueError(f"series length mismatch in '{name}'")
            if not np.isfinite(series).all():
                raise ValueError(f"non-finite value in '{name}'")

    @property
    def p_total(self) -> np.ndarray:
        return self.p_it + self.p_thermal

    def __len__(self) -> int:
        return len(self.timestamps)


# -- trace processing --------------------------------------------------------


def _bin_mean(blocks, t0: float, t1: float) -> np.ndarray:
    """Per-bin mean over [t0, t1) of the step function that starts at 0 and
    jumps by deltas[i] at times[i] (jumps outside [t0, t1] act at the nearer
    end), the jumps given as (times, deltas) array pairs by the iterable
    blocks. A partial last bin is averaged over the width it covers.

    A jump in bin k adds deltas[i] * (bin end - times[i]) to that bin's
    integral, and deltas[i] to the level every later bin starts at (a prefix
    sum over bins). Each term stays local to one bin, so there is no
    cancellation between large running integrals. Each block's sums are
    added into per-bin totals, so the temporaries scale with one block, not
    with all the jumps. O(N + B) per block.

    The bin is the rounded quotient (t - t0) / BIN_SECONDS truncated, so a
    time within one ulp below an edge may land in the bin after it. The
    bin mean is continuous across an edge, so that moves a mean by at most
    |deltas[i]| times one ulp.
    """
    if t1 <= t0:
        raise TraceError("t1 must be > t0")
    n_bins = math.ceil((t1 - t0) / BIN_SECONDS)
    edges = np.minimum(t0 + BIN_SECONDS * np.arange(n_bins + 1), t1)
    width = np.diff(edges)
    inside = np.zeros(n_bins)
    per_bin = np.zeros(n_bins)
    for times, deltas in blocks:
        t = np.clip(times, t0, t1)
        k = np.minimum(((t - t0) / BIN_SECONDS).astype(np.intp), n_bins - 1)
        inside += np.bincount(k, deltas * (edges[k + 1] - t), minlength=n_bins)
        per_bin += np.bincount(k, deltas, minlength=n_bins)
    level = np.concatenate(([0.0], np.cumsum(per_bin[:-1])))
    return (level * width + inside) / width


# Tasks binned per block of this many starts or ends (see bin_tasks).
BIN_BLOCK = 1 << 16


def bin_tasks(tasks: TaskTable, t0: float, t1: float) -> np.ndarray:
    """Per-bin mean active cpu: each task spreads its cpu in proportion to the
    overlap of its active interval with each 5-minute bin. The task starts,
    then the ends, are binned in blocks of BIN_BLOCK, so a million tasks
    take a few MB of temporaries."""
    blocks = (
        (times[i:i + BIN_BLOCK], sign * tasks.cpu[i:i + BIN_BLOCK])
        for times, sign in ((tasks.start, 1.0), (tasks.end, -1.0))
        for i in range(0, len(tasks), BIN_BLOCK)
    )
    return _bin_mean(blocks, t0, t1)


def estimate_capacity(events: MachineEventTable, t0: float, t1: float) -> np.ndarray:
    """Per-bin time-weighted average of total fleet capacity from the
    add/remove/update event stream, applied in stable time order."""
    order = np.argsort(events.t, kind="stable")
    fleet: dict[str, float] = {}
    times: list[float] = []
    deltas: list[float] = []  # change in fleet total at each applied event
    for t, kind, machine, capacity in zip(
        events.t[order].tolist(),
        events.kind[order].tolist(),
        events.machine_id[order].tolist(),
        events.capacity[order].tolist(),
    ):
        if kind == "add":
            if machine in fleet:
                warnings.warn(f"duplicate add for machine {machine}; ignored")
                continue
            fleet[machine] = capacity
            delta = capacity
        elif kind == "remove":
            if machine not in fleet:
                warnings.warn(f"remove for unknown machine {machine}; ignored")
                continue
            delta = -fleet.pop(machine)
        else:  # update
            if machine not in fleet:
                warnings.warn(f"update for unknown machine {machine}; ignored")
                continue
            delta = capacity - fleet[machine]
            fleet[machine] = capacity
        times.append(t)
        deltas.append(delta)
    return _bin_mean([(np.array(times, dtype=float), np.array(deltas, dtype=float))], t0, t1)


def normalize(usage: np.ndarray, capacity: np.ndarray) -> UtilizationTrace:
    usage = np.asarray(usage, dtype=float)
    capacity = np.asarray(capacity, dtype=float)
    if usage.shape != capacity.shape:
        raise TraceError("usage and capacity series length mismatch")
    u = np.zeros_like(usage)
    ok = capacity > 0
    if not np.all(ok):
        warnings.warn("zero-capacity bins set to u=0")
    u[ok] = np.clip(usage[ok] / capacity[ok], 0.0, 1.0)
    return UtilizationTrace(u=u)


# -- power models ------------------------------------------------------------


def it_power(u, params: ItPowerParams):
    """Affine utilization-to-power map: P_idle at u=0, P_max at u=1. MW."""
    u_arr = np.asarray(u, dtype=float)
    if np.any(u_arr < 0) or np.any(u_arr > 1):
        raise ValueError("utilization must lie in [0, 1]")
    out = params.p_idle + (params.p_max - params.p_idle) * u_arr
    return float(out) if np.isscalar(u) else out


def _number(x):
    """A Python float for a scalar result, the array itself otherwise."""
    return x if isinstance(x, np.ndarray) else float(x)


def subsystem_power(m_dot, coeffs):
    """Cubic pump/fan draw c1*m + c2*m^2 + c3*m^3 + c0, floored at 0. kW.
    m_dot is a flow or an array of flows."""
    if np.less(m_dot, 0).any():
        raise ValueError("mass flow must be >= 0")
    c1, c2, c3, c0 = coeffs
    return _number(np.maximum(c1 * m_dot + c2 * m_dot**2 + c3 * m_dot**3 + c0, 0.0))


def compressor_power(cond: AmbientConditions, flows, coeffs):
    """Multilinear surrogate for the compressor draw, kW.

    P = q0 + q1*T_rw + q2*T_amb + q3*phi + q4*m_ev + q5*m_ev*(T_amb - T_rw),
    floored at 0. Stands in for an unidentified black-box map. The flows and
    the fields of cond may be arrays of one shape.
    """
    m_tf, m_cd, m_ev = flows
    if any(np.less(m, 0).any() for m in flows):
        raise ValueError("mass flows must be >= 0")
    q0, q1, q2, q3, q4, q5 = coeffs
    p = (
        q0
        + q1 * cond.t_rw
        + q2 * cond.t_amb
        + q3 * cond.phi_amb
        + q4 * m_ev
        + q5 * m_ev * (cond.t_amb - cond.t_rw)
    )
    return _number(np.maximum(p, 0.0))


def chiller_unit_power(cond: AmbientConditions, flows, params: ChillerParams):
    """Single-chiller electrical draw: fan + both pumps + compressor, kW;
    element by element when the flows or cond hold arrays."""
    m_tf, m_cd, m_ev = flows
    return (
        subsystem_power(m_tf, params.alpha)
        + subsystem_power(m_cd, params.beta)
        + subsystem_power(m_ev, params.gamma)
        + compressor_power(cond, flows, params.compressor_coeffs)
    )


def staging_and_thermal(q_cool, cond: AmbientConditions, params: ChillerParams):
    """Chiller staging and bank electrical draw for a thermal demand.

    Chillers stage in ceil(q_cool / q_rated) units sharing the load evenly;
    per-chiller flows interpolate between minimum and rated by load fraction.
    Returns (active chillers, electrical MW): an int and a float for a
    scalar q_cool, arrays of its shape for an array.
    """
    q = np.asarray(q_cool, dtype=float)
    if not (q >= 0).all():
        raise ValueError("q_cool must be >= 0")
    cap = params.n_total * params.q_rated
    if (q > cap + 1e-9).any():
        raise ValueError(
            f"cooling capacity exceeded: {np.max(q):.3f} MW-th > {cap:.3f} MW-th"
        )
    # At least one unit for any demand, so that zero-demand bins divide
    # safely; they get no units below.
    n_ch = np.minimum(
        np.maximum(np.ceil(q / params.q_rated - 1e-12), 1), params.n_total
    )
    frac = (q / n_ch) / params.q_rated
    flows = tuple(
        lo + frac * (hi - lo)
        for lo, hi in zip(params.flow_min, params.flow_rated)
    )
    p_ch_kw = chiller_unit_power(cond, flows, params)
    n_ch = np.where(q > 0, n_ch, 0).astype(int)
    p_th = n_ch * p_ch_kw / 1000.0
    if q.ndim == 0:
        return int(n_ch), float(p_th)
    return n_ch, p_th


def build_profile(
    trace: UtilizationTrace,
    it: ItPowerParams,
    chiller: ChillerParams = DEFAULT_CHILLER,
    ambient: AmbientConditions = AmbientConditions(),
    t_start: float = 0.0,
) -> LoadProfile:
    """End-to-end profile: IT power per bin, unity heat rejection into the
    chiller bank, staged cooling draw. Each field of `ambient` holds one
    value for every bin or an array with one value per bin."""
    n = len(trace.u)
    p_it = it_power(trace.u, it)
    q_cool = p_it.copy()  # every IT watt rejected as heat
    n_ch, p_th = staging_and_thermal(q_cool, ambient, chiller)
    ts = t_start + BIN_SECONDS * np.arange(n, dtype=float)
    return LoadProfile(
        timestamps=ts, u=trace.u.copy(), p_it=p_it, q_cool=q_cool,
        n_ch=n_ch, p_thermal=p_th,
    )


#: calibrate_it_capacity's bisection stops once its p_max bracket is this
#: narrow, MW.
CALIBRATION_TOL_MW = 1e-6


def calibrate_it_capacity(
    target_total_peak_mw: float,
    chiller: ChillerParams = DEFAULT_CHILLER,
    ambient: AmbientConditions = AmbientConditions(),
    idle_fraction: float = ItPowerParams.idle_fraction,
) -> ItPowerParams:
    """IT capacity such that IT + cooling at full utilization meets a target
    total peak (bisection on p_max). The total is at least p_max, and the
    chiller bank cools at most its capacity of IT heat, so the smaller of
    the two bounds the search; a target above the total at that bound
    raises ValueError."""
    def total(p_max):
        _, p_th = staging_and_thermal(p_max, ambient, chiller)
        return p_max + p_th

    lo, hi = 1e-3, min(target_total_peak_mw, chiller.n_total * chiller.q_rated)
    if total(hi) < target_total_peak_mw:
        raise ValueError(
            f"target total peak {target_total_peak_mw:.6f} MW exceeds the "
            f"{total(hi):.6f} MW drawn at the chiller bank's capacity"
        )
    for _ in range(100):
        mid = 0.5 * (lo + hi)
        if total(mid) < target_total_peak_mw:
            lo = mid
        else:
            hi = mid
        if hi - lo < CALIBRATION_TOL_MW:
            break
    return ItPowerParams(p_max=hi, idle_fraction=idle_fraction)


# -- CSV boundary ------------------------------------------------------------


@contextmanager
def _utf8(path: str | Path):
    """`path` open as UTF-8 text for csv, a leading byte-order mark dropped;
    a byte that is not UTF-8 ends as a TraceError that names the path and
    the line of the first such byte."""
    with open(path, newline="", encoding="utf-8-sig") as fh:
        try:
            yield fh
        except UnicodeDecodeError as exc:
            # The stream's error counts from its buffer; the file's counts
            # from the first byte.
            raw = Path(path).read_bytes()
            try:
                raw.decode("utf-8")
            except UnicodeDecodeError as first:
                exc = first
            line = raw.count(b"\n", 0, exc.start) + 1
            raise TraceError(f"{path}:{line}: not UTF-8 text ({exc.reason})") from exc


@contextmanager
def _csv_errors(path: str | Path, reader):
    """`reader`, a csv reader of the file at `path`; a csv.Error that it
    raises, such as a field over csv's size limit, ends as a TraceError that
    names the path and the reader's line."""
    try:
        yield reader
    except csv.Error as exc:
        raise TraceError(f"{path}:{reader.line_num}: {exc}") from exc


#: Suffixes by which np.loadtxt decompresses a file it is given by path.
_COMPRESSED = (".bz2", ".gz", ".lzma", ".xz")


def _loadtxt(path: str | Path, **kwargs) -> np.ndarray:
    """np.loadtxt of the CSV at `path`. Given a path, numpy parses the file
    in chunks in C; given a handle, it takes one line at a time in Python.
    The path is made absolute, so numpy cannot read it as a URL, and a file
    named as compressed (its header was read as plain text) goes by handle."""
    if Path(path).suffix in _COMPRESSED:
        with _utf8(path) as fh:
            return np.loadtxt(fh, **kwargs)
    return np.loadtxt(os.path.abspath(path), encoding="utf-8", **kwargs)


def _loadtxt_float(field: str | None, parse=float):
    """parse(field), for parse float or int, in np.loadtxt's grammar, which
    also refuses digit separators ("1_000") and non-ASCII digits. A field
    that a short row lacks (None) is refused."""
    if field is None:
        raise TraceError("row has too few fields")
    if "_" in field or not field.isascii():
        raise ValueError(f"could not convert string to {parse.__name__}: {field!r}")
    return parse(field)


def _loadtxt_int(field: str | None) -> int:
    """_loadtxt_float's int twin, which also refuses a value outside int64."""
    value = _loadtxt_float(field, int)
    if not -(2**63) <= value < 2**63:
        raise ValueError(f"could not convert string to int64: {field!r}")
    return value


#: The columns that np.loadtxt parses as numbers itself; every other column
#: it keeps as text, which reaches the column's field parser.
_NUMBER_DTYPES = {_loadtxt_float: float, _loadtxt_int: int}


def _read_table(path: str | Path, fields: dict, table):
    """table(*columns) of the CSV at `path`, one column for each key of
    `fields`, found by header name in any order; `fields` maps it to the
    parser of its fields. One np.loadtxt pass by path reads the body (the
    bulk path). Where that fails, or where it may have changed a quoted line
    end in a text field, the csv row path reads the file instead and names a
    bad line. Both paths put the same fields through the same parsers."""
    with _utf8(path) as fh, _csv_errors(path, csv.reader(fh)) as reader:
        header = next(reader, [])
        if not set(fields).issubset(header):
            raise TraceError(f"{path}: expected header {','.join(fields)}")
        cols = [header.index(name) for name in fields]
        header_lines = reader.line_num
        body = any(reader)
    dtype = np.dtype([(name, _NUMBER_DTYPES.get(p, object)) for name, p in fields.items()])
    try:
        data = _loadtxt(
            path, dtype=dtype, delimiter=",", usecols=cols, skiprows=header_lines,
            ndmin=1, quotechar='"', comments=None,
        ) if body else np.empty(0, dtype)  # np.loadtxt would warn on an empty body
        return table(*(_parse_text(parse, data[name]) for name, parse in fields.items()))
    except (ValueError, TraceError):
        pass  # the row path reads the file, or names its bad line
    with _utf8(path) as fh, _csv_errors(path, csv.reader(fh)) as reader:
        next(reader)
        try:
            return _row_table(reader, cols, fields, table)
        except (ValueError, TraceError) as exc:
            raise TraceError(_bad_line(
                path, lambda rows: _row_table(rows, cols, fields, table), exc
            )) from exc


def _parse_text(parse, column: np.ndarray):
    """The column np.loadtxt read, a text column's fields put through
    parse, once for each distinct field. numpy reads a quoted \\r or \\r\\n
    as \\n, where csv keeps it, so a text field with a line end is refused."""
    if column.dtype != object:
        return column
    texts = column.tolist()
    distinct = set(texts)
    if "\n" in "".join(distinct):
        raise ValueError("a text field holds a line end")
    parsed = {text: parse(text) for text in distinct}
    return [parsed[text] for text in texts]


def _row_table(rows, cols: list[int], fields: dict, table):
    """The table of CSV rows, blank ones skipped, whose fields at cols go
    through the parsers of `fields`; a short row's missing fields are None."""
    width = max(cols) + 1
    # Each row list is dropped as soon as its fields are picked into a
    # tuple: the garbage collector stops tracking tuples of strings, but
    # would traverse every kept list on each full collection.
    picked = map(
        itemgetter(*cols), (row + [None] * (width - len(row)) for row in rows if row)
    )
    columns = list(zip(*picked)) or [()] * len(cols)
    return table(*(
        np.array([parse(field) for field in column], _NUMBER_DTYPES.get(parse, object))
        for parse, column in zip(fields.values(), columns)
    ))


#: Rows that _bad_line checks as one table before it checks them one by one.
_BAD_LINE_BLOCK = 1024


def _bad_line(path: str | Path, check, exc: Exception) -> str:
    """`path:line: reason` for the first data row on which check([row]), the
    table of that one row, raises; `path: exc` when no row does. Rows go to
    check a block at a time, and one by one only in a block that fails."""
    with _utf8(path) as fh, _csv_errors(path, csv.reader(fh)) as reader:
        next(reader)
        # Blank lines are skipped, by np.loadtxt too.
        rows = ((reader.line_num, row) for row in reader if row)
        while block := list(islice(rows, _BAD_LINE_BLOCK)):
            if _raised(check, [row for _, row in block]) is None:
                continue
            for line, row in block:
                if (row_exc := _raised(check, [row])) is not None:
                    return f"{path}:{line}: {row_exc}"
    return f"{path}: {exc}"


def _raised(check, rows) -> Exception | None:
    """The ValueError or TraceError that check(rows) raises, if any."""
    try:
        check(rows)
    except (ValueError, TraceError) as exc:
        return exc
    return None


_TASK_FIELDS = dict.fromkeys(("start_s", "end_s", "cpu"), _loadtxt_float)


def read_tasks_csv(path: str | Path) -> TaskTable:
    """Task CSV whose header names start_s, end_s and cpu, in any order;
    other columns are ignored."""
    return _read_table(path, _TASK_FIELDS, TaskTable)


_EVENT_FIELDS = {
    "t_s": _loadtxt_float,
    "kind": lambda kind: (kind or "").strip().lower(),
    "machine_id": lambda machine_id: machine_id or "",
    "capacity": lambda capacity: _loadtxt_float(capacity) if capacity else 0.0,
}


def read_machine_events_csv(path: str | Path) -> MachineEventTable:
    """Machine-event CSV whose header names t_s, kind, machine_id and
    capacity, in any order; other columns are ignored. kind is case- and
    space-insensitive. Missing trailing fields other than t_s read as
    empty, and an empty capacity is 0, so a remove needs none."""
    return _read_table(path, _EVENT_FIELDS, MachineEventTable)


def write_csv(path: str | Path, header, row_format: str, columns) -> None:
    """The CSV table at `path`, with \\r\\n line ends: the `header` names,
    then one row per entry of the equal-length `columns`, its fields put
    through the %-format `row_format`, one conversion per column."""
    columns = [np.asarray(c).tolist() for c in columns]
    values = tuple(chain.from_iterable(zip(*columns)))
    body = ((row_format + "\r\n") * len(columns[0])) % values
    with open(path, "w", newline="") as fh:
        fh.write(",".join(header) + "\r\n" + body)


_PROFILE_HEADER = (
    "timestamp_s", "u", "p_it_mw", "q_cool_mwth", "n_ch", "p_thermal_mw", "p_total_mw"
)


def write_profile_csv(profile: LoadProfile, path: str | Path) -> None:
    """The profile as CSV (`write_csv`), one row per bin: n_ch as an
    integer, timestamps to the second and every other column to 6 decimals."""
    write_csv(path, _PROFILE_HEADER, "%.0f,%.6f,%.6f,%.6f,%d,%.6f,%.6f", (
        profile.timestamps, profile.u, profile.p_it, profile.q_cool,
        profile.n_ch.astype(int), profile.p_thermal, profile.p_total,
    ))


_PROFILE_FIELDS = {
    **dict.fromkeys(("timestamp_s", "u", "p_it_mw", "q_cool_mwth"), _loadtxt_float),
    "n_ch": _loadtxt_int,
    "p_thermal_mw": _loadtxt_float,
}


def read_profile_csv(path: str | Path) -> LoadProfile:
    """Profile CSV as written by write_profile_csv, its columns in any
    order; p_total_mw is not read."""
    return _read_table(path, _PROFILE_FIELDS, LoadProfile)
