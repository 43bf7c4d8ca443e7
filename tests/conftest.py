from dataclasses import fields, replace

import numpy as np
import pytest
from hypothesis import strategies as st

ACCEPTANCE_LINES: list[str] = []


def pytest_terminal_summary(terminalreporter, exitstatus, config):
    if ACCEPTANCE_LINES:
        terminalreporter.section("acceptance criteria")
        for line in ACCEPTANCE_LINES:
            terminalreporter.write_line(line)

from smrgrid.datacenter import (
    LoadProfile,
    MachineEventTable,
    TaskTable,
    UtilizationTrace,
    build_profile,
    calibrate_it_capacity,
)
from smrgrid import network, powerflow
from smrgrid.network import (
    Bus,
    BusKind,
    Branch,
    Generator,
    NetworkCase,
    load_ieee118,
)
from smrgrid.powerflow import compute_mismatch, jacobian_pattern, scheduled_injection


def week_profile(seed: int, n_bins: int = 2016) -> LoadProfile:
    """Criterion 2's weekly profile shape at a 60 MW peak: a daily sinusoid
    plus noise drawn from `seed`, with the largest bin forced to full
    utilization. Seed 2024 gives criterion 2's profile, and seed 0 the
    profile that the benchmark's seed-0 `sweep_week` run writes to its
    profile CSV."""
    rng = np.random.default_rng(seed)
    u = np.clip(
        0.55
        + 0.35 * np.sin(2 * np.pi * np.arange(n_bins) / 288.0)
        + 0.08 * rng.standard_normal(n_bins),
        0.0,
        1.0,
    )
    u[int(np.argmax(u))] = 1.0
    return build_profile(UtilizationTrace(u=u), calibrate_it_capacity(60.0))


def task_table(tasks) -> TaskTable:
    """The TaskTable of a list of TaskRecord, in list order."""
    return TaskTable([t.start for t in tasks], [t.end for t in tasks],
                     [t.cpu for t in tasks])


def event_table(events) -> MachineEventTable:
    """The MachineEventTable of a list of MachineEvent, in list order."""
    return MachineEventTable(
        [e.t for e in events], [e.kind for e in events],
        [e.machine_id for e in events], [e.capacity for e in events],
    )


@pytest.fixture(scope="session")
def case118() -> NetworkCase:
    return load_ieee118()


def record_ybus_builds(monkeypatch) -> list:
    """Make `network.build_ybus`, which each new `NetworkCase` calls, append
    each Y-bus it builds to the returned list."""
    built = []
    real = network.build_ybus

    def recording(case):
        built.append(real(case))
        return built[-1]

    monkeypatch.setattr(network, "build_ybus", recording)
    return built


def with_added_load(case: NetworkCase, bus_id: int, p_mw: float, q_mvar: float = 0.0):
    """The case with p_mw and q_mvar added to the load of one bus."""
    bus = case.bus(bus_id)
    return case.with_load(bus_id, bus.p_load + p_mw, bus.q_load + q_mvar)


def relabelled(case, seed):
    """case with new random bus ids, its buses and its branches each in a
    random order; returns the case and the map old id -> new id."""
    rng = np.random.default_rng(seed)
    ids = rng.choice(np.arange(1, 10 * case.n_bus), case.n_bus, replace=False)
    new_id = {b.id: int(i) for b, i in zip(case.buses, ids)}
    buses = [replace(b, id=new_id[b.id]) for b in case.buses]
    branches = [
        replace(br, from_bus=new_id[br.from_bus], to_bus=new_id[br.to_bus])
        for br in case.branches
    ]
    return NetworkCase(
        case.system_mva_base,
        tuple(buses[k] for k in rng.permutation(len(buses))),
        tuple(branches[k] for k in rng.permutation(len(branches))),
        tuple(replace(g, bus=new_id[g.bus]) for g in case.generators),
    ), new_id


def flat_start(case: NetworkCase) -> np.ndarray:
    """The flat start: every bus at 1 pu and angle 0, except that each
    generator bus that is not PQ sits at its setpoint magnitude."""
    a = case.arrays
    v = np.ones(case.n_bus, dtype=complex)
    pin = a.has_gen & ~a.is_pq
    v[pin] = a.v_set[pin]
    return v


def case_mismatch(case, ybus, v, pvpq=None, pq_idx=None) -> np.ndarray:
    """compute_mismatch at v for the case's scheduled injection, on the
    partition (pvpq, pq_idx), by default the case's own."""
    if pq_idx is None:
        pq_idx = case.arrays.pq_idx
        pvpq = np.union1d(case.arrays.pv_idx, pq_idx)
    return compute_mismatch(v, ybus.matrix @ v, scheduled_injection(case), pvpq, pq_idx)


def zero_valued(terms: np.ndarray) -> np.ndarray:
    """A singular Jacobian: terms of the shape of `terms`, all zero."""
    return np.zeros_like(terms)


def terms_to_dense(pattern, terms: np.ndarray) -> np.ndarray:
    """The Jacobian whose terms compute_jacobian returned for `pattern`, as
    a dense matrix with its unknowns in natural order: each term added at
    its row and column with np.add.at."""
    assert terms.shape == pattern.jr.shape == pattern.jc.shape
    dense = np.zeros((pattern.dim, pattern.dim))
    np.add.at(dense, (pattern.jr, pattern.jc), terms)
    return dense


def record_pattern_builds(monkeypatch) -> list:
    """Make `powerflow.jacobian_pattern`, which a solve chain calls on its
    first Newton loop on a Y-bus in a PV/PQ partition, append the key of
    each build, (ybus, pv_idx bytes, pq_idx bytes) as in the chain's
    factors dict, to the returned list."""
    built = []
    real = powerflow.jacobian_pattern

    def recording(ybus, pv_idx, pq_idx):
        built.append((ybus, pv_idx.tobytes(), pq_idx.tobytes()))
        return real(ybus, pv_idx, pq_idx)

    monkeypatch.setattr(powerflow, "jacobian_pattern", recording)
    return built


def assert_cached_patterns_fresh(ybus, factors) -> None:
    """Every Jacobian pattern in the entries of a solve chain's factors
    dict, a chain on ybus alone, equals a fresh jacobian_pattern build for
    its partition, field by field and array for array."""
    assert factors
    for (key_ybus, pv_bytes, pq_bytes), (pattern, _) in factors.items():
        assert key_ybus is ybus
        pv_idx = np.frombuffer(pv_bytes, dtype=np.intp)
        pq_idx = np.frombuffer(pq_bytes, dtype=np.intp)
        fresh = jacobian_pattern(ybus, pv_idx, pq_idx)
        for f in fields(pattern):
            got, want = getattr(pattern, f.name), getattr(fresh, f.name)
            if isinstance(want, np.ndarray):
                assert got.dtype == want.dtype, f.name
                np.testing.assert_array_equal(got, want, err_msg=f.name)
            else:
                assert got == want, f.name


def make_two_bus(p_load=0.5, q_load=0.2, x=0.1, r=0.0, mva_base=100.0) -> NetworkCase:
    """Slack at 1.0 pu feeding one PQ load over a single line."""
    return NetworkCase(
        system_mva_base=mva_base,
        buses=(
            Bus(id=1, kind=BusKind.SLACK, v_mag=1.0, v_ang_deg=0.0, base_kv=138.0),
            Bus(
                id=2, kind=BusKind.PQ, v_mag=1.0, v_ang_deg=0.0, base_kv=138.0,
                p_load=p_load * mva_base, q_load=q_load * mva_base,
            ),
        ),
        branches=(Branch(from_bus=1, to_bus=2, r=r, x=x),),
        generators=(Generator(bus=1, p_set=0.0, q_min=-999, q_max=999, v_set=1.0),),
    )


def two_bus_exact_voltage(p_load=0.5, q_load=0.2, x=0.1) -> complex:
    """Closed-form load-bus voltage for the lossless two-bus case.

    With V1 = 1 and V2 = e + jf, the injected power at bus 2 is
    S2 = V2 * conj((j/x)(1 - V2)) = (f - j(e - e^2 - f^2)) / x.
    Setting S2 = -(P + jQ) gives f = -P*x and a quadratic in e; the high
    root is the stable operating point.
    """
    f = -p_load * x
    disc = 1.0 - 4.0 * (p_load**2 * x**2 + q_load * x)
    if disc < 0:
        raise ValueError("load beyond the static transfer limit")
    e = 0.5 * (1.0 + np.sqrt(disc))
    return e + 1j * f


#: Any JSON value, NaN and the infinities included (Python's json reads them).
JSON_VALUES = st.recursive(
    st.none() | st.booleans() | st.integers() | st.floats() | st.text(),
    lambda inner: st.lists(inner, max_size=3)
    | st.dictionaries(st.text(), inner, max_size=3),
    max_leaves=8,
)
DELETE = object()


def key_paths(doc, prefix=()):
    """The key path of every value in the JSON document `doc`, at any depth."""
    items = doc.items() if isinstance(doc, dict) else enumerate(doc)
    for key, value in items:
        yield prefix + (key,)
        if isinstance(value, (dict, list)):
            yield from key_paths(value, prefix + (key,))


def replace_at(doc, path: tuple, value) -> None:
    """Set (or, for DELETE, remove) the key at `path` in `doc`."""
    for key in path[:-1]:
        doc = doc[key]
    if value is DELETE:
        del doc[path[-1]]
    else:
        doc[path[-1]] = value
