import numpy as np
import pytest
import scipy.sparse as sp
from hypothesis import strategies as st

ACCEPTANCE_LINES: list[str] = []


def pytest_terminal_summary(terminalreporter, exitstatus, config):
    if ACCEPTANCE_LINES:
        terminalreporter.section("acceptance criteria")
        for line in ACCEPTANCE_LINES:
            terminalreporter.write_line(line)

from smrgrid.datacenter import (
    LoadProfile,
    UtilizationTrace,
    build_profile,
    calibrate_it_capacity,
)
from smrgrid.network import (
    Bus,
    BusKind,
    Branch,
    Generator,
    NetworkCase,
    load_ieee118,
)


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


@pytest.fixture(scope="session")
def case118() -> NetworkCase:
    return load_ieee118()


def zero_valued(jac: sp.csc_matrix) -> sp.csc_matrix:
    """A singular Jacobian: jac's CSC structure with every value zero."""
    return sp.csc_matrix(
        (np.zeros_like(jac.data), jac.indices, jac.indptr), shape=jac.shape
    )


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
