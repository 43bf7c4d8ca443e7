import json
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from smrgrid.network import (
    Bus,
    BusKind,
    Branch,
    CaseArrays,
    CaseError,
    Generator,
    NetworkCase,
    branch_admittances,
    build_ybus,
    case_from_dict,
    case_to_dict,
    load_ieee118,
    parse_case,
    save_case,
)
from smrgrid.powerflow import _initial_voltage

from conftest import JSON_VALUES, key_paths, make_two_bus, record_ybus_builds, replace_at


def dense_pi_assembly(case: NetworkCase) -> np.ndarray:
    """Independent dense assembly of the nodal admittance matrix."""
    n = case.n_bus
    y = np.zeros((n, n), dtype=complex)
    for br in case.branches:
        if not br.status:
            continue
        i = case.bus_index(br.from_bus)
        j = case.bus_index(br.to_bus)
        ys = 1.0 / complex(br.r, br.x)
        bc = 0.5j * br.b_shunt
        t = br.tap
        y[i, i] += (ys + bc) / (t * t)
        y[i, j] += -ys / t
        y[j, i] += -ys / t
        y[j, j] += ys + bc
    return y


class TestCaseValidation:
    def test_minimal_two_bus(self):
        case = make_two_bus()
        assert case.n_bus == 2
        assert len(case.branches) == 1

    def test_multiple_slack_rejected(self):
        with pytest.raises(CaseError, match="multiple slack"):
            NetworkCase(
                system_mva_base=100.0,
                buses=(
                    Bus(id=1, kind=BusKind.SLACK, v_mag=1.0, v_ang_deg=0.0, base_kv=138.0),
                    Bus(id=2, kind=BusKind.SLACK, v_mag=1.0, v_ang_deg=0.0, base_kv=138.0),
                ),
                branches=(Branch(from_bus=1, to_bus=2, r=0.0, x=0.1),),
            )

    def test_no_slack_rejected(self):
        with pytest.raises(CaseError, match="no slack"):
            NetworkCase(
                system_mva_base=100.0,
                buses=(
                    Bus(id=1, kind=BusKind.PQ, v_mag=1.0, v_ang_deg=0.0, base_kv=138.0),
                ),
                branches=(),
            )

    def test_dangling_branch_rejected(self):
        with pytest.raises(CaseError, match="dangling"):
            NetworkCase(
                system_mva_base=100.0,
                buses=(
                    Bus(id=1, kind=BusKind.SLACK, v_mag=1.0, v_ang_deg=0.0, base_kv=138.0),
                ),
                branches=(Branch(from_bus=1, to_bus=9, r=0.0, x=0.1),),
            )

    def test_island_rejected(self):
        with pytest.raises(CaseError, match="islanded"):
            NetworkCase(
                system_mva_base=100.0,
                buses=(
                    Bus(id=1, kind=BusKind.SLACK, v_mag=1.0, v_ang_deg=0.0, base_kv=138.0),
                    Bus(id=2, kind=BusKind.PQ, v_mag=1.0, v_ang_deg=0.0, base_kv=138.0),
                    Bus(id=3, kind=BusKind.PQ, v_mag=1.0, v_ang_deg=0.0, base_kv=138.0),
                ),
                branches=(Branch(from_bus=1, to_bus=2, r=0.0, x=0.1),),
            )

    def test_zero_impedance_branch_rejected(self):
        with pytest.raises(CaseError):
            Branch(from_bus=1, to_bus=2, r=0.0, x=0.0)

    def test_self_loop_rejected(self):
        with pytest.raises(CaseError):
            Branch(from_bus=1, to_bus=1, r=0.0, x=0.1)

    def test_generator_q_order(self):
        with pytest.raises(CaseError):
            Generator(bus=1, p_set=0.0, q_min=10.0, q_max=-10.0)


class TestWithBus:
    @staticmethod
    def constructor_error(case, bus):
        buses = tuple(bus if b.id == bus.id else b for b in case.buses)
        with pytest.raises(CaseError) as exc:
            NetworkCase(case.system_mva_base, buses, case.branches, case.generators)
        return str(exc.value)

    def test_second_slack_rejected_like_constructor(self, case118):
        bus = replace(case118.bus(25), kind=BusKind.SLACK)
        message = self.constructor_error(case118, bus)
        assert "multiple slack" in message
        with pytest.raises(CaseError) as exc:
            case118.with_bus(bus)
        assert str(exc.value) == message

    def test_removing_the_slack_rejected_like_constructor(self, case118):
        slack = case118.buses[case118.slack_index]
        bus = replace(slack, kind=BusKind.PV)
        message = self.constructor_error(case118, bus)
        assert message == "no slack bus"
        with pytest.raises(CaseError) as exc:
            case118.with_bus(bus)
        assert str(exc.value) == message

    def test_copy_equals_a_case_built_from_its_fields(self, case118):
        bus = replace(case118.bus(25), kind=BusKind.PQ, p_load=case118.bus(25).p_load + 60.0)
        snap = case118.with_bus(bus)
        built = NetworkCase(
            snap.system_mva_base, snap.buses, snap.branches, snap.generators
        )
        assert snap == built
        assert snap != case118
        assert snap.bus(25) == bus
        assert all(snap.bus_index(b.id) == i for i, b in enumerate(case118.buses))
        assert snap.slack_index == built.slack_index
        for name in CaseArrays.__dataclass_fields__:
            np.testing.assert_array_equal(
                getattr(snap.arrays, name), getattr(built.arrays, name)
            )
        # The original is untouched.
        assert case118.arrays.is_pv[case118.bus_index(25)]

    def test_copies_share_the_ybus(self):
        case = load_ieee118()
        load = replace(case.bus(25), p_load=case.bus(25).p_load + 60.0)
        same_kind = case.with_bus(load)
        kind_change = case.with_bus(replace(load, kind=BusKind.PQ))
        assert kind_change.ybus is case.ybus is same_kind.ybus
        assert same_kind.with_bus(case.bus(25)).ybus is case.ybus
        assert case.ybus.jacobian_patterns is same_kind.ybus.jacobian_patterns


class TestYbus:
    def test_single_branch_hand_values(self):
        case = make_two_bus(p_load=0.0, q_load=0.0, x=0.1)
        y = build_ybus(case).matrix
        assert y[0, 0] == pytest.approx(-10j)
        assert y[1, 1] == pytest.approx(-10j)
        assert y[0, 1] == pytest.approx(10j)
        assert y[1, 0] == pytest.approx(10j)

    @pytest.mark.filterwarnings("error")
    @pytest.mark.parametrize("changes", [{"r": 0.0, "x": 1e-320}, {"tap": 1e-200}])
    def test_non_finite_branch_model_rejected(self, changes):
        # 1 / (1e-320 j) overflows, and so does y / tap**2 at tap = 1e-200:
        # the case must not parse into an inf/nan Y-bus, nor warn.
        doc = case_to_dict(make_two_bus())
        doc["branches"][0].update(changes)
        with pytest.raises(CaseError) as exc:
            case_from_dict(doc)
        assert str(exc.value) == "branch 1-2: pi-model admittance is not finite"

    def test_out_of_service_branch_excluded(self):
        buses = (
            Bus(id=1, kind=BusKind.SLACK, v_mag=1.0, v_ang_deg=0.0, base_kv=138.0),
            Bus(id=2, kind=BusKind.PQ, v_mag=1.0, v_ang_deg=0.0, base_kv=138.0),
        )
        on = Branch(from_bus=1, to_bus=2, r=0.01, x=0.1, b_shunt=0.02)
        off = Branch(from_bus=1, to_bus=2, r=0.05, x=0.5, status=False)
        with_off = NetworkCase(100.0, buses, (on, off))
        without = NetworkCase(100.0, buses, (on,))
        assert np.allclose(
            build_ybus(with_off).matrix,
            build_ybus(without).matrix,
            atol=0,
        )

    def test_triangle_row_sums_equal_shunts(self):
        buses = tuple(
            Bus(id=i, kind=BusKind.SLACK if i == 1 else BusKind.PQ,
                v_mag=1.0, v_ang_deg=0.0, base_kv=138.0)
            for i in (1, 2, 3)
        )
        b_sh = 0.04
        branches = tuple(
            Branch(from_bus=f, to_bus=t, r=0.01, x=0.1, b_shunt=b_sh)
            for f, t in ((1, 2), (2, 3), (1, 3))
        )
        case = NetworkCase(100.0, buses, branches)
        y = build_ybus(case).matrix
        row_sums = y.sum(axis=1)
        # Each bus terminates two branches: shunt contribution = 2 * b_sh/2.
        assert np.allclose(row_sums, 1j * b_sh * np.ones(3), atol=1e-12)

    def test_matches_dense_assembly_118(self, case118):
        y = build_ybus(case118).matrix
        assert np.max(np.abs(y - dense_pi_assembly(case118))) < 1e-12

    def test_symmetric_without_taps(self):
        rng = np.random.default_rng(3)
        buses = tuple(
            Bus(id=i, kind=BusKind.SLACK if i == 1 else BusKind.PQ,
                v_mag=1.0, v_ang_deg=0.0, base_kv=138.0)
            for i in range(1, 7)
        )
        branches = []
        for i in range(1, 6):
            branches.append(
                Branch(from_bus=i, to_bus=i + 1,
                       r=float(rng.uniform(0.001, 0.05)),
                       x=float(rng.uniform(0.01, 0.3)),
                       b_shunt=float(rng.uniform(0, 0.1)))
            )
        case = NetworkCase(100.0, buses, tuple(branches))
        y = build_ybus(case).matrix
        assert np.max(np.abs(y - y.T)) < 1e-12

    def test_built_once_per_case(self, monkeypatch):
        built = record_ybus_builds(monkeypatch)
        case = make_two_bus()
        (ybus,) = built  # built with the case
        assert ybus is case.ybus
        bus = case.bus(2)
        copy = case.with_bus(replace(bus, p_load=bus.p_load + 1.0))
        kind_change = case.with_bus(replace(bus, kind=BusKind.PV))
        assert copy.ybus is kind_change.ybus is case.ybus
        assert len(built) == 1

    def test_matrix_is_read_only(self, case118):
        with pytest.raises(ValueError, match="read-only"):
            case118.ybus.matrix[0, 0] = 0.0

    def test_keeps_its_pi_models(self, case118):
        want = branch_admittances(case118)
        got = case118.ybus.branches
        for name in want.__dataclass_fields__:
            np.testing.assert_array_equal(getattr(got, name), getattr(want, name))

    def test_replaced_branches_build_their_own(self, case118):
        k = 37  # arbitrary in-service branch
        off = replace(case118.branches[k], status=False)
        tripped = replace(
            case118, branches=case118.branches[:k] + (off,) + case118.branches[k + 1:]
        )
        assert tripped.ybus is not case118.ybus
        y_trip = tripped.ybus.matrix
        assert np.max(np.abs(y_trip - dense_pi_assembly(tripped))) < 1e-12
        assert np.max(np.abs(y_trip - case118.ybus.matrix)) > 1.0
        assert not tripped.ybus.branches.in_service[k]

    def test_branch_removal_equals_stamp_subtraction(self, case118):
        y_full = build_ybus(case118).matrix
        k = 37  # arbitrary in-service branch
        br = case118.branches[k]
        reduced = NetworkCase(
            case118.system_mva_base,
            case118.buses,
            case118.branches[:k] + case118.branches[k + 1:],
            case118.generators,
        )
        y_red = build_ybus(reduced).matrix
        stamp = np.zeros_like(y_full)
        i = case118.bus_index(br.from_bus)
        j = case118.bus_index(br.to_bus)
        ys = 1.0 / complex(br.r, br.x)
        bc = 0.5j * br.b_shunt
        stamp[i, i] = (ys + bc) / (br.tap**2)
        stamp[i, j] = -ys / br.tap
        stamp[j, i] = -ys / br.tap
        stamp[j, j] = ys + bc
        assert np.max(np.abs((y_full - stamp) - y_red)) < 1e-12


class TestIeee118Case:
    def test_counts(self, case118):
        assert case118.n_bus == 118
        assert len(case118.branches) == 186
        assert len(case118.generators) == 54

    def test_single_slack(self, case118):
        slacks = [b for b in case118.buses if b.kind is BusKind.SLACK]
        assert len(slacks) == 1

    def test_total_load(self, case118):
        # Canonical case total load plus folded-in constant shunt conductance.
        p = sum(b.p_load for b in case118.buses)
        assert p == pytest.approx(4242.0, abs=20.0)


class TestSerialization:
    def test_round_trip_identity(self, case118, tmp_path):
        path = tmp_path / "case.json"
        save_case(case118, path)
        again = parse_case(path)
        assert again == case118

    def test_dict_round_trip_two_bus(self):
        case = make_two_bus()
        assert case_from_dict(case_to_dict(case)) == case

    def test_angles_stored_in_degrees(self):
        case = make_two_bus()
        case = case.with_bus(
            Bus(id=2, kind=BusKind.PQ, v_mag=1.0, v_ang_deg=30.0, base_kv=138.0)
        )
        doc = case_to_dict(case)
        bus2 = next(b for b in doc["buses"] if b["id"] == 2)
        assert bus2["v_ang_deg"] == 30.0
        # The power flow's starting point converts to radians where it is used.
        v = _initial_voltage(case_from_dict(doc))
        assert np.angle(v[1]) == pytest.approx(np.pi / 6, abs=1e-15)

    def test_missing_field_reported(self, tmp_path):
        doc = case_to_dict(make_two_bus())
        del doc["buses"][0]["kind"]
        path = tmp_path / "bad.json"
        path.write_text(json.dumps(doc))
        with pytest.raises(CaseError, match="kind"):
            parse_case(path)

    def test_missing_file(self, tmp_path):
        with pytest.raises(CaseError):
            parse_case(tmp_path / "nope.json")

    def test_overlong_integer_reported(self, tmp_path):
        # json reads no integer of more than 4300 digits.
        path = tmp_path / "big.json"
        path.write_text('{"system_mva_base": ' + "9" * 5000 + "}")
        with pytest.raises(CaseError, match="invalid JSON"):
            parse_case(path)


_TWO_BUS = case_to_dict(make_two_bus())


@pytest.mark.filterwarnings("error::RuntimeWarning")
@settings(max_examples=200, deadline=None)
@given(path=st.sampled_from(sorted(key_paths(_TWO_BUS), key=repr)), value=JSON_VALUES)
def test_any_replaced_case_value_raises_only_case_error(path, value):
    doc = json.loads(json.dumps(_TWO_BUS))
    replace_at(doc, path, value)
    try:
        assert isinstance(case_from_dict(doc), NetworkCase)
    except CaseError:
        pass


TWO_BUS = make_two_bus()
SLACK, LOAD = TWO_BUS.buses

#: (call, message) for each record and argument check; each raises CaseError.
CHECKS = [
    (lambda: Bus(id=0, kind=BusKind.PQ), "bus id must be positive, got 0"),
    (lambda: Bus(id=3, kind=BusKind.PQ, v_mag=0.0), "bus 3: v_mag must be > 0"),
    (lambda: Bus(id=3, kind=BusKind.PQ, base_kv=-1.0), "bus 3: base_kv must be > 0"),
    (lambda: Branch(1, 1, r=0.0, x=0.1), "branch 1-1: self-loop"),
    (lambda: Branch(1, 2, r=0.0, x=0.0), "branch 1-2: zero impedance in service"),
    (lambda: Branch(1, 2, r=0.0, x=0.1, tap=0.0), "branch 1-2: tap must be > 0"),
    (lambda: Generator(bus=1, p_set=0.0, q_min=10.0, q_max=-10.0),
     "generator at bus 1: q_min > q_max"),
    (lambda: Generator(bus=1, p_set=0.0, mva_base=0.0),
     "generator at bus 1: mva_base must be > 0"),
    (lambda: replace(TWO_BUS, system_mva_base=0.0), "system_mva_base must be > 0"),
    (lambda: replace(TWO_BUS, buses=(SLACK, replace(LOAD, id=1))), "duplicate bus ids"),
    (lambda: replace(TWO_BUS, buses=(replace(SLACK, kind=BusKind.PQ), LOAD)),
     "no slack bus"),
    (lambda: replace(TWO_BUS, buses=(SLACK, replace(LOAD, kind=BusKind.SLACK))),
     "multiple slack buses: [1, 2]"),
    (lambda: replace(TWO_BUS, branches=(Branch(1, 9, r=0.0, x=0.1),)),
     "branch 1-9: dangling bus reference"),
    (lambda: replace(TWO_BUS, generators=(Generator(bus=9, p_set=0.0),)),
     "generator references unknown bus 9"),
    (lambda: replace(TWO_BUS, branches=()),
     "network is islanded; unreachable buses include [2]"),
    (lambda: TWO_BUS.bus_index(9), "unknown bus id 9"),
]


@pytest.mark.parametrize("build, message", CHECKS, ids=[c[1] for c in CHECKS])
def test_record_and_argument_checks(build, message):
    with pytest.raises(CaseError) as exc:
        build()
    assert str(exc.value) == message
