import csv
import io
import math
import re
import tracemalloc
import warnings
from dataclasses import fields
from unittest import mock

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

from smrgrid import datacenter
from smrgrid.datacenter import (
    AmbientConditions,
    BIN_SECONDS,
    ChillerParams,
    DEFAULT_CHILLER,
    ItPowerParams,
    LoadProfile,
    MachineEvent,
    MachineEventTable,
    TaskRecord,
    TaskTable,
    TraceError,
    UtilizationTrace,
    bin_tasks,
    build_profile,
    calibrate_it_capacity,
    chiller_unit_power,
    compressor_power,
    estimate_capacity,
    it_power,
    normalize,
    read_machine_events_csv,
    read_profile_csv,
    read_tasks_csv,
    staging_and_thermal,
    subsystem_power,
    write_csv,
    write_profile_csv,
)

from conftest import event_table, task_table

PROFILE_HEAD = "timestamp_s,u,p_it_mw,q_cool_mwth,n_ch,p_thermal_mw\n"
TASKS = "start_s,end_s,cpu\n0,600,2.5\n0,{},1.0\n"

#: Each trace reader, with the fields and the table it reads.
READERS = {
    read_tasks_csv: (datacenter._TASK_FIELDS, TaskTable),
    read_machine_events_csv: (datacenter._EVENT_FIELDS, MachineEventTable),
    read_profile_csv: (datacenter._PROFILE_FIELDS, LoadProfile),
}


def brute_force_bins(tasks, t0, t1):
    """Per-second accumulation oracle; exact for integer-second boundaries.
    A partial last bin is averaged over the seconds it covers."""
    n_bins = math.ceil((t1 - t0) / BIN_SECONDS)
    out = np.zeros(n_bins)
    counts = np.zeros(n_bins)
    for s in range(int(t0), int(t1)):
        k = (s - int(t0)) // BIN_SECONDS
        for task in tasks:
            if task.start <= s < task.end:
                out[k] += task.cpu
        counts[k] += 1
    return out / counts


def brute_force_capacity(events, t0, t1):
    """Per-second running-total oracle; exact for integer event times."""
    n_bins = math.ceil((t1 - t0) / BIN_SECONDS)
    out = np.zeros(n_bins)
    counts = np.zeros(n_bins)
    events = sorted(events, key=lambda e: e.t)
    fleet = {}
    for s in range(int(t0), int(t1)):
        while events and events[0].t <= s:
            ev = events.pop(0)
            if ev.kind == "add" and ev.machine_id not in fleet:
                fleet[ev.machine_id] = ev.capacity
            elif ev.kind == "remove" and ev.machine_id in fleet:
                del fleet[ev.machine_id]
            elif ev.kind == "update" and ev.machine_id in fleet:
                fleet[ev.machine_id] = ev.capacity
        k = (s - int(t0)) // BIN_SECONDS
        out[k] += sum(fleet.values())
        counts[k] += 1
    return out / counts


class TestBinTasks:
    def test_exact_single_bin(self):
        out = bin_tasks(task_table([TaskRecord(300.0, 600.0, 2.0)]), 0.0, 900.0)
        assert out == pytest.approx([0.0, 2.0, 0.0])

    def test_overlap_proportionality(self):
        out = bin_tasks(task_table([TaskRecord(0.0, 450.0, 2.0)]), 0.0, 600.0)
        assert out == pytest.approx([2.0, 1.0])

    def test_empty_input(self):
        assert bin_tasks(task_table([]), 0.0, 900.0) == pytest.approx([0.0, 0.0, 0.0])

    def test_task_clipped_to_window(self):
        out = bin_tasks(task_table([TaskRecord(-600.0, 150.0, 1.0)]), 0.0, 300.0)
        assert out == pytest.approx([0.5])

    def test_invalid_window(self):
        with pytest.raises(TraceError):
            bin_tasks(task_table([]), 10.0, 10.0)

    def test_partial_last_bin_is_averaged_over_its_width(self):
        usage = bin_tasks(task_table([TaskRecord(0.0, 450.0, 2.0)]), 0.0, 450.0)
        capacity = estimate_capacity(
            event_table([MachineEvent(0.0, "add", "m1", 4.0)]), 0.0, 450.0
        )
        assert usage == pytest.approx([2.0, 2.0])
        assert normalize(usage, capacity).u == pytest.approx([0.5, 0.5])

    def test_table_and_records_agree(self):
        # The records' table, as the tests here build it, bins as the table
        # of the same columns does.
        rng = np.random.default_rng(3)
        start = rng.uniform(-300.0, 1500.0, 200)
        end = start + rng.uniform(1.0, 900.0, 200)
        cpu = rng.uniform(0.0, 4.0, 200)
        records = [TaskRecord(*row) for row in zip(start.tolist(), end.tolist(),
                                                    cpu.tolist())]
        table = TaskTable(start, end, cpu)
        assert np.array_equal(bin_tasks(table, 0.0, 1350.0),
                              bin_tasks(task_table(records), 0.0, 1350.0))

    def test_random_instances_match_per_second_oracle(self):
        rng = np.random.default_rng(42)
        for _ in range(20):
            t1 = 300.0 * int(rng.integers(2, 8))
            tasks = []
            for _ in range(int(rng.integers(1, 60))):
                a = int(rng.integers(0, int(t1) - 1))
                b = int(rng.integers(a + 1, int(t1) + 300))
                tasks.append(TaskRecord(float(a), float(b),
                                        float(rng.uniform(0.1, 5.0))))
            got = bin_tasks(task_table(tasks), 0.0, t1)
            want = brute_force_bins(tasks, 0.0, t1)
            assert np.max(np.abs(got - want)) < 1e-9

    def test_conservation(self):
        rng = np.random.default_rng(7)
        t1 = 7 * 300.0
        tasks = []
        for _ in range(100):
            a = float(rng.integers(0, int(t1) - 600))
            b = float(rng.integers(int(a) + 1, int(t1)))
            tasks.append(TaskRecord(a, b, float(rng.uniform(0.1, 3.0))))
        out = bin_tasks(task_table(tasks), 0.0, t1)
        total_binned = np.sum(out) * BIN_SECONDS
        total_direct = sum(t.cpu * (t.end - t.start) for t in tasks)
        assert total_binned == pytest.approx(total_direct, rel=1e-6)

    @pytest.mark.parametrize("block", [1, 7, 64])
    def test_blocks_sum_to_the_unblocked_bins(self, monkeypatch, block):
        # 500 tasks in blocks of 7 end in a partial block of 3; blocks of 64
        # hold the starts of tasks 448-499 and then, apart, their ends. A
        # block that drops or repeats a jump at its edge moves some bins.
        rng = np.random.default_rng(11)
        start = rng.uniform(-600.0, 3000.0, 500)
        table = TaskTable(start, start + rng.uniform(1.0, 1800.0, 500),
                          rng.uniform(0.1, 4.0, 500))
        want = datacenter._bin_mean(
            [(np.concatenate([table.start, table.end]),
              np.concatenate([table.cpu, -table.cpu]))], 0.0, 3300.0,
        )
        monkeypatch.setattr(datacenter, "BIN_BLOCK", block)
        got = bin_tasks(table, 0.0, 3300.0)
        assert np.max(np.abs(got - want)) <= 1e-12 * np.max(np.abs(want))

    def test_a_million_tasks_bin_in_small_memory(self):
        # The unblocked binning held about 92 MB of temporaries here.
        n, t1 = 1_000_000, 7 * 86400.0
        rng = np.random.default_rng(5)
        start = rng.uniform(-3600.0, t1, n)
        table = TaskTable(start, start + rng.exponential(1800.0, n) + 1.0,
                          rng.uniform(0.1, 1.5, n))
        tracemalloc.start()
        try:
            out = bin_tasks(table, 0.0, t1)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 16e6
        # Every task's cpu-seconds inside the window land in some bin.
        inside = np.clip(table.end, 0.0, t1) - np.clip(table.start, 0.0, t1)
        assert np.sum(out) * BIN_SECONDS == pytest.approx(np.dot(table.cpu, inside), rel=1e-9)


class TestEstimateCapacity:
    def test_constant_fleet(self):
        events = [MachineEvent(0.0, "add", "m1", 10.0)]
        out = estimate_capacity(event_table(events), 0.0, 900.0)
        assert out == pytest.approx([10.0, 10.0, 10.0])

    def test_removal_at_bin_midpoint(self):
        events = [
            MachineEvent(0.0, "add", "m1", 10.0),
            MachineEvent(150.0, "remove", "m1", 0.0),
        ]
        out = estimate_capacity(event_table(events), 0.0, 300.0)
        assert out == pytest.approx([5.0])

    def test_unknown_machine_warns_and_ignores(self):
        events = [MachineEvent(0.0, "remove", "ghost", 0.0)]
        with pytest.warns(UserWarning, match="unknown machine"):
            out = estimate_capacity(event_table(events), 0.0, 300.0)
        assert out == pytest.approx([0.0])

    def test_random_streams_match_per_second_oracle(self):
        rng = np.random.default_rng(11)
        for _ in range(20):
            t1 = 300.0 * int(rng.integers(2, 6))
            events = []
            alive = []
            mid = 0
            for _ in range(int(rng.integers(5, 40))):
                t = float(rng.integers(0, int(t1)))
                choice = rng.integers(0, 3)
                if choice == 0 or not alive:
                    events.append(
                        MachineEvent(t, "add", f"m{mid}",
                                     float(rng.uniform(1, 10)))
                    )
                    alive.append(f"m{mid}")
                    mid += 1
                elif choice == 1:
                    events.append(
                        MachineEvent(t, "remove",
                                     alive.pop(int(rng.integers(len(alive)))), 0.0)
                    )
                else:
                    events.append(
                        MachineEvent(t, "update",
                                     alive[int(rng.integers(len(alive)))],
                                     float(rng.uniform(1, 10)))
                    )
            with warnings.catch_warnings():
                warnings.simplefilter("ignore")
                got = estimate_capacity(event_table(events), 0.0, t1)
                want = brute_force_capacity(list(events), 0.0, t1)
            assert np.max(np.abs(got - want)) < 1e-9

    def test_table_and_events_agree_with_the_same_warnings(self):
        # The events' table, as the tests here build it, gives what the
        # table of the same columns gives, warnings included.
        rng = np.random.default_rng(17)
        for _ in range(30):
            n = int(rng.integers(0, 60))
            # Few machines and unsorted times with ties, so that duplicate
            # adds and removes or updates of absent machines occur.
            events = [
                MachineEvent(
                    float(rng.integers(-300, 1500)),
                    str(rng.choice(["add", "remove", "update"])),
                    f"m{int(rng.integers(0, 5))}",
                    float(rng.uniform(0.0, 10.0)),
                )
                for _ in range(n)
            ]
            table = MachineEventTable(
                [e.t for e in events], [e.kind for e in events],
                [e.machine_id for e in events], [e.capacity for e in events],
            )
            with warnings.catch_warnings(record=True) as from_list:
                warnings.simplefilter("always")
                want = estimate_capacity(event_table(events), 0.0, 1200.0)
            with warnings.catch_warnings(record=True) as from_table:
                warnings.simplefilter("always")
                got = estimate_capacity(table, 0.0, 1200.0)
            assert got.tobytes() == want.tobytes()
            assert [str(w.message) for w in from_table] == [
                str(w.message) for w in from_list
            ]

    @pytest.mark.parametrize("field", ["t", "capacity"])
    def test_nan_event_rejected(self, field):
        values = {"t": 0.0, "capacity": 4.0, field: math.nan}
        with pytest.raises(TraceError):
            MachineEvent(values["t"], "add", "m1", values["capacity"])
        with pytest.raises(TraceError):
            MachineEventTable([values["t"]], ["add"], ["m1"], [values["capacity"]])


class TestBinEdges:
    """Jumps exactly on a bin edge, one ulp to either side of one, and at t0
    and t1. The per-second oracles read the integer times; moving a jump by
    one ulp moves a bin mean by about |delta| * 1e-16."""

    T0, T1 = 600.0, 600.0 + 4 * BIN_SECONDS + 120.0  # a partial last bin
    POINTS = [T0, *(T0 + BIN_SECONDS * np.arange(1, 5)).tolist(), T1]

    @staticmethod
    def beside(rng):
        """One shift per point, -1, 0 or +1 ulp, so that tied jumps stay tied."""
        side = {p: int(rng.integers(-1, 2)) for p in TestBinEdges.POINTS}
        return lambda p: float(np.nextafter(p, side[p] * math.inf)) if side[p] else p

    def test_tasks_match_per_second_oracle(self):
        rng = np.random.default_rng(23)
        for _ in range(30):
            shift = self.beside(rng)
            tasks = []
            for _ in range(int(rng.integers(1, 12))):
                a, b = sorted(rng.choice(len(self.POINTS), 2, replace=False).tolist())
                tasks.append(TaskRecord(self.POINTS[a], self.POINTS[b],
                                        float(rng.uniform(0.1, 5.0))))
            table = TaskTable([shift(t.start) for t in tasks],
                              [shift(t.end) for t in tasks], [t.cpu for t in tasks])
            want = brute_force_bins(tasks, self.T0, self.T1)
            np.testing.assert_allclose(bin_tasks(table, self.T0, self.T1), want,
                                       rtol=1e-12, atol=1e-12 * want.max())

    def test_events_match_per_second_oracle(self):
        rng = np.random.default_rng(29)
        for _ in range(30):
            shift = self.beside(rng)
            events = [
                MachineEvent(
                    self.POINTS[int(rng.integers(len(self.POINTS)))],
                    str(rng.choice(["add", "remove", "update"])),
                    f"m{int(rng.integers(0, 3))}",
                    float(rng.uniform(1.0, 10.0)),
                )
                for _ in range(int(rng.integers(1, 15)))
            ]
            table = MachineEventTable(
                [shift(e.t) for e in events], [e.kind for e in events],
                [e.machine_id for e in events], [e.capacity for e in events],
            )
            with warnings.catch_warnings():
                warnings.simplefilter("ignore")
                got = estimate_capacity(table, self.T0, self.T1)
                want = brute_force_capacity(events, self.T0, self.T1)
            np.testing.assert_allclose(got, want, rtol=1e-12,
                                       atol=1e-12 * max(want.max(), 1.0))


class TestNormalize:
    def test_full_utilization(self):
        trace = normalize(np.array([10.0]), np.array([10.0]))
        assert trace.u == pytest.approx([1.0])

    def test_zero_usage(self):
        assert normalize(np.array([0.0]), np.array([10.0])).u == pytest.approx([0.0])

    def test_fraction(self):
        assert normalize(np.array([3.0]), np.array([10.0])).u == pytest.approx([0.3])

    def test_overload_clamped(self):
        assert normalize(np.array([15.0]), np.array([10.0])).u == pytest.approx([1.0])

    def test_zero_capacity_warns(self):
        with pytest.warns(UserWarning, match="zero-capacity"):
            trace = normalize(np.array([5.0, 1.0]), np.array([0.0, 2.0]))
        assert trace.u == pytest.approx([0.0, 0.5])

    def test_length_mismatch(self):
        with pytest.raises(TraceError):
            normalize(np.zeros(3), np.zeros(2))


class TestItPower:
    def test_idle_is_half_of_peak(self):
        assert it_power(0.0, ItPowerParams(p_max=60.0)) == pytest.approx(30.0)

    def test_full_utilization_is_peak(self):
        assert it_power(1.0, ItPowerParams(p_max=60.0)) == pytest.approx(60.0)

    def test_affine_midpoint(self):
        assert it_power(0.5, ItPowerParams(p_max=60.0)) == pytest.approx(45.0)

    def test_out_of_range_rejected(self):
        with pytest.raises(ValueError):
            it_power(1.5, ItPowerParams(p_max=60.0))

    @given(st.floats(0, 1), st.floats(0, 1))
    @settings(max_examples=100)
    def test_strictly_increasing(self, u1, u2):
        params = ItPowerParams(p_max=60.0, idle_fraction=0.5)
        lo, hi = sorted([u1, u2])
        if hi - lo > 1e-12:
            assert it_power(hi, params) > it_power(lo, params)


class TestChillerModel:
    COND = AmbientConditions(t_amb=30.0, phi_amb=0.5, t_rw=15.0)

    def test_subsystem_constant_term(self):
        assert subsystem_power(0.0, (1.0, 2.0, 3.0, 7.5)) == pytest.approx(7.5)

    def test_subsystem_linear(self):
        assert subsystem_power(5.0, (1.0, 0.0, 0.0, 0.0)) == pytest.approx(5.0)

    def test_subsystem_cubic(self):
        assert subsystem_power(2.0, (0.0, 0.0, 1.0, 2.0)) == pytest.approx(10.0)

    def test_compressor_zero_coeffs(self):
        assert compressor_power(self.COND, (10, 20, 30), (0,) * 6) == 0.0

    def test_compressor_constant_only(self):
        assert compressor_power(
            self.COND, (10, 20, 30), (100, 0, 0, 0, 0, 0)
        ) == pytest.approx(100.0)

    def test_compressor_interaction_term(self):
        cond = AmbientConditions(t_amb=35.0, phi_amb=0.0, t_rw=15.0)
        p = compressor_power(cond, (0.0, 0.0, 10.0), (0, 0, 0, 0, 0, 1.0))
        assert p == pytest.approx(200.0)

    def test_unit_power_is_sum_of_terms(self):
        rng = np.random.default_rng(5)
        for _ in range(20):
            params = ChillerParams(
                alpha=tuple(rng.uniform(0, 2, 4)),
                beta=tuple(rng.uniform(0, 2, 4)),
                gamma=tuple(rng.uniform(0, 2, 4)),
                compressor_coeffs=tuple(rng.uniform(0, 5, 6)),
                q_rated=10.0, n_total=4,
                flow_min=(5.0, 5.0, 5.0), flow_rated=(50.0, 50.0, 50.0),
            )
            flows = tuple(rng.uniform(5, 50, 3))
            want = (
                subsystem_power(flows[0], params.alpha)
                + subsystem_power(flows[1], params.beta)
                + subsystem_power(flows[2], params.gamma)
                + compressor_power(self.COND, flows, params.compressor_coeffs)
            )
            assert chiller_unit_power(self.COND, flows, params) == pytest.approx(want)


class TestStaging:
    COND = AmbientConditions()

    def test_zero_cooling(self):
        assert staging_and_thermal(0.0, self.COND, DEFAULT_CHILLER) == (0, 0.0)

    def test_exact_rated_boundary(self):
        n_ch, p = staging_and_thermal(
            DEFAULT_CHILLER.q_rated, self.COND, DEFAULT_CHILLER
        )
        assert n_ch == 1
        # one unit at full rated flows
        want = chiller_unit_power(
            self.COND, DEFAULT_CHILLER.flow_rated, DEFAULT_CHILLER
        ) / 1000.0
        assert p == pytest.approx(want)

    def test_ceiling_staging(self):
        n_ch, _ = staging_and_thermal(
            2.5 * DEFAULT_CHILLER.q_rated, self.COND, DEFAULT_CHILLER
        )
        assert n_ch == 3

    def test_over_capacity_rejected(self):
        q = DEFAULT_CHILLER.n_total * DEFAULT_CHILLER.q_rated + 1.0
        with pytest.raises(ValueError, match="cooling capacity exceeded"):
            staging_and_thermal(q, self.COND, DEFAULT_CHILLER)

    def test_deterministic(self):
        a = staging_and_thermal(37.3, self.COND, DEFAULT_CHILLER)
        b = staging_and_thermal(37.3, self.COND, DEFAULT_CHILLER)
        assert a == b

    def test_array_matches_scalar_calls(self):
        rng = np.random.default_rng(23)
        q_rated, n_total = DEFAULT_CHILLER.q_rated, DEFAULT_CHILLER.n_total
        q = np.concatenate([
            [0.0, 1e-13, n_total * q_rated],
            q_rated * np.arange(1, n_total + 1),
            rng.uniform(0.0, n_total * q_rated, 500),
        ])
        t_amb, phi, t_rw = (rng.uniform(lo, hi, q.size)
                            for lo, hi in ((-10, 45), (0, 1), (5, 20)))
        for cond in (self.COND, AmbientConditions(t_amb, phi, t_rw)):
            n_ch, p_th = staging_and_thermal(q, cond, DEFAULT_CHILLER)
            for k in range(q.size):
                at_k = cond if cond is self.COND else AmbientConditions(
                    float(t_amb[k]), float(phi[k]), float(t_rw[k])
                )
                n_k, p_k = staging_and_thermal(float(q[k]), at_k, DEFAULT_CHILLER)
                assert type(n_k) is int and type(p_k) is float
                assert n_ch[k] == n_k
                assert abs(p_th[k] - p_k) <= 1e-12

    def test_array_with_one_bin_over_capacity_rejected(self):
        q = np.full(10, 5.0)
        q[7] = DEFAULT_CHILLER.n_total * DEFAULT_CHILLER.q_rated + 1.0
        with pytest.raises(ValueError, match="cooling capacity exceeded"):
            staging_and_thermal(q, self.COND, DEFAULT_CHILLER)


class TestBuildProfile:
    def test_constant_full_utilization_week(self):
        trace = UtilizationTrace(u=np.ones(2016))
        it = calibrate_it_capacity(60.0)
        profile = build_profile(trace, it)
        assert len(profile) == 2016
        assert np.max(profile.p_total) == pytest.approx(60.0, abs=1e-4)
        assert np.allclose(profile.p_it, profile.p_it[0])

    def test_idle_week(self):
        trace = UtilizationTrace(u=np.zeros(12))
        it = ItPowerParams(p_max=60.0)
        profile = build_profile(trace, it)
        assert np.allclose(profile.p_it, 30.0)
        assert np.allclose(profile.q_cool, 30.0)

    def test_square_wave(self):
        u = np.tile([0.0, 1.0], 6)
        profile = build_profile(UtilizationTrace(u=u), ItPowerParams(p_max=60.0))
        assert np.allclose(profile.p_it, np.tile([30.0, 60.0], 6))

    def test_bounds_invariant(self):
        rng = np.random.default_rng(19)
        u = rng.uniform(0, 1, 2016)
        it = ItPowerParams(p_max=60.0)
        profile = build_profile(UtilizationTrace(u=u), it)
        assert np.all(profile.p_it >= it.p_idle - 1e-12)
        assert np.all(profile.p_it <= it.p_max + 1e-12)
        assert np.all(profile.n_ch <= DEFAULT_CHILLER.n_total)
        assert np.all(profile.p_thermal >= 0)

    def test_per_bin_ambient_matches_single_ambient_calls(self):
        u = np.array([0.0, 0.3, 1.0])
        it = ItPowerParams(p_max=60.0)
        t_amb = np.array([10.0, 30.0, 40.0])
        profile = build_profile(
            UtilizationTrace(u=u), it, ambient=AmbientConditions(t_amb=t_amb)
        )
        for k, t in enumerate(t_amb.tolist()):
            one = build_profile(
                UtilizationTrace(u=u[k:k + 1]), it, ambient=AmbientConditions(t_amb=t)
            )
            assert profile.n_ch[k] == one.n_ch[0]
            assert abs(profile.p_thermal[k] - one.p_thermal[0]) <= 1e-12
        with pytest.raises(ValueError, match="broadcast"):
            build_profile(
                UtilizationTrace(u=u), it, ambient=AmbientConditions(t_amb=t_amb[:2])
            )

    def test_calibration_hits_target(self):
        it = calibrate_it_capacity(60.0)
        _, p_th = staging_and_thermal(it.p_max, AmbientConditions(), DEFAULT_CHILLER)
        assert it.p_max + p_th == pytest.approx(60.0, abs=1e-4)

    @pytest.mark.parametrize("target, p_max", [(90.0, 71.10), (100.0, 79.99)])
    def test_calibration_above_the_cooling_capacity(self, target, p_max):
        # The 80 MW-th bank cools 80 MW of IT, which draws 100.01 MW in
        # total, so these targets need less IT heat than the target itself.
        it = calibrate_it_capacity(target)
        _, p_th = staging_and_thermal(it.p_max, AmbientConditions(), DEFAULT_CHILLER)
        assert it.p_max == pytest.approx(p_max, abs=5e-3)
        assert abs(it.p_max + p_th - target) <= 1e-6


class TestCsvBoundary:
    def test_task_round_trip(self, tmp_path):
        path = tmp_path / "tasks.csv"
        path.write_text("start_s,end_s,cpu\n0,600,2.5\n300,900,1.0\n")
        tasks = read_tasks_csv(path)
        assert len(tasks) == 2
        assert tasks.start.tolist() == [0.0, 300.0]
        assert tasks.end.tolist() == [600.0, 900.0]
        assert tasks.cpu.tolist() == [2.5, 1.0]

    def test_task_columns_found_by_name(self, tmp_path):
        path = tmp_path / "tasks.csv"
        path.write_text("cpu,job,end_s,start_s\n2.5,a,600,0\n1.0,b,900,300\n")
        tasks = read_tasks_csv(path)
        assert tasks.start.tolist() == [0.0, 300.0]
        assert tasks.end.tolist() == [600.0, 900.0]
        assert tasks.cpu.tolist() == [2.5, 1.0]

    def test_header_only_task_file(self, tmp_path):
        path = tmp_path / "tasks.csv"
        path.write_text("start_s,end_s,cpu\n")
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            tasks = read_tasks_csv(path)
            usage = bin_tasks(tasks, 0.0, 900.0)
        assert len(tasks) == 0 and not tasks
        assert usage.tolist() == [0.0, 0.0, 0.0]

    def test_task_header_missing_column(self, tmp_path):
        path = tmp_path / "tasks.csv"
        path.write_text("start_s,cpu\n0,2.5\n")
        with pytest.raises(TraceError, match="expected header"):
            read_tasks_csv(path)

    @pytest.mark.parametrize(
        "rows, line, reason",
        [
            ("0,600,2.5\n300,900\n", 3, "fields"),
            ("0,600,2.5\n900,900,1.0\n", 3, "<= start"),
            ("0,600,-1.0\n", 2, "cpu must be >= 0"),
            ("0,nan,1.0\n", 2, "<= start"),
            ("0,600,2.5\n\n5,1,1.0\n", 4, "<= start"),
        ],
        ids=["short_row", "end_le_start", "negative_cpu", "nan_end", "after_blank"],
    )
    def test_invalid_task_row_names_line(self, tmp_path, rows, line, reason):
        path = tmp_path / "tasks.csv"
        path.write_text("start_s,end_s,cpu\n" + rows)
        with pytest.raises(TraceError, match=f":{line}: .*{reason}"):
            read_tasks_csv(path)

    @pytest.mark.parametrize("bad, blank, line, builds", [
        # Blocks of 8 rows: 12 pass, the 13th (rows 97-100) fails, then its
        # rows are checked one at a time up to row 100.
        ((100,), False, 101, 13 + 4),
        # Rows 20 and 60 are bad: the third block holds the first of them.
        ((20, 60), False, 21, 3 + 4),
        # A blank line after each row: row k sits on line 2k.
        ((50,), True, 100, 7 + 2),
    ], ids=["bad_last_row", "two_bad_rows", "blank_lines"])
    def test_bad_line_checks_rows_a_block_at_a_time(
        self, tmp_path, monkeypatch, bad, blank, line, builds
    ):
        monkeypatch.setattr(datacenter, "_BAD_LINE_BLOCK", 8)
        rows = [f"{k},{k + 1 if k not in bad else k - 1},1.0" for k in range(1, 101)]
        path = tmp_path / "tasks.csv"
        path.write_text("start_s,end_s,cpu\n" + ("\n\n" if blank else "\n").join(rows))
        table = mock.Mock(wraps=TaskTable)
        with pytest.raises(TraceError) as exc:
            datacenter._read_table(path, datacenter._TASK_FIELDS, table)
        assert str(exc.value) == f"{path}:{line}: task end {bad[0] - 1}.0 <= start {bad[0]}.0"
        # One table from the bulk path, one from the row path, then _bad_line's.
        assert table.call_count == 2 + builds

    def test_bytes_that_are_not_utf8_name_file_and_line(self, tmp_path):
        path = tmp_path / "t.csv"
        path.write_bytes(b"start_s,end_s,cpu\n0,600,2.5\n0,\xff,1.0\n")
        for read in (read_tasks_csv, read_machine_events_csv, read_profile_csv):
            with pytest.raises(TraceError) as exc:
                read(path)
            assert str(exc.value) == f"{path}:3: not UTF-8 text (invalid start byte)"

    @settings(max_examples=300, deadline=None,
              suppress_health_check=[HealthCheck.function_scoped_fixture])
    @given(
        header=st.sampled_from([
            "", "start_s,end_s,cpu\n", "t_s,kind,machine_id,capacity\n",
            ",".join(datacenter._PROFILE_HEADER) + "\r\n",
        ]),
        body=st.binary(max_size=80),
        read=st.sampled_from([read_tasks_csv, read_machine_events_csv, read_profile_csv]),
    )
    def test_any_bytes_give_a_table_or_a_trace_error(self, tmp_path, header, body, read):
        path = tmp_path / "trace.csv"
        path.write_bytes(header.encode() + body)
        try:
            read(path)
        except TraceError as exc:
            assert str(exc).startswith(str(path))

    def test_task_error_names_line(self, tmp_path):
        path = tmp_path / "tasks.csv"
        path.write_text("start_s,end_s,cpu\n0,600,2.5\nbad,900,1.0\n")
        with pytest.raises(TraceError, match=":3:"):
            read_tasks_csv(path)

    @pytest.mark.parametrize("read, text, value, kind", [
        (read_tasks_csv, TASKS, "1_000", "float"),
        (read_tasks_csv, TASKS, "\u0661\u0660", "float"),
        (read_profile_csv, PROFILE_HEAD + "0,.5,45,45,5,1\n300,.5,{},45,5,1\n", "4_5",
         "float"),
        (read_profile_csv, PROFILE_HEAD + "0,.5,45,45,5,1\n300,.5,45,45,{},1\n", "\u0665",
         "int"),
        (read_profile_csv, PROFILE_HEAD + "0,.5,45,45,5,1\n300,.5,45,45,{},1\n",
         str(2**63), "int64"),
    ], ids=["separator", "arabic", "profile_separator", "profile_arabic_n_ch",
            "profile_n_ch_past_int64"])
    def test_number_that_only_float_reads_names_line(
        self, tmp_path, read, text, value, kind
    ):
        # Python's float and int read these as numbers, np.loadtxt does not;
        # the row check must refuse what the bulk parse refuses to find the
        # line.
        path = tmp_path / "t.csv"
        path.write_text(text.format(value), encoding="utf-8")
        with pytest.raises(TraceError) as exc:
            read(path)
        assert str(exc.value) == f"{path}:3: could not convert string to {kind}: {value!r}"

    @pytest.mark.parametrize("separator", ["", "60,remove,m1\n"], ids=["bulk", "rows"])
    @pytest.mark.parametrize("row, value", [
        ("1_000,add,m2,1", "1_000"),
        ("\u0661\u0660,add,m2,1", "\u0661\u0660"),
        ("0,add,m2,2_0", "2_0"),
        ("0,add,m2,\u0661\u0660", "\u0661\u0660"),
    ], ids=["time_separator", "time_arabic", "capacity_separator", "capacity_arabic"])
    def test_event_number_that_only_float_reads_names_line(
        self, tmp_path, row, value, separator
    ):
        # Event times and capacities are read in np.loadtxt's grammar on
        # both paths; a short row sends the file down the row path.
        path = tmp_path / "events.csv"
        path.write_text(f"t_s,kind,machine_id,capacity\n0,add,m1,4\n{row}\n{separator}",
                        encoding="utf-8")
        with pytest.raises(TraceError) as exc:
            read_machine_events_csv(path)
        assert str(exc.value) == f"{path}:3: could not convert string to float: {value!r}"

    @pytest.mark.parametrize("read, text", [
        (read_tasks_csv, "start_s,end_s,cpu\n0,600,2.5\n0,{},1.0\n"),
        (read_machine_events_csv, "t_s,kind,machine_id,capacity\n0,add,m1,4\n{},add,m2,1\n"),
        (read_profile_csv, "timestamp_s,u,p_it_mw,q_cool_mwth,n_ch,p_thermal_mw\n"
                           "0,0.5,45,45,5,1\n300,{},45,45,5,1\n"),
    ], ids=["tasks", "machine_events", "profile"])
    def test_field_over_the_csv_size_limit_names_line(self, tmp_path, read, text):
        path = tmp_path / "trace.csv"
        path.write_text(text.format("x" * 200_000))
        with pytest.raises(TraceError) as exc:
            read(path)
        assert str(exc.value) == f"{path}:3: field larger than field limit (131072)"

    def test_header_over_the_csv_size_limit_names_line(self, tmp_path):
        path = tmp_path / "trace.csv"
        for read in (read_tasks_csv, read_machine_events_csv, read_profile_csv):
            path.write_text("x" * 200_000 + "\n")
            with pytest.raises(TraceError) as exc:
                read(path)
            assert str(exc.value) == f"{path}:1: field larger than field limit (131072)"

    def test_file_error_kept_when_no_row_check_fails(self, tmp_path, monkeypatch):
        # No input fails as a whole file but in none of its rows; a row
        # path that passes every one-row table stands in for one.
        row_table = datacenter._row_table
        monkeypatch.setattr(
            datacenter, "_row_table",
            lambda rows, *args: None if isinstance(rows, list) else row_table(rows, *args),
        )
        path = tmp_path / "t.csv"
        path.write_text("start_s,end_s,cpu\n0,600,2.5\n0,x,1.0\n")
        with pytest.raises(TraceError, match=rf"^{re.escape(str(path))}: could not convert"):
            read_tasks_csv(path)

    def test_machine_events(self, tmp_path):
        path = tmp_path / "events.csv"
        path.write_text("t_s,kind,machine_id,capacity\n0,add,m1,4\n60,remove,m1,0\n")
        events = read_machine_events_csv(path)
        assert len(events) == 2
        assert events.t.tolist() == [0.0, 60.0]
        assert events.kind.tolist() == ["add", "remove"]
        assert events.machine_id.tolist() == ["m1", "m1"]
        assert events.capacity.tolist() == [4.0, 0.0]

    def test_machine_event_columns_found_by_name(self, tmp_path):
        path = tmp_path / "events.csv"
        path.write_text(
            "capacity,zone,machine_id,kind,t_s\n"
            "4,a,m1, ADD ,0\n"
            ",b,m1,remove,60\n"
            "2.5,c,m2,update,30\n"
        )
        events = read_machine_events_csv(path)
        assert events.t.tolist() == [0.0, 60.0, 30.0]
        assert events.kind.tolist() == ["add", "remove", "update"]
        assert events.machine_id.tolist() == ["m1", "m1", "m2"]
        assert events.capacity.tolist() == [4.0, 0.0, 2.5]

    def test_machine_event_missing_trailing_capacity_reads_as_zero(self, tmp_path):
        path = tmp_path / "events.csv"
        path.write_text("t_s,kind,machine_id,capacity\n0,add,m1,4\n60,remove,m1\n")
        events = read_machine_events_csv(path)
        assert events.kind.tolist() == ["add", "remove"]
        assert events.capacity.tolist() == [4.0, 0.0]

    def test_header_only_machine_event_file(self, tmp_path):
        path = tmp_path / "events.csv"
        path.write_text("t_s,kind,machine_id,capacity\n")
        events = read_machine_events_csv(path)
        assert len(events) == 0
        assert estimate_capacity(events, 0.0, 600.0).tolist() == [0.0, 0.0]

    def test_machine_event_header_missing_column(self, tmp_path):
        path = tmp_path / "events.csv"
        path.write_text("t_s,kind,capacity\n0,add,4\n")
        with pytest.raises(TraceError, match="expected header"):
            read_machine_events_csv(path)

    def test_machine_event_bad_kind(self, tmp_path):
        path = tmp_path / "events.csv"
        path.write_text("t_s,kind,machine_id,capacity\n0,explode,m1,4\n")
        with pytest.raises(TraceError, match=":2:"):
            read_machine_events_csv(path)

    @pytest.mark.parametrize(
        "rows, line, reason",
        [
            ("0,add,m1,4\n60,add,m2,-1\n", 3, "capacity must be >= 0"),
            ("nan,add,m1,4\n", 2, "not a number"),
            ("0,add,m1,nan\n", 2, "capacity must be >= 0"),
            ("0,add,m1,4\nx,add,m2,1\n", 3, "could not convert"),
            ("0,add,m1,4\n60\n", 3, "unknown machine event kind ''"),
            ("0,add,m1,4\n\n5,add,m2,-1\n", 4, "capacity must be >= 0"),
        ],
        ids=["negative_capacity", "nan_time", "nan_capacity",
             "bad_time", "short_row", "after_blank"],
    )
    def test_invalid_machine_event_row_names_line(self, tmp_path, rows, line, reason):
        path = tmp_path / "events.csv"
        path.write_text("t_s,kind,machine_id,capacity\n" + rows)
        with pytest.raises(TraceError, match=f":{line}: .*{reason}"):
            read_machine_events_csv(path)

    @settings(max_examples=900, deadline=None,
              suppress_health_check=[HealthCheck.function_scoped_fixture])
    @given(data=st.data())
    def test_trace_files_read_as_the_row_path_reads_them(self, tmp_path, data):
        # The bulk np.loadtxt pass must give what csv.reader rows through
        # _row_table give, field by field, or the same TraceError; and it
        # must read every valid file whose rows are all full-width and whose
        # text fields hold no line end.
        read = data.draw(st.sampled_from(list(READERS)))
        fields_of, table = READERS[read]
        names = data.draw(st.permutations(
            [*fields_of,
             *data.draw(st.lists(st.sampled_from(["zone", '"n,o"', '"n\no"']),
                                 max_size=2))]
        ))
        # Each column has common fields, which its table mostly accepts, and
        # rare ones, which it mostly refuses; two rows in three take common
        # fields only, so that many files are valid and reach the bulk path
        # whole.
        common = {
            "kind": ["add", "ADD", " Remove ", "remove", "update", '"Update "',
                     '"add\r\n"'],
            "machine_id": ["m1", "m2", " m1 ", '"m,1"', '"m\n1"', '"m\r1"',
                           '"m\r\n1"', '"m""1"', ""],
            "capacity": ["4", " 2.5 ", "", "0", '"3"', "1"],
            "end_s": ["600", " 9e2 ", '"700.5"', "inf"],
            "n_ch": ["0", "5", " 3 ", '"7"', "+2", "-0"],
        }
        rare = {
            "kind": ["explode"],
            "capacity": ["-1", "1_000", "\u0661\u0660", "inf"],
            "end_s": ["0", "nan", "1_000"],
            "n_ch": ["5.0", "\u0665", "1_0", "x", "", str(2**63), str(-(2**63))],
        }
        number = ["0", "60", " 30 ", "1.5", "-2e2", '"45"']
        odd_number = ["1_000", "\u0661\u0660", "x", "", "nan", "-inf", "1e400", "-1"]
        other = ["z", '"a,b"', '"a\r\nb"', ""]
        lines = [",".join(names)]
        for _ in range(data.draw(st.integers(0, 4))):
            odd = data.draw(st.sampled_from([False, False, True]))
            row = [data.draw(st.sampled_from(
                common.get(n, number if n in fields_of else other)
                + (rare.get(n, odd_number if n in fields_of else []) if odd else [])
            )) for n in names]
            cut = data.draw(st.sampled_from(
                [len(names)] * 16 + [len(names) + 1] * 2 + list(range(1, len(names)))
            ))
            lines.append(",".join((row + ["w"])[:cut]))
            lines += data.draw(st.lists(st.sampled_from(["", "", "", "", "", " ", "\t"]),
                                        max_size=1))
        end = data.draw(st.sampled_from(["\n", "\r\n", "\r"]))
        path = tmp_path / "trace.csv"
        path.write_bytes((end.join(lines) + data.draw(st.sampled_from([end, ""])))
                         .encode())

        with open(path, newline="", encoding="utf-8") as fh:
            reader = csv.reader(fh)
            header = next(reader)
            cols = [header.index(n) for n in fields_of]
            numbered = [(reader.line_num, row) for row in reader if row]
        rows = [row for _, row in numbered]
        row_table = datacenter._row_table
        try:
            want = row_table(rows, cols, fields_of, table)
        except (ValueError, TraceError) as exc:
            # The first row whose one-row table fails names the line.
            want = TraceError(f"{path}: {exc}")
            for line, row in numbered:
                try:
                    row_table([row], cols, fields_of, table)
                except (ValueError, TraceError) as row_exc:
                    want = TraceError(f"{path}:{line}: {row_exc}")
                    break
        with mock.patch.object(datacenter, "_row_table", wraps=row_table) as rows_read:
            try:
                got = read(path)
            except TraceError as exc:
                got = exc
        if isinstance(want, TraceError):
            assert isinstance(got, TraceError) and str(got) == str(want)
            return
        assert isinstance(got, table)
        for field in fields(table):
            assert getattr(got, field.name).dtype == getattr(want, field.name).dtype
            assert getattr(got, field.name).tolist() == getattr(want, field.name).tolist()
        text_cols = [c for c, parse in zip(cols, fields_of.values())
                     if parse not in datacenter._NUMBER_DTYPES]
        bulk_reads = (
            all(len(row) > max(cols) for row in rows)
            and not any("\r" in row[c] or "\n" in row[c] for row in rows for c in text_cols)
        )
        assert rows_read.called != bulk_reads

    def test_byte_order_mark_is_dropped(self, tmp_path):
        profile = build_profile(UtilizationTrace(u=np.array([0.0, 0.5])),
                                ItPowerParams(p_max=60.0))
        write_profile_csv(profile, tmp_path / "profile.csv")
        texts = {
            read_tasks_csv: "start_s,end_s,cpu\n0,600,2.5\n",
            read_machine_events_csv: "t_s,kind,machine_id,capacity\n0,add,m1,4\n",
            read_profile_csv: (tmp_path / "profile.csv").read_text(),
        }
        for read, text in texts.items():
            plain, marked = tmp_path / "plain.csv", tmp_path / "marked.csv"
            plain.write_bytes(text.encode())
            marked.write_bytes(b"\xef\xbb\xbf" + text.encode())
            want, got = read(plain), read(marked)
            for field in vars(want):
                assert np.array_equal(getattr(got, field), getattr(want, field))

    @pytest.mark.parametrize("suffix", datacenter._COMPRESSED)
    def test_plain_file_with_a_compression_suffix(self, tmp_path, suffix):
        # np.loadtxt would decompress a path by its suffix.
        tasks = tmp_path / f"tasks.csv{suffix}"
        tasks.write_text("start_s,end_s,cpu\n0,600,2.5\n")
        assert read_tasks_csv(tasks).end.tolist() == [600.0]
        events = tmp_path / f"events.csv{suffix}"
        events.write_text("t_s,kind,machine_id,capacity\n0,add,m1,4\n")
        assert read_machine_events_csv(events).machine_id.tolist() == ["m1"]

    def test_path_that_reads_as_a_url_stays_local(self, tmp_path, monkeypatch):
        # np.loadtxt fetches a path with a scheme and a host; the local file
        # http:/host/tasks.csv must be read instead, with no fetch.
        def no_fetch(*args, **kwargs):
            raise AssertionError("tried to fetch a URL")

        monkeypatch.setattr("urllib.request.urlopen", no_fetch)
        monkeypatch.chdir(tmp_path)
        (tmp_path / "http:" / "host").mkdir(parents=True)
        (tmp_path / "http:" / "host" / "tasks.csv").write_text("start_s,end_s,cpu\n0,600,2.5\n")
        (tmp_path / "http:" / "host" / "events.csv").write_text(
            "t_s,kind,machine_id,capacity\n0,add,m1,4\n"
        )
        assert read_tasks_csv("http://host/tasks.csv").end.tolist() == [600.0]
        assert read_machine_events_csv("http://host/events.csv").t.tolist() == [0.0]

    def test_profile_round_trip(self, tmp_path):
        trace = UtilizationTrace(u=np.array([0.0, 0.5, 1.0]))
        profile = build_profile(trace, ItPowerParams(p_max=60.0))
        path = tmp_path / "profile.csv"
        write_profile_csv(profile, path)
        header = path.read_text().splitlines()[0]
        assert header == (
            "timestamp_s,u,p_it_mw,q_cool_mwth,n_ch,p_thermal_mw,p_total_mw"
        )
        again = read_profile_csv(path)
        assert np.allclose(again.u, profile.u)
        assert np.allclose(again.p_total, profile.p_total)
        assert np.array_equal(again.n_ch, profile.n_ch)

    @settings(max_examples=100, deadline=None,
              suppress_health_check=[HealthCheck.function_scoped_fixture])
    @given(data=st.data(), n=st.integers(0, 6))
    def test_profile_reads_back_to_the_writers_decimals(self, tmp_path, data, n):
        def series(**bounds):
            return np.array(data.draw(st.lists(
                st.floats(allow_nan=False, **bounds), min_size=n, max_size=n
            )))

        mw = {"min_value": -1e6, "max_value": 1e6}
        profile = LoadProfile(
            timestamps=series(min_value=-1e9, max_value=1e9),
            u=series(min_value=0, max_value=1), p_it=series(**mw), q_cool=series(**mw),
            n_ch=np.array(data.draw(
                st.lists(st.integers(0, 10**6), min_size=n, max_size=n)), dtype=int),
            p_thermal=series(**mw),
        )
        path = tmp_path / "profile.csv"
        write_profile_csv(profile, path)
        again = read_profile_csv(path)
        # Timestamps are written to the second, the other floats to 6
        # decimals; the bound adds an ulp of the largest value.
        assert np.all(np.abs(again.timestamps - profile.timestamps) <= 0.5 + 1.2e-7)
        for name in ("u", "p_it", "q_cool", "p_thermal"):
            assert np.all(np.abs(getattr(again, name) - getattr(profile, name)) <= 5.002e-7)
        assert again.n_ch.dtype == np.int64
        assert again.n_ch.tolist() == profile.n_ch.tolist()

    @pytest.mark.parametrize("value", ["nan", "inf", "-inf"])
    def test_profile_non_finite_value_names_line(self, tmp_path, value):
        path = tmp_path / "profile.csv"
        path.write_text(PROFILE_HEAD + f"0,0.5,45,45,5,1\n300,0.5,{value},45,5,1\n")
        with pytest.raises(TraceError) as exc:
            read_profile_csv(path)
        assert str(exc.value) == f"{path}:3: non-finite value in 'p_it'"

    def test_profile_csv_matches_row_by_row_writer(self, tmp_path):
        rng = np.random.default_rng(29)
        n = 50
        p_it = rng.uniform(30.0, 60.0, n)
        p_it[:3] = [-0.0, 1e-9, 123456.7890125]
        profile = LoadProfile(
            timestamps=600.0 + BIN_SECONDS * np.arange(n, dtype=float),
            u=rng.uniform(0.0, 1.0, n), p_it=p_it, q_cool=p_it.copy(),
            n_ch=rng.integers(0, 9, n), p_thermal=rng.uniform(0.0, 5.0, n),
        )
        for prof in (profile, build_profile(UtilizationTrace(u=np.empty(0)),
                                            ItPowerParams(p_max=60.0))):
            path = tmp_path / "profile.csv"
            write_profile_csv(prof, path)
            assert path.read_bytes() == _csv_writer_profile(prof)

    def test_write_csv_rows_end_in_crlf(self, tmp_path):
        path = tmp_path / "table.csv"
        write_csv(path, ("t", "n", "x"), "%.0f,%d,%.3f",
                  (np.array([0.0, 300.0]), [1, 2], np.array([math.nan, -0.5])))
        assert path.read_bytes() == b"t,n,x\r\n0,1,nan\r\n300,2,-0.500\r\n"
        # No rows leave the header alone.
        write_csv(path, ("t", "x"), "%.0f,%.3f", (np.empty(0), []))
        assert path.read_bytes() == b"t,x\r\n"

    def test_profile_short_row_names_line(self, tmp_path):
        path = tmp_path / "profile.csv"
        path.write_text(
            "timestamp_s,u,p_it_mw,q_cool_mwth,n_ch,p_thermal_mw\n0,0.5,45,45,5,1\n300,0.5\n"
        )
        with pytest.raises(TraceError, match=":3:"):
            read_profile_csv(path)

    def test_profile_bad_row_after_blank_names_line(self, tmp_path):
        path = tmp_path / "profile.csv"
        path.write_text(
            "timestamp_s,u,p_it_mw,q_cool_mwth,n_ch,p_thermal_mw\n"
            "0,0.5,45,45,5,1\n\n300,0.5\n"
        )
        with pytest.raises(TraceError, match=":4:"):
            read_profile_csv(path)


def _csv_writer_profile(profile) -> bytes:
    """The profile CSV written row by row with csv.writer: the reference for
    write_profile_csv's columnar output."""
    buf = io.StringIO(newline="")
    w = csv.writer(buf)
    w.writerow(["timestamp_s", "u", "p_it_mw", "q_cool_mwth", "n_ch",
                "p_thermal_mw", "p_total_mw"])
    for k in range(len(profile)):
        w.writerow([
            f"{profile.timestamps[k]:.0f}",
            f"{profile.u[k]:.6f}",
            f"{profile.p_it[k]:.6f}",
            f"{profile.q_cool[k]:.6f}",
            int(profile.n_ch[k]),
            f"{profile.p_thermal[k]:.6f}",
            f"{profile.p_total[k]:.6f}",
        ])
    return buf.getvalue().encode()


COND = AmbientConditions()


def chiller(**changes):
    return ChillerParams(**{**vars(DEFAULT_CHILLER), **changes})


#: (call, exception type, message) for each record and argument check.
CHECKS = [
    (lambda: TaskRecord(5.0, 5.0, 1.0), TraceError, "task end 5.0 <= start 5.0"),
    (lambda: TaskRecord(0.0, 5.0, -1.0), TraceError, "task cpu must be >= 0"),
    (lambda: TaskTable([0.0], [1.0, 2.0], [1.0]), TraceError,
     "task columns must be 1-D and of one length"),
    (lambda: MachineEvent(0.0, "move", "m1"), TraceError,
     "unknown machine event kind 'move'"),
    (lambda: MachineEvent(math.nan, "add", "m1"), TraceError,
     "event time nan is not a number"),
    (lambda: MachineEvent(0.0, "add", "m1", -1.0), TraceError,
     "capacity must be >= 0"),
    (lambda: MachineEventTable([0.0], ["add"], ["m1", "m2"], [1.0]), TraceError,
     "machine event columns must be 1-D and of one length"),
    (lambda: UtilizationTrace(np.array([0.5, 1.5])), TraceError,
     "utilization values must lie in [0, 1]"),
    (lambda: ItPowerParams(p_max=0.0), ValueError, "p_max must be > 0"),
    (lambda: ItPowerParams(p_max=60.0, idle_fraction=1.5), ValueError,
     "idle_fraction must be in [0, 1]"),
    (lambda: AmbientConditions(phi_amb=np.array([0.5, 1.2])), ValueError,
     "phi_amb must be in [0, 1]"),
    (lambda: chiller(q_rated=0.0), ValueError, "q_rated must be > 0"),
    (lambda: chiller(n_total=0), ValueError, "n_total must be >= 1"),
    (lambda: chiller(flow_min=(15.0, 130.0, 30.0)), ValueError,
     "min flow exceeds rated flow"),
    (lambda: LoadProfile(*[np.zeros(2)] * 3, np.zeros(1), *[np.zeros(2)] * 2),
     ValueError, "series length mismatch in 'q_cool'"),
    (lambda: LoadProfile(*[np.zeros(2)] * 2, np.array([0.0, np.nan]), *[np.zeros(2)] * 3),
     ValueError, "non-finite value in 'p_it'"),
    (lambda: datacenter._bin_mean([], 10.0, 10.0), TraceError,
     "t1 must be > t0"),
    (lambda: normalize(np.zeros(2), np.ones(3)), TraceError,
     "usage and capacity series length mismatch"),
    (lambda: it_power(1.5, ItPowerParams(p_max=60.0)), ValueError,
     "utilization must lie in [0, 1]"),
    (lambda: subsystem_power(-1.0, DEFAULT_CHILLER.alpha), ValueError,
     "mass flow must be >= 0"),
    (lambda: compressor_power(COND, (20.0, -1.0, 40.0), DEFAULT_CHILLER.compressor_coeffs),
     ValueError, "mass flows must be >= 0"),
    (lambda: staging_and_thermal(-1.0, COND, DEFAULT_CHILLER), ValueError,
     "q_cool must be >= 0"),
    (lambda: staging_and_thermal(81.0, COND, DEFAULT_CHILLER), ValueError,
     "cooling capacity exceeded: 81.000 MW-th > 80.000 MW-th"),
    (lambda: calibrate_it_capacity(101.0), ValueError,
     "target total peak 101.000000 MW exceeds the 100.009920 MW drawn at the "
     "chiller bank's capacity"),
]


@pytest.mark.parametrize("build, error, message", CHECKS, ids=[c[2] for c in CHECKS])
def test_record_and_argument_checks(build, error, message):
    with pytest.raises(error) as exc:
        build()
    assert type(exc.value) is error
    assert str(exc.value) == message
