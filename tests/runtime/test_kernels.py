"""Property tests: vectorized kernels bit-identical to the scalar paths.

The vectorized kernel layer (:mod:`repro.core.kernels`) and its
consumers replace element-at-a-time Python with NumPy closed forms; the
scalar implementations remain in the tree as oracles, and every test
here asserts exact (bitwise) agreement over randomized configurations,
including empty-owner processors and single-element cycles.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.access import compute_access_table
from repro.core.kernels import (
    expand_table,
    local_addresses_of,
    local_slots_of,
    owners_of,
    periodic_floor_rank_of,
    periodic_rank_of,
)
from repro.distribution.align import Alignment
from repro.distribution.array import AxisMap, DistributedArray
from repro.distribution.dist import CyclicK, ProcessorGrid
from repro.distribution.layout import CyclicLayout
from repro.distribution.localize import (
    RankFunction,
    localize_section,
    localized_arrays,
    localized_elements,
)
from repro.distribution.section import RegularSection
from repro.machine.vm import VirtualMachine
from repro.runtime.commsets import (
    compute_comm_schedule,
    compute_comm_schedule_reference,
)
from repro.runtime.exec import collect, distribute
from repro.runtime.oracles import collect_reference, distribute_reference


@st.composite
def draw_params(draw):
    """Randomized ``(p, k, n, alignment, section, m)`` draws, biased
    toward the identity alignment but covering affine (incl. negative
    ``a``) cases; sections may be strided or negative-stride."""
    p = draw(st.integers(min_value=1, max_value=6))
    k = draw(st.integers(min_value=1, max_value=10))
    a = draw(st.sampled_from([1, 1, 1, 2, 3, -1, -2]))
    n = draw(st.integers(min_value=1, max_value=60))
    b = draw(st.integers(min_value=0, max_value=8)) + (-a * (n - 1) if a < 0 else 0)
    l = draw(st.integers(min_value=0, max_value=n - 1))
    u = draw(st.integers(min_value=l, max_value=n - 1))
    s = draw(st.sampled_from([1, 1, 2, 3, 5, 12, -1, -3]))
    sec = RegularSection(l, u, s) if s > 0 else RegularSection(u, l, s)
    m = draw(st.integers(min_value=0, max_value=p - 1))
    return p, k, n, Alignment(a, b), sec, m


class TestExpandTable:
    def scalar(self, start, gaps, count):
        out, val = [], start
        for t in range(count):
            out.append(val)
            val += gaps[t % len(gaps)]
        return out

    @given(
        st.integers(min_value=-50, max_value=50),
        st.lists(st.integers(min_value=-9, max_value=9), min_size=1, max_size=7),
        st.integers(min_value=0, max_value=100),
    )
    @settings(max_examples=100, deadline=None)
    def test_matches_scalar_recurrence(self, start, gaps, count):
        got = expand_table(start, gaps, count)
        assert got.dtype == np.int64
        assert got.tolist() == self.scalar(start, gaps, count)

    def test_count_zero_and_one(self):
        assert expand_table(5, (3,), 0).tolist() == []
        assert expand_table(5, (3,), 1).tolist() == [5]

    def test_single_element_cycle(self):
        # Length-1 gap table: pure arithmetic progression.
        assert expand_table(2, (7,), 5).tolist() == [2, 9, 16, 23, 30]

    def test_rejects_bad_inputs(self):
        with pytest.raises(ValueError):
            expand_table(0, (1,), -1)
        with pytest.raises(ValueError):
            expand_table(0, (), 3)


class TestCoordinateKernels:
    @given(draw_params())
    @settings(max_examples=150, deadline=None)
    def test_owners_and_addresses_match_layout(self, params):
        p, k, n, align, _sec, _m = params
        layout = CyclicLayout(p, k)
        idx = np.arange(n, dtype=np.int64)
        cells = [align.apply(i) for i in range(n)]
        assert owners_of(idx, p, k, align.a, align.b).tolist() == [
            layout.owner(c) for c in cells
        ]
        assert local_addresses_of(idx, p, k, align.a, align.b).tolist() == [
            layout.local_address(c) for c in cells
        ]

    def test_identity_slots_are_addresses(self):
        idx = np.arange(40, dtype=np.int64)
        assert np.array_equal(
            local_slots_of(idx, 4, 3), local_addresses_of(idx, 4, 3)
        )

    def test_affine_slots_need_rank_structure(self):
        with pytest.raises(ValueError):
            local_slots_of(np.arange(4), 2, 3, a=2, b=1)


class TestPeriodicRank:
    @given(draw_params())
    @settings(max_examples=150, deadline=None)
    def test_rank_and_floor_match_scalar(self, params):
        p, k, n, align, _sec, m = params
        alloc = align.allocation_section(n).normalized()
        table = compute_access_table(p, k, alloc.lower, alloc.stride, m)
        if table.is_empty:
            return  # empty-owner processor: no rank function exists
        ranks = RankFunction(table)
        addrs = np.asarray(table.local_addresses(3 * table.length + 1))
        assert ranks.rank_array(addrs).tolist() == [
            ranks.rank(int(x)) for x in addrs
        ]
        # floor_rank over a dense probe range straddling `first`.
        probe = np.arange(ranks.first - 3, int(addrs[-1]) + 3)
        assert ranks.floor_rank_array(probe).tolist() == [
            ranks.floor_rank(int(x)) for x in probe
        ]

    def test_strict_raises_nonstrict_flags(self):
        table = compute_access_table(2, 4, 1, 2, 0)  # odds on proc 0
        ranks = RankFunction(table)
        bad = np.asarray([ranks.first + 1])
        with pytest.raises(KeyError):
            periodic_rank_of(bad, ranks.first, ranks.period_span, ranks._rel_arr)
        got = periodic_rank_of(
            bad, ranks.first, ranks.period_span, ranks._rel_arr, strict=False
        )
        assert got.tolist() == [-1]

    def test_single_point_cycle(self):
        # k=1: exactly one offset per period on each processor.
        table = compute_access_table(3, 1, 0, 1, 1)
        assert table.length == 1
        ranks = RankFunction(table)
        addrs = np.asarray(table.local_addresses(6))
        assert ranks.rank_array(addrs).tolist() == list(range(6))

    def test_rejects_empty_offsets(self):
        with pytest.raises(ValueError):
            periodic_rank_of(np.asarray([0]), 0, 4, np.empty(0, dtype=np.int64))
        with pytest.raises(ValueError):
            periodic_floor_rank_of(np.asarray([0]), 0, 4, np.empty(0, dtype=np.int64))


class TestLocalizedArrays:
    @given(draw_params())
    @settings(max_examples=200, deadline=None)
    def test_matches_localized_elements(self, params):
        p, k, n, align, sec, m = params
        pairs = localized_elements(p, k, n, align, sec, m)
        indices, slots = localized_arrays(p, k, n, align, sec, m)
        assert indices.tolist() == [g for g, _ in pairs]
        assert slots.tolist() == [s for _, s in pairs]
        assert not indices.flags.writeable and not slots.flags.writeable

    @given(draw_params(), st.integers(min_value=0, max_value=40))
    @settings(max_examples=100, deadline=None)
    def test_table_arrays_match_scalar_expansion(self, params, count):
        p, k, n, align, sec, m = params
        table = localize_section(p, k, n, align, sec, m)
        if table.is_empty:
            count = 0
        assert table.slots_array(count).tolist() == table.slots(count)
        assert table.indices_array(count).tolist() == table.indices(count)

    def test_empty_owner(self):
        # p > n under cyclic(1): processor 3 owns nothing of a
        # 3-element array (owners are 0, 1, 2).
        indices, slots = localized_arrays(
            4, 1, 3, Alignment(1, 0), RegularSection(0, 2, 1), 3
        )
        assert indices.size == 0 and slots.size == 0


def make_1d(name, n, p, k, a=1, b=0):
    return DistributedArray(
        name,
        (n,),
        ProcessorGrid("G", (p,)),
        (AxisMap(CyclicK(k), Alignment(a, b), grid_axis=0),),
    )


@st.composite
def schedule_params(draw):
    p = draw(st.integers(min_value=1, max_value=5))
    n = draw(st.integers(min_value=1, max_value=48))
    k1 = draw(st.integers(min_value=1, max_value=8))
    k2 = draw(st.integers(min_value=1, max_value=8))
    length = draw(st.integers(min_value=0, max_value=n))
    if length == 0:
        sec_a = sec_b = RegularSection(0, -1, 1)
    else:
        sa = draw(st.integers(min_value=1, max_value=max(1, (n - 1) // max(length - 1, 1))))
        la = draw(st.integers(min_value=0, max_value=n - 1 - (length - 1) * sa))
        sb = draw(st.integers(min_value=1, max_value=max(1, (n - 1) // max(length - 1, 1))))
        lb = draw(st.integers(min_value=0, max_value=n - 1 - (length - 1) * sb))
        sec_a = RegularSection(la, la + (length - 1) * sa, sa)
        sec_b = RegularSection(lb, lb + (length - 1) * sb, sb)
    return p, n, k1, k2, sec_a, sec_b


class TestVectorizedSchedule:
    @given(schedule_params())
    @settings(max_examples=150, deadline=None)
    def test_matches_reference(self, params):
        p, n, k1, k2, sec_a, sec_b = params
        a = make_1d("A", n, p, k1)
        b = make_1d("B", n, p, k2)
        vec = compute_comm_schedule(a, sec_a, b, sec_b)
        ref = compute_comm_schedule_reference(a, sec_a, b, sec_b)
        assert vec.n_iterations == ref.n_iterations
        assert [t.astuples() for t in vec.locals_] == [
            t.astuples() for t in ref.locals_
        ]
        assert [t.astuples() for t in vec.transfers] == [
            t.astuples() for t in ref.transfers
        ]

    @given(
        st.integers(min_value=1, max_value=4),
        st.integers(min_value=1, max_value=36),
        st.integers(min_value=1, max_value=6),
        st.integers(min_value=2, max_value=3),
        st.integers(min_value=0, max_value=4),
    )
    @settings(max_examples=60, deadline=None)
    def test_matches_reference_affine_lhs(self, p, n, k, a_coef, b_off):
        lhs = make_1d("A", n, p, k, a_coef, b_off)
        rhs = make_1d("B", n, p, 2)
        sec = RegularSection(0, n - 1, 1)
        vec = compute_comm_schedule(lhs, sec, rhs, sec)
        ref = compute_comm_schedule_reference(lhs, sec, rhs, sec)
        assert [t.astuples() for t in vec.locals_ + vec.transfers] == [
            t.astuples() for t in ref.locals_ + ref.transfers
        ]


class TestVectorizedDistributeCollect:
    @given(
        st.integers(min_value=1, max_value=5),
        st.integers(min_value=1, max_value=40),
        st.integers(min_value=1, max_value=7),
        st.sampled_from([(1, 0), (2, 1), (-1, None)]),
    )
    @settings(max_examples=80, deadline=None)
    def test_round_trip_matches_reference(self, p, n, k, ab):
        a_coef, b_off = ab
        if b_off is None:
            b_off = n - 1  # keep negative-alignment cells nonnegative
        arr_v = make_1d("V", n, p, k, a_coef, b_off)
        arr_s = make_1d("S", n, p, k, a_coef, b_off)
        host = np.arange(n, dtype=float) + 0.5
        vm_v, vm_s = VirtualMachine(p), VirtualMachine(p)
        distribute(vm_v, arr_v, host)
        distribute_reference(vm_s, arr_s, host)
        for m in range(p):
            assert np.array_equal(
                vm_v.processors[m].memory("V"), vm_s.processors[m].memory("S")
            )
        assert np.array_equal(collect(vm_v, arr_v), host)
        assert np.array_equal(collect_reference(vm_v, arr_v), host)

    def test_2d_replicated_matches_reference(self):
        # Rank-2 array on a 2x2 grid distributing only dim 0: the array
        # is replicated across grid axis 1, exercising the lowest-owner
        # filtering in the vectorized collect.
        from repro.distribution.dist import Collapsed

        grid = ProcessorGrid("G", (2, 2))
        arr = DistributedArray(
            "R",
            (8, 5),
            grid,
            (AxisMap(CyclicK(3), grid_axis=0), AxisMap(Collapsed())),
        )
        ref = DistributedArray(
            "Q",
            (8, 5),
            grid,
            (AxisMap(CyclicK(3), grid_axis=0), AxisMap(Collapsed())),
        )
        host = np.arange(40, dtype=float).reshape(8, 5)
        vm_v, vm_s = VirtualMachine(4), VirtualMachine(4)
        distribute(vm_v, arr, host)
        distribute_reference(vm_s, ref, host)
        for m in range(4):
            assert np.array_equal(
                vm_v.processors[m].memory("R"), vm_s.processors[m].memory("Q")
            )
        assert np.array_equal(collect(vm_v, arr), host)
        assert np.array_equal(collect_reference(vm_v, arr), host)
