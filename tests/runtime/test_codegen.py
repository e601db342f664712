"""Tests for the Figure 8 node-code shapes."""

import numpy as np
import pytest
from hypothesis import given, settings

from repro.core.baselines.naive import enumerate_local_elements
from repro.machine.trace import TracingMemory
from repro.runtime.address import make_plan
from repro.runtime.codegen import (
    SHAPES,
    fill_vectorized,
    get_shape,
    materialize_addresses,
)

from ..conftest import array_plans, bounded_access_params

ALL_SHAPES = sorted(SHAPES)


class TestRegistry:
    def test_known_shapes(self):
        assert set(SHAPES) == {"a", "b", "c", "d", "v"}
        for name in SHAPES:
            # Only native=True wraps the compiled shape.
            assert get_shape(name) is SHAPES[name]
            assert get_shape(name, native=False) is SHAPES[name]

    def test_unknown_shape(self):
        with pytest.raises(ValueError, match="unknown node-code shape"):
            get_shape("z")


class TestShapesAgainstOracle:
    @pytest.mark.parametrize("shape", ALL_SHAPES)
    def test_paper_case(self, shape, paper_params):
        p, k, l, s, m = (paper_params[key] for key in "pklsm")
        plan = make_plan(p, k, l, 319, s, m)
        want = [a for _, a in enumerate_local_elements(p, k, l, 319, s, m)]
        mem = TracingMemory(np.zeros(max(want) + 1))
        written = SHAPES[shape](mem, plan, 100.0)
        assert written == len(want)
        # Shapes a-d visit strictly in increasing-address order; the
        # vectorized shape writes once with the whole index vector.
        assert mem.trace.writes == want
        assert np.all(mem.arena[want] == 100.0)

    @pytest.mark.parametrize("shape", ALL_SHAPES)
    def test_empty_plan(self, shape):
        plan = make_plan(4, 8, 10, 5, 1, 0)
        mem = np.zeros(4)
        assert SHAPES[shape](mem, plan, 1.0) == 0
        assert not mem.any()

    @pytest.mark.parametrize("shape", ALL_SHAPES)
    def test_single_element(self, shape):
        plan = make_plan(4, 8, 0, 0, 1, 0)
        mem = np.zeros(4)
        assert SHAPES[shape](mem, plan, 1.0) == 1
        assert mem[0] == 1.0 and mem[1:].sum() == 0

    @given(bounded_access_params())
    @settings(max_examples=80, deadline=None)
    def test_all_shapes_equivalent(self, params):
        p, k, l, u, s, m = params
        plan = make_plan(p, k, l, u, s, m)
        want = [a for _, a in enumerate_local_elements(p, k, l, u, s, m)]
        size = (max(want) + 1) if want else 1
        images = []
        for shape in ALL_SHAPES:
            mem = np.zeros(size)
            written = SHAPES[shape](mem, plan, 42.0)
            assert written == len(want)
            images.append(mem)
        for other in images[1:]:
            assert np.array_equal(images[0], other)
        assert sorted(np.nonzero(images[0])[0].tolist()) == sorted(set(want))


class TestAgainstVectorized:
    """Plan-level differential against shape (v), the executors' fill:
    every Figure 8 shape (d only where its tables exist) writes the same
    bits, and the same ascending write sequence, on identity and affine
    plans."""

    @given(array_plans())
    @settings(max_examples=150, deadline=None)
    def test_shapes_match_fill_vectorized(self, plan_and_size):
        plan, size = plan_and_size
        want = TracingMemory(np.zeros(size))
        written = fill_vectorized(want, plan, 3.5)
        assert written == plan.count
        shapes = "abcd" if plan.start_offset is not None else "abc"
        for shape in shapes:
            got = TracingMemory(np.zeros(size))
            assert SHAPES[shape](got, plan, 3.5) == written, shape
            assert got.trace.writes == want.trace.writes, shape
            assert np.array_equal(got.arena, want.arena), shape


class TestMaterialize:
    def test_empty(self):
        plan = make_plan(4, 8, 10, 5, 1, 0)
        assert materialize_addresses(plan).size == 0

    def test_dtype(self, paper_params):
        p, k, l, s, m = (paper_params[key] for key in "pklsm")
        addrs = materialize_addresses(make_plan(p, k, l, 319, s, m))
        assert addrs.dtype == np.int64

    @given(bounded_access_params())
    @settings(max_examples=80, deadline=None)
    def test_monotone_increasing(self, params):
        p, k, l, u, s, m = params
        addrs = materialize_addresses(make_plan(p, k, l, u, s, m))
        assert np.all(np.diff(addrs) > 0)
