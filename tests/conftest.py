"""Shared fixtures and hypothesis strategies for the test suite."""

from __future__ import annotations

import re

import pytest
from hypothesis import strategies as st


@pytest.hookimpl(hookwrapper=True)
def pytest_runtest_makereport(item, call):
    """On any test failure, dump every live enabled observability handle
    into ``fault-reports/`` so the trace that was being recorded when
    things went wrong sits next to the flight-recorder dumps (CI uploads
    the directory on failure)."""
    outcome = yield
    report = outcome.get_result()
    if report.when == "call" and report.failed:
        from repro.obs import dump_active

        label = re.sub(r"[^A-Za-z0-9_.-]+", "-", item.name)[:60]
        try:
            dump_active("fault-reports", label=label)
        except OSError:  # pragma: no cover - dump dir unwritable
            pass

# ---------------------------------------------------------------------------
# Hypothesis strategies for distribution / section parameters.
# Kept small enough that the brute-force oracles stay fast.
# ---------------------------------------------------------------------------

procs = st.integers(min_value=1, max_value=8)
blocks = st.integers(min_value=1, max_value=24)
strides = st.integers(min_value=1, max_value=120)
lowers = st.integers(min_value=0, max_value=60)


@st.composite
def access_params(draw):
    """Random ``(p, k, l, s, m)`` for the 1-D access problem."""
    p = draw(procs)
    k = draw(blocks)
    l = draw(lowers)
    s = draw(strides)
    m = draw(st.integers(min_value=0, max_value=p - 1))
    return p, k, l, s, m


@st.composite
def bounded_access_params(draw):
    """Random ``(p, k, l, u, s, m)`` with a bounded section."""
    p, k, l, s, m = draw(access_params())
    length = draw(st.integers(min_value=0, max_value=120))
    u = l + (length - 1) * s if length else l - 1
    return p, k, l, u, s, m


@st.composite
def array_plans(draw):
    """``(plan, local_size)`` for ``A(l:u:s)`` on rank ``m`` of a random
    ``cyclic(k)`` 1-D array over ``p`` ranks, under an identity or an
    affine alignment (affine plans carry no shape-(d) tables)."""
    from repro.distribution import (
        Alignment, AxisMap, CyclicK, DistributedArray, ProcessorGrid,
        RegularSection,
    )
    from repro.runtime.address import make_array_plan

    p = draw(procs)
    k = draw(blocks)
    a, b = draw(st.sampled_from([(1, 0), (1, 0), (1, 3), (2, 1), (3, 5)]))
    n = draw(st.integers(min_value=1, max_value=400))
    l = draw(st.integers(min_value=0, max_value=n - 1))
    u = draw(st.integers(min_value=l, max_value=n - 1))
    s = draw(st.integers(min_value=1, max_value=12))
    m = draw(st.integers(min_value=0, max_value=p - 1))
    array = DistributedArray(
        "A", (n,), ProcessorGrid("G", (p,)),
        (AxisMap(CyclicK(k), Alignment(a, b), grid_axis=0),),
    )
    return make_array_plan(array, 0, RegularSection(l, u, s), m), array.local_size(m)


@pytest.fixture
def paper_params():
    """The paper's running example: p=4, k=8, l=4, s=9, m=1 (Figure 6)."""
    return dict(p=4, k=8, l=4, s=9, m=1)
