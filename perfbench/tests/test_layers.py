"""Per-op attribution of the traced run, on synthetic span records."""

import pytest

from layers import COUNTS, op_breakdown
from repro.obs import SpanRecord


def span(name, start, dur, **attrs):
    return SpanRecord(name, None, start, dur, 0, tuple(attrs.items()))


def test_breakdown_attributes_nested_plan_computation():
    ms = 1_000_000
    records = [
        span("bench.op", 0, 100 * ms),
        span("lang.parse", 0, 2 * ms),
        span("lang.compile", 2 * ms, 30 * ms),
        span("plan_compute", 5 * ms, 20 * ms, cache="comm_schedules"),
        span("plan_compute", 10 * ms, 5 * ms, cache="localized_arrays"),
        span("distribute", 40 * ms, 10 * ms),
        span("execute_fill", 50 * ms, 30 * ms),
        span("collect", 90 * ms, 5 * ms),
    ]
    row = op_breakdown(records, {name: 0 for name in COUNTS}, "plancache")
    assert row["op_ms"] == 100
    assert row["lang.parse"] == [2]
    assert row["lang.compile"] == [10]  # 30 minus the 20 ms of planning
    assert row["plancache.compute_ms"] == 20
    assert row["plancache.comm_schedules.compute_ms"] == 15
    assert row["plancache.localized_arrays.compute_ms"] == 5
    assert row["exec.fill_ms"] == 30
    # Not under any layer: 32..40, 80..90 and 95..100.
    assert row["unattributed_ms"] == pytest.approx(23)
    assert row["dominant_share"] == pytest.approx(0.2)
