"""Per-layer attribution for the traced run, and the paper's tables.

An op's trace is the list of :class:`repro.obs.SpanRecord` entries the
program and the benchmark recorded while it ran.  The benchmark records
``bench.op`` around the op and ``lang.parse`` / ``lang.compile`` /
``bench.create_machine`` around its own calls into those layers; the
program records the rest (``plan_compute``, ``distribute``, ``collect``,
``execute_*``, ``superstep``, ``barrier``, ``native_compile``).

:func:`op_breakdown` turns one op's records and counter deltas into the
per-op layer figures; :func:`table1_rows` and :func:`table2_rows`
reproduce the paper's Table 1 (lattice vs sorting ΔM-table
construction) and Table 2 (Figure 8 node-code shapes) on a workload's
own fill statements.
"""

from __future__ import annotations

import time

import numpy as np

from measure import covered_ns, self_time_ns

__all__ = [
    "COUNTS",
    "LAYER_SPANS",
    "STRESSED_SPANS",
    "fill_statements",
    "op_breakdown",
    "table1_rows",
    "table2_rows",
]

#: Spans that each stand for time spent inside one layer; op time not
#: under any of them is reported as ``unattributed_ms``.
LAYER_SPANS = frozenset({
    "lang.parse", "lang.compile", "bench.create_machine", "plan_compute",
    "distribute", "collect", "execute_fill", "execute_copy",
    "execute_copy_2d", "execute_combine", "superstep", "barrier",
    "native_compile",
})

#: The spans whose union is the stressed layer of each workload
#: (``dominant_share``).
STRESSED_SPANS = {
    "exec": frozenset({"execute_fill", "execute_copy", "execute_copy_2d",
                       "execute_combine"}),
    "plancache": frozenset({"plan_compute"}),
    "barrier": frozenset({"barrier"}),
}

#: Program counters read as per-op deltas.  The first five must repeat
#: exactly between ops of one program.
COUNTS = (
    "vm.supersteps", "net.messages_sent", "net.bytes_sent",
    "plancache.misses", "mp.ctrl_frames",
    "plancache.hits", "native.dispatch_native", "native.dispatch_numpy",
    "native.compile",
)
EXACT = COUNTS[:5]

CACHES = ("localized_arrays", "array_plans", "comm_schedules",
          "comm_schedules_2d")


def _interval(rec) -> tuple[int, int]:
    return rec.ts_ns, rec.ts_ns + rec.dur_ns


def _inside(child, parent) -> bool:
    return (child is not parent and child.ts_ns >= parent.ts_ns
            and child.ts_ns + child.dur_ns <= parent.ts_ns + parent.dur_ns)


def _sum_ms(spans, names) -> float:
    return sum(s.dur_ns for s in spans if s.name in names) / 1e6


def op_breakdown(records, counts: dict, stressed: str) -> dict:
    """Per-op layer figures from one op's span records and counter
    deltas (``counts`` keyed by the names in :data:`COUNTS`)."""
    spans = [r for r in records if not r.is_instant]
    (op,) = [s for s in spans if s.name == "bench.op"]
    lo, hi = _interval(op)
    plans = [s for s in spans if s.name == "plan_compute"]
    out = {
        "op_ms": op.dur_ns / 1e6,
        "plancache.compute_ms": covered_ns(map(_interval, plans), lo, hi) / 1e6,
        "exec.fill_ms": _sum_ms(spans, {"execute_fill"}),
        "exec.copy_ms": _sum_ms(spans, {"execute_copy", "execute_copy_2d"}),
        "exec.combine_ms": _sum_ms(spans, {"execute_combine"}),
        "exec.distribute_ms": _sum_ms(spans, {"distribute"}),
        "exec.collect_ms": _sum_ms(spans, {"collect"}),
        "vm.superstep_ms": _sum_ms(spans, {"superstep"}),
        "vm.barrier_ms": _sum_ms(spans, {"barrier"}),
        "unattributed_ms": (op.dur_ns - covered_ns(
            (_interval(s) for s in spans if s.name in LAYER_SPANS), lo, hi
        )) / 1e6,
        "dominant_share": covered_ns(
            (_interval(s) for s in spans if s.name in STRESSED_SPANS[stressed]),
            lo, hi,
        ) / op.dur_ns,
    }
    for cache in CACHES:
        own = [s for s in plans if dict(s.attrs).get("cache") == cache]
        out[f"plancache.{cache}.compute_ms"] = sum(
            self_time_ns(s, [c for c in plans if _inside(c, s)]) for s in own
        ) / 1e6
    out.update(lang_times(spans))
    out.update({f"count.{name}": counts.get(name, 0) for name in COUNTS})
    return out


def lang_times(spans) -> dict:
    """Per-program parse times and compile self times (compile minus the
    plan computations it triggers), as lists in ms."""
    plans = [s for s in spans if s.name == "plan_compute"]
    return {
        "lang.parse": [s.dur_ns / 1e6 for s in spans if s.name == "lang.parse"],
        "lang.compile": [
            self_time_ns(s, [c for c in plans if _inside(c, s)]) / 1e6
            for s in spans if s.name == "lang.compile"
        ],
    }


# ---------------------------------------------------------------------------
# The paper's tables on the workload's own statements
# ---------------------------------------------------------------------------


def fill_statements(compiled_programs) -> list[tuple]:
    """``(array, section, value)`` for every rank-1 fill statement of the
    compiled programs, with its AST for the template-space mapping."""
    from repro.distribution.section import RegularSection
    from repro.lang.ast_nodes import FillAssign

    out = []
    for ast, compiled in compiled_programs:
        for stmt in ast.statements:
            if isinstance(stmt, FillAssign) and len(stmt.target.triplets) == 1:
                t = stmt.target.triplets[0]
                out.append((compiled.arrays[stmt.target.array],
                            RegularSection(t.lower, t.upper, t.stride),
                            stmt.value))
    return out


def _best_s(fn, reps: int) -> float:
    best = float("inf")
    for _ in range(reps):
        t0 = time.perf_counter()
        fn()
        best = min(best, time.perf_counter() - t0)
    return best


def table1_rows(fills, reps: int = 5) -> list[dict]:
    """Table 1 on the fills' distinct template-space ``(p, k, l, s)``:
    ΔM-table construction time, lattice vs sorting, for rank ``p // 2``
    (construction cost is essentially rank-independent), best of
    ``reps``."""
    from repro.core.access import compute_access_table
    from repro.core.baselines.sorting import sorting_access_table

    cells = set()
    for array, sec, _ in fills:
        layout = array.dim_layout(0)
        al = array.axis_maps[0].alignment
        norm = sec.normalized()
        cells.add((layout.p, layout.k, al.a * norm.lower + al.b,
                   al.a * norm.stride))
    rows = []
    for p, k, l, s in sorted(cells):
        m = p // 2
        lat = _best_s(lambda: compute_access_table(p, k, l, s, m), reps)
        srt = _best_s(lambda: sorting_access_table(p, k, l, s, m), reps)
        rows.append({"p": p, "k": k, "l": l, "s": s,
                     "lattice_us": lat * 1e6, "sorting_us": srt * 1e6})
    return rows


def table2_rows(fills, reps: int = 3) -> list[dict]:
    """Table 2 on the identity-aligned fills: time of each Figure 8
    shape (and the compiled kernel of shape d) writing the statement on
    every rank, best of ``reps``, in ms."""
    from repro.runtime.codegen import SHAPES, get_shape
    from repro.runtime.native import native_available
    from repro.runtime.plancache import cached_array_plan

    fns = dict(SHAPES)
    if native_available():
        fns["native"] = get_shape("d", native=True)
    rows = []
    for array, sec, value in fills:
        if not array.axis_maps[0].alignment.is_identity:
            continue
        layout = array.dim_layout(0)
        work = []
        for rank in range(array.grid.size):
            plan = cached_array_plan(array, 0, sec, rank)
            if not plan.is_empty:
                work.append((np.zeros(array.local_size(rank)), plan))
        row = {"p": layout.p, "k": layout.k, "s": sec.stride,
               "elements": len(sec.normalized())}
        for name, fn in fns.items():
            row[f"{name}_ms"] = 1e3 * _best_s(
                lambda: [fn(mem, plan, value) for mem, plan in work], reps
            )
        rows.append(row)
    return rows
