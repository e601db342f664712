"""The four node-code templates of Figure 8, plus a vectorized shape.

After the ΔM table is constructed, each processor traverses its local
memory with one of these loops (the paper's C fragments correspond to
``A(l:u:s) = 100.0``):

* **shape (a)** -- cycle the table index with an explicit ``mod``
  (given "for conceptual reasons" in Chatterjee et al.; by far the
  slowest measured shape in Table 2);
* **shape (b)** -- replace ``mod`` with a compare-and-reset;
* **shape (c)** -- a ``for`` loop over the table inside an infinite
  loop, exiting with ``goto done`` (better scheduling in the paper's
  icc build);
* **shape (d)** -- two-table lookup indexed by local offset
  (``deltaM`` + ``NextOffset``), the fastest of the four in Table 2;
* **shape (v)** -- our NumPy-vectorized form: materialize all local
  addresses with a cumulative sum of the tiled gap table and assign in
  one fancy-indexing store (not in the paper).  This is the one shape
  the executors run; (a)-(d) are Table 2 subjects and test oracles.

Every function assigns ``value`` to each element the plan covers and
returns the number of elements written.  ``memory`` may be a NumPy
array, a Python list, or a :class:`repro.machine.TracingMemory`.
"""

from __future__ import annotations

from typing import Callable

import numpy as np

from .address import AccessPlan

__all__ = [
    "fill_shape_a",
    "fill_shape_b",
    "fill_shape_c",
    "fill_shape_d",
    "fill_vectorized",
    "SHAPES",
    "get_shape",
    "materialize_addresses",
]


def fill_shape_a(memory, plan: AccessPlan, value) -> int:
    """Figure 8(a): ``i = (i + 1) % length`` -- mod every iteration."""
    if plan.count == 0:
        return 0
    base = plan.start_local
    last = plan.last_local
    delta = plan.delta_m
    length = plan.length
    i = 0
    written = 0
    while base <= last:
        memory[base] = value
        written += 1
        base += delta[i]
        i = (i + 1) % length
    return written


def fill_shape_b(memory, plan: AccessPlan, value) -> int:
    """Figure 8(b): compare-and-reset instead of ``mod`` (what Chatterjee
    et al.'s implementation actually used, per the paper's footnote)."""
    if plan.count == 0:
        return 0
    base = plan.start_local
    last = plan.last_local
    delta = plan.delta_m
    length = plan.length
    i = 0
    written = 0
    while base <= last:
        memory[base] = value
        written += 1
        base += delta[i]
        i += 1
        if i == length:
            i = 0
    return written


def fill_shape_c(memory, plan: AccessPlan, value) -> int:
    """Figure 8(c): ``for`` over the table inside ``while (TRUE)``, exit
    via ``goto done`` -- emulated with a flag and ``break``."""
    if plan.count == 0:
        return 0
    base = plan.start_local
    last = plan.last_local
    delta = plan.delta_m
    length = plan.length
    written = 0
    done = False
    while not done:
        for i in range(length):
            memory[base] = value
            written += 1
            base += delta[i]
            if base > last:
                done = True
                break
    return written


def fill_shape_d(memory, plan: AccessPlan, value) -> int:
    """Figure 8(d): two-table lookup indexed by local offset (the fastest
    shape of Table 2; requires the Section 6.2 offset-indexed tables)."""
    if plan.count == 0:
        return 0
    base = plan.start_local
    last = plan.last_local
    delta = plan.delta_m_by_offset
    nxt = plan.next_offset
    i = plan.start_offset
    written = 0
    while base <= last:
        memory[base] = value
        written += 1
        base += delta[i]
        i = nxt[i]
    return written


def materialize_addresses(plan: AccessPlan) -> np.ndarray:
    """All local addresses the plan covers, as one NumPy array.

    ``start + cumsum(tile(gaps))`` -- the vectorized equivalent of the
    table walk, used by shape (v) and by bulk gather/scatter paths.
    """
    if plan.count == 0:
        return np.empty(0, dtype=np.int64)
    n = plan.count - 1
    # Convert only the gaps the walk uses: short walks on long tables
    # (few elements per rank, large k) would otherwise pay for all k.
    steps = np.asarray(plan.delta_m[:n], dtype=np.int64)
    if n > plan.length:
        steps = np.tile(steps, -(-n // plan.length))[:n]
    out = np.empty(plan.count, dtype=np.int64)
    out[0] = plan.start_local
    if plan.count > 1:
        np.cumsum(steps, out=out[1:])
        out[1:] += plan.start_local
    return out


def fill_vectorized(memory, plan: AccessPlan, value) -> int:
    """Shape (v), the executors' fill: one fancy-indexed store over the
    materialized address vector, in the ascending order shapes (a)-(d)
    visit (no per-element interpretation)."""
    addrs = materialize_addresses(plan)
    if len(addrs):
        memory[addrs] = value
    return len(addrs)


def fill_descending(memory, plan: AccessPlan, value) -> int:
    """Traverse a *descending* plan (negative gaps, ``start >= last``).

    The negative-stride analogue of shape (b); pair with
    :meth:`repro.runtime.address.AccessPlan.descending`.
    """
    if plan.count == 0:
        return 0
    if any(g >= 0 for g in plan.delta_m):
        raise ValueError(
            "fill_descending needs a descending plan "
            "(AccessPlan.descending()); this one has nonnegative gaps"
        )
    base = plan.start_local
    last = plan.last_local
    delta = plan.delta_m
    length = plan.length
    i = 0
    written = 0
    while base >= last:
        memory[base] = value
        written += 1
        base += delta[i]
        i += 1
        if i == length:
            i = 0
    return written


#: Shape registry keyed by the paper's figure labels.
SHAPES: dict[str, Callable] = {
    "a": fill_shape_a,
    "b": fill_shape_b,
    "c": fill_shape_c,
    "d": fill_shape_d,
    "v": fill_vectorized,
}


def get_shape(name: str, native: bool | None = None) -> Callable:
    """Look up a node-code shape by its Figure 8 label (a/b/c/d/v).

    ``native=True`` returns the compiled shape from
    :mod:`repro.runtime.native` (the Table 2 subject), falling back per
    call to the Python shape when the memory is not native-servable or
    no compiler exists; otherwise the Python shape itself.  Either way
    the callable has the same ``(memory, plan, value) -> written``
    contract and writes the same bits.  The executors use neither: they
    always run :func:`fill_vectorized`.
    """
    try:
        fill = SHAPES[name]
    except KeyError:
        raise ValueError(
            f"unknown node-code shape {name!r}; choose from {sorted(SHAPES)}"
        ) from None
    if not native:
        return fill
    from .native import get_runtime_kernels

    kernels = get_runtime_kernels()
    if kernels is None:
        return fill

    from ..obs import ambient

    def native_fill(memory, plan: AccessPlan, value) -> int:
        written = kernels.fill(memory, plan, value, name)
        if written is None:
            ambient().inc("native.dispatch_numpy")
            return fill(memory, plan, value)
        ambient().inc("native.dispatch_native")
        return written

    return native_fill
