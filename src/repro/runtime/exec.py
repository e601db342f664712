"""Execute array statements on the virtual machine.

Ties the whole system together: distributed-array descriptors supply
local shapes, the access-sequence machinery supplies traversal plans and
communication schedules, and the SPMD machine runs the node programs.

* :func:`distribute` / :func:`collect` move whole arrays between a
  sequential NumPy "host" image and per-rank local memories (used for
  initialization and verification);
* :func:`execute_fill` runs ``A(l:u:s) = value`` through the vectorized
  ΔM traversal (the Figure 8 shapes are Table 2 subjects in
  :mod:`repro.runtime.codegen`, not dispatch targets);
* :func:`execute_copy` runs ``A(sec_a) = B(sec_b)`` with generated
  communication (pack / exchange / unpack supersteps).
"""

from __future__ import annotations

import numpy as np

from ..distribution.array import DistributedArray
from ..distribution.section import RegularSection
from ..machine.vm import VirtualMachine
from .address import flat_local_addresses
from .codegen import fill_vectorized
from .commsets import CommSchedule
from .plancache import (
    cached_array_plan,
    cached_comm_schedule,
    cached_comm_schedule_2d,
    cached_localized_arrays,
)

__all__ = [
    "as_index",
    "gather_slots",
    "scatter_slots",
    "distribute",
    "collect",
    "execute_fill",
    "execute_copy",
    "execute_combine",
    "execute_copy_2d",
    "execute_transpose",
]


def as_index(slots) -> np.ndarray:
    """Slot tuple -> int64 fancy-index array (the packing/unpacking idiom
    shared by every executor, including :mod:`repro.runtime.resilient`)."""
    return np.asarray(slots, dtype=np.int64)


def gather_slots(mem, slots) -> np.ndarray:
    """Pack ``mem[slots]`` into a fresh buffer (one fancy-index copy) --
    the executors' and the resilient exchange's one packing idiom."""
    return mem[as_index(slots)].copy()


def scatter_slots(mem, slots, values) -> None:
    """Unpack ``values`` into ``mem[slots]`` -- the scatter twin of
    :func:`gather_slots`."""
    mem[as_index(slots)] = values


def _check_vm(vm: VirtualMachine, array: DistributedArray) -> None:
    # A machine may have *more* ranks than the array's grid (elastic
    # membership runs migrations on a machine grown to max(p, p'); the
    # extra ranks simply hold no shard), but never fewer.
    if vm.p < array.grid.size:
        raise ValueError(
            f"machine has {vm.p} ranks but {array.name} is mapped onto "
            f"{array.grid.size}"
        )


def _dim_images(
    array: DistributedArray, rank: int
) -> list[tuple[np.ndarray, np.ndarray]]:
    """Per-dimension ``(global_indices, local_slots)`` vectors of the
    *whole* array on ``rank`` -- the layout closed form each dimension's
    access-sequence machinery produces for the full-extent section."""
    rc = array.grid.coordinates(rank)
    out: list[tuple[np.ndarray, np.ndarray]] = []
    for dim in array._dims:
        if dim.layout is None:
            idx = np.arange(dim.extent, dtype=np.int64)
            out.append((idx, idx))
        else:
            coord = rc[dim.axis_map.grid_axis]
            out.append(
                cached_localized_arrays(
                    dim.layout.p, dim.layout.k, dim.extent,
                    dim.axis_map.alignment,
                    RegularSection(0, dim.extent - 1, 1), coord,
                )
            )
    return out


def _is_lowest_owner(array: DistributedArray, rank: int) -> bool:
    """Whether ``rank`` is the lowest rank holding each of its elements
    (true for every rank unless the array is replicated over some grid
    axis; with row-major rank linearization the lowest replica holder
    has coordinate 0 on every replicated axis)."""
    rc = array.grid.coordinates(rank)
    return all(
        rc[axis] == 0
        for axis in range(array.grid.rank)
        if array.is_replicated_over_axis(axis)
    )


def distribute(
    vm: VirtualMachine, array: DistributedArray, values: np.ndarray
) -> None:
    """Scatter a host image into per-rank local memories (named after the
    array).  Replicated axes receive full copies.

    Vectorized: each rank's local image is one cross-product fancy-index
    gather/scatter built from the per-dimension layout closed forms --
    no per-element ownership tests
    (:func:`repro.runtime.oracles.distribute_reference` keeps that
    scalar sweep as the oracle).
    """
    _check_vm(vm, array)
    values = np.asarray(values)
    if values.shape != array.shape:
        raise ValueError(
            f"host image shape {values.shape} != array shape {array.shape}"
        )
    with vm.obs.span("distribute", array=array.name):
        for rank in range(array.grid.size):
            shape = array.local_shape(rank)
            local = np.zeros(shape, dtype=values.dtype)
            dims = _dim_images(array, rank)
            local[np.ix_(*[slots for _, slots in dims])] = values[
                np.ix_(*[idx for idx, _ in dims])
            ]
            proc = vm.processors[rank]
            proc.allocate(array.name, local.size, dtype=values.dtype)
            proc.memory(array.name)[:] = local.reshape(-1)


def collect(
    vm: VirtualMachine, array: DistributedArray, dtype=np.float64
) -> np.ndarray:
    """Gather per-rank local memories back into one host image.

    Replicated elements are taken from the lowest owning rank; the
    integration tests separately assert replica coherence.  Vectorized
    like :func:`distribute`: one cross-product fancy-index per
    contributing rank instead of a per-element ownership sweep.
    """
    _check_vm(vm, array)
    out = np.zeros(array.shape, dtype=dtype)
    with vm.obs.span("collect", array=array.name):
        for rank in range(array.grid.size):
            if not _is_lowest_owner(array, rank):
                continue
            dims = _dim_images(array, rank)
            local = vm.processors[rank].memory(array.name).reshape(
                array.local_shape(rank)
            )
            out[np.ix_(*[idx for idx, _ in dims])] = local[
                np.ix_(*[slots for _, slots in dims])
            ]
    return out


def execute_fill(
    vm: VirtualMachine,
    array: DistributedArray,
    sections: tuple[RegularSection, ...],
    value,
) -> int:
    """Run ``A(sections) = value`` on every rank; returns the number of
    logical elements written.

    Rank-1 arrays store through the cached plan's ΔM table
    (:func:`repro.runtime.codegen.fill_vectorized`: ``start +
    cumsum(tile(ΔM))``, for any alignment); multidimensional arrays
    through the outer sum of the per-dimension slot vectors (the
    Section-2 reduction).  Every rank holding a replica stores, but
    each element counts once, at its lowest owner.
    """
    _check_vm(vm, array)
    if len(sections) != array.rank:
        raise ValueError(
            f"need {array.rank} sections for {array.name}, got {len(sections)}"
        )
    replicated = any(
        array.is_replicated_over_axis(axis) for axis in range(array.grid.rank)
    )
    total = 0
    with vm.obs.span("execute_fill", array=array.name):
        for rank in range(array.grid.size):
            if array.rank == 1:
                plan = cached_array_plan(array, 0, sections[0], rank)
                if plan.is_empty:
                    continue
                memory = vm.processors[rank].memory(array.name)
                written = fill_vectorized(memory, plan, value)
            else:
                addrs = flat_local_addresses(array, sections, rank)
                if len(addrs):
                    vm.processors[rank].memory(array.name)[addrs] = value
                written = len(addrs)
            if not replicated or _is_lowest_owner(array, rank):
                total += written
    return total


def execute_copy(
    vm: VirtualMachine,
    a: DistributedArray,
    sec_a: RegularSection,
    b: DistributedArray,
    sec_b: RegularSection,
    schedule: CommSchedule | None = None,
) -> CommSchedule:
    """Run ``A(sec_a) = B(sec_b)`` with generated communication.

    Three supersteps: local copies + packed sends, then delivery, then
    unpack into LHS local memory.  A precomputed ``schedule`` may be
    passed (the compile-time-constants case the paper discusses);
    otherwise one comes from the plan cache (repeated statements over
    identically mapped operands reuse the schedule object).
    """
    _check_vm(vm, a)
    _check_vm(vm, b)
    if schedule is None:
        with vm.obs.span("schedule", statement="copy"):
            schedule = cached_comm_schedule(a, sec_a, b, sec_b)
    tag = ("copy", a.name, b.name)

    # Fortran semantics: the RHS is read in full before any element is
    # stored.  All payloads -- remote sends AND local copies -- are
    # gathered (fancy indexing copies) before the first write, so
    # aliased self-copies like A(0:n-2) = A(1:n-1) stay correct.
    # Ranks beyond an operand's grid (elastic machines run with
    # vm.p >= grid.size) hold no shard of it and skip its phase.
    def pack_phase(ctx):
        if ctx.rank >= b.grid.size:
            return
        src_mem = ctx.memory(b.name)
        for tr in schedule.sends_from(ctx.rank):
            ctx.send(tr.dest, tag, gather_slots(src_mem, tr.src_slots))
        staged = [
            (tr, gather_slots(src_mem, tr.src_slots))
            for tr in schedule.locals_
            if tr.source == ctx.rank
        ]
        if staged:
            dst_mem = ctx.memory(a.name)
            for tr, values in staged:
                scatter_slots(dst_mem, tr.dst_slots, values)

    def unpack_phase(ctx):
        if ctx.rank >= a.grid.size:
            return
        dst_mem = ctx.memory(a.name)
        for tr in schedule.receives_at(ctx.rank):
            payload = ctx.recv(tr.source, tag)
            scatter_slots(dst_mem, tr.dst_slots, payload)

    with vm.obs.span("execute_copy", array=a.name, rhs=b.name):
        vm.bsp(pack_phase, unpack_phase)
    return schedule


def execute_combine(
    vm: VirtualMachine,
    a: DistributedArray,
    sec_a: RegularSection,
    terms: list[tuple[float, DistributedArray, RegularSection]],
    schedules: list[CommSchedule] | None = None,
) -> list[CommSchedule]:
    """Run ``A(sec_a) = sum_t coef_t * T_t(sec_t)`` with communication.

    Each term contributes one communication schedule (identical in shape
    to :func:`execute_copy`'s); destination slots are zeroed once and
    every arriving contribution accumulates scaled.  Aliasing is safe:
    a term may read from ``A`` itself (e.g. ``A(1:n-2) = 0.5*A(0:n-3) +
    0.5*A(2:n-1)``) because each rank stages its local contributions
    before zeroing its destination slots, and remote payloads are packed
    from every rank's memory before any destination is zeroed on that
    rank.

    Pass precomputed ``schedules`` (one per term, in order) to skip the
    compile-time set generation, as with :func:`execute_copy`.
    """
    _check_vm(vm, a)
    if not terms:
        raise ValueError("need at least one term")
    for _, src, _ in terms:
        _check_vm(vm, src)
    if schedules is None:
        schedules = [
            cached_comm_schedule(a, sec_a, src, sec_src)
            for _, src, sec_src in terms
        ]
    if len(schedules) != len(terms):
        raise ValueError(
            f"need one schedule per term: {len(terms)} terms, "
            f"{len(schedules)} schedules"
        )

    # Destination slots owned by each rank (zeroed exactly once).
    dim_a = a._dims[0]
    dst_slots_by_rank: dict[int, np.ndarray] = {
        rank: cached_localized_arrays(
            dim_a.layout.p, dim_a.layout.k, dim_a.extent,
            dim_a.axis_map.alignment, sec_a, rank,
        )[1]
        for rank in range(a.grid.size)
    }

    def tag(t: int) -> tuple:
        return ("combine", a.name, t)

    def pack_phase(ctx):
        staged = []
        for t, ((coef, src, _), sched) in enumerate(zip(terms, schedules)):
            if ctx.rank >= src.grid.size:
                continue
            src_mem = ctx.memory(src.name)
            for tr in sched.sends_from(ctx.rank):
                payload = src_mem[as_index(tr.src_slots)].copy()
                ctx.send(tr.dest, tag(t), payload)
            for tr in sched.locals_:
                if tr.source == ctx.rank:
                    values = src_mem[as_index(tr.src_slots)].copy()
                    staged.append((coef, tr.dst_slots, values))
        if ctx.rank >= a.grid.size:
            return
        dst_mem = ctx.memory(a.name)
        dst_mem[dst_slots_by_rank[ctx.rank]] = 0.0
        for coef, dst_slots, values in staged:
            np.add.at(
                dst_mem, as_index(dst_slots), coef * values
            )

    def unpack_phase(ctx):
        if ctx.rank >= a.grid.size:
            return
        dst_mem = ctx.memory(a.name)
        for t, ((coef, _, _), sched) in enumerate(zip(terms, schedules)):
            for tr in sched.receives_at(ctx.rank):
                payload = ctx.recv(tr.source, tag(t))
                np.add.at(
                    dst_mem, as_index(tr.dst_slots),
                    coef * payload,
                )

    with vm.obs.span("execute_combine", array=a.name, terms=len(terms)):
        vm.bsp(pack_phase, unpack_phase)
    return schedules


def execute_copy_2d(
    vm: VirtualMachine,
    a: DistributedArray,
    secs_a,
    b: DistributedArray,
    secs_b,
    schedule=None,
    rhs_dims: tuple[int, int] = (0, 1),
):
    """Run the 2-D statement ``A(secs_a) = B(secs_b)`` with communication.

    The tensor-product schedule of
    :func:`repro.runtime.commsets2d.compute_comm_schedule_2d`; the same
    pack / exchange / unpack supersteps as :func:`execute_copy`.
    ``rhs_dims=(1, 0)`` pairs LHS dimension 0 with RHS dimension 1 --
    the distributed transpose (see :func:`execute_transpose`).
    """
    _check_vm(vm, a)
    _check_vm(vm, b)
    if schedule is None:
        schedule = cached_comm_schedule_2d(
            a, tuple(secs_a), b, tuple(secs_b), rhs_dims
        )
    tag = ("copy2d", a.name, b.name)

    # Read-before-write staging, as in execute_copy (a rank may carry
    # several local transfers in 2-D, so all are gathered first).
    def pack_phase(ctx):
        if ctx.rank >= b.grid.size:
            return
        src_mem = ctx.memory(b.name)
        for tr in schedule.sends_from(ctx.rank):
            ctx.send(tr.dest, tag, gather_slots(src_mem, tr.src_slots))
        staged = [
            (tr, gather_slots(src_mem, tr.src_slots))
            for tr in schedule.locals_
            if tr.source == ctx.rank
        ]
        if staged:
            dst_mem = ctx.memory(a.name)
            for tr, values in staged:
                scatter_slots(dst_mem, tr.dst_slots, values)

    def unpack_phase(ctx):
        if ctx.rank >= a.grid.size:
            return
        dst_mem = ctx.memory(a.name)
        for tr in schedule.receives_at(ctx.rank):
            payload = ctx.recv(tr.source, tag)
            scatter_slots(dst_mem, tr.dst_slots, payload)

    with vm.obs.span("execute_copy_2d", array=a.name, rhs=b.name):
        vm.bsp(pack_phase, unpack_phase)
    return schedule


def execute_transpose(
    vm: VirtualMachine,
    a: DistributedArray,
    b: DistributedArray,
    schedule=None,
):
    """Distributed transpose: ``A(i, j) = B(j, i)`` over whole arrays.

    The classic communication-intensive array statement; requires
    ``A.shape == (B.shape[1], B.shape[0])``.  Built on the transposed
    tensor-product schedule (``rhs_dims=(1, 0)``).
    """
    if a.rank != 2 or b.rank != 2:
        raise ValueError("transpose requires rank-2 arrays")
    if a.shape != (b.shape[1], b.shape[0]):
        raise ValueError(
            f"shape mismatch for transpose: {a.name}{list(a.shape)} vs "
            f"{b.name}{list(b.shape)}^T"
        )
    secs_a = (
        RegularSection(0, a.shape[0] - 1, 1),
        RegularSection(0, a.shape[1] - 1, 1),
    )
    secs_b = (
        RegularSection(0, b.shape[0] - 1, 1),
        RegularSection(0, b.shape[1] - 1, 1),
    )
    return execute_copy_2d(vm, a, secs_a, b, secs_b, schedule, rhs_dims=(1, 0))
