"""Lower parsed mini-HPF programs to distributed descriptors + node plans.

The compilation pipeline a real HPF compiler would run, in miniature:

1. resolve declarations (processors, templates, arrays; one or two
   dimensions);
2. compose each array's per-dimension alignments with its template's
   distribution formats into a
   :class:`repro.distribution.DistributedArray` descriptor (partitioned
   template dimensions map onto the processor grid's axes in order;
   ``*`` dimensions stay collapsed);
3. lower each statement into an executable :class:`LoweredStatement`
   driving :mod:`repro.runtime` -- access plans for fills, 1-D/2-D
   communication schedules for copies and transposes, one schedule per
   term for scaled sums.  All schedules are computed at compile time
   (every parameter in this language is a compile-time constant -- the
   optimization the paper's Section 6.1 describes).

:class:`CompiledProgram.run` executes the statement list on a
:class:`repro.machine.VirtualMachine`.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

import numpy as np

from ..distribution.align import Alignment
from ..distribution.array import AxisMap, DistributedArray
from ..distribution.dist import Block, Collapsed, Cyclic, CyclicK, ProcessorGrid
from ..distribution.section import RegularSection
from ..machine.vm import VirtualMachine
from ..runtime.commsets import CommSchedule
from ..runtime.plancache import cached_comm_schedule, cached_comm_schedule_2d
from ..runtime.exec import (
    collect,
    distribute,
    execute_combine,
    execute_copy,
    execute_copy_2d,
    execute_fill,
)
from .ast_nodes import (
    CombineAssign,
    CopyAssign,
    FillAssign,
    ForallAssign,
    Program,
    SectionRef,
    TransposeAssign,
    Triplet,
)
from .desugar import desugar_forall
from .parser import parse_program

__all__ = [
    "CompileError",
    "LoweredStatement",
    "CompiledProgram",
    "compile_program",
    "compile_source",
]


class CompileError(ValueError):
    """Semantic error during lowering (unknown names, bounds, shapes)."""


@dataclass
class LoweredStatement:
    """One executable statement with its precomputed runtime artifacts."""

    description: str
    run: Callable[[VirtualMachine], int]
    schedule: object | None = None


@dataclass
class CompiledProgram:
    """Executable result of compilation."""

    grid: ProcessorGrid
    arrays: dict[str, DistributedArray]
    statements: list[LoweredStatement]

    @property
    def nprocs(self) -> int:
        return self.grid.size

    def make_machine(self) -> VirtualMachine:
        """A fresh VM with every array allocated (zero-filled)."""
        vm = VirtualMachine(self.nprocs)
        for array in self.arrays.values():
            distribute(vm, array, np.zeros(array.shape))
        return vm

    def run(self, vm: VirtualMachine | None = None) -> VirtualMachine:
        """Execute all statements in order; returns the machine."""
        if vm is None:
            vm = self.make_machine()
        for stmt in self.statements:
            stmt.run(vm)
        return vm

    def image(self, vm: VirtualMachine, name: str) -> np.ndarray:
        """Collected host image of an array after a run."""
        if name not in self.arrays:
            raise CompileError(f"unknown array {name!r}")
        return collect(vm, self.arrays[name])


def _sections(ref: SectionRef) -> tuple[RegularSection, ...]:
    return tuple(
        RegularSection(t.lower, t.upper, t.stride) for t in ref.triplets
    )


def _format_sections(secs: tuple[RegularSection, ...]) -> str:
    return ", ".join(str(sec) for sec in secs)


def _check_bounds(
    ref: SectionRef, array: DistributedArray
) -> tuple[RegularSection, ...]:
    if ref.rank != array.rank:
        raise CompileError(
            f"section {ref.array} has {ref.rank} subscripts but the array "
            f"is rank-{array.rank}"
        )
    secs = _sections(ref)
    for sec, extent in zip(secs, array.shape):
        norm = sec.normalized()
        if not norm.is_empty and (norm.lower < 0 or norm.upper >= extent):
            raise CompileError(
                f"section {ref.array}({_format_sections(secs)}) exceeds "
                f"bounds [0, {extent})"
            )
    return secs


def _resolve_format(fmt: str, k: int | None):
    if fmt == "BLOCK":
        return Block()
    if fmt == "CYCLIC":
        return Cyclic()
    if fmt == "*":
        return Collapsed()
    return CyclicK(k)


def compile_program(program: Program) -> CompiledProgram:
    """Lower a parsed :class:`Program`; see module docstring."""
    if len(program.processors) != 1:
        raise CompileError(
            f"exactly one PROCESSORS declaration required, got {len(program.processors)}"
        )
    proc_decl = program.processors[0]
    grid = ProcessorGrid(proc_decl.name, proc_decl.shape)

    template_shapes = {t.name: t.shape for t in program.templates}
    if len(template_shapes) != len(program.templates):
        raise CompileError("duplicate TEMPLATE declarations")
    array_shapes = {a.name: a.shape for a in program.arrays}
    if len(array_shapes) != len(program.arrays):
        raise CompileError("duplicate array declarations")

    # ------------------------------------------------------------------
    # DISTRIBUTE resolution.
    # ------------------------------------------------------------------
    dist_by_template: dict[str, tuple] = {}
    for d in program.distributes:
        if d.template not in template_shapes:
            raise CompileError(f"DISTRIBUTE of undeclared template {d.template!r}")
        if d.processors != proc_decl.name:
            raise CompileError(f"DISTRIBUTE onto unknown processors {d.processors!r}")
        if d.template in dist_by_template:
            raise CompileError(f"template {d.template!r} distributed twice")
        shape = template_shapes[d.template]
        if len(d.formats) != len(shape):
            raise CompileError(
                f"DISTRIBUTE arity mismatch for {d.template!r}: template is "
                f"rank-{len(shape)}, got {len(d.formats)} formats"
            )
        dists = tuple(_resolve_format(fmt, k) for fmt, k in zip(d.formats, d.ks))
        partitioned = sum(1 for dist in dists if dist.partitions)
        if partitioned != grid.rank:
            raise CompileError(
                f"template {d.template!r} partitions {partitioned} dimensions "
                f"but the grid {proc_decl.name} is rank-{grid.rank}"
            )
        dist_by_template[d.template] = dists

    # ------------------------------------------------------------------
    # ALIGN resolution.
    # ------------------------------------------------------------------
    align_by_array: dict[str, tuple[str, tuple[Alignment, ...]]] = {}
    for al in program.aligns:
        if al.array not in array_shapes:
            raise CompileError(f"ALIGN of undeclared array {al.array!r}")
        if al.template not in template_shapes:
            raise CompileError(f"ALIGN with undeclared template {al.template!r}")
        if al.array in align_by_array:
            raise CompileError(f"array {al.array!r} aligned twice")
        if len(al.coefficients) != len(array_shapes[al.array]):
            raise CompileError(
                f"ALIGN arity mismatch: array {al.array!r} is "
                f"rank-{len(array_shapes[al.array])}, got "
                f"{len(al.coefficients)} expressions"
            )
        if len(al.coefficients) != len(template_shapes[al.template]):
            raise CompileError(
                f"ALIGN arity mismatch: template {al.template!r} is "
                f"rank-{len(template_shapes[al.template])}"
            )
        alignments = tuple(Alignment(a, b) for a, b in al.coefficients)
        align_by_array[al.array] = (al.template, alignments)

    # ------------------------------------------------------------------
    # Array descriptors.
    # ------------------------------------------------------------------
    arrays: dict[str, DistributedArray] = {}
    for name, shape in array_shapes.items():
        if name not in align_by_array:
            raise CompileError(f"array {name!r} has no ALIGN directive")
        template, alignments = align_by_array[name]
        if template not in dist_by_template:
            raise CompileError(
                f"array {name!r} aligned to undistributed template {template!r}"
            )
        dists = dist_by_template[template]
        tmpl_shape = template_shapes[template]
        axis_maps = []
        axis_counter = 0
        for dim, (extent, alignment, dist, tmpl_extent) in enumerate(
            zip(shape, alignments, dists, tmpl_shape)
        ):
            alloc = alignment.allocation_section(extent).normalized()
            if alloc.lower < 0 or alloc.upper >= tmpl_extent:
                raise CompileError(
                    f"array {name!r} dimension {dim} alignment maps outside "
                    f"template {template!r} (cells {alloc.lower}..{alloc.upper} "
                    f"vs size {tmpl_extent})"
                )
            if dist.partitions:
                axis_maps.append(
                    AxisMap(dist, alignment, grid_axis=axis_counter,
                            template_extent=tmpl_extent)
                )
                axis_counter += 1
            else:
                if not alignment.is_identity:
                    raise CompileError(
                        f"array {name!r} dimension {dim}: non-identity "
                        "alignment on a collapsed (*) dimension is not supported"
                    )
                axis_maps.append(AxisMap(dist, alignment))
        arrays[name] = DistributedArray(name, shape, grid, tuple(axis_maps))

    # ------------------------------------------------------------------
    # Statement lowering.
    # ------------------------------------------------------------------
    statements: list[LoweredStatement] = []

    def resolve(ref: SectionRef) -> DistributedArray:
        if ref.array not in arrays:
            raise CompileError(f"statement uses undeclared array {ref.array!r}")
        return arrays[ref.array]

    for stmt in program.statements:
        if isinstance(stmt, ForallAssign):
            lowered = desugar_forall(stmt)
            if lowered is None:
                # Empty iteration set: a verified no-op.
                statements.append(LoweredStatement(
                    f"FORALL ({stmt.var} = {stmt.triplet.lower}:"
                    f"{stmt.triplet.upper}:{stmt.triplet.stride}) [empty]",
                    lambda vm: 0,
                ))
                continue
            stmt = lowered
        if isinstance(stmt, FillAssign):
            array = resolve(stmt.target)
            secs = _check_bounds(stmt.target, array)
            value = stmt.value

            def run_fill(vm, array=array, secs=secs, value=value):
                return execute_fill(vm, array, secs, value)

            statements.append(LoweredStatement(
                f"{stmt.target.array}({_format_sections(secs)}) = {value}",
                run_fill,
            ))

        elif isinstance(stmt, CopyAssign):
            a = resolve(stmt.target)
            b = resolve(stmt.source)
            secs_a = _check_bounds(stmt.target, a)
            secs_b = _check_bounds(stmt.source, b)
            if a.rank != b.rank:
                raise CompileError(
                    f"rank mismatch: {a.name} is rank-{a.rank}, "
                    f"{b.name} is rank-{b.rank}"
                )
            lengths_a = tuple(len(sec) for sec in secs_a)
            lengths_b = tuple(len(sec) for sec in secs_b)
            if lengths_a != lengths_b:
                raise CompileError(
                    f"non-conformable assignment: {lengths_a} vs {lengths_b}"
                )
            if a.rank == 1:
                schedule = cached_comm_schedule(a, secs_a[0], b, secs_b[0])

                def run_copy(vm, a=a, secs_a=secs_a, b=b, secs_b=secs_b,
                             schedule=schedule):
                    execute_copy(vm, a, secs_a[0], b, secs_b[0], schedule=schedule)
                    return schedule.total_elements

            elif a.rank == 2:
                schedule = cached_comm_schedule_2d(a, secs_a, b, secs_b)

                def run_copy(vm, a=a, secs_a=secs_a, b=b, secs_b=secs_b,
                             schedule=schedule):
                    execute_copy_2d(vm, a, secs_a, b, secs_b, schedule=schedule)
                    return schedule.total_elements

            else:  # pragma: no cover - parser limits ranks via declarations
                raise CompileError("copies support rank-1 and rank-2 arrays only")
            statements.append(LoweredStatement(
                f"{stmt.target.array}({_format_sections(secs_a)}) = "
                f"{stmt.source.array}({_format_sections(secs_b)})",
                run_copy,
                schedule,
            ))

        elif isinstance(stmt, TransposeAssign):
            a = resolve(stmt.target)
            b = resolve(stmt.source)
            if a.rank != 2 or b.rank != 2:
                raise CompileError("TRANSPOSE requires rank-2 arrays")
            secs_a = _check_bounds(stmt.target, a)
            secs_b = _check_bounds(stmt.source, b)
            lengths_a = tuple(len(sec) for sec in secs_a)
            lengths_b = tuple(len(sec) for sec in secs_b)
            if lengths_a != (lengths_b[1], lengths_b[0]):
                raise CompileError(
                    f"non-conformable TRANSPOSE: {lengths_a} vs "
                    f"{lengths_b} transposed"
                )
            schedule = cached_comm_schedule_2d(
                a, secs_a, b, secs_b, rhs_dims=(1, 0)
            )

            def run_transpose(vm, a=a, secs_a=secs_a, b=b, secs_b=secs_b,
                              schedule=schedule):
                execute_copy_2d(vm, a, secs_a, b, secs_b,
                                schedule=schedule, rhs_dims=(1, 0))
                return schedule.total_elements

            statements.append(LoweredStatement(
                f"{stmt.target.array}({_format_sections(secs_a)}) = "
                f"TRANSPOSE({stmt.source.array}({_format_sections(secs_b)}))",
                run_transpose,
                schedule,
            ))

        elif isinstance(stmt, CombineAssign):
            a = resolve(stmt.target)
            if a.rank != 1:
                raise CompileError("scaled sums support rank-1 arrays only")
            secs_a = _check_bounds(stmt.target, a)
            sec_a = secs_a[0]
            lowered_terms = []
            for term in stmt.terms:
                src = resolve(term.section)
                if src.rank != 1:
                    raise CompileError("scaled sums support rank-1 arrays only")
                sec_t = _check_bounds(term.section, src)[0]
                if len(sec_t) != len(sec_a):
                    raise CompileError(
                        f"non-conformable assignment: |{sec_a}| = {len(sec_a)} "
                        f"vs |{sec_t}| = {len(sec_t)}"
                    )
                lowered_terms.append((term.coef, src, sec_t))
            term_schedules = [
                cached_comm_schedule(a, sec_a, src, sec_t)
                for _, src, sec_t in lowered_terms
            ]

            def run_combine(vm, a=a, sec_a=sec_a, lowered_terms=lowered_terms,
                            term_schedules=term_schedules):
                execute_combine(vm, a, sec_a, lowered_terms,
                                schedules=term_schedules)
                return sum(sched.total_elements for sched in term_schedules)

            rhs = " + ".join(
                f"{term.coef}*{term.section.array}"
                f"({_format_sections(_sections(term.section))})"
                for term in stmt.terms
            )
            statements.append(LoweredStatement(
                f"{stmt.target.array}({sec_a}) = {rhs}",
                run_combine,
                term_schedules[0] if term_schedules else None,
            ))

        else:  # pragma: no cover - parser only produces the four kinds
            raise CompileError(f"unsupported statement {stmt!r}")

    return CompiledProgram(grid, arrays, statements)


def compile_source(source: str) -> CompiledProgram:
    """Parse + compile in one step."""
    return compile_program(parse_program(source))
