"""Tests for the compiled-kernel subsystem (:mod:`repro.runtime.native`).

Four layers:

* differential -- the compiled Figure 8 shapes and pack/unpack kernels
  must be bit-identical to the interpreted Python shapes (the semantics
  of record) and to shape (v), the executors' fill, over randomized
  identity and affine plan sweeps, and the executors' machine states
  must match the compiled kernels applied plan by plan;
* production tier -- running a compiled program never calls the
  interpreted shapes (a)-(d) and never builds or loads a kernel library;
* cache -- one compilation ever per descriptor, disk hits after the
  handle cache is dropped, corrupt artifacts rejected and rebuilt;
* degradation -- a missing or broken compiler falls back to NumPy with
  one warning and a counter, never an exception, never wrong results.

Compiler-dependent tests skip when the host has no cc/gcc; the
degradation tests run everywhere (they *hide* the compiler on purpose).
"""

import os
import shutil
import sys
import warnings

import numpy as np
import pytest

from repro.distribution import (
    Alignment,
    AxisMap,
    CyclicK,
    DistributedArray,
    ProcessorGrid,
    RegularSection,
)
from repro.machine.vm import VirtualMachine
from repro.obs import Observability, set_ambient
from repro.lang import compile_source, parse_program
from repro.lang.reference import interpret
from repro.machine.trace import TracingMemory
from repro.runtime import (
    cached_array_plan,
    cached_comm_schedule,
    cached_localized_arrays,
    clear_plan_caches,
    collect,
    distribute,
    execute_copy,
    execute_fill,
    fill_vectorized,
    get_shape,
    make_array_plan,
    make_plan,
)
from repro.runtime import codegen
from repro.runtime.native import (
    RuntimeKernels,
    get_runtime_kernels,
    native_available,
    reset_native_state,
)
from repro.runtime.native.build import (
    NativeBuildError,
    build_cached,
    clear_handle_cache,
    compiler_id,
    descriptor_hash,
    find_compiler,
    load_library,
)

needs_cc = pytest.mark.skipif(
    shutil.which("cc") is None and shutil.which("gcc") is None,
    reason="no C compiler on host",
)

TINY_C = "long forty_two(void) { return 42; }\n"


@pytest.fixture
def native_env(tmp_path, monkeypatch):
    """Fresh cache dir + fresh in-process native state per test."""
    cache = tmp_path / "native-cache"
    monkeypatch.setenv("REPRO_NATIVE_CACHE", str(cache))
    monkeypatch.delenv("REPRO_NATIVE_CC", raising=False)
    reset_native_state()
    yield cache
    reset_native_state()


@pytest.fixture
def obs():
    """An enabled Observability installed as ambient for the test."""
    ob = Observability()
    prev = set_ambient(ob)
    yield ob
    set_ambient(prev)


def random_plan(rng):
    p = int(rng.integers(1, 9))
    k = int(rng.integers(1, 17))
    l = int(rng.integers(0, 40))
    s = int(rng.integers(1, 120))
    u = l + int(rng.integers(0, 500))
    m = int(rng.integers(0, p))
    from repro.core.counting import local_allocation_size

    return make_plan(p, k, l, u, s, m), local_allocation_size(p, k, u + 1, m)


def make_1d(name, n, p, k, a=1, b=0):
    return DistributedArray(
        name, (n,), ProcessorGrid("G", (p,)),
        (AxisMap(CyclicK(k), Alignment(a, b), grid_axis=0),),
    )


def random_array_plan(rng):
    """A random identity- or affine-aligned array plan and its rank's
    local size (affine plans have no shape-(d) tables)."""
    p = int(rng.integers(1, 9))
    k = int(rng.integers(1, 17))
    a, b = [(1, 0), (1, 4), (2, 1), (3, 2)][int(rng.integers(0, 4))]
    n = int(rng.integers(1, 500))
    l = int(rng.integers(0, n))
    u = int(rng.integers(l, n))
    s = int(rng.integers(1, 30))
    m = int(rng.integers(0, p))
    arr = make_1d("A", n, p, k, a, b)
    return make_array_plan(arr, 0, RegularSection(l, u, s), m), arr.local_size(m)


# ---------------------------------------------------------------------------
# Differential: compiled kernels vs the interpreted semantics of record
# ---------------------------------------------------------------------------

@needs_cc
class TestDifferential:
    def test_fill_shapes_bit_identical(self, native_env):
        kernels = get_runtime_kernels()
        assert kernels is not None
        rng = np.random.default_rng(42)
        for _ in range(30):
            plan, size = random_plan(rng)
            value = float(rng.standard_normal())
            for shape in "abcdv":
                ref = np.zeros(size)
                want = get_shape(shape, native=False)(ref, plan, value)
                got_mem = np.zeros(size)
                got = kernels.fill(got_mem, plan, value, shape)
                assert got == want, (plan, shape)
                assert np.array_equal(got_mem, ref), (plan, shape)

    def test_paper_worked_example(self, native_env):
        kernels = get_runtime_kernels()
        plan = make_plan(4, 8, 4, 319, 9, 1)
        for shape in "abcd":
            mem = np.zeros(80)
            assert kernels.fill(mem, plan, 100.0, shape) == 9
            assert np.flatnonzero(mem).tolist() == [
                5, 8, 20, 35, 47, 50, 62, 65, 77
            ]

    def test_gather_scatter_match_fancy_indexing(self, native_env):
        kernels = get_runtime_kernels()
        rng = np.random.default_rng(7)
        for _ in range(20):
            n = int(rng.integers(1, 300))
            src = rng.standard_normal(n)
            idx = rng.integers(0, n, size=int(rng.integers(0, 80)))
            assert np.array_equal(kernels.gather(src, idx), src[idx])
            vals = rng.standard_normal(len(idx))
            dst_native, dst_numpy = np.zeros(n), np.zeros(n)
            assert kernels.scatter(dst_native, idx, vals)
            dst_numpy[idx] = vals  # duplicate slots: last write wins, both paths
            assert np.array_equal(dst_native, dst_numpy)

    def test_non_contiguous_memory_declined(self, native_env):
        kernels = get_runtime_kernels()
        plan = make_plan(4, 8, 4, 319, 9, 1)
        strided = np.zeros(160)[::2]
        assert kernels.fill(strided, plan, 1.0, "b") is None
        assert kernels.gather(strided, np.array([0, 1])) is None
        assert not kernels.scatter(strided, np.array([0]), np.array([1.0]))

    def test_kernels_match_fill_vectorized(self, native_env):
        # Every compiled shape (d where its tables exist) writes the bits
        # the executors' fill writes, on identity and affine plans; on a
        # TracingMemory (not native-servable) the compiled shape falls
        # back and logs the same ascending write sequence.
        kernels = get_runtime_kernels()
        rng = np.random.default_rng(5)
        for _ in range(60):
            plan, size = random_array_plan(rng)
            value = float(rng.standard_normal())
            want = TracingMemory(np.zeros(size))
            written = fill_vectorized(want, plan, value)
            for shape in ("abcd" if plan.start_offset is not None else "abc"):
                mem = np.zeros(size)
                assert kernels.fill(mem, plan, value, shape) == written
                assert np.array_equal(mem, want.arena), (plan, shape)
                traced = TracingMemory(np.zeros(size))
                assert get_shape(shape, native=True)(traced, plan, value) == written
                assert traced.trace.writes == want.trace.writes, (plan, shape)

    def test_executors_bit_identical(self, native_env):
        # The production distribute/fill/collect against the compiled
        # kernels applied plan by plan to the same host image.
        kernels = get_runtime_kernels()
        rng = np.random.default_rng(11)
        for n, p, k, a, b in [(257, 4, 5, 1, 0), (64, 3, 1, 1, 0),
                              (100, 5, 8, 1, 0), (90, 4, 3, 2, 1)]:
            host = rng.standard_normal(n)
            arr = make_1d("X", n, p, k, a, b)
            vm = VirtualMachine(p)
            distribute(vm, arr, host)
            sec = RegularSection(1, n - 2, 3)
            total = execute_fill(vm, arr, (sec,), 5.0)
            want_total = 0
            collected = np.zeros(n)
            for m in range(p):
                idx, slots = cached_localized_arrays(
                    p, k, n, Alignment(a, b), RegularSection(0, n - 1, 1), m
                )
                local = np.zeros(arr.local_size(m))
                assert kernels.scatter(local, slots, kernels.gather(host, idx))
                plan = cached_array_plan(arr, 0, sec, m)
                counts = set()
                for shape in ("abcd" if plan.start_offset is not None else "abc"):
                    image = local.copy()
                    counts.add(kernels.fill(image, plan, 5.0, shape))
                    assert np.array_equal(image, vm.processors[m].memory("X"))
                (written,) = counts
                want_total += written
                assert kernels.scatter(collected, idx, kernels.gather(image, slots))
            assert total == want_total
            assert np.array_equal(collect(vm, arr), collected)

    def test_execute_copy_bit_identical(self, native_env):
        # execute_copy against its schedule replayed through the compiled
        # pack/unpack kernels (every payload gathered before any store).
        kernels = get_runtime_kernels()
        clear_plan_caches()
        n, p = 200, 4
        host = np.arange(n, dtype=float)
        a, b = make_1d("A", n, p, 7), make_1d("B", n, p, 3)
        vm = VirtualMachine(p)
        distribute(vm, a, np.zeros(n))
        distribute(vm, b, host)
        src = [vm.processors[m].memory("B").copy() for m in range(p)]
        dst = [vm.processors[m].memory("A").copy() for m in range(p)]
        sec_a, sec_b = RegularSection(0, n - 2, 1), RegularSection(1, n - 1, 1)
        execute_copy(vm, a, sec_a, b, sec_b)
        schedule = cached_comm_schedule(a, sec_a, b, sec_b)
        payloads = [
            (tr, kernels.gather(src[tr.source], np.asarray(tr.src_slots)))
            for tr in schedule.locals_ + schedule.transfers
        ]
        for tr, values in payloads:
            assert kernels.scatter(dst[tr.dest], np.asarray(tr.dst_slots), values)
        for m in range(p):
            assert np.array_equal(vm.processors[m].memory("A"), dst[m])
        want = np.zeros(n)
        want[0:n - 1] = host[1:n]
        assert np.array_equal(collect(vm, a), want)


# ---------------------------------------------------------------------------
# The production tier never dispatches to Figure 8 loops or compiled code
# ---------------------------------------------------------------------------

PROGRAMS = ("""
PROCESSORS P(4)
TEMPLATE   T(1200)
REAL       A(300)
REAL       B(300)
REAL       C(300)
ALIGN      A(i) WITH T(i)
ALIGN      B(i) WITH T(2*i+1)
ALIGN      C(i) WITH T(3*i+5)
DISTRIBUTE T(CYCLIC(8)) ONTO P
A(4:299:9) = 100.0
B(0:299:3) = 7.0
C(1:298:2) = A(0:297:2)
A(0:298) = 0.5*A(1:299) + 0.5*B(0:298)
FORALL (i = 0:99) C(3*i) = 2.0
""", """
PROCESSORS P(2, 2)
TEMPLATE   U(12, 10)
TEMPLATE   V(10, 12)
REAL       M(12, 10)
REAL       Q(10, 12)
ALIGN      M(i, j) WITH U(i, j)
ALIGN      Q(i, j) WITH V(i, j)
DISTRIBUTE U(CYCLIC(2), CYCLIC(3)) ONTO P
DISTRIBUTE V(CYCLIC(3), CYCLIC(2)) ONTO P
M(1:11:2, 0:9:3) = 5.0
Q(0:9, 0:11) = TRANSPOSE(M(0:11, 0:9))
Q(0:9:4, 1:11:5) = -2.0
""")


class TestProductionTier:
    def test_compiled_program_never_runs_shapes_or_kernels(self, native_env, obs):
        # A profiler hook sees every call by code object, however the
        # callee was imported or aliased.
        forbidden = {
            fn.__code__: fn.__qualname__
            for fn in (
                codegen.fill_shape_a, codegen.fill_shape_b,
                codegen.fill_shape_c, codegen.fill_shape_d,
                get_runtime_kernels, load_library, build_cached,
                RuntimeKernels.fill, RuntimeKernels.fill_indexed,
                RuntimeKernels.gather, RuntimeKernels.scatter,
            )
        }
        called = []

        def profiler(frame, event, arg):
            if event == "call" and frame.f_code in forbidden:
                called.append(forbidden[frame.f_code])

        before = {name: obs.metrics.value(name) for name in (
            "native.compile", "native.disk_hit", "native.handle_hit",
            "native.fallback",
        )}
        for source in PROGRAMS:
            program = compile_source(source)
            sys.setprofile(profiler)
            try:
                vm = program.run()
            finally:
                sys.setprofile(None)
            want = interpret(parse_program(source), {})
            for name in program.arrays:
                assert np.array_equal(program.image(vm, name), want[name]), name
        assert called == []
        for name, value in before.items():
            assert obs.metrics.value(name) == value, name


# ---------------------------------------------------------------------------
# Cache behavior
# ---------------------------------------------------------------------------

@needs_cc
class TestCache:
    def test_compile_once_then_disk_hits(self, native_env, obs):
        build_cached(TINY_C, {"unit": "t1"})
        assert obs.metrics.value("native.compile") == 1
        build_cached(TINY_C, {"unit": "t1"})
        build_cached(TINY_C, {"unit": "t1"})
        assert obs.metrics.value("native.compile") == 1
        assert obs.metrics.value("native.disk_hit") == 2

    def test_descriptor_and_source_key_the_artifact(self, native_env):
        a = build_cached(TINY_C, {"unit": "t1"})
        b = build_cached(TINY_C, {"unit": "t2"})
        c = build_cached(TINY_C.replace("42", "43"), {"unit": "t1"})
        assert len({a, b, c}) == 3
        for artifact in (a, b, c):
            assert artifact.exists()
            assert artifact.with_suffix(".c").exists()  # source kept alongside

    def test_handle_cache_and_disk_reload(self, native_env, obs):
        lib = load_library(TINY_C, {"unit": "h"}, required_symbols=("forty_two",))
        assert lib.forty_two() == 42
        load_library(TINY_C, {"unit": "h"})
        assert obs.metrics.value("native.handle_hit") == 1
        clear_handle_cache()
        load_library(TINY_C, {"unit": "h"})
        assert obs.metrics.value("native.compile") == 1  # never recompiled
        assert obs.metrics.value("native.disk_hit") >= 2

    def test_corrupt_artifact_rejected_and_rebuilt(self, native_env, obs):
        artifact = build_cached(TINY_C, {"unit": "c"})
        artifact.write_bytes(b"\x7fELF truncated garbage")
        clear_handle_cache()
        lib = load_library(TINY_C, {"unit": "c"}, required_symbols=("forty_two",))
        assert lib.forty_two() == 42
        assert obs.metrics.value("native.rebuild_corrupt") == 1
        assert obs.metrics.value("native.compile") == 2

    def test_missing_symbol_rebuilds_once_then_raises(self, native_env, obs):
        # A library that genuinely lacks the symbol is indistinguishable
        # from corruption: rejected, rebuilt once, and -- still lacking
        # it -- surfaced as a hard build error rather than a loop.
        with pytest.raises(NativeBuildError, match="still unloadable"):
            load_library(
                TINY_C, {"unit": "s"}, required_symbols=("no_such_symbol",)
            )
        assert obs.metrics.value("native.rebuild_corrupt") == 1
        assert obs.metrics.value("native.compile") == 2

    def test_warm_runtime_kernels_zero_compiles(self, native_env, obs):
        assert native_available()
        first = obs.metrics.value("native.compile")
        assert first == 1
        reset_native_state()  # drop handles; the .so stays on disk
        assert native_available()
        assert obs.metrics.value("native.compile") == first
        assert obs.metrics.value("native.disk_hit") >= 1

    def test_compiler_id_in_key(self, native_env):
        h1 = descriptor_hash({"unit": "x", "compiler": compiler_id()})
        h2 = descriptor_hash({"unit": "x", "compiler": "other cc 1.0"})
        assert h1 != h2


# ---------------------------------------------------------------------------
# Degradation: no compiler, broken compiler, kill switch
# ---------------------------------------------------------------------------

class TestDegradation:
    def test_missing_cc_falls_back_with_one_warning(
        self, native_env, obs, monkeypatch
    ):
        monkeypatch.setenv("REPRO_NATIVE_CC", "/nonexistent/cc")
        reset_native_state()
        assert find_compiler() is None
        assert compiler_id() == "none"
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            assert get_runtime_kernels() is None
            assert get_runtime_kernels() is None  # second call: no second warning
        runtime_warnings = [
            w for w in caught if issubclass(w.category, RuntimeWarning)
        ]
        assert len(runtime_warnings) == 1
        assert "falling back" in str(runtime_warnings[0].message)
        assert obs.metrics.value("native.fallback") == 2

    def test_missing_cc_results_still_correct(self, native_env, monkeypatch):
        # The executors never need a compiler: no fallback warning at all.
        monkeypatch.setenv("REPRO_NATIVE_CC", "/nonexistent/cc")
        reset_native_state()
        n, p = 100, 4
        host = np.arange(n, dtype=float)
        arr = make_1d("X", n, p, 5)
        vm = VirtualMachine(p)
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            distribute(vm, arr, host)
            assert np.array_equal(collect(vm, arr), host)
            execute_fill(vm, arr, (RegularSection(0, n - 1, 7),), -1.0)
            host[0:n:7] = -1.0
            assert np.array_equal(collect(vm, arr), host)
        assert not [w for w in caught if issubclass(w.category, RuntimeWarning)]

    def test_broken_cc_falls_back(self, native_env, obs, monkeypatch):
        monkeypatch.setenv("REPRO_NATIVE_CC", "/bin/false")
        reset_native_state()
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            assert get_runtime_kernels() is None
        assert any(issubclass(w.category, RuntimeWarning) for w in caught)
        plan = make_plan(4, 8, 4, 319, 9, 1)
        mem = np.zeros(80)
        assert get_shape("b", native=True)(mem, plan, 100.0) == 9

    def test_broken_cc_build_error_message(self, native_env, monkeypatch):
        if not os.path.exists("/bin/false"):
            pytest.skip("no /bin/false on host")
        monkeypatch.setenv("REPRO_NATIVE_CC", "/bin/false")
        reset_native_state()
        with pytest.raises(NativeBuildError):
            build_cached(TINY_C, {"unit": "broken"})
