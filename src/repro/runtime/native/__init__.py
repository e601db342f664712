"""Compiled access-sequence kernels: Table 2 subjects and test oracles.

The runtime has emitted faithful Figure 8 C since the seed
(:mod:`repro.runtime.emit_c`) but only ever *interpreted* the ΔM tables
in Python, which flattens the paper's Section 6 operation-mix ratios
under interpreter overhead.  This package closes the loop from emitted
to executed kernels:

* :mod:`repro.runtime.native.build` compiles emitted C with the host
  compiler into a hashed on-disk .so cache (atomic installs, corrupt
  artifacts rejected and rebuilt, fork-safe handle cache);
* this module wraps the generic kernel library
  (:func:`repro.runtime.emit_c.emit_runtime_kernels`) in
  :class:`RuntimeKernels` -- the four Figure 8 node-code shapes, the
  descending fill, the indexed fill, and the ΔM-driven pack/unpack
  (gather/scatter) -- with ctypes signatures checked at load time;
* :func:`get_runtime_kernels` returns the loaded kernels or ``None``
  (no compiler, a broken compiler, a non-LP64 platform).

The compiled kernels are **not** a production execution tier: the
executors always run the NumPy-vectorized ΔM traversal (shape (v) and
fancy-indexed pack/unpack).  On the end-to-end benchmark, compiled
dispatch everywhere was ~7% faster than shape (v) on large warm fills
but ~10% slower on plan-heavy programs, whose ~512-element rank slices
pay more for each ctypes ``ndpointer`` argument check than for a NumPy
fancy index; shape (v) keeps 92% of the fill gain at no cost.  The
kernels stay as Table 2 subjects
(:func:`repro.runtime.codegen.get_shape` with ``native=True``) and as
differential test oracles; the scalar Python shapes remain the
semantics of record (``tests/runtime/test_native.py``).  A call the
kernels cannot serve -- a non-float64 or non-contiguous memory, a
``TracingMemory`` -- returns ``None`` so the caller falls back to the
Python shape; a missing compiler warns once.

Counters (through the ambient obs handle): ``native.compile``,
``native.disk_hit``, ``native.handle_hit``, ``native.rebuild_corrupt``,
``native.fallback``, ``native.dispatch_native``,
``native.dispatch_numpy``.  See docs/NATIVE.md.
"""

from __future__ import annotations

import ctypes
import warnings

import numpy as np

from ...obs import ambient
from ..address import AccessPlan
from ..emit_c import KERNELS_ABI, emit_runtime_kernels
from .build import (
    NativeBuildError,
    build_cached,
    clear_handle_cache,
    compiler_id,
    find_compiler,
    load_library,
)

__all__ = [
    "NativeBuildError",
    "RuntimeKernels",
    "native_available",
    "get_runtime_kernels",
    "reset_native_state",
    "build_cached",
    "compiler_id",
    "find_compiler",
    "clear_handle_cache",
]

_REQUIRED_SYMBOLS = (
    "repro_fill_a",
    "repro_fill_b",
    "repro_fill_c",
    "repro_fill_d",
    "repro_fill_desc",
    "repro_fill_indexed",
    "repro_gather_f64",
    "repro_scatter_f64",
    "repro_kernels_abi",
)

_f64 = np.ctypeslib.ndpointer(dtype=np.float64, flags="C_CONTIGUOUS")
_i64 = np.ctypeslib.ndpointer(dtype=np.int64, flags="C_CONTIGUOUS")


class RuntimeKernels:
    """ctypes facade over the generic compiled kernel library.

    Every method either performs the operation natively and returns its
    result, or returns ``None`` to tell the caller "this call shape is
    not native-servable, use the NumPy path" (wrong dtype, non-ndarray
    memory, missing shape-(d) tables).  Falling back is always safe
    because the NumPy paths are the semantics of record.
    """

    def __init__(self, lib: ctypes.CDLL) -> None:
        self._lib = lib
        for name in ("repro_fill_a", "repro_fill_b", "repro_fill_c"):
            fn = getattr(lib, name)
            fn.argtypes = [_f64, ctypes.c_double, ctypes.c_long,
                           ctypes.c_long, _i64, ctypes.c_long]
            fn.restype = ctypes.c_long
        lib.repro_fill_desc.argtypes = [_f64, ctypes.c_double, ctypes.c_long,
                                        ctypes.c_long, _i64, ctypes.c_long]
        lib.repro_fill_desc.restype = ctypes.c_long
        lib.repro_fill_d.argtypes = [_f64, ctypes.c_double, ctypes.c_long,
                                     ctypes.c_long, _i64, _i64, ctypes.c_long]
        lib.repro_fill_d.restype = ctypes.c_long
        lib.repro_fill_indexed.argtypes = [_f64, _i64, ctypes.c_long,
                                           ctypes.c_double]
        lib.repro_fill_indexed.restype = None
        lib.repro_gather_f64.argtypes = [_f64, _f64, _i64, ctypes.c_long]
        lib.repro_gather_f64.restype = None
        lib.repro_scatter_f64.argtypes = [_f64, _i64, _f64, ctypes.c_long]
        lib.repro_scatter_f64.restype = None
        lib.repro_kernels_abi.argtypes = []
        lib.repro_kernels_abi.restype = ctypes.c_long

    # -- dispatchability ------------------------------------------------

    @staticmethod
    def _servable(memory) -> bool:
        return (
            isinstance(memory, np.ndarray)
            and memory.dtype == np.float64
            and memory.flags["C_CONTIGUOUS"]
            and memory.ndim == 1
        )

    @staticmethod
    def _tables(values) -> np.ndarray:
        return np.ascontiguousarray(values, dtype=np.int64)

    # -- node-code shapes ----------------------------------------------

    def fill(self, memory, plan: AccessPlan, value, shape: str) -> int | None:
        """Run one Figure 8 shape natively; ``None`` = not servable."""
        if not self._servable(memory):
            return None
        if plan.count == 0:
            return 0
        value = float(value)
        if shape in ("a", "b", "c"):
            fn = getattr(self._lib, f"repro_fill_{shape}")
            return int(fn(memory, value, plan.start_local, plan.last_local,
                          self._tables(plan.delta_m), plan.length))
        if shape == "d":
            if plan.start_offset is None:
                return None
            return int(self._lib.repro_fill_d(
                memory, value, plan.start_local, plan.last_local,
                self._tables(plan.delta_m_by_offset),
                self._tables(plan.next_offset), plan.start_offset,
            ))
        if shape == "v":
            from ..codegen import materialize_addresses

            return self.fill_indexed(memory, materialize_addresses(plan), value)
        if shape == "desc":
            return int(self._lib.repro_fill_desc(
                memory, value, plan.start_local, plan.last_local,
                self._tables(plan.delta_m), plan.length,
            ))
        return None

    def fill_indexed(self, memory, addrs: np.ndarray, value) -> int | None:
        """``memory[addrs] = value`` natively; ``None`` = not servable."""
        if not self._servable(memory):
            return None
        idx = self._tables(addrs)
        self._lib.repro_fill_indexed(memory, idx, len(idx), float(value))
        return len(idx)

    # -- ΔM-driven pack/unpack -----------------------------------------

    def gather(self, src, idx: np.ndarray) -> np.ndarray | None:
        """Pack: ``src[idx].copy()`` natively; ``None`` = not servable."""
        if not self._servable(src):
            return None
        idx = self._tables(idx)
        out = np.empty(len(idx), dtype=np.float64)
        self._lib.repro_gather_f64(out, src, idx, len(idx))
        return out

    def scatter(self, dst, idx: np.ndarray, values) -> bool:
        """Unpack: ``dst[idx] = values`` natively; False = not servable."""
        if not self._servable(dst):
            return False
        values = np.ascontiguousarray(values, dtype=np.float64)
        idx = self._tables(idx)
        if len(values) != len(idx):
            raise ValueError(
                f"scatter length mismatch: {len(idx)} slots, "
                f"{len(values)} values"
            )
        self._lib.repro_scatter_f64(dst, idx, values, len(idx))
        return True


# ---------------------------------------------------------------------------
# Load-once state (per process; reset on fork via build's guard)
# ---------------------------------------------------------------------------

_kernels: RuntimeKernels | None = None
_load_failed = False
_warned = False


def _warn_fallback(reason: str) -> None:
    global _warned
    ambient().inc("native.fallback")
    if not _warned:
        _warned = True
        warnings.warn(
            f"native kernels unavailable ({reason}); "
            "falling back to the NumPy path (results are identical)",
            RuntimeWarning,
            stacklevel=3,
        )


def get_runtime_kernels() -> RuntimeKernels | None:
    """The loaded generic kernel library, building it on first use;
    ``None`` (with one warning + a ``native.fallback`` counter) when it
    cannot be built or loaded."""
    global _kernels, _load_failed
    if _kernels is not None:
        return _kernels
    if _load_failed:
        ambient().inc("native.fallback")
        return None
    if ctypes.sizeof(ctypes.c_long) != 8:
        _load_failed = True
        _warn_fallback("platform long is not 64-bit")
        return None
    try:
        lib = load_library(
            emit_runtime_kernels(),
            {"unit": "runtime_kernels", "abi": KERNELS_ABI},
            required_symbols=_REQUIRED_SYMBOLS,
        )
        if int(lib.repro_kernels_abi()) != KERNELS_ABI:
            raise NativeBuildError(
                f"kernel ABI mismatch (got {int(lib.repro_kernels_abi())}, "
                f"want {KERNELS_ABI})"
            )
    except NativeBuildError as exc:
        _load_failed = True
        _warn_fallback(str(exc).splitlines()[0])
        return None
    _kernels = RuntimeKernels(lib)
    return _kernels


def native_available() -> bool:
    """Whether native dispatch can actually serve calls right now."""
    return get_runtime_kernels() is not None


def reset_native_state() -> None:
    """Forget loaded kernels, load failures, the warn-once latch, and
    dlopen handles (tests flip compilers/cache dirs between cases; real
    code never needs this)."""
    global _kernels, _load_failed, _warned
    _kernels = None
    _load_failed = False
    _warned = False
    clear_handle_cache()
