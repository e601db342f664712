"""Element-at-a-time oracles for the vectorized executors.

The scalar ``np.ndindex`` sweeps :func:`repro.runtime.exec.distribute`
and :func:`repro.runtime.exec.collect` replaced.  Only the property
tests and ``benchmarks/bench_kernels.py`` call them, so they live here
rather than in the hot runtime module.
"""

from __future__ import annotations

import numpy as np

from ..distribution.array import DistributedArray
from ..machine.vm import VirtualMachine
from ..obs import ambient
from .exec import _check_vm

__all__ = ["distribute_reference", "collect_reference"]


def distribute_reference(
    vm: VirtualMachine, array: DistributedArray, values: np.ndarray
) -> None:
    """Element-at-a-time :func:`repro.runtime.exec.distribute` (the
    original ``np.ndindex`` sweep over per-element ownership tests)."""
    ambient().inc("kernels.scalar_path_calls")
    _check_vm(vm, array)
    values = np.asarray(values)
    if values.shape != array.shape:
        raise ValueError(
            f"host image shape {values.shape} != array shape {array.shape}"
        )
    for rank in range(array.grid.size):
        local = np.zeros(array.local_size(rank), dtype=values.dtype)
        for idx in np.ndindex(*array.shape):
            if array.is_local(idx, rank):
                local[array.local_address(idx, rank)] = values[idx]
        proc = vm.processors[rank]
        proc.allocate(array.name, len(local), dtype=values.dtype)
        proc.memory(array.name)[:] = local


def collect_reference(
    vm: VirtualMachine, array: DistributedArray, dtype=np.float64
) -> np.ndarray:
    """Element-at-a-time :func:`repro.runtime.exec.collect` (the original
    per-element ownership sweep, reading each element's lowest owner)."""
    ambient().inc("kernels.scalar_path_calls")
    _check_vm(vm, array)
    out = np.zeros(array.shape, dtype=dtype)
    for idx in np.ndindex(*array.shape):
        rank = array.owners(idx)[0]
        out[idx] = vm.processors[rank].memory(array.name)[array.local_address(idx, rank)]
    return out
