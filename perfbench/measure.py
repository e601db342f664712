"""Measurement helpers of the benchmark: percentiles, span self time,
exact-count checks, memory and leftover-resource probes.

Pure functions over plain data (lists of numbers, ``(start, end)``
intervals, span records), so they are unit-tested on their own in
``perfbench/tests``.
"""

from __future__ import annotations

import math
import os
from pathlib import Path

__all__ = [
    "CountMismatch",
    "block_percentile",
    "check_exact_counts",
    "covered_ns",
    "leftover_segments",
    "live_pids",
    "percentile",
    "self_time_ns",
    "vm_hwm_mb",
]


def percentile(samples, q: float) -> tuple[float, int]:
    """Nearest-rank ``q``-th percentile of ``samples`` and the number of
    samples strictly beyond its rank.

    The value is the ``ceil(q/100 * n)``-th smallest sample, so the
    count beyond it is ``n - ceil(q/100 * n)``: with 100 samples, p90 is
    the 90th smallest and 10 samples lie beyond it.
    """
    if not samples:
        raise ValueError("percentile of no samples")
    if not 0 < q <= 100:
        raise ValueError(f"q must be in (0, 100], got {q}")
    ordered = sorted(samples)
    rank = max(1, math.ceil(q / 100 * len(ordered)))
    return ordered[rank - 1], len(ordered) - rank


def block_percentile(samples, q: float, block: int) -> tuple[float, int]:
    """Median over consecutive blocks of ``block`` samples of each
    block's nearest-rank ``q``-th percentile, and the samples beyond
    that percentile in one block.

    A burst of outside noise (another tenant on the host, a stalled
    page fault) lifts the tail of the blocks it hits; the median over
    blocks keeps one burst from moving the figure.  Samples after the
    last whole block are dropped; with fewer than ``block`` samples the
    whole list is one block.
    """
    if len(samples) < block:
        return percentile(samples, q)
    values = []
    for start in range(0, len(samples) - block + 1, block):
        value, beyond = percentile(samples[start:start + block], q)
        values.append(value)
    ordered = sorted(values)
    mid = len(ordered) // 2
    median = ordered[mid] if len(ordered) % 2 else (ordered[mid - 1] + ordered[mid]) / 2
    return median, beyond


def covered_ns(intervals, lo: int, hi: int) -> int:
    """Length of the part of ``[lo, hi)`` covered by the union of the
    half-open ``(start, end)`` intervals."""
    clipped = sorted(
        (max(s, lo), min(e, hi)) for s, e in intervals if e > lo and s < hi
    )
    total = 0
    cur_s = cur_e = None
    for s, e in clipped:
        if cur_e is None or s > cur_e:
            if cur_e is not None:
                total += cur_e - cur_s
            cur_s, cur_e = s, e
        else:
            cur_e = max(cur_e, e)
    if cur_e is not None:
        total += cur_e - cur_s
    return total


def self_time_ns(span, children) -> int:
    """Duration of ``span`` minus the part of its interval that the
    ``children`` spans cover (overlapping children counted once).

    Spans are anything with ``ts_ns`` and ``dur_ns`` (a
    :class:`repro.obs.SpanRecord`); children outside the span's interval
    do not count.
    """
    lo, hi = span.ts_ns, span.ts_ns + span.dur_ns
    return span.dur_ns - covered_ns(
        ((c.ts_ns, c.ts_ns + c.dur_ns) for c in children), lo, hi
    )


class CountMismatch(AssertionError):
    """Ops of the same program disagreed on a count that must repeat."""


def check_exact_counts(per_op) -> None:
    """``per_op`` is a sequence of ``(program_key, {count_name: value})``.

    Raise :class:`CountMismatch` naming every count whose value differs
    between two ops of the same program.  Counts are deterministic
    (messages, bytes, supersteps, control frames, plan misses), so any
    difference is a defect of the program or of the benchmark, never
    noise.
    """
    first: dict = {}
    bad = []
    for key, counts in per_op:
        ref = first.setdefault(key, counts)
        for name in sorted(set(ref) | set(counts)):
            if ref.get(name) != counts.get(name):
                bad.append(f"{key}: {name} {ref.get(name)} != {counts.get(name)}")
    if bad:
        raise CountMismatch(
            f"{len(bad)} count(s) differ between ops of the same program: "
            + "; ".join(bad[:8])
        )


def vm_hwm_mb(pid: int | str = "self") -> float:
    """Peak resident set (``VmHWM``) of a process in MiB; 0.0 when the
    process is gone."""
    try:
        with open(f"/proc/{pid}/status") as fh:
            for line in fh:
                if line.startswith("VmHWM:"):
                    return int(line.split()[1]) / 1024.0
    except OSError:
        pass
    return 0.0


def live_pids(pids) -> list[int]:
    """Those of ``pids`` that still name a running (non-zombie) child of
    this process."""
    me = os.getpid()
    out = []
    for pid in pids:
        try:
            stat = Path(f"/proc/{pid}/stat").read_text()
        except OSError:
            continue
        # State and parent PID follow the parenthesised command name.
        state, ppid = stat.rsplit(")", 1)[1].split()[:2]
        if state != "Z" and int(ppid) == me:
            out.append(pid)
    return out


def leftover_segments(prefix: str) -> list[str]:
    """Shared-memory segments in ``/dev/shm`` whose name starts with
    ``prefix``."""
    try:
        return sorted(n for n in os.listdir("/dev/shm") if n.startswith(prefix))
    except OSError:
        return []
