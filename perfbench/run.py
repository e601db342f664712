#!/usr/bin/env python3
"""End-to-end benchmark: mini-HPF source to verified collected result.

Usage (from the repository root)::

    python3 perfbench/run.py --workload fill_warm --seed 1 --seconds 15 --trace 0
    python3 perfbench/run.py --workload all --seed 1 --seconds 15 --trace 0

Workloads (all closed loop, one client: an op starts when the previous
one returned; see ``programs.py`` for the generated programs):

* ``fill_warm`` -- in process, p=8: distribute, run one compiled
  program of 2^18-element strided fills, a copy and a combine, collect.
  Kernels dominate; every plan is warm.
* ``plan_cold`` -- in process, p=16: clear the plan caches, then parse,
  compile, make a machine, distribute, run and collect two new programs.
  Plan computation dominates; kernels are small.
* ``exchange_mp`` -- the multiprocess backend, p=2 rank processes:
  small redistribution copies, where the transport's fixed cost rules.

Every op's collected images are compared bit for bit with
:func:`repro.lang.reference.interpret`.  ``--trace 0`` measures the
end-to-end metrics with tracing off.  ``--trace 1`` runs a short untraced
phase (for ``trace.overhead_ratio``) and a traced one, and reports the
per-layer metrics from the spans and counters recorded around and
inside each layer.  The last line of standard output is one JSON object;
every run is also appended to ``perfbench/out/history.jsonl``.

The benchmark pins itself to one CPU (forked rank workers inherit it),
runs the program's default execution path, and warms the on-disk native
kernel cache before any timed set-up.
"""

from __future__ import annotations

import argparse
import contextlib
import json
import os
import statistics
import sys
import tempfile
import time
import warnings
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
HISTORY = HERE / "out" / "history.jsonl"

#: Set-ups per phase; ``setup_s`` is their median.
SETUPS = 15
#: Ops of an untraced run, at least: p90 then has >= 10 samples beyond it.
MIN_OPS = 100
#: Ops per block of ``op_ms.p90`` (rounded up to whole group cycles), so
#: each block has at least ten samples beyond its p90.
P90_BLOCK = 100
#: ``peak_rss_mb`` is read at the first cycle boundary after this many
#: ops: a fixed amount of work, because the rank workers' peak grows
#: slowly with the number of ops and would otherwise track op speed.
RSS_AFTER_OPS = 100
#: Ops of each phase of a traced run, at least.
MIN_TRACED_OPS = 20
#: Share of ``--seconds`` a traced run spends untraced.
UNTRACED_SHARE = 1 / 3

WORKLOAD_NAMES = ("fill_warm", "plan_cold", "exchange_mp")


class BenchError(RuntimeError):
    """The measurement itself is invalid (a count that must repeat did
    not, a span was dropped, an input lacks its claimed property)."""


def pin_to_one_cpu() -> int:
    """Pin this process (and the rank workers it forks) to one CPU."""
    cpu = max(os.sched_getaffinity(0))
    os.sched_setaffinity(0, {cpu})
    return cpu


def bit_identical(got: dict, want: dict) -> bool:
    return got.keys() == want.keys() and all(
        got[name].dtype == want[name].dtype
        and got[name].tobytes() == want[name].tobytes()
        for name in want
    )


class CtrlFrames:
    """Counts driver<->worker control frames by wrapping ``send_frame``
    and ``recv_frame`` as the multiprocess driver module binds them.
    Heartbeats are datagrams, not frames, so the count is exact."""

    def __init__(self) -> None:
        self.count = 0
        self._saved = None

    def __enter__(self) -> "CtrlFrames":
        from repro.machine.mp import machine as mpm

        def wrap(fn):
            def counted(*args, **kw):
                self.count += 1
                return fn(*args, **kw)
            return counted

        self._saved = (mpm, mpm.send_frame, mpm.recv_frame)
        mpm.send_frame = wrap(mpm.send_frame)
        mpm.recv_frame = wrap(mpm.recv_frame)
        return self

    def __exit__(self, *exc) -> bool:
        mpm, send, recv = self._saved
        mpm.send_frame, mpm.recv_frame = send, recv
        return False


class Phase:
    """Set-ups then timed ops of one workload, traced or not.

    Owns every machine it creates and closes them all in
    :meth:`close`; worker PIDs are remembered so that a process that
    outlives its machine is found and counted as a failed op."""

    def __init__(self, workload, refs, traced: bool) -> None:
        from repro.obs import Observability

        self.w = workload
        self.refs = refs
        self.traced = traced
        self.obs = Observability(enabled=traced, max_spans=1 << 20)
        self.machines: list = []
        self.worker_pids: list[int] = []
        self.setup_s: list[float] = []
        self.op_ms: list[float] = []
        self.attempted = 0
        self.correct = 0
        self.errors: list[str] = []
        self.per_op: list[dict] = []
        self.setup_records: list = []
        self.setup_native_compiles = 0
        self.rss_mb: list[float] = []  # driver, then each rank worker
        self.frames = CtrlFrames() if traced and workload.backend == "mp" else None
        self._warm = None  # (compiled, vm) replayed by warm ops

    # -- calls into the layers ------------------------------------------

    def compile(self, source: str):
        from repro.lang import compile_program, parse_program

        with self.obs.span("lang.parse"):
            ast = parse_program(source)
        with self.obs.span("lang.compile"):
            return compile_program(ast)

    def machine(self, compiled):
        from repro.machine.iface import create_machine

        with self.obs.span("bench.create_machine"):
            vm = create_machine(compiled.nprocs, self.w.backend, obs=self.obs)
        self.machines.append(vm)
        if hasattr(vm, "supervisor"):
            self.worker_pids += [vm.supervisor.pid(r) for r in range(vm.p)]
        return vm

    def release(self, vm) -> None:
        self.machines.remove(vm)
        vm.close()

    @staticmethod
    def execute(compiled, vm, inputs) -> dict:
        from repro.runtime.exec import distribute

        for name, array in compiled.arrays.items():
            distribute(vm, array, inputs[name])
        compiled.run(vm)
        return {name: compiled.image(vm, name) for name in compiled.arrays}

    def cold_op(self, group) -> list[dict]:
        from repro.runtime.plancache import clear_plan_caches

        clear_plan_caches()
        images = []
        for prog in group:
            compiled = self.compile(prog.source)
            vm = self.machine(compiled)
            try:
                images.append(self.execute(compiled, vm, prog.inputs))
            finally:
                self.release(vm)
        return images

    def warm_op(self, group) -> list[dict]:
        compiled, vm = self._warm
        return [self.execute(compiled, vm, group[0].inputs)]

    # -- set-up ---------------------------------------------------------

    def setup(self, count: int) -> None:
        """``count`` set-ups from source to ready (compile, make machine,
        distribute, first op), each from empty plan caches and unloaded
        native kernels; the last one's machine serves the warm ops."""
        from programs import check_warm_plans
        from repro.runtime.native import reset_native_state
        from repro.runtime.plancache import cache_stats, clear_plan_caches

        compiles0 = self.obs.metrics.value("native.compile")
        prog = self.w.groups[0][0]
        for i in range(count):
            if self._warm is not None:
                self.release(self._warm[1])
                self._warm = None
            clear_plan_caches()
            reset_native_state()
            self.obs.trace.clear()
            t0 = time.perf_counter()
            if self.w.warm:
                compiled = self.compile(prog.source)
                vm = self.machine(compiled)
                images = [self.execute(compiled, vm, prog.inputs)]
                self._warm = (compiled, vm)
            else:
                images = self.cold_op(self.w.groups[0])
            self.setup_s.append(time.perf_counter() - t0)
            self.setup_records += self.obs.trace.records()
            self._verify(0, images)
        self.setup_native_compiles = (
            self.obs.metrics.value("native.compile") - compiles0
        )
        if self.w.warm:
            check_warm_plans(cache_stats())

    def _verify(self, g: int, images) -> bool:
        self.attempted += 1
        ok = len(images) == len(self.refs[g]) and all(
            bit_identical(got, want) for got, want in zip(images, self.refs[g])
        )
        self.correct += ok
        if not ok:
            self.errors.append(f"group {g}: image differs from the reference")
        return ok

    # -- timed ops ------------------------------------------------------

    def counts(self) -> dict:
        """Current totals of the counters in :data:`layers.COUNTS`."""
        from layers import CACHES, COUNTS

        value = self.obs.metrics.value
        out = {name: value(name) for name in COUNTS}
        for kind in ("hits", "misses"):
            out[f"plancache.{kind}"] = sum(
                value(f"plancache.{c}.{kind}") for c in CACHES
            )
        out["mp.ctrl_frames"] = self.frames.count if self.frames else 0
        return out

    def ops(self, seconds: float, min_ops: int) -> None:
        """Closed loop over the groups in whole cycles until ``seconds``
        have passed and at least ``min_ops`` ops ran (or three times
        ``seconds``, whichever comes first)."""
        from layers import op_breakdown

        op = self.warm_op if self.w.warm else self.cold_op
        ngroups = len(self.w.groups)
        start = time.perf_counter()
        i = 0
        while True:
            g = i % ngroups
            elapsed = time.perf_counter() - start
            if g == 0 and i and (
                (elapsed >= seconds and i >= min_ops) or elapsed >= 3 * seconds
            ):
                break
            if g == 0 and not self.rss_mb and i >= RSS_AFTER_OPS:
                self.rss_mb = self.peak_rss()
            group = self.w.groups[g]
            if self.traced:
                self.obs.trace.clear()
                before = self.counts()
            images = None
            t0 = time.perf_counter()
            try:
                with self.obs.span("bench.op"):
                    images = op(group)
            except Exception as exc:  # counted as an incorrect op
                self.errors.append(f"group {g}: {type(exc).__name__}: {exc}")
            self.op_ms.append((time.perf_counter() - t0) * 1e3)
            if images is None:
                self.attempted += 1
            # A failed op is counted as failed; its trace is not a sample.
            if images is not None and self._verify(g, images) and self.traced:
                after = self.counts()
                delta = {name: after[name] - before[name] for name in after}
                row = op_breakdown(self.obs.trace.records(), delta,
                                   self.w.stressed)
                row["group"] = g
                self.per_op.append(row)
            i += 1
        if not self.rss_mb:
            self.rss_mb = self.peak_rss()

    def peak_rss(self) -> list[float]:
        """``VmHWM`` of this process and of every rank worker of the
        machine the warm ops run on, in MiB."""
        from measure import vm_hwm_mb

        pids = []
        if self._warm is not None and hasattr(self._warm[1], "supervisor"):
            vm = self._warm[1]
            pids = [vm.supervisor.pid(r) for r in range(vm.p)]
        return [vm_hwm_mb()] + [vm_hwm_mb(pid) for pid in pids]

    def close(self) -> int:
        """Close every machine; return the number of rank processes and
        shared-memory segments left behind."""
        from measure import leftover_segments, live_pids

        for vm in list(self.machines):
            with contextlib.suppress(Exception):
                vm.close()
        self.machines.clear()
        self._warm = None
        left = live_pids(self.worker_pids) + leftover_segments(
            f"rp{os.getpid():x}x"
        )
        if left:
            self.errors.append(f"left behind after close: {left}")
        return len(left)


# ---------------------------------------------------------------------------
# Runs
# ---------------------------------------------------------------------------


def prepare(name: str, seed: int):
    """Generate the workload, check its inputs, and compute the
    reference images (untimed)."""
    from programs import WORKLOADS, check_distinct_layouts
    from repro.lang import compile_program, parse_program
    from repro.lang.reference import interpret

    w = WORKLOADS[name](seed)
    asts = [[parse_program(p.source) for p in group] for group in w.groups]
    compiled = [[compile_program(a) for a in group] for group in asts]
    if not w.warm:
        check_distinct_layouts(compiled)
    refs = [
        [interpret(a, p.inputs) for a, p in zip(ga, gp)]
        for ga, gp in zip(asts, w.groups)
    ]
    programs = [(a, c) for ga, gc in zip(asts, compiled) for a, c in zip(ga, gc)]
    return w, refs, programs


def warm_native_cache() -> dict:
    """Build (or find) the compiled kernel library on disk, then forget
    the in-process handle, so that set-ups pay at most a disk hit and a
    ``dlopen`` and never a compiler run."""
    from repro.obs import Observability, set_ambient
    from repro.runtime.native import get_runtime_kernels, reset_native_state

    obs = Observability()
    prev = set_ambient(obs)
    try:
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", RuntimeWarning)
            available = get_runtime_kernels() is not None
    finally:
        set_ambient(prev)
    reset_native_state()
    return {"available": available,
            "compile": obs.metrics.value("native.compile"),
            "disk_hit": obs.metrics.value("native.disk_hit")}


def run_phase(w, refs, traced: bool, seconds: float, setups: int,
              min_ops: int) -> tuple[Phase, int]:
    """One phase; returns it and the count of leftover resources."""
    from repro.obs import set_ambient

    phase = Phase(w, refs, traced)
    prev = set_ambient(phase.obs if traced else None)
    try:
        with phase.frames or contextlib.nullcontext():
            phase.setup(setups)
            phase.ops(seconds, min_ops)
    finally:
        set_ambient(prev)
        leftovers = phase.close()
    return phase, leftovers


def end_to_end(phase: Phase) -> tuple[dict, dict]:
    """``op_ms.p50`` is the median of all ops; ``op_ms.p90`` the median
    over blocks of whole group cycles, at least P90_BLOCK ops each, of
    each block's p90 (see :func:`measure.block_percentile`)."""
    from measure import block_percentile, percentile

    ngroups = len(phase.w.groups)
    block = -(-P90_BLOCK // ngroups) * ngroups
    p50, _ = percentile(phase.op_ms, 50)
    p90, beyond = block_percentile(phase.op_ms, 90, block)
    return {
        "op_ms.p50": p50,
        "op_ms.p90": p90,
        "correct_ratio": phase.correct / phase.attempted,
        "peak_rss_mb": sum(phase.rss_mb),
        "setup_s": statistics.median(phase.setup_s),
    }, {"ops": len(phase.op_ms), "p90_block": block, "p90_beyond": beyond,
        "rss_mb": phase.rss_mb, "setup_s": phase.setup_s,
        "op_ms": [round(t, 3) for t in phase.op_ms]}


def per_layer(w, untraced: Phase, traced: Phase, programs) -> tuple[dict, dict]:
    """The per-layer metrics of a traced run, and the paper's tables."""
    from layers import EXACT, fill_statements, lang_times, table1_rows, table2_rows
    from measure import check_exact_counts, percentile

    rows = traced.per_op
    check_exact_counts(
        (r["group"], {n: r[f"count.{n}"] for n in EXACT}) for r in rows
    )
    if traced.obs.trace.dropped:
        raise BenchError(f"{traced.obs.trace.dropped} span(s) dropped")

    def med(key):
        return statistics.median(r[key] for r in rows)

    def total(key):
        return sum(r[f"count.{key}"] for r in rows)

    setup_lang = lang_times([s for s in traced.setup_records if not s.is_instant])
    parse = setup_lang["lang.parse"] + [x for r in rows for x in r["lang.parse"]]
    comp = setup_lang["lang.compile"] + [x for r in rows for x in r["lang.compile"]]
    hits, misses = total("plancache.hits"), total("plancache.misses")
    fills = fill_statements(programs)
    fill_elems = {}
    for g, group in enumerate(w.groups):
        fill_elems[g] = sum(
            len(sec.normalized()) for _, sec, _ in fill_statements(
                programs[g * len(group):(g + 1) * len(group)]
            )
        )
    t1 = table1_rows(fills)
    t2 = table2_rows(fills)
    lattice = sum(r["lattice_us"] for r in t1) / 1e3
    sorting = sum(r["sorting_us"] for r in t1) / 1e3
    supersteps = med("count.vm.supersteps")
    p = programs[0][1].nprocs
    frames = med("count.mp.ctrl_frames")
    mp = w.backend == "mp"
    spawn = [s.dur_ns / 1e9 for s in traced.setup_records
             if s.name == "bench.create_machine"]
    out = {
        "lang.parse_ms": statistics.median(parse),
        "lang.compile_ms": statistics.median(comp),
        "plancache.hit_ratio": hits / (hits + misses) if hits + misses else 1.0,
        "plancache.misses_per_op": med("count.plancache.misses"),
        "plancache.compute_ms": med("plancache.compute_ms"),
        "plancache.localized_arrays.compute_ms":
            med("plancache.localized_arrays.compute_ms"),
        "plancache.array_plans.compute_ms": med("plancache.array_plans.compute_ms"),
        "plancache.comm_schedules.compute_ms":
            med("plancache.comm_schedules.compute_ms"),
        "core.lattice_ms": lattice,
        "core.sorting_ms": sorting,
        "core.lattice_speedup": sorting / lattice if lattice else 0.0,
        "exec.fill_ms": med("exec.fill_ms"),
        "exec.fill_elems_per_us": statistics.median(
            fill_elems[r["group"]] / (r["exec.fill_ms"] * 1e3)
            for r in rows if r["exec.fill_ms"]
        ) if any(r["exec.fill_ms"] for r in rows) else 0.0,
        "exec.copy_ms": med("exec.copy_ms"),
        "exec.combine_ms": med("exec.combine_ms"),
        "exec.distribute_ms": med("exec.distribute_ms"),
        "exec.collect_ms": med("exec.collect_ms"),
        "native.dispatch_native": med("count.native.dispatch_native"),
        "native.dispatch_numpy": med("count.native.dispatch_numpy"),
        "native.compile.setup": traced.setup_native_compiles,
        "native.compile.ops": total("native.compile"),
        "native.fill_ms": sum(r.get("native_ms", 0.0) for r in t2),
        "vm.supersteps_per_op": supersteps,
        "vm.superstep_ms": med("vm.superstep_ms"),
        "vm.barrier_ms": med("vm.barrier_ms"),
        "net.messages_per_op": med("count.net.messages_sent"),
        "net.bytes_per_op": med("count.net.bytes_sent"),
        "mp.ctrl_frames_per_op": frames,
        "mp.ctrl_frames_per_rank_superstep":
            frames / (p * supersteps) if mp and supersteps else 0.0,
        "mp.barrier_ms": med("vm.barrier_ms") / supersteps
            if mp and supersteps else 0.0,
        "mp.spawn_s": statistics.median(spawn) if mp and spawn else 0.0,
        "trace.overhead_ratio": percentile(traced.op_ms, 50)[0]
            / percentile(untraced.op_ms, 50)[0],
        "trace.dropped_spans": traced.obs.trace.dropped,
        "unattributed_ms": med("unattributed_ms"),
        "dominant_share": med("dominant_share"),
    }
    for shape in ("a", "b", "c", "d", "v"):
        out[f"codegen.shape_{shape}_ms"] = sum(r[f"{shape}_ms"] for r in t2)
    return out, {"table1": t1, "table2": t2}


def declared_units(trace: bool) -> dict:
    """Metric name -> unit, as ``BENCHMARK.json`` declares them for this
    kind of run (per-layer when traced, end-to-end otherwise)."""
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    return {m["name"]: m["unit"]
            for m in spec["per_layer" if trace else "end_to_end"]}


def git_sha() -> str:
    """The checkout's commit, read from ``.git`` without running git
    (a checkout without ``.git`` gives ``"unknown"``)."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


def append_history(record: dict) -> None:
    """Append one run's record to the history (never rewritten)."""
    from repro.bench.environment import environment_metadata

    record = {"git_sha": git_sha(), "environment": environment_metadata(),
              **record}
    HISTORY.parent.mkdir(parents=True, exist_ok=True)
    with open(HISTORY, "a") as fh:
        fh.write(json.dumps(record, sort_keys=True) + "\n")


def run(name: str, seed: int, seconds: float, trace: bool) -> dict:
    units = declared_units(trace)
    cpu = pin_to_one_cpu()
    w, refs, programs = prepare(name, seed)
    native = warm_native_cache()
    if trace:
        untraced, left_u = run_phase(w, refs, False, seconds * UNTRACED_SHARE,
                                     SETUPS, MIN_TRACED_OPS)
        traced, left_t = run_phase(w, refs, True,
                                   seconds * (1 - UNTRACED_SHARE), SETUPS,
                                   MIN_TRACED_OPS)
        phases, leftovers = (untraced, traced), left_u + left_t
        metrics, tables = per_layer(w, untraced, traced, programs)
        info = {"traced_ops": len(traced.op_ms), "untraced_ops": len(untraced.op_ms)}
    else:
        phase, leftovers = run_phase(w, refs, False, seconds, SETUPS, MIN_OPS)
        phases = (phase,)
        metrics, info = end_to_end(phase)
        tables = None
    if metrics.keys() != units.keys():
        raise BenchError(
            "metrics differ from BENCHMARK.json: missing "
            f"{sorted(units.keys() - metrics.keys())}, undeclared "
            f"{sorted(metrics.keys() - units.keys())}"
        )
    attempted = sum(p.attempted for p in phases)
    failed = attempted - sum(p.correct for p in phases) + leftovers
    errors = [e for p in phases for e in p.errors]
    result = {
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {n: {"value": v, "unit": units[n]} for n, v in metrics.items()},
    }
    append_history({
        "time": time.time(), "workload": name, "seed": seed,
        "seconds": seconds, "trace": int(trace), "cpu": cpu,
        "native_warm": native, "info": info, "errors": errors[:20],
        "result": result, "tables": tables,
    })
    for err in errors[:20]:
        print(f"error: {err}", file=sys.stderr)
    for n, v in metrics.items():
        print(f"{name:12s} {n:40s} {v:14.6g} {units[n]}")
    shown = {k: v for k, v in info.items() if k != "op_ms"}
    print(f"{name:12s} {'info':40s} {json.dumps(shown)}")
    return result


def run_all(seed: int, seconds: float, trace: bool) -> dict:
    """Every workload, each in its own process (peak memory and pinning
    are per process)."""
    import subprocess

    results = {}
    for name in WORKLOAD_NAMES:
        proc = subprocess.run(
            [sys.executable, str(Path(__file__)), "--workload", name,
             "--seed", str(seed), "--seconds", str(seconds),
             "--trace", str(int(trace))],
            capture_output=True, text=True, check=False,
        )
        sys.stderr.write(proc.stderr)
        lines = proc.stdout.splitlines()
        print("\n".join(lines[:-1]))
        if proc.returncode != 0 or not lines:
            raise BenchError(f"{name} exited with {proc.returncode}")
        results[name] = json.loads(lines[-1])
    return results


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True,
                        choices=(*WORKLOAD_NAMES, "all"))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seconds <= 0:
        parser.error("--seconds must be positive")
    if not (SRC / "repro" / "__init__.py").is_file():
        print(f"error: no program sources at {SRC}", file=sys.stderr)
        return 2
    # Program modules are imported lazily, after this point.
    sys.path.insert(0, str(SRC))
    # Rank workers bind unix sockets in a session directory; keep it in
    # the checkout and its path short (socket paths are capped near 108).
    tmp = Path(os.path.relpath(ROOT / ".bench_tmp"))
    tmp.mkdir(exist_ok=True)
    tempfile.tempdir = str(tmp)
    from measure import CountMismatch
    from programs import InputError

    try:
        if args.workload == "all":
            result = run_all(args.seed, args.seconds, bool(args.trace))
        else:
            result = run(args.workload, args.seed, args.seconds, bool(args.trace))
    except (BenchError, CountMismatch, InputError) as exc:
        print(f"error: invalid measurement: {exc}", file=sys.stderr)
        return 1
    finally:
        _stop_resource_tracker()
        with contextlib.suppress(OSError):
            tmp.rmdir()
    print(json.dumps(result))
    return 0


def _stop_resource_tracker() -> None:
    """Stop and reap the shared-memory resource tracker the
    multiprocess backend starts, so no process outlives the run."""
    from multiprocessing import resource_tracker

    stop = getattr(resource_tracker._resource_tracker, "_stop", None)
    if stop is not None:
        stop()


if __name__ == "__main__":
    sys.exit(main())
