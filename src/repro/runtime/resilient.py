"""Resilient array exchanges over an unreliable interconnect.

:func:`repro.runtime.exec.execute_copy` assumes the fabric is perfect:
every packed payload arrives exactly once, intact, one superstep after
it was sent.  Under a :class:`~repro.machine.faults.FaultPlan` none of
that holds -- messages can be dropped, duplicated, reordered, corrupted,
or delayed by rank stalls.  This module wraps the copy/redistribution
executors in an acknowledged-delivery protocol built from ordinary BSP
supersteps (see docs/FAULT_MODEL.md for the superstep diagram):

* every transfer travels as a sequence-numbered :class:`Packet` whose
  CRC-32 covers header *and* payload, so any single corrupted field is
  detected at the receiver;
* receivers apply packets **idempotently** (a transfer id is applied at
  most once -- duplicates are counted and discarded) and answer with
  cumulative, checksummed ACKs each round, plus immediate NACKs for
  packets that arrive corrupted;
* senders retransmit any unacknowledged transfer after a configurable
  timeout measured in supersteps, up to a bounded number of retries,
  from the payload staged at pack time (so Fortran read-before-write
  semantics survive retransmission even for aliased self-copies);
* after convergence a **self-verification** pass checksums every
  destination section against the schedule-predicted checksum of the
  staged payload, so silent data loss is a hard :class:`ExchangeFailure`
  rather than a wrong answer;
* with an :class:`~repro.machine.audit.IntegrityAuditor` the exchange
  runs in **verified mode** (docs/FAULT_MODEL.md §5): the block-checksum
  ledger is audited after every protocol round, and an in-arena
  ``scribble`` fault (bits rotting at rest, invisible to packet CRCs)
  is localized to ``(rank, arena, chunk, slots)`` and repaired in
  place -- from the sender's retransmit buffer when the slots belong to
  an applied transfer or staged local copy, else from the newest
  covering checkpoint, escalating to a full rank restore only when
  localization fails, and raising :class:`ExchangeFailure` naming the
  unrecoverable ``(rank, arena, chunk)`` when even that is impossible.
  A per-rank flight recorder
  (:class:`~repro.machine.trace.FlightRecorder`) is dumped into
  ``fault-reports/`` on any failure for post-mortem;

* whole-rank **crashes** (:class:`~repro.machine.faults.FaultPlan` kill
  points) are survivable when a
  :class:`~repro.machine.checkpoint.CheckpointStore` is supplied:
  participants exchange per-round heartbeats, survivors *park*
  retransmissions toward a peer whose ACK/heartbeat window has been
  silent for ``suspect_after`` rounds, and a restarted rank restores its
  arenas and protocol state from its last checkpoint, after which the
  missing transfers are replayed idempotently from the senders'
  pack-time logs.  Without a checkpoint store a crash is a hard
  :class:`ExchangeFailure` whose report names the unrecoverable rank and
  superstep.

The result is the property the tests sweep over fault seeds: a resilient
exchange either produces results bit-identical to the fault-free
execution or raises :class:`ExchangeFailure` -- never silently wrong
data.  At zero fault rate the protocol costs one extra superstep over
:func:`execute_copy` and reports zero retries.
"""

from __future__ import annotations

import itertools
import os
import struct
import zlib
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from ..distribution.array import DistributedArray
from ..distribution.section import RegularSection
from ..machine.audit import IntegrityAuditor
from ..machine.checkpoint import CheckpointStore
from ..machine.trace import FlightRecorder
from ..machine.iface import Machine
from .commsets import CommSchedule, Transfer
from .plancache import cached_comm_schedule
from .exec import _check_vm, as_index, gather_slots, scatter_slots
from .redistribute import RedistributionStats, stats_from_schedule

__all__ = [
    "ExchangeFailure",
    "Packet",
    "RecoveryEvent",
    "ResilienceReport",
    "RetryPolicy",
    "execute_copy_resilient",
    "redistribute_resilient",
]

# Unique per-exchange channel ids: leftovers from an aborted or
# still-draining exchange can never be confused with a later one.
_EXCHANGE_IDS = itertools.count()

# Nominal per-packet header charge for traffic accounting (tid, seq,
# checksum, tag overhead).
_HEADER_BYTES = 32


class ExchangeFailure(RuntimeError):
    """A resilient exchange could not be completed *and verified*.

    Raised when retries are exhausted, the superstep budget runs out, or
    destination verification detects silent data loss.  The partial
    :class:`ResilienceReport` is attached as ``.report``.
    """

    def __init__(self, message: str, report: "ResilienceReport") -> None:
        super().__init__(message)
        self.report = report


@dataclass(frozen=True, slots=True)
class RetryPolicy:
    """Bounds of the acknowledged-delivery protocol.

    ``timeout`` is measured in supersteps since a transfer was last
    transmitted; 2 is the minimum that does not spuriously retransmit on
    a healthy network (data crosses one barrier, the ACK a second).
    ``max_retries`` bounds retransmissions per transfer;
    ``max_supersteps`` bounds the whole exchange.  ``suspect_after`` is
    the dead-peer detection window: a participant whose heartbeats/ACKs
    have been missing for that many consecutive rounds is presumed
    crashed, and retransmissions toward it are parked until it is heard
    from again (so a rank's downtime does not burn the retry budget).
    """

    max_retries: int = 8
    timeout: int = 2
    max_supersteps: int = 64
    suspect_after: int = 3

    def __post_init__(self) -> None:
        if self.max_retries < 0:
            raise ValueError(f"max_retries must be >= 0, got {self.max_retries}")
        if self.timeout < 1:
            raise ValueError(f"timeout must be >= 1 superstep, got {self.timeout}")
        if self.max_supersteps < 2:
            raise ValueError(
                f"max_supersteps must be >= 2, got {self.max_supersteps}"
            )
        if self.suspect_after < 1:
            raise ValueError(
                f"suspect_after must be >= 1 round, got {self.suspect_after}"
            )


@dataclass(frozen=True, slots=True)
class Packet:
    """One transfer transmission: header + payload, self-checksummed."""

    tid: int  # transfer id (index into the schedule's transfer list)
    seq: int  # transmission number: 0 first send, then 1, 2, ... retries
    checksum: int  # CRC-32 over header and payload bytes
    payload: np.ndarray

    @property
    def nbytes(self) -> int:
        return int(self.payload.nbytes) + _HEADER_BYTES

    def valid(self) -> bool:
        try:
            return self.checksum == _packet_checksum(self.tid, self.seq, self.payload)
        except Exception:
            return False


def _packet_checksum(tid: int, seq: int, payload: np.ndarray) -> int:
    header = struct.pack("<qq", tid, seq) + payload.dtype.str.encode()
    crc = zlib.crc32(header)
    return zlib.crc32(np.ascontiguousarray(payload).tobytes(), crc)


def _values_checksum(values: np.ndarray) -> int:
    return zlib.crc32(np.ascontiguousarray(values).tobytes())


def _ack(tids: tuple[int, ...]) -> tuple:
    return ("ack", tids, zlib.crc32(repr(tids).encode()))


def _nack(tid: int) -> tuple:
    return ("nack", tid, zlib.crc32(repr(tid).encode()))


def _hb(rank: int, incarnation: int) -> tuple:
    """Checksummed liveness beacon; the incarnation lets peers tell a
    reboot from a long stall."""
    body = (rank, incarnation)
    return ("hb", body, zlib.crc32(repr(body).encode()))


def _valid_control(payload, kind: str) -> bool:
    """Checksummed control messages: corrupted ACK/NACKs are discarded
    rather than poisoning sender bookkeeping."""
    return (
        isinstance(payload, tuple)
        and len(payload) == 3
        and payload[0] == kind
        and payload[2] == zlib.crc32(repr(payload[1]).encode())
    )


@dataclass(frozen=True, slots=True)
class RecoveryEvent:
    """One completed crash recovery: which rank died, where it rewound
    to, and how much had to be replayed."""

    rank: int
    crash_superstep: int
    checkpoint_superstep: int
    replayed_transfers: int
    round_no: int  # protocol round at which the restore happened


@dataclass
class ResilienceReport:
    """What an acknowledged exchange cost and detected."""

    transfers: int  # remote transfers in the schedule
    local_transfers: int
    supersteps: int = 0  # barriers this exchange consumed
    retries: int = 0  # retransmissions (beyond each first send)
    retransmitted_bytes: int = 0
    detected_corruptions: int = 0  # checksum-failed packets at receivers
    duplicates_ignored: int = 0
    nacks_sent: int = 0
    converged: bool = False
    verified: bool = False
    crashes: list[tuple[int, int]] = field(default_factory=list)  # (rank, step)
    recoveries: list[RecoveryEvent] = field(default_factory=list)
    replayed_transfers: int = 0
    parked_rounds: int = 0  # rounds spent with at least one suspected peer
    checkpoints_taken: int = 0
    checkpoint_bytes: int = 0
    unrecoverable: tuple[int, int] | None = None  # (rank, superstep)
    # Verified-mode (IntegrityAuditor) accounting -- docs/FAULT_MODEL.md §5.
    audits: int = 0
    audit_chunks_checked: int = 0
    scribbles_detected: int = 0  # ledger divergences found by audits
    chunks_repaired: int = 0  # divergences healed in place
    repaired_from_retransmit: int = 0  # slots rewritten from pack-time payloads
    repaired_from_checkpoint: int = 0  # slots patched from a covering checkpoint
    audit_escalations: int = 0  # full rank restores after failed localization
    unrecoverable_chunk: tuple[int, str, int] | None = None  # (rank, arena, chunk)
    flight_dump: str | None = None  # flight-recorder JSON path, set on failure
    trace_dump: str | None = None  # observability JSONL path, set on failure
    schedule: CommSchedule | None = field(default=None, repr=False)

    @property
    def extra_supersteps(self) -> int:
        """Overhead versus the 2-superstep fault-free ``execute_copy``."""
        return self.supersteps - 2


@dataclass
class _Outbound:
    """Sender-side bookkeeping for one remote transfer."""

    transfer: Transfer
    payload: np.ndarray
    last_sent: int = 0  # protocol round of the latest transmission
    sends: int = 1
    acked: bool = False
    nacked: bool = False
    exhausted: bool = False


def execute_copy_resilient(
    vm: Machine,
    a: DistributedArray,
    sec_a: RegularSection,
    b: DistributedArray,
    sec_b: RegularSection,
    schedule: CommSchedule | None = None,
    policy: RetryPolicy | None = None,
    checkpoints: CheckpointStore | None = None,
    auditor: IntegrityAuditor | bool | None = None,
    recorder: FlightRecorder | None = None,
    flight_dir: str = "fault-reports",
) -> ResilienceReport:
    """Run ``A(sec_a) = B(sec_b)`` tolerating network faults.

    Same semantics as :func:`repro.runtime.exec.execute_copy` (Fortran
    read-before-write, precomputed-schedule reuse) but every remote
    transfer is acknowledged, retransmitted on loss, rejected on
    corruption, applied idempotently on duplication, and the destination
    sections are verified against schedule-predicted checksums before
    returning.  Either the copy completes bit-identical to the fault-free
    execution and a :class:`ResilienceReport` is returned, or
    :class:`ExchangeFailure` is raised.

    With a ``checkpoints`` store, whole-rank crashes are survivable: a
    baseline checkpoint is taken before the pack superstep, further ones
    per the store's policy, and a restarted rank restores from its last
    checkpoint and has the missing transfers replayed.  Without a store,
    any crash raises :class:`ExchangeFailure` whose report names the
    unrecoverable ``(rank, superstep)``.

    With an ``auditor`` (pass ``True`` for a default
    :class:`~repro.machine.audit.IntegrityAuditor`) the exchange runs in
    **verified mode**: every arena is ledgered, every protocol round is
    followed by an integrity audit, and at-rest corruption (``scribble``
    faults) is repaired through the escalation ladder of
    docs/FAULT_MODEL.md §5 -- retransmit-buffer rewrite, checkpoint
    chunk patch, full rank restore -- or the exchange fails naming the
    unrecoverable ``(rank, arena, chunk)``.  A
    :class:`~repro.machine.trace.FlightRecorder` (auto-created in
    verified mode unless one is passed) is dumped into ``flight_dir`` on
    any :class:`ExchangeFailure` and its path recorded on the attached
    report's ``flight_dump``.
    """
    if auditor is True:
        auditor = IntegrityAuditor()
    elif auditor is False:
        auditor = None
    if auditor is not None and recorder is None:
        recorder = FlightRecorder()
    attached_recorder = False
    attached_auditor = False
    try:
        if recorder is not None:
            recorder.attach(vm)
            attached_recorder = True
        if auditor is not None:
            auditor.attach(vm)
            attached_auditor = True
        if schedule is None:
            schedule = cached_comm_schedule(a, sec_a, b, sec_b)
        with vm.obs.span(
            "exchange",
            array=a.name,
            transfers=len(schedule.transfers),
            elements=schedule.communicated_elements,
            payload_bytes=sum(
                 8 * len(tr) + _HEADER_BYTES for tr in schedule.transfers
            ),
        ):
            return _execute_copy_resilient(
                vm, a, sec_a, b, sec_b, schedule, policy, checkpoints,
                auditor, recorder,
            )
    except ExchangeFailure as exc:
        if recorder is not None:
            try:
                exc.report.flight_dump = str(
                    recorder.dump(flight_dir, label=a.name)
                )
            except OSError:  # pragma: no cover - dump dir unwritable
                pass
        if vm.obs.enabled:
            from ..obs.export import rotate_reports, write_jsonl

            try:
                path = Path(flight_dir) / f"obs-{a.name}-p{os.getpid()}.jsonl"
                exc.report.trace_dump = str(write_jsonl(vm.obs, path))
                rotate_reports(flight_dir)
            except OSError:  # pragma: no cover - dump dir unwritable
                pass
        raise
    finally:
        if attached_auditor:
            auditor.detach(vm)
        if attached_recorder:
            recorder.detach()


def _execute_copy_resilient(
    vm: Machine,
    a: DistributedArray,
    sec_a: RegularSection,
    b: DistributedArray,
    sec_b: RegularSection,
    schedule: CommSchedule | None,
    policy: RetryPolicy | None,
    checkpoints: CheckpointStore | None,
    auditor: IntegrityAuditor | None,
    recorder: FlightRecorder | None,
) -> ResilienceReport:
    _check_vm(vm, a)
    _check_vm(vm, b)
    if policy is None:
        policy = RetryPolicy()
    if schedule is None:
        schedule = cached_comm_schedule(a, sec_a, b, sec_b)
    if vm.dead_ranks:
        raise ValueError(
            f"ranks {list(vm.dead_ranks)} are dead; an exchange must start "
            "on an all-alive machine"
        )

    obs = vm.obs
    xid = next(_EXCHANGE_IDS)
    data_tag = ("rxd", xid)
    ack_tag = ("rxa", xid)
    nack_tag = ("rxn", xid)
    hb_tag = ("rxh", xid)
    all_tags = (data_tag, ack_tag, nack_tag, hb_tag)
    core_tags = (data_tag, ack_tag, nack_tag)  # hopelessness ignores heartbeats

    transfers = schedule.transfers
    report = ResilienceReport(
        transfers=len(transfers),
        local_transfers=len(schedule.locals_),
        schedule=schedule,
    )

    # Host-side protocol state, partitioned per rank (each node function
    # only touches its own rank's slice -- the SPMD discipline).
    outbox: list[dict[int, _Outbound]] = [dict() for _ in range(vm.p)]
    expected: list[dict[int, Transfer]] = [dict() for _ in range(vm.p)]
    applied: list[set[int]] = [set() for _ in range(vm.p)]
    staged_locals: list[list[tuple[Transfer, np.ndarray]]] = [
        [] for _ in range(vm.p)
    ]
    for tid, tr in enumerate(transfers):
        expected[tr.dest][tid] = tr

    # Crash bookkeeping.  ``integrated`` is the incarnation whose state
    # this exchange has restored (0 = the original boot); a live rank
    # with a higher incarnation has rebooted and must restore from
    # checkpoint before it may participate again.  ``last_heard`` drives
    # the failure detector: the latest round at which *anyone* received
    # traffic (data, control, or heartbeat) from each rank.
    participants = sorted(
        {tr.source for tr in transfers} | {tr.dest for tr in transfers}
    )
    peers = {r: [q for q in participants if q != r] for r in participants}
    integrated = [vm.processors[r].incarnation for r in range(vm.p)]
    last_heard = [0] * vm.p
    crashes_seen = len(vm.crash_log)

    def observe_crashes() -> None:
        nonlocal crashes_seen
        new = vm.crash_log[crashes_seen:]
        crashes_seen = len(vm.crash_log)
        for rank, step in new:
            report.crashes.append((rank, step))
            if checkpoints is None:
                report.unrecoverable = (rank, step)
                raise ExchangeFailure(
                    f"rank {rank} crashed at superstep {step} and "
                    "checkpointing is disabled -- exchange unrecoverable "
                    "(pass a CheckpointStore to enable recovery)",
                    report,
                )

    def take_checkpoint() -> None:
        with obs.span("checkpoint", step=vm.superstep):
            ckpt = checkpoints.save(
                vm,
                states={
                    r: {
                        "applied": frozenset(applied[r]),
                        "locals_applied": locals_applied,
                    }
                    for r in range(vm.p)
                },
            )
        report.checkpoints_taken += 1
        report.checkpoint_bytes += ckpt.nbytes
        obs.inc("resilient.checkpoints")
        obs.inc("resilient.checkpoint_bytes", ckpt.nbytes)

    def recover_rank(rank: int, round_no: int) -> None:
        """Restore a rebooted rank from its last checkpoint and arrange
        replay of every transfer its wiped memory lost."""
        proc = vm.processors[rank]
        crash_step = proc.crashed_at if proc.crashed_at is not None else -1
        entry = checkpoints.latest_for(rank) if checkpoints is not None else None
        if entry is None:
            report.unrecoverable = (rank, crash_step)
            # Name the retention window so degraded-mode membership
            # decisions (runtime/elastic.py) are diagnosable from the
            # exception alone: the covering checkpoint either never
            # existed or was evicted by the retention policy.
            window = (
                checkpoints.describe_window()
                if checkpoints is not None
                else "checkpointing disabled"
            )
            covered = (
                checkpoints.covering(crash_step)
                if checkpoints is not None and crash_step >= 0
                else None
            )
            why = (
                "the covering checkpoint was evicted by retention"
                if covered is None
                else f"the checkpoint at superstep {covered.superstep} omits the rank"
            )
            raise ExchangeFailure(
                f"rank {rank} crashed at superstep {crash_step} and no "
                f"retained checkpoint covers it ({why}; {window}) -- "
                "exchange unrecoverable",
                report,
            )
        ckpt, _ = entry
        state = checkpoints.restore_rank(vm, rank, ckpt) or {}
        applied[rank] = set(state.get("applied", ()))
        if not state.get("locals_applied", False) and staged_locals[rank]:
            # The checkpoint predates the pack superstep: replay the
            # rank's local copies from the host-side pack log.
            dst_mem = proc.memory(a.name)
            for tr, values in staged_locals[rank]:
                dst_mem[as_index(tr.dst_slots)] = values
        if auditor is not None:
            # The restored arenas (checksum-verified) plus the replayed
            # locals are the rank's new ledger truth.
            auditor.capture_rank(proc)
        if recorder is not None:
            recorder.record(
                rank, vm.superstep, "restore",
                f"crash at superstep {crash_step}, rewound to "
                f"checkpoint superstep {ckpt.superstep}",
            )
        obs.instant(
            "restore", rank=rank, crash_superstep=crash_step,
            checkpoint_superstep=ckpt.superstep,
        )
        obs.inc("resilient.restores")
        replayed = 0
        for tid, tr in expected[rank].items():
            if tid in applied[rank]:
                continue
            ob = outbox[tr.source].get(tid)
            if ob is None:
                continue
            # Fresh delivery attempt: the sends burned against a dead
            # NIC do not count toward the retry budget.
            ob.acked = ob.nacked = ob.exhausted = False
            ob.sends = 1
            ob.last_sent = round_no - policy.timeout  # due next round
            replayed += 1
        report.replayed_transfers += replayed
        report.recoveries.append(
            RecoveryEvent(rank, crash_step, ckpt.superstep, replayed, round_no)
        )
        last_heard[rank] = round_no  # a fresh reboot is not a suspect
        integrated[rank] = proc.incarnation

    def integrate_reboots(round_no: int) -> None:
        for rank in range(vm.p):
            proc = vm.processors[rank]
            if proc.alive and proc.incarnation > integrated[rank]:
                recover_rank(rank, round_no)

    def healthy() -> bool:
        return all(
            proc.alive and proc.incarnation == integrated[proc.rank]
            for proc in vm.processors
        )

    # ------------------------------------------------------------------
    # Verified mode: audit-and-repair ladder (docs/FAULT_MODEL.md §5).
    # The auditor's shadow ledger is the *oracle* -- it tells us which
    # bytes rotted -- but repairs deliberately source their data from
    # real redundant storage (the senders' pack-time payload log, then
    # the checkpoint store), the way a production ledger holding only
    # CRCs would have to; the post-repair re-audit then verifies the
    # repair reproduced the trusted bytes, escalating when it did not.
    # ------------------------------------------------------------------

    # Destination-slot provenance for repair step 1: which transfer or
    # staged local copy legitimately wrote each A slot on each rank.
    _slot_sources: list[dict[int, tuple[str, int, int]] | None] = [None] * vm.p

    def slot_sources(rank: int) -> dict[int, tuple[str, int, int]]:
        cached = _slot_sources[rank]
        if cached is None:
            cached = {}
            for tid, tr in expected[rank].items():
                for pos, slot in enumerate(tr.dst_slots):
                    cached[int(slot)] = ("transfer", tid, pos)
            for li, (tr, _values) in enumerate(staged_locals[rank]):
                for pos, slot in enumerate(tr.dst_slots):
                    cached[int(slot)] = ("local", li, pos)
            _slot_sources[rank] = cached
        return cached

    def repair_divergence(div) -> bool:
        """Ladder steps 1-2: rewrite slots covered by an applied
        transfer or staged local from the pack-time payload log, patch
        the rest from the newest covering checkpoint.  Returns ``False``
        when neither source covers the damage (caller escalates)."""
        if not div.localized:
            return False
        arena = vm.processors[div.rank].memory(div.arena)
        sources = slot_sources(div.rank) if div.arena == a.name else {}
        leftover: list[int] = []
        for slot in div.slots:
            value = None
            src = sources.get(slot)
            if src is not None:
                kind, i, pos = src
                if kind == "transfer" and i in applied[div.rank]:
                    ob = outbox[expected[div.rank][i].source].get(i)
                    if ob is not None:
                        value = ob.payload[pos]
                elif kind == "local" and locals_applied:
                    value = staged_locals[div.rank][i][1][pos]
            if value is not None:
                arena[slot] = value
                report.repaired_from_retransmit += 1
            else:
                leftover.append(slot)
        if leftover:
            entry = (
                checkpoints.latest_for(div.rank)
                if checkpoints is not None else None
            )
            values = entry[1].arena_values(div.arena) if entry else None
            if values is None or values.size != arena.size:
                return False
            idx = np.asarray(leftover, dtype=np.int64)
            arena[idx] = values[idx].astype(arena.dtype, copy=False)
            report.repaired_from_checkpoint += len(leftover)
        report.chunks_repaired += 1
        obs.instant(
            "repair", rank=div.rank, arena=div.arena, chunk=div.chunk,
            from_checkpoint=len(leftover),
        )
        obs.inc("resilient.chunks_repaired")
        if recorder is not None:
            recorder.record(
                div.rank, vm.superstep, "repair",
                f"arena={div.arena} chunk={div.chunk} "
                f"slots={list(div.slots)} from_checkpoint={len(leftover)}",
            )
        return True

    def full_restore(div, round_no: int) -> None:
        """Ladder step 3: localization (or in-place repair) failed --
        rewind the whole rank to its newest checkpoint, exactly like a
        crash recovery, and reopen the transfers the rewind lost."""
        entry = (
            checkpoints.latest_for(div.rank)
            if checkpoints is not None else None
        )
        if entry is None:
            report.unrecoverable_chunk = (div.rank, div.arena, div.chunk)
            raise ExchangeFailure(
                f"rank {div.rank} arena {div.arena!r} chunk {div.chunk} "
                "diverged and cannot be repaired (no retransmit coverage, "
                "no retained checkpoint) -- corruption detected but "
                "unrecoverable",
                report,
            )
        ckpt, _ = entry
        proc = vm.processors[div.rank]
        state = checkpoints.restore_rank(vm, div.rank, ckpt) or {}
        applied[div.rank] = set(state.get("applied", ()))
        if not state.get("locals_applied", False) and staged_locals[div.rank]:
            dst_mem = proc.memory(a.name)
            for tr, values in staged_locals[div.rank]:
                dst_mem[as_index(tr.dst_slots)] = values
        reopened = 0
        for tid, tr in expected[div.rank].items():
            if tid in applied[div.rank]:
                continue
            ob = outbox[tr.source].get(tid)
            if ob is None:
                continue
            ob.acked = ob.nacked = ob.exhausted = False
            ob.sends = 1
            ob.last_sent = round_no - policy.timeout  # due next round
            reopened += 1
        report.replayed_transfers += reopened
        report.audit_escalations += 1
        obs.instant(
            "restore", rank=div.rank, arena=div.arena, chunk=div.chunk,
            checkpoint_superstep=ckpt.superstep, escalation=True,
        )
        obs.inc("resilient.restores")
        auditor.capture_rank(proc)
        if recorder is not None:
            recorder.record(
                div.rank, vm.superstep, "restore",
                f"audit escalation: arena={div.arena} chunk={div.chunk}, "
                f"rewound to checkpoint superstep {ckpt.superstep}, "
                f"{reopened} transfer(s) reopened",
            )

    def audit_and_repair(round_no: int) -> None:
        """Audit every ledgered arena and heal any divergence via the
        ladder; returns with the machine audit-clean or raises
        :class:`ExchangeFailure` naming the unrecoverable chunk."""
        if auditor is None:
            return
        try:
            with obs.span("audit", round=round_no):
                divs = auditor.audit(vm)
            obs.inc("resilient.audits")
            if not divs:
                return
            report.scribbles_detected += len(divs)
            obs.inc("resilient.scribbles_detected", len(divs))
            if recorder is not None:
                for div in divs:
                    recorder.record(
                        div.rank, vm.superstep, "audit",
                        f"diverged arena={div.arena} chunk={div.chunk} "
                        f"slots={list(div.slots)}",
                    )
            unrepaired = [d for d in divs if not repair_divergence(d)]
            # Re-audit: a repair that did not reproduce the trusted
            # bytes (e.g. a stale checkpoint) is treated as a failed
            # localization and escalated, never trusted.
            residual = unrepaired + auditor.audit(vm)
            if not residual:
                return
            for rank in sorted({d.rank for d in residual}):
                full_restore(
                    next(d for d in residual if d.rank == rank), round_no
                )
            still = auditor.audit(vm)
            if still:
                d = still[0]
                report.unrecoverable_chunk = (d.rank, d.arena, d.chunk)
                raise ExchangeFailure(
                    f"rank {d.rank} arena {d.arena!r} chunk {d.chunk} still "
                    "diverged after a full checkpoint restore -- corruption "
                    "detected but unrecoverable",
                    report,
                )
        finally:
            report.audits = auditor.stats.audits
            report.audit_chunks_checked = auditor.stats.chunks_checked

    # ------------------------------------------------------------------
    # Superstep 1: pack.  Everything is read (remote payloads staged in
    # the outbox, local payloads staged) before any element is written,
    # and retransmissions reuse the staged copies -- so aliased
    # self-copies stay correct no matter how often packets are resent.
    # The outbox and the staged-locals list double as the senders'
    # stable pack-time log: like the checkpoint store they live host-side
    # and survive rank crashes, which is what makes replay possible.
    # ------------------------------------------------------------------

    locals_applied = False
    if checkpoints is not None:
        # Baseline checkpoint: taken *before* pack so even a crash at
        # the very first barrier has somewhere to rewind to.
        take_checkpoint()

    def pack_phase(ctx):
        # Ranks beyond the RHS grid (elastic machines run with
        # vm.p >= grid.size) hold no source shard: nothing to pack.
        if ctx.rank >= b.grid.size:
            return
        src_mem = ctx.memory(b.name)
        for tid, tr in enumerate(transfers):
            if tr.source != ctx.rank:
                continue
            payload = gather_slots(src_mem, tr.src_slots)
            outbox[ctx.rank][tid] = _Outbound(tr, payload)
            ctx.send(tr.dest, data_tag, Packet(tid, 0, _packet_checksum(tid, 0, payload), payload))
        staged = [
            (tr, gather_slots(src_mem, tr.src_slots))
            for tr in schedule.locals_
            if tr.source == ctx.rank
        ]
        staged_locals[ctx.rank] = staged
        if staged:
            dst_mem = ctx.memory(a.name)
            for tr, values in staged:
                scatter_slots(dst_mem, tr.dst_slots, values)
                if auditor is not None:
                    auditor.note_write(ctx.rank, a.name, tr.dst_slots)

    with obs.span(
        "pack_phase",
        array=a.name,
        transfers=len(transfers),
        elements=sum(len(tr) for tr in transfers),
        payload_bytes=sum(8 * len(tr) + _HEADER_BYTES for tr in transfers),
    ):
        vm.run(pack_phase)
    report.supersteps += 1
    locals_applied = True
    observe_crashes()
    audit_and_repair(0)

    # ------------------------------------------------------------------
    # Protocol rounds: receive/apply/ACK + retransmit, one superstep
    # each, until every expected transfer has been applied.  Every live
    # participant also beacons a heartbeat to its peers; a peer silent
    # for ``suspect_after`` rounds is presumed crashed and
    # retransmissions toward it park until it is heard from again.
    # ------------------------------------------------------------------

    def protocol_round(round_no: int, suspects: frozenset[int]):
        def step(ctx):
            rank = ctx.rank
            proc = vm.processors[rank]
            if proc.incarnation > integrated[rank]:
                # Freshly rebooted, not yet restored from checkpoint:
                # announce liveness (the new incarnation) and do nothing
                # else -- local memory is still wiped.
                for q in peers.get(rank, ()):
                    ctx.send(q, hb_tag, _hb(rank, proc.incarnation))
                return
            # Liveness: fold heartbeats into the shared failure detector.
            for source, payload in ctx.drain(hb_tag):
                if _valid_control(payload, "hb"):
                    last_heard[source] = max(last_heard[source], round_no)
            # Sender role: fold in ACK/NACK traffic (checksummed; a
            # corrupted control message is discarded, the timeout covers).
            for source, payload in ctx.drain(ack_tag):
                if _valid_control(payload, "ack"):
                    last_heard[source] = max(last_heard[source], round_no)
                    for tid in payload[1]:
                        ob = outbox[rank].get(tid)
                        if ob is not None:
                            ob.acked = True
            for source, payload in ctx.drain(nack_tag):
                if _valid_control(payload, "nack"):
                    last_heard[source] = max(last_heard[source], round_no)
                    ob = outbox[rank].get(payload[1])
                    if ob is not None and not ob.acked:
                        ob.nacked = True

            # Receiver role: validate, apply idempotently, NACK corruption.
            dst_mem = ctx.memory(a.name) if expected[rank] else None
            for source, payload in ctx.drain(data_tag):
                last_heard[source] = max(last_heard[source], round_no)
                if not isinstance(payload, Packet) or not payload.valid():
                    report.detected_corruptions += 1
                    obs.inc("resilient.detected_corruptions")
                    tid = getattr(payload, "tid", None)
                    if isinstance(tid, int) and tid in expected[rank]:
                        ctx.send(source, nack_tag, _nack(tid))
                        report.nacks_sent += 1
                        obs.inc("resilient.nacks_sent")
                    continue
                tr = expected[rank].get(payload.tid)
                if tr is None or tr.source != source:
                    # A checksum-consistent packet for a transfer this rank
                    # does not expect -- only reachable through tag/routing
                    # corruption; drop it.
                    report.detected_corruptions += 1
                    obs.inc("resilient.detected_corruptions")
                    continue
                if payload.tid in applied[rank]:
                    report.duplicates_ignored += 1
                    obs.inc("resilient.duplicates_ignored")
                    continue
                dst_mem[as_index(tr.dst_slots)] = payload.payload
                applied[rank].add(payload.tid)
                if auditor is not None:
                    auditor.note_write(rank, a.name, tr.dst_slots)

            # Receiver role: cumulative ACKs, re-sent every round so a
            # dropped ACK is repaired by the next one.
            by_source: dict[int, list[int]] = {}
            for tid in applied[rank]:
                by_source.setdefault(expected[rank][tid].source, []).append(tid)
            for source, tids in by_source.items():
                ctx.send(source, ack_tag, _ack(tuple(sorted(tids))))

            # Sender role: retransmit overdue or NACKed transfers --
            # except toward suspected-dead peers, where retransmissions
            # park so an outage cannot exhaust the retry budget.
            for tid, ob in outbox[rank].items():
                if ob.acked or ob.exhausted:
                    continue
                if ob.transfer.dest in suspects:
                    continue
                if not ob.nacked and round_no - ob.last_sent < policy.timeout:
                    continue
                if ob.sends > policy.max_retries:
                    ob.exhausted = True
                    continue
                seq = ob.sends
                ctx.send(
                    ob.transfer.dest,
                    data_tag,
                    Packet(tid, seq, _packet_checksum(tid, seq, ob.payload), ob.payload),
                )
                ob.sends += 1
                ob.last_sent = round_no
                ob.nacked = False
                report.retries += 1
                report.retransmitted_bytes += int(ob.payload.nbytes) + _HEADER_BYTES
                # Emitted at the same code point as report.retries so the
                # Chrome-trace instant count always equals the report.
                obs.instant(
                    "retransmit", rank=rank, tid=tid,
                    dest=ob.transfer.dest, seq=seq,
                )
                obs.inc("resilient.retries")

            # Liveness beacon to every peer (cheap, checksummed).
            for q in peers.get(rank, ()):
                ctx.send(q, hb_tag, _hb(rank, proc.incarnation))

        return step

    def data_converged() -> bool:
        return all(
            set(expected[rank]) <= applied[rank] for rank in range(vm.p)
        )

    def suspects_now(round_no: int) -> frozenset[int]:
        return frozenset(
            r for r in participants
            if round_no - last_heard[r] > policy.suspect_after
        )

    # ------------------------------------------------------------------
    # Cleanup phase function: drain in-flight leftovers (late duplicates,
    # final ACKs, stalled stragglers, heartbeats) so the exchange leaves
    # the network idle.  The tags are exchange-unique, so even a
    # straggler the fault plan pins past the budget cannot interfere
    # with later exchanges.
    # ------------------------------------------------------------------

    def cleanup(ctx):
        for _source, payload in ctx.drain(data_tag):
            # Validate even the leftovers we discard: a packet the fault
            # plan corrupted in its final flight is a *detected*
            # corruption, not a duplicate -- the sensitivity sweep
            # asserts every injected wire fault is accounted for.
            if isinstance(payload, Packet) and payload.valid():
                report.duplicates_ignored += 1
                obs.inc("resilient.duplicates_ignored")
            else:
                report.detected_corruptions += 1
                obs.inc("resilient.detected_corruptions")
        ctx.drain(ack_tag)
        ctx.drain(nack_tag)
        ctx.drain(hb_tag)

    round_no = 0
    rounds_since_ckpt = 0
    while True:
        # Protocol rounds until every expected transfer is applied on an
        # all-alive, fully-restored machine.  A crash mid-exchange keeps
        # the loop running: survivors park, the victim's downtime
        # elapses, and ``integrate_reboots`` rewinds it to its last
        # checkpoint and reopens the transfers its wiped memory lost.
        while not (data_converged() and healthy()):
            if report.supersteps >= policy.max_supersteps:
                raise ExchangeFailure(
                    f"exchange did not converge within {policy.max_supersteps} "
                    f"supersteps ({_missing_summary(expected, applied, vm.p)})",
                    report,
                )
            suspects = suspects_now(round_no + 1)
            if (
                healthy()
                and not suspects
                and _all_exhausted(outbox, expected, applied, vm.p)
                and not vm.outstanding(core_tags)
            ):
                raise ExchangeFailure(
                    "retries exhausted with transfers still undelivered "
                    f"({_missing_summary(expected, applied, vm.p)})",
                    report,
                )
            round_no += 1
            if suspects:
                report.parked_rounds += 1
            with obs.span(
                "protocol_round", round=round_no, suspects=len(suspects)
            ):
                vm.run(protocol_round(round_no, suspects))
            report.supersteps += 1
            observe_crashes()
            integrate_reboots(round_no)
            audit_and_repair(round_no)
            rounds_since_ckpt += 1
            if (
                checkpoints is not None
                and healthy()
                and checkpoints.policy.due(rounds_since_ckpt)
            ):
                take_checkpoint()
                rounds_since_ckpt = 0
        report.converged = True

        # Drain stragglers.  A crash at a cleanup barrier reopens the
        # exchange (the victim's recovery resets its applied set), so on
        # any health change we fall back into the protocol loop.
        reopened = False
        while vm.outstanding(all_tags) and report.supersteps < policy.max_supersteps:
            with obs.span("cleanup_round"):
                vm.run(cleanup)
            report.supersteps += 1
            observe_crashes()
            integrate_reboots(round_no)
            audit_and_repair(round_no)
            if not (data_converged() and healthy()):
                reopened = True
                break
        if not reopened and data_converged() and healthy():
            break

    # ------------------------------------------------------------------
    # Self-verification: every destination section must checksum to what
    # the schedule predicted at pack time.  Catches silent loss that the
    # per-packet machinery somehow missed -- the difference between a
    # wrong answer and a hard error.
    # ------------------------------------------------------------------

    failures = []
    with obs.span("verify_destinations", array=a.name):
        for rank in range(a.grid.size):
            dst_mem = vm.processors[rank].memory(a.name)
            checks = [
                (tid, expected[rank][tid], outbox[expected[rank][tid].source][tid].payload)
                for tid in expected[rank]
            ]
            checks += [(None, tr, values) for tr, values in staged_locals[rank]]
            for tid, tr, payload in checks:
                predicted = _values_checksum(payload.astype(dst_mem.dtype, copy=False))
                actual = _values_checksum(dst_mem[as_index(tr.dst_slots)])
                if predicted != actual:
                    failures.append((rank, tid, tr.source))
    if failures:
        raise ExchangeFailure(
            f"destination verification failed for {len(failures)} transfer(s) "
            f"(rank, tid, source): {failures[:5]} -- silent data loss detected",
            report,
        )
    report.verified = True
    return report


def _all_exhausted(outbox, expected, applied, p: int) -> bool:
    """True when every still-missing transfer's sender has given up."""
    for rank in range(p):
        for tid in set(expected[rank]) - applied[rank]:
            ob = outbox[expected[rank][tid].source].get(tid)
            if ob is not None and not ob.exhausted:
                return False
    return True


def _missing_summary(expected, applied, p: int) -> str:
    missing = {
        rank: sorted(set(expected[rank]) - applied[rank])
        for rank in range(p)
        if set(expected[rank]) - applied[rank]
    }
    return f"missing transfers by rank: {missing}"


def _full_section(array: DistributedArray) -> RegularSection:
    if array.rank != 1:
        raise ValueError(f"{array.name} must be rank-1 for redistribution")
    return RegularSection(0, array.shape[0] - 1, 1)


def redistribute_resilient(
    vm: Machine,
    dst: DistributedArray,
    src: DistributedArray,
    schedule: CommSchedule | None = None,
    policy: RetryPolicy | None = None,
    checkpoints: CheckpointStore | None = None,
    auditor: IntegrityAuditor | bool | None = None,
    recorder: FlightRecorder | None = None,
    flight_dir: str = "fault-reports",
) -> tuple[RedistributionStats, ResilienceReport]:
    """Execute ``dst = src`` (whole arrays) over an unreliable network.

    The resilient counterpart of
    :func:`repro.runtime.redistribute.redistribute`: same schedule, same
    statistics, but acknowledged delivery, destination verification,
    and -- with a ``checkpoints`` store -- crash recovery.  Returns
    ``(stats, report)``; raises :class:`ExchangeFailure` rather than
    ever leaving ``dst`` silently wrong.
    """
    if dst.shape != src.shape:
        raise ValueError(
            f"shape mismatch: {dst.name}{list(dst.shape)} vs "
            f"{src.name}{list(src.shape)}"
        )
    if schedule is None:
        schedule = cached_comm_schedule(
            dst, _full_section(dst), src, _full_section(src)
        )
    stats = stats_from_schedule(schedule)
    report = execute_copy_resilient(
        vm, dst, _full_section(dst), src, _full_section(src),
        schedule=schedule, policy=policy, checkpoints=checkpoints,
        auditor=auditor, recorder=recorder, flight_dir=flight_dir,
    )
    return stats, report
