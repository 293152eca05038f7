"""Pluggable, sharded execution backends for the post-scan pipeline.

The campaign's execution phase is a *policy*: how the pending plan's
experiments are distributed over workers.  This module makes that policy
pluggable behind one :class:`ExecutionBackend` protocol, selected via
``CampaignConfig.backend``:

* :class:`ThreadBackend` (``"thread"``) — the in-process engine: one
  adaptive :class:`~repro.sandbox.pool.ExperimentPool` fed by the
  pipelined mutant generator (:meth:`ExperimentExecutor.iter_mutations`,
  the only producer of mutants on every backend), streaming results
  straight into the canonical ``experiments.jsonl``.  A mutant that
  cannot be generated becomes that one experiment's ``harness_error``,
  never a failed campaign or a dead shard.  A campaign's coverage
  pre-run (:class:`PreRun`) is the pool's first job: it holds one slot,
  and the others start experiments of points it has already reached.
* :class:`RemoteBackend` (``"remote"``) — per-shard workers behind the
  versioned ``/v1`` service API: the pending plan is partitioned by the
  deterministic shard partitioner
  (:func:`repro.orchestrator.plan.shard_index`), and each shard's
  payload is placed on a worker (``POST /v1/shards`` on a ``profipy
  worker`` host, which runs the same pipelined engine).  The parent's
  dispatcher then moves
  each *placement* (part of a shard, submitted once to one worker)
  through explicit transitions: **place**, **poll** (cancel relay,
  status, and mirroring the worker's stream into a local
  ``experiments-<shard>.jsonl``, so a killed campaign still resumes
  from everything fetched so far), **stalled** and **rebalance** (move
  unstarted work from a busy worker to an idle one by release),
  **lose** (fail over from a lost worker) and **retire**.  It finally
  merges the shard streams deterministically (sorted by experiment id)
  into the canonical stream.
* :class:`ProcessBackend` (``"process"``) — the remote backend over
  loopback workers it spawns itself: one worker process per non-empty
  shard, each serving the ``/v1`` worker endpoints on ``127.0.0.1`` from
  a private workspace next to the stream.  Placement, cancel relay,
  mirroring, failover and merge are the remote backend's, so one
  failure policy covers both: a killed worker's unmirrored tail fails
  over to a sibling.

Every backend preserves the determinism invariant: experiment ids,
seeds, and mutants are independent of backend and shard count, so the
same campaign seed yields byte-identical per-experiment ``point``,
``mutated_snippet``, and ``seed`` whichever backend runs it — and a
campaign may even crash under one backend and resume under another.
Crash recovery of partial shard streams (:func:`recover_shard_streams`)
runs before the campaign computes its resume set, so no recorded
experiment is ever re-run or lost.

The sharded backends run a campaign's pre-run at the start of
``execute``, before they partition: their payloads are fixed at
placement.

Cancellation is cooperative everywhere: the thread backend polls the
campaign's cancel hook between experiments; the sharded backends relay
it as ``POST /v1/shards/{id}/cancel``, behind which the worker's
cancel-flag file sits, polled between experiments.

Progress is shard-aware: backends report ``experiments_done/total`` plus
a per-shard state table through ``ExecutionContext.on_progress`` — the
feed the service layer persists for ``/v1/jobs/{id}``.
"""

from __future__ import annotations

import dataclasses
import functools
import http.client
import json
import re
import shutil
import threading
import time
from collections import Counter
from dataclasses import dataclass, field
from multiprocessing import get_context
from pathlib import Path
from typing import Callable, Iterator, Protocol

from repro.faultmodel.model import FaultModel
from repro.orchestrator.coverage import CoverageReport, ProbeTail
from repro.orchestrator.executor import ExperimentExecutor
from repro.orchestrator.experiment import (
    STATUS_HARNESS_ERROR,
    ExperimentResult,
)
from repro.orchestrator.plan import PlannedExperiment, shard_index
from repro.orchestrator.stream import ExperimentStream
from repro.sandbox.image import SandboxImage
from repro.sandbox.pool import ExperimentPool, JobOutcome
from repro.workload.spec import WorkloadSpec

BACKEND_THREAD = "thread"
BACKEND_PROCESS = "process"
BACKEND_REMOTE = "remote"
BACKEND_NAMES = (BACKEND_THREAD, BACKEND_PROCESS, BACKEND_REMOTE)

#: Shard stream files are canonical-stream siblings: ``experiments.jsonl``
#: → ``experiments-3.jsonl``.
_SHARD_SUFFIX_RE = re.compile(r"-(\d+)$")

#: How often a free pool slot re-reads the pre-run's probe file while it
#: waits for a reached point.
PROBE_POLL_SECONDS = 0.02


@dataclass
class PreRun:
    """A campaign's coverage pre-run, handed to the backend that runs it.

    ``run(on_services_started)`` runs the pre-run and returns its report
    (the callback as in :func:`~repro.orchestrator.coverage.run_coverage`,
    or ``None``).  ``schedule(report, started)`` turns the report into
    the ordered pending list, of which the backend has already started
    ``started`` experiments; it raises for a pre-run whose services
    failed.  ``early`` holds the experiments that may start before the
    report, each once the pre-run has reached its point (empty: none).
    """

    run: Callable[[Callable[[ProbeTail], None] | None], CoverageReport]
    schedule: Callable[[CoverageReport, int], list[PlannedExperiment]]
    early: list[PlannedExperiment] = field(default_factory=list)


@dataclass
class ExecutionContext:
    """Everything a backend needs to run one campaign's pending plan.

    ``executor`` carries the in-process pieces (image, workload, compiled
    models, seeds); ``fault_model`` is the *serializable* source of the
    same faultload, which shard workers recompile on their side —
    compiled metamodels hold AST/matcher state that must not cross a
    process boundary.
    """

    executor: ExperimentExecutor
    fault_model: FaultModel
    shards: int = 1
    parallelism: int | None = None
    cancel: Callable[[], bool] | None = None
    on_progress: Callable[[dict], None] | None = None
    #: Worker base URLs (``http://host:port``) for the remote backend.
    workers: list[str] | None = None
    #: Worker registry facade for the remote backend — anything with
    #: ``list_workers()`` / ``register_worker()`` (a
    #: :class:`~repro.service.registry.WorkerRegistry`, a
    #: :class:`~repro.service.service.ProFIPyService`, or a
    #: :class:`~repro.service.client.ProFIPyClient` pointed at a
    #: coordinator).  When set, the fleet is resolved and health-tracked
    #: from it; static ``workers`` URLs become unmanaged pins.
    registry: object | None = None
    #: Content-addressed identity of the staged image
    #: (:class:`~repro.service.blobs.ImageManifest`).  When set, the
    #: remote backend ships shards *without* filesystem paths: each
    #: worker is asked which blobs it lacks, exactly those are uploaded,
    #: and the payload carries the manifest instead of staging paths.
    image_manifest: object | None = None
    #: The :class:`~repro.service.blobs.BlobStore` holding the
    #: manifest's blobs (the upload source for missing ones).
    blob_store: object | None = None
    #: The campaign's coverage pre-run.  When set, the ``pending``
    #: argument of ``execute`` is empty: the pending list is what the
    #: pre-run's report schedules.
    prerun: PreRun | None = None


@dataclass
class ExecutionOutcome:
    """What a backend reports back to the campaign."""

    cancelled: bool = False
    #: Final per-shard states (mirrors the last progress snapshot).
    shards: list[dict] = field(default_factory=list)


class ExecutionBackend(Protocol):
    """The pluggable execution policy: run ``pending``, stream results."""

    name: str

    def execute(self, context: ExecutionContext,
                pending: list[PlannedExperiment],
                stream: ExperimentStream) -> ExecutionOutcome:
        """Execute every pending experiment, appending each result to
        ``stream`` as it completes; must never raise for target bugs."""
        ...  # pragma: no cover - protocol


def validate_backend_name(name: str) -> str:
    """Check ``name`` against the registry (shared by config validation
    and backend construction, so the two can never disagree)."""
    if name not in BACKEND_NAMES:
        raise ValueError(
            f"unknown execution backend {name!r} "
            f"(known: {', '.join(BACKEND_NAMES)})"
        )
    return name


def create_backend(name: str) -> "ExecutionBackend":
    """The backend registered under ``name`` (``thread``, ``process``,
    or ``remote``)."""
    validate_backend_name(name)
    if name == BACKEND_THREAD:
        return ThreadBackend()
    if name == BACKEND_REMOTE:
        return RemoteBackend()
    return ProcessBackend()


# -- shard stream bookkeeping -----------------------------------------------------


def shard_stream_path(canonical: Path, shard: int) -> Path:
    """Where shard ``shard`` streams its results, next to ``canonical``."""
    return canonical.with_name(f"{canonical.stem}-{shard}{canonical.suffix}")


def leftover_shard_streams(canonical: Path) -> list[Path]:
    """Partial shard streams a crashed run left next to ``canonical``."""
    found = []
    for path in canonical.parent.glob(f"{canonical.stem}-*{canonical.suffix}"):
        # Strip the suffix by length so a suffixless canonical path
        # (len 0) keeps the whole name instead of slicing it to "".
        base = path.name[:len(path.name) - len(canonical.suffix)]
        if _SHARD_SUFFIX_RE.search(base):
            found.append(path)
    return sorted(found)


def merge_shard_stream(canonical: ExperimentStream,
                       shard_path: Path) -> list[str]:
    """Fold one shard stream into the canonical stream and delete it.

    Entries are appended sorted by experiment id (deterministic merge
    order) as raw dicts, so merging never reshapes a record.  Returns
    the experiment ids merged.
    """
    shard = ExperimentStream(shard_path)
    entries = sorted(shard._latest_entries().items())
    for _experiment_id, entry in entries:
        canonical.append_entry(entry)
    try:
        shard_path.unlink()
    except FileNotFoundError:
        pass
    return [experiment_id for experiment_id, _entry in entries]


def recover_shard_streams(stream: ExperimentStream) -> int:
    """Merge any partial shard streams a crashed run left behind.

    The campaign calls this before computing its resume set, so
    experiments a killed process-backend run recorded only in shard
    streams count as recorded — resume re-runs exactly the remainder,
    whatever backend or shard count the new run uses.
    """
    merged = 0
    for path in leftover_shard_streams(stream.path):
        merged += len(merge_shard_stream(stream, path))
    return merged


def discard_shard_streams(canonical: Path) -> None:
    """Drop leftover shard streams (the ``resume=False`` fresh-run path)."""
    for path in leftover_shard_streams(canonical):
        try:
            path.unlink()
        except FileNotFoundError:
            pass


# -- shard-aware progress ----------------------------------------------------------


class ShardProgress:
    """Thread-safe ``experiments_done/total`` + per-shard state tracker.

    Snapshots are plain dicts, ready for the service layer to persist::

        {"backend": "process", "experiments_done": 7, "experiments_total":
         20, "shards": [{"shard": 0, "total": 5, "done": 5, "state":
         "completed"}, ...]}
    """

    def __init__(self, backend: str, totals: list[int],
                 sink: Callable[[dict], None] | None = None) -> None:
        self.backend = backend
        self.sink = sink
        self._lock = threading.Lock()
        # Separate lock (snapshot() takes self._lock): emits serialize,
        # so concurrent on_result threads can never push a stale
        # snapshot after a fresher one.
        self._emit_lock = threading.Lock()
        self._last: dict | None = None
        self._shards = [
            {"shard": index, "total": total, "done": 0,
             "state": "completed" if total == 0 else "pending"}
            for index, total in enumerate(totals)
        ]

    def start(self, shard: int) -> None:
        with self._lock:
            if self._shards[shard]["state"] == "pending":
                self._shards[shard]["state"] = "running"
        self.emit()

    def record(self, shard: int) -> None:
        """Advance a shard by one experiment and emit (event-driven
        feeds like the thread backend's per-result callback)."""
        self._advance(shard, None)
        self.emit()

    def set_done(self, shard: int, done: int) -> None:
        """Pin a shard's done count *without* emitting — poll loops pin
        every shard then emit one snapshot per tick."""
        self._advance(shard, done)

    def _advance(self, shard: int, done: int | None) -> None:
        with self._lock:
            entry = self._shards[shard]
            entry["done"] = (entry["done"] + 1 if done is None
                             else max(entry["done"], done))
            if entry["state"] == "pending" and entry["done"]:
                entry["state"] = "running"
            if entry["done"] >= entry["total"]:
                entry["state"] = "completed"

    def finish(self, shard: int, state: str = "completed") -> None:
        with self._lock:
            entry = self._shards[shard]
            if entry["done"] >= entry["total"] and state != "failed":
                state = "completed"
            elif state == "completed":
                # Finished without recording everything: cancelled or a
                # dead worker — either way, not completed.
                state = "stopped"
            entry["state"] = state
        self.emit()

    def snapshot(self) -> dict:
        with self._lock:
            shards = [dict(entry) for entry in self._shards]
        return {
            "backend": self.backend,
            "experiments_done": sum(entry["done"] for entry in shards),
            "experiments_total": sum(entry["total"] for entry in shards),
            "shards": shards,
        }

    def emit(self) -> None:
        """Push the current snapshot to the sink, skipping no-op emits
        (poll loops tick whether or not anything advanced).  Serialized:
        snapshot, compare, and sink happen under one lock, so the sink
        always observes monotone progress."""
        if self.sink is None:
            return
        with self._emit_lock:
            snapshot = self.snapshot()
            if snapshot == self._last:
                return
            self._last = snapshot
            self.sink(snapshot)


# -- shared execution plumbing -----------------------------------------------------


def harness_error_result(planned: PlannedExperiment,
                         error: str) -> ExperimentResult:
    """The ``harness_error`` record for an experiment the harness lost
    (pool failure, dead shard worker) — retried on resume."""
    return ExperimentResult(
        experiment_id=planned.experiment_id,
        point=planned.point.to_dict(),
        fault_id=planned.point.point_id,
        spec_name=planned.point.spec_name,
        status=STATUS_HARNESS_ERROR,
        error=error,
    )


def record_outcome(stream: ExperimentStream, planned: PlannedExperiment,
                   outcome: JobOutcome) -> bool:
    """Append one pool outcome to the stream; harness failures become
    ``harness_error`` records (retried on resume).  Returns whether a
    record landed — a ``None`` result (an experiment declined after a
    cancellation request) records nothing, so resume re-plans it."""
    if outcome.error is None:
        if outcome.result is None:
            return False
        stream.append(outcome.result)
    else:
        stream.append(harness_error_result(
            planned, outcome.error or "unknown pool failure"
        ))
    return True


def _partition(pending: list[PlannedExperiment],
               shards: int) -> list[list[PlannedExperiment]]:
    parts: list[list[PlannedExperiment]] = [[] for _ in range(shards)]
    for planned in pending:
        parts[shard_index(planned.experiment_id, shards)].append(planned)
    return parts


class _PreRunSlot:
    """The coverage pre-run as the first job of a thread pool.

    While the pre-run runs, :meth:`admitted` hands out the early
    experiments whose point its probe file shows reached, latest reached
    first, and only once its services are up; :meth:`report` waits for
    the report and re-raises whatever the pre-run raised.
    """

    def __init__(self, prerun: PreRun) -> None:
        self.prerun = prerun
        self.finished = threading.Event()
        self.probes: ProbeTail | None = None
        self._report: CoverageReport | None = None
        self._error: Exception | None = None

    def job(self) -> None:
        try:
            self._report = self.prerun.run(self._services_started)
        except Exception as error:  # noqa: BLE001 - raised after the drain
            self._error = error
        finally:
            self.finished.set()

    def _services_started(self, probes: ProbeTail) -> None:
        self.probes = probes

    def admitted(self, cancel: Callable[[], bool] | None,
                 ) -> Iterator[PlannedExperiment]:
        """Early experiments as the pre-run reaches their points, until
        it ends or a cancellation request stops the hand-outs."""
        waiting = {planned.point.point_id: planned
                   for planned in self.prerun.early}
        reached: dict[str, PlannedExperiment] = {}
        while (waiting or reached) and not self.finished.is_set():
            if cancel is not None and cancel():
                return
            if self.probes is not None:
                for point_id in self.probes.poll():
                    if point_id in waiting:
                        reached[point_id] = waiting.pop(point_id)
            if reached:
                yield reached.pop(next(reversed(reached)))
            else:
                self.finished.wait(PROBE_POLL_SECONDS)

    def report(self) -> CoverageReport:
        self.finished.wait()
        if self._error is not None:
            raise self._error
        return self._report


def _run_pipelined(executor: ExperimentExecutor,
                   pending: list[PlannedExperiment],
                   stream: ExperimentStream,
                   parallelism: int | None,
                   cancel: Callable[[], bool] | None,
                   progress_for: Callable[[list[PlannedExperiment]],
                                          ShardProgress] | None,
                   shard_for: Callable[[PlannedExperiment], int],
                   admit: Callable[[str], bool] | None = None,
                   prerun: PreRun | None = None,
                   ) -> tuple[bool, ShardProgress | None]:
    """One pool pass over ``pending`` with pipelined mutant generation.

    The single generator thread produces mutants per ``(file, spec)``
    group (serial :class:`MatchMemo`, bounded memory) while the pool's
    workers execute experiments already handed out.  One pass over the
    whole list: ``shard_for`` maps each experiment to its shard for
    progress accounting only, so shard count never multiplies the
    parse/match work.  ``admit`` (a shard worker's release gate) is
    asked before each hand-out; an experiment it refuses was released
    to another worker and is skipped.  ``progress_for`` builds the
    progress tracker over the pending list once that list is known.
    Returns whether a cancellation request stopped the run early, and
    the tracker.

    With a ``prerun``, ``pending`` is ignored.  The pre-run is the
    pool's first job, and each other slot that frees meanwhile starts
    an early experiment whose point it has reached, its mutant made
    alone.  At the report, the pre-run's ``schedule`` gives the pending
    list; the tracker is built over it, counting what started and
    finished before, and the grouped producer hands out the rest.  No
    snapshot is emitted before the report.  A failed pre-run or
    ``schedule`` stops the hand-outs, and its exception is raised once
    the started experiments have drained and been recorded.

    The pool captures ``on_result`` exceptions per outcome so one failed
    stream append cannot kill the campaign mid-flight — but a failed
    append means that experiment was *never recorded*.  After the pool
    drains, any such sink failures are raised as one loud error: the
    stream keeps everything that did land, and a resume re-runs exactly
    the unrecorded experiments.
    """
    slot = _PreRunSlot(prerun) if prerun is not None else None
    #: Per pool job index: its experiment (``None`` for the pre-run).
    jobs_seen: list[PlannedExperiment | None] = []
    shard_of: dict[str, int] = {}
    started_shards: set[int] = set()
    #: Shards of the experiments recorded before the tracker existed.
    finished_early: list[int] = []
    lock = threading.Lock()
    progress: ShardProgress | None = None
    settled = slot is None
    cancelled = False
    failure: Exception | None = None

    def track(experiments: list[PlannedExperiment]) -> None:
        nonlocal progress
        if progress_for is None:
            return
        tracker = progress_for(experiments)
        sink, tracker.sink = tracker.sink, None
        for shard in started_shards:
            tracker.start(shard)
        with lock:
            for shard in finished_early:
                tracker.record(shard)
            tracker.sink = sink
            progress = tracker
        tracker.emit()

    def settle() -> list[PlannedExperiment]:
        """Track the pending list the report schedules; return the part
        not started yet."""
        nonlocal settled
        settled = True
        scheduled = slot.prerun.schedule(slot.report(), len(shard_of))
        track(scheduled)
        return [planned for planned in scheduled
                if planned.experiment_id not in shard_of]

    def hand_out(planned: PlannedExperiment, mutation):
        shard = shard_for(planned)
        if shard not in started_shards:
            started_shards.add(shard)
            if progress is not None:
                progress.start(shard)
        shard_of[planned.experiment_id] = shard
        jobs_seen.append(planned)
        return _job_for(executor, planned, mutation)

    def jobs():
        nonlocal cancelled, failure
        todo = pending
        if slot is None:
            track(pending)
        else:
            jobs_seen.append(None)
            yield slot.job
            for planned in slot.admitted(cancel):
                [(_, mutation)] = executor.iter_mutations([planned])
                yield hand_out(planned, mutation)
            if cancel is not None and cancel():
                cancelled = True
                return
            try:
                todo = settle()
            except Exception as error:  # noqa: BLE001 - raised after the drain
                failure = error
                return
        for planned, mutation in executor.iter_mutations(todo):
            # The cooperative cancellation point between experiments:
            # jobs are pulled lazily, so once the hook fires nothing
            # further is handed out.
            if cancel is not None and cancel():
                cancelled = True
                return
            if admit is not None and not admit(planned.experiment_id):
                continue
            yield hand_out(planned, mutation)

    def on_result(outcome: JobOutcome) -> None:
        planned = jobs_seen[outcome.index]
        if planned is None or not record_outcome(stream, planned, outcome):
            return
        shard = shard_of[planned.experiment_id]
        with lock:
            tracker = progress
            if tracker is None:
                if progress_for is not None:
                    finished_early.append(shard)
                return
        tracker.record(shard)

    pool = ExperimentPool(parallelism=parallelism)
    outcomes = pool.run(jobs(), on_result=on_result, retain_results=False)
    if failure is not None:
        raise failure
    if not settled:
        # Cancelled before the report: the pool drained the pre-run, so
        # its report is in.
        settle()
    sink_failures = [outcome for outcome in outcomes
                     if outcome.sink_error is not None]
    if sink_failures:
        raise RuntimeError(
            f"{len(sink_failures)} experiment result(s) could not be "
            f"appended to {stream.path} (the campaign kept draining; "
            "resuming will re-run the unrecorded experiments); first "
            f"failure:\n{sink_failures[0].sink_error}"
        )
    return cancelled or (cancel is not None and cancel()), progress


def _job_for(executor: ExperimentExecutor, planned: PlannedExperiment,
             mutation):
    def job():
        return executor.run(planned, mutation=mutation)
    return job


def _after_prerun(context: ExecutionContext,
                  pending: list[PlannedExperiment]) -> list[PlannedExperiment]:
    """``pending``, or with a pre-run, the pending list its report
    schedules.  The pre-run runs here, alone: a sharded backend's
    payloads are fixed at placement, so nothing starts before the
    report."""
    if context.prerun is None:
        return pending
    return context.prerun.schedule(context.prerun.run(None), 0)


# -- thread backend ----------------------------------------------------------------


class ThreadBackend:
    """Today's in-process engine behind the backend protocol.

    One adaptive thread pool and one generation pass execute every
    pending experiment — the shard partition affects *only* progress
    grouping, never results or the amount of parse/match work.  Results
    stream directly into the canonical stream as they complete.  A
    campaign's coverage pre-run is the pool's first job
    (:func:`_run_pipelined`).
    """

    name = BACKEND_THREAD

    def execute(self, context: ExecutionContext,
                pending: list[PlannedExperiment],
                stream: ExperimentStream) -> ExecutionOutcome:
        shard_count = context.shards

        def progress_over(experiments: list[PlannedExperiment]):
            return ShardProgress(
                self.name,
                [len(part) for part in _partition(experiments, shard_count)],
                sink=context.on_progress)

        cancelled, progress = _run_pipelined(
            context.executor,
            pending,
            stream,
            context.parallelism,
            context.cancel,
            progress_over,
            lambda planned: shard_index(planned.experiment_id,
                                        shard_count),
            prerun=context.prerun,
        )
        if cancelled:
            for entry in progress.snapshot()["shards"]:
                if entry["total"]:
                    progress.finish(entry["shard"], state="stopped")
        progress.emit()
        return ExecutionOutcome(cancelled=cancelled,
                                shards=progress.snapshot()["shards"])


# -- shard payloads and merging ---------------------------------------------------


def _shard_parallelism(parallelism: int | None,
                       active: int) -> "list[int | None]":
    """Per-worker parallelism pins for ``active`` shard workers.

    A pinned parallelism is distributed with its remainder (4 over 3
    shards → 2+1+1, not 1+1+1), floored at one per worker — total
    in-flight work is ``max(parallelism, active shards)``; pin fewer
    shards to pin total load exactly.  Unpinned stays unpinned: each
    worker's monitor halves itself under memory pressure, which is the
    host-wide throttle the paper's per-host policy wants.
    """
    if parallelism is None or active == 0:
        # No active shards happens on a fully-resumed campaign (nothing
        # pending): there is nobody to pin.
        return [None] * active
    base, extra = divmod(parallelism, active)
    return [max(1, base + (1 if index < extra else 0))
            for index in range(active)]


def build_shard_payload(executor: ExperimentExecutor,
                        fault_model: FaultModel, shard: int,
                        experiments: list[PlannedExperiment],
                        parallelism: int | None,
                        image_manifest=None) -> dict:
    """The JSON-plain wire form of one shard's work.

    The sharded backends ship it verbatim to ``POST /v1/shards``; the
    worker host fills in its own stream, cancel-flag and scratch paths.

    The image travels in one of two forms.  With ``image_manifest``
    (an :class:`~repro.service.blobs.ImageManifest`) the payload is
    fully content-addressed: no coordinator filesystem path appears in
    it, and the executing host materializes the staged tree
    byte-identically from its local blob store.  Without a manifest the
    ``image`` key carries host-local staging paths — the same-host form
    the process backend's loopback workers read directly.

    With dispatch estimates, ``expected_seconds`` maps each member's
    point id to its expected seconds, so the worker dispatches the
    shard longest-first in the order the dispatcher computes.
    """
    payload = {
        "shard": shard,
        "planned": [planned.to_dict() for planned in experiments],
        "fault_model": fault_model.to_dict(),
        "workload": (executor.workload.to_dict()
                     if executor.workload is not None else None),
        "trigger": executor.trigger,
        "rounds": executor.rounds,
        "campaign_seed": executor.campaign_seed,
        "parallelism": parallelism,
    }
    expected = executor.expected_for(experiments)
    if expected:
        payload["expected_seconds"] = expected
    if image_manifest is not None:
        # Fully content-addressed: no dispatcher filesystem path rides
        # in the payload (scratch/stream/artifact paths are the
        # executing host's to choose), so the worker needs nothing
        # mounted from the coordinator.
        payload["image_manifest"] = image_manifest.to_dict()
    else:
        payload["image"] = {
            "source_dir": str(executor.image.source_dir),
            "staging_dir": str(executor.image.staging_dir),
            "env": dict(executor.image.env),
        }
        payload["base_dir"] = str(executor.base_dir)
        payload["artifacts_dir"] = (str(executor.artifacts_dir)
                                    if executor.artifacts_dir else None)
    return payload


def merge_and_backfill(stream: ExperimentStream,
                       shards: list[list[PlannedExperiment]],
                       indices, failed_shards: dict[int, str]) -> set[str]:
    """Fold every shard stream into the canonical stream, then record a
    ``harness_error`` for each experiment of a failed shard that never
    made it into a stream (retried on resume).  Returns the merged
    experiment ids."""
    merged_ids: set[str] = set()
    for index in sorted(indices):
        merged_ids.update(merge_shard_stream(
            stream, shard_stream_path(stream.path, index)
        ))
    for index, error in sorted(failed_shards.items()):
        for planned in shards[index]:
            if planned.experiment_id in merged_ids:
                continue
            stream.append(harness_error_result(planned, error))
    return merged_ids


def _run_shard_worker(payload: dict) -> dict:
    """Run one shard's experiments on a worker host.

    The execution core behind ``POST /v1/shards``: the worker's
    :class:`~repro.service.shards.ShardHost` rewrites the payload's
    local-only paths (stream, cancel flag, sandbox scratch) into its own
    workspace and calls this.  The worker recompiles the fault model,
    reattaches to the sandbox image on disk, and runs the same pipelined
    engine as the thread backend, streaming into its private shard
    stream.  Cancellation arrives through the cancel-flag file polled
    between experiments; the host's release gate, when it passes one as
    ``admit``, is asked before each experiment is handed out.
    """
    fault_model = FaultModel.from_dict(payload["fault_model"])
    models = {model.name: model for model in fault_model.compile()}
    image = SandboxImage(
        source_dir=Path(payload["image"]["source_dir"]),
        staging_dir=Path(payload["image"]["staging_dir"]),
        env=dict(payload["image"]["env"]),
    )
    workload = (WorkloadSpec.from_dict(payload["workload"])
                if payload["workload"] is not None else None)
    cancel_flag = Path(payload["cancel_flag"])
    cancel = cancel_flag.exists
    executor = ExperimentExecutor(
        image=image,
        workload=workload,
        models=models,
        base_dir=Path(payload["base_dir"]),
        trigger=payload["trigger"],
        rounds=payload["rounds"],
        campaign_seed=payload["campaign_seed"],
        artifacts_dir=(Path(payload["artifacts_dir"])
                       if payload["artifacts_dir"] else None),
        cancel_check=cancel,
        expected_seconds=dict(payload.get("expected_seconds") or {}),
    )
    planned = [PlannedExperiment.from_dict(entry)
               for entry in payload["planned"]]
    stream = ExperimentStream(payload["stream_path"])
    stream.clear()  # recovery merged any previous leftovers already
    shard = payload["shard"]
    cancelled, _ = _run_pipelined(
        executor,
        planned,
        stream,
        payload["parallelism"],
        cancel,
        None,
        lambda _planned: shard,
        payload.get("admit"),
    )
    return {"shard": shard, "recorded": len(stream),
            "cancelled": cancelled}


# -- remote backend ----------------------------------------------------------------

#: Registry worker states the dispatcher keys placement on (string
#: literals rather than an import: the orchestrator layer must not pull
#: the service layer in at import time).
_ALIVE = "alive"
_DEAD = "dead"


class _AdaptivePoll:
    """Exponential poll backoff: fast while results flow, slow when the
    fleet is quiet.  ``record(progressed)`` resets the interval to the
    minimum on any progress and multiplies it towards ``maximum``
    otherwise — so an active campaign mirrors results at ``minimum``
    cadence while an idle wait (long experiments, queued shards) decays
    instead of burning a request per worker per tick.

    Once anything has progressed, an interval is also at most a quarter
    of the campaign's pace: the time since the first progress over the
    progress ticks seen.  A shard's end is noticed at most one interval
    late, and on experiments of a few seconds a ``maximum``-long
    interval would add most of an experiment to the turnaround."""

    def __init__(self, minimum: float, maximum: float, backoff: float,
                 clock: Callable[[], float] = time.monotonic) -> None:
        self.minimum = minimum
        self.maximum = max(maximum, minimum)
        self.backoff = max(backoff, 1.0)
        self.interval = minimum
        self.clock = clock
        self._progress_ticks = 0
        self._first_progress = 0.0

    def record(self, progressed: bool) -> None:
        now = self.clock()
        if progressed:
            if not self._progress_ticks:
                self._first_progress = now
            self._progress_ticks += 1
            self.interval = self.minimum
            return
        ceiling = self.maximum
        if self._progress_ticks:
            pace = (now - self._first_progress) / self._progress_ticks
            ceiling = max(self.minimum, min(ceiling, pace / 4))
        self.interval = min(self.interval * self.backoff, ceiling)


def _fleet_busy(view: dict, assigned: "dict[str, int]") -> int:
    """Heartbeat ``running + queued`` plus the shards *this* dispatcher
    has in flight there."""
    load = view.get("load") or {}
    return (int(load.get("running") or 0) + int(load.get("queued") or 0)
            + assigned.get(view["url"], 0))


def _has_room(view: dict, assigned: "dict[str, int]") -> bool:
    """Whether the worker has a free execution slot; one of unknown
    capacity (a static pin that never heartbeats) always has."""
    capacity = view.get("max_concurrent")
    return capacity is None or _fleet_busy(view, assigned) < capacity


def _fleet_load(view: dict, assigned: "dict[str, int]") -> tuple:
    """Sort key for placement: normalized live load (busy slots over
    capacity), URL as the deterministic tie-break."""
    capacity = view.get("max_concurrent") or 0
    return (_fleet_busy(view, assigned) / max(capacity, 1), view["url"])


def least_loaded_worker(fleet: "dict[str, dict]",
                        assigned: "dict[str, int]",
                        excluded=()) -> dict | None:
    """The alive worker with the lowest normalized load, or ``None``.

    ``excluded`` workers (ones that already dropped or stalled this
    shard) are avoided — unless exclusion rules out *every* alive
    worker, in which case they become eligible again: a one-worker fleet
    whose worker restarted must still be able to take the shard back.
    """
    alive = [view for view in fleet.values()
             if view.get("state", _ALIVE) == _ALIVE]
    if not alive:
        return None
    preferred = [view for view in alive if view["url"] not in excluded]
    candidates = preferred or alive
    return min(candidates, key=lambda view: _fleet_load(view, assigned))


def idle_capacity(fleet: "dict[str, dict]", assigned: "dict[str, int]",
                  excluded=()) -> bool:
    """Whether some alive, non-excluded worker has a free execution
    slot — the gate for stealing a stalled shard (stealing onto a fleet
    that is saturated anyway just doubles the queue).  A worker of
    unknown capacity counts as having room: without load data, stealing
    must stay possible."""
    return any(view.get("state", _ALIVE) == _ALIVE
               and view["url"] not in excluded and _has_room(view, assigned)
               for view in fleet.values())


def idle_worker(fleet: "dict[str, dict]", assigned: "dict[str, int]",
                excluded=()) -> str | None:
    """An idle worker's URL, or ``None``: alive, not ``excluded``, with
    no unfinished placement of this dispatcher and a free slot.  The
    target of a release steal."""
    for url, view in sorted(fleet.items()):
        if (view.get("state", _ALIVE) == _ALIVE and url not in excluded
                and not assigned.get(url, 0)
                and _has_room(view, assigned)):
            return url
    return None


def release_tail(experiments: list[PlannedExperiment], recorded,
                 expected: "dict[str, float]",
                 running: int) -> list[PlannedExperiment]:
    """What a release steal asks a placement's worker for: the back
    half, by expected seconds (at least one experiment), of its
    unstarted tail.

    ``experiments`` is the placement in its worker's dispatch order; the
    tail is what is not ``recorded`` yet, after the first ``running``
    (presumed started).  A point without an ``expected`` entry weighs
    one second.  The worker's release gate decides what was really not
    started yet.
    """
    tail = [planned for planned in experiments
            if planned.experiment_id not in recorded][running:]

    def weight(planned: PlannedExperiment) -> float:
        return expected.get(planned.point.point_id, 1.0)

    half = sum(map(weight, tail)) / 2
    taken: list[PlannedExperiment] = []
    seconds = 0.0
    for planned in reversed(tail):
        if taken and seconds + weight(planned) > half:
            break
        taken.append(planned)
        seconds += weight(planned)
    return taken[::-1]


@dataclass(eq=False)
class _Placement:
    """Parent-side state of one placement: experiments of one shard,
    submitted at most once, to one worker.  Each shard starts as one
    placement; failover and release each open a new placement of the
    same shard index, mirrored into the same local shard stream."""

    index: int
    #: What the worker runs, in its dispatch order once submitted.
    experiments: list[PlannedExperiment]
    #: Connection failures since the last mirrored progress — the
    #: failover give-up budget, inherited by a failover placement.
    #: Steals do not count: a shard stolen twice must still survive its
    #: first real connection blip.
    failures: int = 0
    #: Workers that dropped or stalled this shard (avoided on retry).
    excluded: set = field(default_factory=set)
    #: Set by the one submission, never again.
    url: str | None = None
    remote_id: str | None = None
    #: Bytes of the remote stream mirrored locally.
    offset: int = 0
    cancel_relayed: bool = False
    #: Last time this placement visibly moved (submitted, mirrored
    #: bytes, or remote state transition) — the straggler detector's
    #: clock.
    last_progress: float = 0.0
    #: The remote state last observed (transitions count as progress).
    last_remote_state: str | None = None
    #: When the placement started waiting for an alive worker.
    wait_since: float | None = None
    #: Set once a release took nothing: everything left was handed out.
    drained: bool = False


class _Dispatcher:
    """One sharded campaign's dispatch: the open placements, and the
    transitions :class:`RemoteBackend` describes as methods."""

    def __init__(self, backend: "RemoteBackend", context: ExecutionContext,
                 pending: list[PlannedExperiment],
                 stream: ExperimentStream) -> None:
        # Imported lazily: the client module imports the campaign layer,
        # which imports this module at import time.
        from repro.common.retry import RetryPolicy
        from repro.service.api import APIError
        from repro.service.client import ProFIPyClient

        static = [url.rstrip("/") for url in (context.workers or []) if url]
        self.shards = _partition(pending, context.shards)
        if any(self.shards) and not static and context.registry is None:
            raise ValueError(
                "remote backend requires worker URLs "
                "(CampaignConfig.workers / --worker) or a registry "
                "(CampaignConfig.registry_url / --registry)"
            )
        self.backend = backend
        self.context = context
        self.stream = stream
        self.executor = context.executor
        #: Everything a lost worker looks like: refused / reset /
        #: timed-out sockets (``URLError`` subclasses ``OSError``, the
        #: client's ``TransportError`` subclasses ``ConnectionError``),
        #: torn HTTP framing from a worker killed mid-response, an
        #: ``APIError`` (a worker answering 500s — disk full, handler
        #: bug — is as lost as one refusing connections), and
        #: ``KeyError``: a restarted worker answers ``unknown_shard``.
        #: ``invalid_request`` → ``ValueError`` stays loud: that is a
        #: dispatcher bug, and retrying it elsewhere cannot succeed.
        self.lost = (KeyError, OSError, http.client.HTTPException, APIError)
        self.progress = ShardProgress(backend.name,
                                      [len(s) for s in self.shards],
                                      sink=context.on_progress)
        self.progress.emit()
        stream.path.parent.mkdir(parents=True, exist_ok=True)
        # Status/tail polls are idempotent GETs: a couple of quick
        # retries (bounded well under one poll tick's worth of damage)
        # absorb connection blips without masking a dead worker.
        self.connect = functools.partial(
            ProFIPyClient, timeout=backend.request_timeout,
            retry_policy=RetryPolicy(
                attempts=2, base_delay=0.05, max_delay=0.25,
                deadline=backend.request_timeout * 1.5,
                attempt_timeout=backend.request_timeout))
        self.clients: dict[str, ProFIPyClient] = {}
        # Static URLs are *pins*: always present, never lease-expired
        # (nobody heartbeats for them).  Mirror them into the registry
        # as unmanaged peers so `profipy workers list` shows the whole
        # fleet; best-effort — placement works off the local view
        # either way.
        if context.registry is not None:
            for url in static:
                try:
                    context.registry.register_worker({"url": url,
                                                      "managed": False})
                except Exception:  # noqa: BLE001 - visibility only
                    pass
        self.static = set(static)
        self.fleet: dict[str, dict] = {
            url: {"url": url, "state": _ALIVE,
                  "max_concurrent": backend.pin_capacity}
            for url in static
        }
        self.last_refresh: float | None = None
        self.expected = self.executor.expected_for(pending)
        indices = [index for index, experiments in enumerate(self.shards)
                   if experiments]
        self.parallelism = dict(zip(
            indices, _shard_parallelism(context.parallelism, len(indices))))
        #: Experiment ids mirrored into each local shard stream.
        self.recorded: dict[int, set[str]] = {index: set()
                                              for index in indices}
        #: Workers that lost a connection: never a release target again
        #: (a dead static pin still looks alive and idle).
        self.unreachable: set[str] = set()
        self.failed: dict[int, str] = {}
        self.cancelled = False
        self.open = [_Placement(index, self.shards[index])
                     for index in indices]

    def run(self) -> ExecutionOutcome:
        """Tick until every placement is retired, then merge the local
        shard streams into the canonical stream."""
        backend, cancel = self.backend, self.context.cancel
        poll = _AdaptivePoll(backend.poll_min_seconds,
                             backend.poll_max_seconds, backend.poll_backoff)
        while self.open:
            self.refresh_fleet(time.monotonic())
            self.cancelled = self.cancelled or (cancel is not None
                                                and cancel())
            progressed = False
            for placement in list(self.open):
                if placement not in self.open:
                    continue  # retired or failed over earlier this tick
                now = time.monotonic()
                if placement.remote_id is not None:
                    progressed = self.poll(placement, now) or progressed
                elif self.cancelled:
                    # Nothing dispatched and the campaign is stopping:
                    # leave the shard for the resume.
                    self.retire(placement)
                else:
                    progressed = self.place(placement, now) or progressed
            progressed = self.rebalance(time.monotonic()) or progressed
            self.progress.emit()
            if self.open:
                poll.record(progressed)
                time.sleep(poll.interval)
        merge_and_backfill(self.stream, self.shards, self.recorded,
                           self.failed)
        cancelled = self.cancelled or (cancel is not None and cancel())
        self.progress.emit()
        return ExecutionOutcome(cancelled=cancelled,
                                shards=self.progress.snapshot()["shards"])

    # -- the fleet -------------------------------------------------------------

    def client(self, url: str):
        if url not in self.clients:
            self.clients[url] = self.connect(url)
        return self.clients[url]

    def refresh_fleet(self, now: float) -> None:
        """Re-read the registry's fleet view, at most once per
        ``fleet_refresh_seconds``; a worker pruned from it is dead."""
        registry = self.context.registry
        if registry is None or (
                self.last_refresh is not None
                and now - self.last_refresh
                < self.backend.fleet_refresh_seconds):
            return
        self.last_refresh = now
        try:
            views = registry.list_workers()
        except Exception:  # noqa: BLE001 - keep the last view
            # A registry blip must not strand the campaign: the previous
            # fleet view stays in force until the next successful
            # refresh.
            return
        seen = set()
        for view in views:
            url = str(view.get("url", "")).rstrip("/")
            if url:
                seen.add(url)
                self.fleet[url] = {"state": _ALIVE, **view, "url": url}
        for url, view in self.fleet.items():
            if url not in seen and url not in self.static:
                view["state"] = _DEAD

    def assigned(self) -> "Counter[str]":
        """Submitted open placements per worker URL — folded into
        placement scores so N same-tick placements do not all pile onto
        the worker whose heartbeat looked idlest."""
        return Counter(placement.url for placement in self.open
                       if placement.remote_id is not None)

    def max_attempts(self) -> int:
        """One initial try plus a failover to every other non-dead
        worker — recomputed live, since the registry fleet grows and
        shrinks mid-campaign."""
        return max(2, 1 + sum(view["state"] != _DEAD
                              for view in self.fleet.values()))

    # -- transitions -----------------------------------------------------------

    def place(self, placement: _Placement, now: float,
              url: str | None = None) -> bool:
        """Submit the placement's unmirrored remainder to ``url``, else
        the least-loaded alive worker; returns whether it was submitted.
        No alive worker → wait (give up past ``placement_timeout``)."""
        self.refresh_fleet(now)
        if url is None:
            choice = least_loaded_worker(self.fleet, self.assigned(),
                                         placement.excluded)
            if choice is None:
                timeout = self.backend.placement_timeout
                if placement.wait_since is None:
                    placement.wait_since = now
                elif now - placement.wait_since > timeout:
                    self.retire(placement, "unplaceable: no alive worker "
                                           f"for {timeout:g}s")
                return False
            url = choice["url"]
        # Failover resubmits only what was never mirrored: everything
        # already fetched is recorded locally.  The worker runs the rest
        # in this order.
        placement.experiments = self.executor.dispatch_order(
            planned for planned in placement.experiments
            if planned.experiment_id not in self.recorded[placement.index])
        payload = build_shard_payload(
            self.executor, self.context.fault_model, placement.index,
            placement.experiments, self.parallelism[placement.index],
            image_manifest=self.context.image_manifest,
        )
        placement.url = url
        manifest, blobs = self.context.image_manifest, self.context.blob_store
        client = self.client(url)
        try:
            if manifest is not None and blobs is not None:
                # Content-addressed shipping: ask the worker which blobs
                # it lacks and upload exactly those.  The probe runs per
                # placement (not once per worker): a worker that
                # restarted mid-campaign lost its in-memory shards but
                # usually not its blob cache, and a cold one reports
                # everything missing.  Dedup across shards and campaigns
                # falls out — an unchanged tree re-ships nothing but
                # digests.
                for digest in client.missing_blobs(manifest.digests()):
                    client.put_blob(digest, blobs.get_bytes(digest))
            view = client.submit_shard(payload)
        except KeyError:
            # No worker call above answers one: this is the
            # coordinator's own blob store missing a blob.  Retrying
            # elsewhere cannot succeed, so it stays loud.
            raise
        except self.lost as error:
            self.lose(placement, error)
            return False
        placement.remote_id = view["shard_id"]
        placement.last_remote_state = view.get("state")
        placement.last_progress = now
        self.progress.start(placement.index)
        return True

    def poll(self, placement: _Placement, now: float) -> bool:
        """Relay a cancel, read the placement's status and mirror the
        worker stream's newline-aligned tail into the local shard
        stream; then retire a finished placement or release a stalled
        one.  Returns whether anything moved."""
        index = placement.index
        if self.fleet.get(placement.url, {}).get("state") == _DEAD:
            # The lease already proved this worker missed its heartbeats
            # — steal without touching its sockets (a SIGSTOPped host
            # would stall us until timeout).
            self.lose(placement, None)
            return True
        client = self.client(placement.url)
        if self.cancelled and not placement.cancel_relayed:
            try:
                client.cancel_shard(placement.remote_id)
                placement.cancel_relayed = True
            except self.lost:
                pass  # retried next tick; the status poll below handles
                # a worker that is actually gone (or one that restarted
                # and answers unknown_shard)
        try:
            status = client.shard_status(placement.remote_id)
            raw = client.shard_stream(placement.remote_id,
                                      offset=placement.offset)
            if raw:
                with open(shard_stream_path(self.stream.path, index),
                          "ab") as handle:
                    handle.write(raw)
                placement.offset += len(raw)
                self.recorded[index].update(
                    json.loads(line)["experiment_id"]
                    for line in raw.splitlines())
                placement.last_progress = now
                placement.failures = 0
        except self.lost as error:
            # KeyError: the worker restarted and forgot the shard — its
            # stream is gone with it.  Either way, a lost worker: fail
            # the placement over.
            self.lose(placement, error)
            return True
        if status["state"] != placement.last_remote_state:
            placement.last_remote_state = status["state"]
            placement.last_progress = now
        self.progress.set_done(index, len(self.recorded[index]))
        if status["state"] == "failed":
            self.retire(placement, "remote worker failed: "
                        f"{status.get('error') or 'unknown failure'}")
            return True
        if status["state"] in ("completed", "cancelled"):
            self.cancelled = self.cancelled or status["state"] == "cancelled"
            self.retire(placement)
            return True
        return self.stalled(placement, now) or bool(raw)

    def stalled(self, placement: _Placement, now: float) -> bool:
        """A straggler past ``stall_seconds`` with idle capacity
        elsewhere releases its whole unstarted remainder rather than
        wait it out; returns whether anything moved."""
        if (self.cancelled
                or now - placement.last_progress <= self.backend.stall_seconds
                or not idle_capacity(self.fleet, self.assigned(),
                                     placement.excluded | {placement.url})):
            return False
        placement.last_progress = now
        recorded = self.recorded[placement.index]
        return self.release(placement, [
            planned for planned in placement.experiments
            if planned.experiment_id not in recorded], now)

    def rebalance(self, now: float) -> bool:
        """When a worker is idle, move the back half of the busiest
        placement's unstarted tail to it (:func:`release_tail`).
        Returns whether anything moved."""
        assigned = self.assigned()
        if self.cancelled or idle_worker(self.fleet, assigned,
                                         self.unreachable) is None:
            return False
        tails = [
            (release_tail(placement.experiments,
                          self.recorded[placement.index], self.expected,
                          running=self.parallelism[placement.index] or 1),
             placement)
            for placement in self.open
            if placement.remote_id is not None and not placement.drained
        ]
        tails = [(tail, placement) for tail, placement in tails if tail]
        if not tails:
            return False
        tail, victim = max(tails, key=lambda item: sum(
            self.expected.get(planned.point.point_id, 1.0)
            for planned in item[0]))
        url = idle_worker(self.fleet, assigned,
                          victim.excluded | self.unreachable)
        return url is not None and self.release(victim, tail, now, url)

    def release(self, victim: _Placement,
                requested: list[PlannedExperiment], now: float,
                url: str | None = None) -> bool:
        """Take ``requested`` back from the victim's worker and place
        what it released as a new placement of the same shard (on
        ``url``, else by least load).  The worker guarantees none of it
        ever starts there, so nothing runs twice.  A failed request
        loses the worker: its answer may have taken experiments.
        Returns whether anything moved."""
        client = self.client(victim.url)
        try:
            released = set(client.release_shard(
                victim.remote_id,
                [planned.experiment_id for planned in requested]))
        except self.lost as error:
            self.lose(victim, error)
            return True
        if not released:
            victim.drained = True
            return False
        moved = [planned for planned in victim.experiments
                 if planned.experiment_id in released]
        victim.experiments = [planned for planned in victim.experiments
                              if planned.experiment_id not in released]
        thief = _Placement(victim.index, moved, excluded={victim.url})
        self.open.append(thief)
        self.place(thief, now, url)
        recorded = self.recorded[victim.index]
        if all(planned.experiment_id in recorded
               for planned in victim.experiments):
            # Nothing is left running there (a queued or parked shard
            # released everything): retire the placement.
            try:
                client.cancel_shard(victim.remote_id)
            except self.lost:
                pass  # best effort: nothing more can start there
            self.retire(victim)
        return True

    def lose(self, placement: _Placement, error: Exception | None) -> None:
        """Fail over from a lost worker: a new placement of the shard,
        inheriting the failure budget and exclusions, takes the place of
        this one and is submitted by least load next tick.  ``error`` is
        the connection failure that proved the loss, charged against
        :meth:`max_attempts`; ``None`` is a lease-dead steal, which
        charges nothing (the worker is never contacted — its sockets
        hang)."""
        successor = _Placement(placement.index, placement.experiments,
                               failures=placement.failures,
                               excluded=placement.excluded | {placement.url})
        if error is not None:
            self.unreachable.add(placement.url)
            successor.failures += 1
            if successor.failures >= self.max_attempts():
                self.retire(placement, (
                    f"remote worker unreachable after {successor.failures} "
                    f"failure(s): {type(error).__name__}: {error}"))
                return
        self.open[self.open.index(placement)] = successor

    def retire(self, placement: _Placement, error: str | None = None) -> None:
        """Close a placement; ``error`` gives its shard up.  A shard
        finishes with its last open placement."""
        self.open.remove(placement)
        index = placement.index
        if error is not None:
            self.failed[index] = f"shard {index} {error}"
        if not any(other.index == index for other in self.open):
            self.progress.finish(index, state="failed"
                                 if index in self.failed else "completed")


class RemoteBackend:
    """Per-shard remote workers behind the ``/v1`` service API.

    Each non-empty shard's payload (:func:`build_shard_payload`) goes to
    the *least-loaded alive* worker — the fleet comes from the worker
    registry (``context.registry``) when one is configured, refreshed
    every :attr:`fleet_refresh_seconds`, with static ``--worker`` URLs
    mirrored in as unmanaged pins; without a registry the static URLs
    are the fleet, every one pinned alive.  Shards are placed in shard
    index order, and each worker runs the exact
    :func:`_run_shard_worker` engine into its own workspace,
    longest-expected-first when the payload carries
    ``expected_seconds``.  The local ``experiments-<shard>.jsonl``
    mirrors only ever hold complete records, and the end merges them
    into the canonical stream sorted by experiment id
    (:func:`merge_and_backfill`) — so a campaign killed mid-run resumes
    from everything mirrored so far, on any backend.  A campaign's
    coverage pre-run runs first, alone (:func:`_after_prerun`).

    A *placement* is part of one shard, submitted at most once, to one
    worker.  Each poll tick moves every open placement through one of
    these transitions:

    * **place** — submit the unmirrored remainder to the least-loaded
      alive worker, or wait for one; past :attr:`placement_timeout`
      without one, the shard is given up;
    * **poll** — relay a cancel (``POST /v1/shards/{id}/cancel``), read
      the status, and mirror the worker stream's newline-aligned tail;
    * **stalled** — no visible progress for :attr:`stall_seconds` while
      another alive worker has idle capacity (:func:`idle_capacity`):
      release the whole unstarted remainder;
    * **rebalance** — when a worker is idle (:func:`idle_worker`),
      release the back half of the busiest placement's unstarted tail
      (:func:`release_tail`) to it;
    * **lose** — fail over from a worker proven lost.  A lost connection
      (worker died, network gone, 500s), an ``unknown_shard`` answer (it
      restarted) or a failed release request (its answer may have taken
      experiments) charges one failure, and the shard is given up after
      a try on every non-dead worker.  A registry lease gone ``dead`` is
      a steal that charges nothing and never contacts the worker (a
      SIGSTOPped host's sockets hang);
    * **retire** — close a finished, given-up or fully released
      placement.

    Work moves between live workers only by *release*
    (``POST /v1/shards/{id}/release``): the worker's release gate
    guarantees none of the returned ids ever starts there, and what
    comes back becomes a new placement of the same shard, so nothing
    runs twice.  Failover opens a new placement too, holding the lost
    one's unmirrored experiments, failure count and exclusions: started
    work reruns only for a lost worker (determinism makes the re-run
    byte-identical, and last-record-wins merging absorbs any overlap).
    A worker-*reported* failure (the shard engine itself raised) is not
    retried elsewhere — the shard's unrecorded experiments become
    ``harness_error`` records, retried on resume.
    """

    name = BACKEND_REMOTE

    #: Poll cadence bounds: the loop runs at ``poll_min_seconds`` while
    #: results flow and decays by ``poll_backoff`` per quiet tick up to
    #: ``poll_max_seconds`` — long experiments stop costing a status
    #: request per worker per quarter second.
    poll_min_seconds = 0.25
    poll_max_seconds = 2.0
    poll_backoff = 1.6
    #: Per-request timeout towards workers (a stalled worker counts as a
    #: lost connection once this expires).  The poll loop is sequential,
    #: so this also bounds how long one hung worker can delay mirroring
    #: and cancel relay for its siblings — keep it short.
    request_timeout = 10.0
    #: No visible progress on a placed shard for this long (while idle
    #: capacity exists elsewhere) → release its unstarted remainder.
    stall_seconds = 30.0
    #: How long a shard may wait for an alive worker to appear before
    #: the campaign gives it up as unplaceable (its experiments become
    #: ``harness_error`` records, retried on resume).
    placement_timeout = 60.0
    #: Registry fleet-view refresh cadence.
    fleet_refresh_seconds = 1.0
    #: Shard slots assumed for each static worker URL; ``None`` is
    #: unknown, which :func:`idle_capacity` counts as room.
    pin_capacity: int | None = None

    def execute(self, context: ExecutionContext,
                pending: list[PlannedExperiment],
                stream: ExperimentStream) -> ExecutionOutcome:
        return _Dispatcher(self, context, _after_prerun(context, pending),
                           stream).run()


# -- process backend ---------------------------------------------------------------


def _serve_loopback_worker(workspace: str, conn) -> None:
    """Body of one spawned loopback worker process.

    Serves the ``/v1`` worker endpoints on an ephemeral loopback port
    from the private ``workspace``, sends the URL back over ``conn``,
    and serves until the parent sends a stop message or its end of the
    pipe closes (a killed campaign).  Before exiting it cancels and
    waits out any shard still running here, so no sandbox outlives it.
    The server's daemon threads end with the process: waiting out
    ``serve_forever``'s half-second poll would only delay the campaign.
    """
    # Lazy: the service layer imports this module at import time.
    from repro.service.http import start_server
    from repro.service.service import ProFIPyService

    service = ProFIPyService(workspace, max_workers=1)
    server, _thread = start_server(service)
    conn.send(server.url)
    try:
        conn.recv()
    except EOFError:
        pass
    for view in service.shards.list():
        service.shards.cancel(view["shard_id"])
    service.shards.join()


class ProcessBackend(RemoteBackend):
    """The remote backend over loopback workers it spawns itself.

    One worker process per non-empty shard, spawned (not forked: the
    service scheduler runs campaigns on worker threads, and forking a
    threaded process is undefined behaviour) so it gets the parent's
    ``sys.path``, and left in the campaign's session, so a kill of the
    campaign's process group takes the workers too.  Each serves
    ``/v1`` from a private workspace under ``<stream stem>.workers/``
    next to the stream; the shard payloads carry host-local image paths,
    so no blob is shipped.  Everything else — placement, cancel relay,
    mirroring, release steals, failover, merge — is
    :meth:`RemoteBackend.execute`: a killed worker's unmirrored tail
    fails over to a sibling, and a worker whose shard is done takes the
    unstarted tail of a busier one.  Each worker is sized at the one
    shard slot it was spawned for, so a busy one never counts as room.
    """

    name = BACKEND_PROCESS
    pin_capacity = 1

    def execute(self, context: ExecutionContext,
                pending: list[PlannedExperiment],
                stream: ExperimentStream) -> ExecutionOutcome:
        pending = _after_prerun(context, pending)
        active = sum(1 for experiments in _partition(pending, context.shards)
                     if experiments)
        root = stream.path.with_name(stream.path.stem + ".workers")
        shutil.rmtree(root, ignore_errors=True)  # a killed run's leftovers
        spawn = get_context("spawn")
        workers = []
        try:
            for index in range(active):
                conn, child_conn = spawn.Pipe()
                process = spawn.Process(
                    target=_serve_loopback_worker,
                    args=(str(root / f"worker-{index}"), child_conn),
                    name=f"loopback-worker-{index}",
                )
                process.start()
                # The child holds the only other end: its recv() sees
                # EOF once this process closes ``conn`` or dies.
                child_conn.close()
                workers.append((process, conn))
            urls = []
            for process, conn in workers:
                try:
                    urls.append(conn.recv())
                except EOFError:
                    raise RuntimeError(
                        f"{process.name} exited during startup") from None
            return super().execute(
                dataclasses.replace(context, workers=urls, registry=None,
                                    image_manifest=None, prerun=None),
                pending, stream,
            )
        finally:
            for process, conn in workers:
                try:
                    conn.send("stop")
                except OSError:
                    pass  # already gone
                conn.close()
            for process, _conn in workers:
                # A stopped worker first waits out its in-flight
                # experiments; one that still hangs is killed.
                process.join(60.0)
                if process.is_alive():
                    process.kill()
                    process.join()
            shutil.rmtree(root, ignore_errors=True)


__all__ = [
    "BACKEND_NAMES",
    "BACKEND_PROCESS",
    "BACKEND_REMOTE",
    "BACKEND_THREAD",
    "ExecutionBackend",
    "ExecutionContext",
    "ExecutionOutcome",
    "PreRun",
    "ProcessBackend",
    "RemoteBackend",
    "ShardProgress",
    "ThreadBackend",
    "build_shard_payload",
    "create_backend",
    "discard_shard_streams",
    "harness_error_result",
    "idle_capacity",
    "idle_worker",
    "least_loaded_worker",
    "leftover_shard_streams",
    "merge_and_backfill",
    "merge_shard_stream",
    "record_outcome",
    "recover_shard_streams",
    "release_tail",
    "shard_stream_path",
    "validate_backend_name",
]
