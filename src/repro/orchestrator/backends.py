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
  never a failed campaign or a dead shard.
* :class:`RemoteBackend` (``"remote"``) — per-shard workers behind the
  versioned ``/v1`` service API: the pending plan is partitioned by the
  deterministic shard partitioner
  (:func:`repro.orchestrator.plan.shard_index`), each shard's payload is
  placed on a worker (``POST /v1/shards`` on a ``profipy worker`` host,
  which runs the same pipelined engine), and the parent polls shard
  status, mirrors each worker's stream into a local
  ``experiments-<shard>.jsonl`` (so a killed campaign still resumes from
  everything fetched so far), relays cooperative cancellation, moves
  unstarted work from a busy worker to an idle one by release, fails a
  shard over to another worker when its worker is lost, and finally
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
import http.client
import json
import re
import shutil
import threading
import time
from dataclasses import dataclass, field
from multiprocessing import get_context
from pathlib import Path
from typing import Callable, Protocol

from repro.faultmodel.model import FaultModel
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


def _run_pipelined(executor: ExperimentExecutor,
                   pending: list[PlannedExperiment],
                   stream: ExperimentStream,
                   parallelism: int | None,
                   cancel: Callable[[], bool] | None,
                   progress: ShardProgress | None,
                   shard_for: Callable[[PlannedExperiment], int],
                   admit: Callable[[str], bool] | None = None) -> bool:
    """One pool pass over ``pending`` with pipelined mutant generation.

    The single generator thread produces mutants per ``(file, spec)``
    group (serial :class:`MatchMemo`, bounded memory) while the pool's
    workers execute experiments already handed out.  One pass over the
    whole list: ``shard_for`` maps each experiment to its shard for
    progress accounting only, so shard count never multiplies the
    parse/match work.  ``admit`` (a shard worker's release gate) is
    asked before each hand-out; an experiment it refuses was released
    to another worker and is skipped.  Returns whether a cancellation
    request stopped the run early.

    The pool captures ``on_result`` exceptions per outcome so one failed
    stream append cannot kill the campaign mid-flight — but a failed
    append means that experiment was *never recorded*.  After the pool
    drains, any such sink failures are raised as one loud error: the
    stream keeps everything that did land, and a resume re-runs exactly
    the unrecorded experiments.
    """
    jobs_seen: list[PlannedExperiment] = []
    shard_of: dict[str, int] = {}
    started_shards: set[int] = set()
    cancelled = False

    def jobs():
        nonlocal cancelled
        for planned, mutation in executor.iter_mutations(pending):
            # The cooperative cancellation point between experiments:
            # jobs are pulled lazily, so once the hook fires nothing
            # further is handed out.
            if cancel is not None and cancel():
                cancelled = True
                return
            if admit is not None and not admit(planned.experiment_id):
                continue
            shard = shard_for(planned)
            if progress is not None and shard not in started_shards:
                started_shards.add(shard)
                progress.start(shard)
            shard_of[planned.experiment_id] = shard
            jobs_seen.append(planned)
            yield _job_for(executor, planned, mutation)

    def on_result(outcome: JobOutcome) -> None:
        planned = jobs_seen[outcome.index]
        if record_outcome(stream, planned, outcome) and progress is not None:
            progress.record(shard_of[planned.experiment_id])

    pool = ExperimentPool(parallelism=parallelism)
    outcomes = pool.run(jobs(), on_result=on_result, retain_results=False)
    sink_failures = [outcome for outcome in outcomes
                     if outcome.sink_error is not None]
    if sink_failures:
        raise RuntimeError(
            f"{len(sink_failures)} experiment result(s) could not be "
            f"appended to {stream.path} (the campaign kept draining; "
            "resuming will re-run the unrecorded experiments); first "
            f"failure:\n{sink_failures[0].sink_error}"
        )
    return cancelled or (cancel is not None and cancel())


def _job_for(executor: ExperimentExecutor, planned: PlannedExperiment,
             mutation):
    def job():
        return executor.run(planned, mutation=mutation)
    return job


# -- thread backend ----------------------------------------------------------------


class ThreadBackend:
    """Today's in-process engine behind the backend protocol.

    One adaptive thread pool and one generation pass execute every
    pending experiment — the shard partition affects *only* progress
    grouping, never results or the amount of parse/match work.  Results
    stream directly into the canonical stream as they complete.
    """

    name = BACKEND_THREAD

    def execute(self, context: ExecutionContext,
                pending: list[PlannedExperiment],
                stream: ExperimentStream) -> ExecutionOutcome:
        shard_count = context.shards
        shards = _partition(pending, shard_count)
        progress = ShardProgress(self.name, [len(s) for s in shards],
                                 sink=context.on_progress)
        progress.emit()
        cancelled = _run_pipelined(
            context.executor,
            pending,
            stream,
            context.parallelism,
            context.cancel,
            progress,
            lambda planned: shard_index(planned.experiment_id,
                                        shard_count),
        )
        if cancelled:
            for index, experiments in enumerate(shards):
                if experiments:
                    progress.finish(index, state="stopped")
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

    With recorded durations, ``expected_seconds`` maps each member's
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
    cancelled = _run_pipelined(
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

#: Everything a lost worker connection can look like from urllib: refused
#: / reset / timed-out sockets (``URLError`` subclasses ``OSError``, and
#: the client's ``TransportError`` subclasses ``ConnectionError``) and
#: torn HTTP framing from a worker killed mid-response.
_WORKER_CONNECTION_ERRORS = (OSError, http.client.HTTPException)

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
class _RemoteShard:
    """Parent-side state of one placement: part of a shard, dispatched
    to a remote worker.  Each shard starts as one placement; a release
    steal adds another of the same shard index, mirrored into the same
    local shard stream."""

    index: int
    #: Once placed: what the worker runs, in its dispatch order.
    experiments: list[PlannedExperiment]
    #: Submission attempts so far (failover counts a new attempt).
    attempts: int = 0
    #: Connection failures since the last mirrored progress — the
    #: failover give-up budget.  Steals do not count: a shard stolen
    #: twice must still survive its first real connection blip.
    failures: int = 0
    #: Workers that dropped or stalled this shard (avoided on retry).
    excluded: set = field(default_factory=set)
    url: str | None = None
    remote_id: str | None = None
    #: Bytes of the *current* remote stream mirrored locally.
    offset: int = 0
    cancel_relayed: bool = False
    #: Last time this shard visibly moved (submitted, mirrored bytes, or
    #: remote state transition) — the straggler detector's clock.
    last_progress: float = 0.0
    #: The remote state last observed (transitions count as progress).
    last_remote_state: str | None = None
    #: When the shard started waiting for an alive worker to appear.
    wait_since: float | None = None
    #: Set once a release took nothing: everything left was handed out.
    drained: bool = False


class RemoteBackend:
    """Per-shard remote workers behind the ``/v1`` service API.

    Each non-empty shard's payload (:func:`build_shard_payload`) is
    POSTed to the *least-loaded alive* worker — the fleet comes from the
    worker registry (``context.registry``) when one is configured,
    refreshed every :attr:`fleet_refresh_seconds`, with static
    ``--worker`` URLs mirrored in as unmanaged pins; without a registry
    the static URLs are the fleet, every one pinned alive.  The worker
    runs the exact :func:`_run_shard_worker` engine into its own
    workspace, longest-expected-first when the payload carries
    ``expected_seconds``.  The parent polls shard status, incrementally
    mirrors each worker's shard stream into the local
    ``experiments-<shard>.jsonl`` (newline-aligned tail fetches, so the
    local copy only ever holds complete records), and finally merges the
    local shard streams into the canonical stream sorted by experiment
    id (:func:`merge_and_backfill`) — so a campaign killed mid-run
    resumes from everything mirrored so far, on any backend.

    Work moves between live workers only by *release*: the dispatcher
    asks a worker for experiments it has not started
    (``POST /v1/shards/{id}/release``), and the worker's release gate
    guarantees none of the returned ids ever starts there.  What comes
    back is placed as another placement of the same shard, so nothing
    runs twice:

    * when a worker is idle (:func:`idle_worker`), the back half of the
      busiest placement's unstarted tail (:func:`release_tail`) moves
      to it;
    * a *straggler* past :attr:`stall_seconds` with no visible progress
      releases its whole unstarted remainder when another alive worker
      has idle capacity — a queued or parked shard gives everything
      back and is retired.

    Started work is resubmitted only for a worker proven lost: the
    shard's unmirrored remainder goes to another worker (determinism
    makes the re-run byte-identical, and last-record-wins merging
    absorbs any overlap) when

    * a *connection* is lost (worker died, network gone) or the worker
      answers ``unknown_shard`` (it restarted);
    * a registry lease goes ``dead`` — the shard moves *without
      contacting the worker first*, since a SIGSTOPped host's sockets
      hang until timeout;
    * a release request fails: its answer may have taken experiments.

    A worker-*reported* failure (the shard engine itself raised) is not
    retried elsewhere — the shard's unrecorded experiments become
    ``harness_error`` records, retried on resume.

    Cancellation is relayed as ``POST /v1/shards/{id}/cancel``; workers
    observe their cancel-flag file between experiments.
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
        # Imported lazily: the client module imports the campaign layer,
        # which imports this module at import time.
        from repro.common.retry import RetryPolicy
        from repro.service.api import APIError
        from repro.service.client import ProFIPyClient

        # A worker answering 500s (disk full, handler bug) is as lost as
        # one refusing connections: the client surfaces those as
        # APIError, which must fail the shard over, not kill the
        # campaign.  (invalid_request → ValueError stays loud: that is a
        # dispatcher bug, and retrying it elsewhere cannot succeed.)
        worker_errors = _WORKER_CONNECTION_ERRORS + (APIError,)

        static_workers = [url.rstrip("/")
                          for url in (context.workers or []) if url]
        registry = context.registry
        shards = _partition(pending, context.shards)
        if any(shards) and not static_workers and registry is None:
            raise ValueError(
                "remote backend requires worker URLs "
                "(CampaignConfig.workers / --worker) or a registry "
                "(CampaignConfig.registry_url / --registry)"
            )
        progress = ShardProgress(self.name, [len(s) for s in shards],
                                 sink=context.on_progress)
        progress.emit()
        stream.path.parent.mkdir(parents=True, exist_ok=True)

        # Status/tail polls are idempotent GETs: a couple of quick
        # retries (bounded well under one poll tick's worth of damage)
        # absorb connection blips without masking a dead worker.
        poll_retry = RetryPolicy(attempts=2, base_delay=0.05,
                                 max_delay=0.25,
                                 deadline=self.request_timeout * 1.5,
                                 attempt_timeout=self.request_timeout)
        clients: dict[str, ProFIPyClient] = {}

        def client_for(url: str) -> ProFIPyClient:
            if url not in clients:
                clients[url] = ProFIPyClient(url,
                                             timeout=self.request_timeout,
                                             retry_policy=poll_retry)
            return clients[url]

        # Static URLs are *pins*: always present, never lease-expired
        # (nobody heartbeats for them).  Mirror them into the registry as
        # unmanaged peers so `profipy workers list` shows the whole
        # fleet; best-effort — placement works off the local view either
        # way.
        if registry is not None:
            for url in static_workers:
                try:
                    registry.register_worker({"url": url,
                                              "managed": False})
                except Exception:  # noqa: BLE001 - visibility only
                    pass

        fleet: dict[str, dict] = {
            url: {"url": url, "state": _ALIVE, "managed": False,
                  "load": None, "max_concurrent": self.pin_capacity}
            for url in static_workers
        }
        static_set = set(static_workers)
        last_refresh: float | None = None

        def refresh_fleet(now: float, force: bool = False) -> None:
            nonlocal last_refresh
            if registry is None:
                return
            if (not force and last_refresh is not None
                    and now - last_refresh < self.fleet_refresh_seconds):
                return
            last_refresh = now
            try:
                views = registry.list_workers()
            except Exception:  # noqa: BLE001 - keep the last view
                # A registry blip must not strand the campaign: the
                # previous fleet view stays in force until the next
                # successful refresh.
                return
            seen = set()
            for view in views:
                url = str(view.get("url", "")).rstrip("/")
                if not url:
                    continue
                seen.add(url)
                fleet[url] = {
                    "url": url,
                    "state": view.get("state", _ALIVE),
                    "managed": bool(view.get("managed", True)),
                    "load": view.get("load"),
                    "max_concurrent": view.get("max_concurrent"),
                }
            for url in list(fleet):
                if url not in seen and url not in static_set:
                    # Pruned from the registry entirely: dead.
                    fleet[url]["state"] = _DEAD

        executor = context.executor
        placements = [
            _RemoteShard(index=index, experiments=experiments)
            for index, experiments in enumerate(shards) if experiments
        ]
        worker_parallelism = dict(zip(
            [state.index for state in placements],
            _shard_parallelism(context.parallelism, len(placements)),
        ))
        expected = executor.expected_for(pending)
        #: Placements this dispatcher currently has on each worker URL —
        #: folded into placement scores so N same-tick placements do not
        #: all pile onto the worker whose heartbeat looked idlest.
        assigned: dict[str, int] = {}
        #: Experiment ids mirrored into each local shard stream.
        recorded: dict[int, set[str]] = {state.index: set()
                                         for state in placements}
        #: Workers that lost a connection: never a release target again
        #: (a dead static pin still looks alive and idle).
        unreachable: set[str] = set()
        cancelled = False
        failed_shards: dict[int, str] = {}
        unfinished = set(placements)

        def open_placements() -> list[_RemoteShard]:
            return [state for state in placements if state in unfinished]

        def max_attempts() -> int:
            """One initial try plus a failover to every other non-dead
            worker — recomputed live, since the registry fleet grows and
            shrinks mid-campaign."""
            not_dead = sum(1 for view in fleet.values()
                           if view["state"] != _DEAD)
            return max(2, not_dead + 1)

        def retire(state: _RemoteShard) -> None:
            """Drop a finished placement; its shard finishes with its
            last placement."""
            unfinished.discard(state)
            if not any(other.index == state.index for other in unfinished):
                progress.finish(state.index,
                                state="failed" if state.index
                                in failed_shards else "completed")

        def detach(state: _RemoteShard, exclude: bool = True) -> None:
            """Unbind the shard from its worker, releasing the
            placement slot (and excluding the worker from its retry)."""
            if state.url is not None:
                assigned[state.url] = max(
                    0, assigned.get(state.url, 1) - 1
                )
                if exclude:
                    state.excluded.add(state.url)
            state.url = None
            state.remote_id = None
            state.offset = 0
            state.cancel_relayed = False
            state.last_remote_state = None

        def lose_connection(state: _RemoteShard, error: Exception) -> None:
            """Handle a dropped worker: fail over or give the shard up."""
            if state.url is not None:
                unreachable.add(state.url)
            detach(state)
            state.failures += 1
            if state.failures >= max_attempts():
                failed_shards[state.index] = (
                    f"shard {state.index} remote worker unreachable after "
                    f"{state.failures} failure(s): "
                    f"{type(error).__name__}: {error}"
                )
                retire(state)

        def place(state: _RemoteShard, now: float,
                  url: str | None = None) -> bool:
            """Dispatch the shard's unmirrored remainder to ``url`` or
            else the least-loaded alive worker; returns whether it was
            placed.  No alive worker → wait (give up past
            placement_timeout)."""
            refresh_fleet(now)
            if url is None:
                choice = least_loaded_worker(fleet, assigned,
                                             state.excluded)
                if choice is None:
                    if state.wait_since is None:
                        state.wait_since = now
                    elif now - state.wait_since > self.placement_timeout:
                        failed_shards[state.index] = (
                            f"shard {state.index} unplaceable: no alive "
                            f"worker for {self.placement_timeout:g}s"
                        )
                        retire(state)
                    return False
                url = choice["url"]
            state.wait_since = None
            state.attempts += 1
            # Failover resubmits only what was never mirrored:
            # everything already fetched is recorded locally.  The
            # worker runs the rest in this order.
            state.experiments = executor.dispatch_order(
                planned for planned in state.experiments
                if planned.experiment_id not in recorded[state.index])
            payload = build_shard_payload(
                executor, context.fault_model, state.index,
                state.experiments, worker_parallelism[state.index],
                image_manifest=context.image_manifest,
            )
            try:
                if (context.image_manifest is not None
                        and context.blob_store is not None):
                    # Content-addressed shipping: ask the worker which
                    # blobs it lacks and upload exactly those.  The
                    # probe runs per placement (not once per worker):
                    # a worker that restarted mid-campaign lost its
                    # in-memory shards but usually not its blob cache,
                    # and a cold one reports everything missing.
                    # Dedup across shards and campaigns falls out — an
                    # unchanged tree re-ships nothing but digests.
                    sync = client_for(url)
                    for digest in sync.missing_blobs(
                            context.image_manifest.digests()):
                        sync.put_blob(
                            digest, context.blob_store.get_bytes(digest)
                        )
                view = client_for(url).submit_shard(payload)
            except worker_errors as error:
                state.excluded.add(url)
                unreachable.add(url)
                lose_connection(state, error)
                return False
            state.url = url
            assigned[url] = assigned.get(url, 0) + 1
            state.remote_id = view["shard_id"]
            state.offset = 0
            state.cancel_relayed = False
            state.last_remote_state = view.get("state")
            state.last_progress = now
            state.drained = False
            progress.start(state.index)
            return True

        def steal(state: _RemoteShard, now: float) -> None:
            """Take the shard's unmirrored remainder away from a worker
            whose lease died; the next tick re-places it by least load.
            The worker is never contacted — its sockets hang."""
            detach(state)
            state.last_progress = now

        def release(victim: _RemoteShard,
                    requested: list[PlannedExperiment], now: float,
                    url: str | None = None) -> bool:
            """Take ``requested`` back from the victim's worker and
            place what it released as a new placement of the same shard
            (on ``url``, else by least load).  The worker guarantees
            none of it ever starts there, so nothing runs twice.  A
            failed request loses the worker: its answer may have taken
            experiments.  Returns whether anything moved."""
            try:
                released = set(client_for(victim.url).release_shard(
                    victim.remote_id,
                    [planned.experiment_id for planned in requested]))
            except (KeyError, *worker_errors) as error:
                lose_connection(victim, error)
                return True
            if not released:
                victim.drained = True
                return False
            moved = [planned for planned in victim.experiments
                     if planned.experiment_id in released]
            victim.experiments = [planned for planned in victim.experiments
                                  if planned.experiment_id not in released]
            thief = _RemoteShard(index=victim.index, experiments=moved,
                                 excluded={victim.url})
            placements.append(thief)
            unfinished.add(thief)
            place(thief, now, url)
            if all(planned.experiment_id in recorded[victim.index]
                   for planned in victim.experiments):
                # Nothing is left running there (a queued or parked
                # shard released everything): retire the placement.
                try:
                    client_for(victim.url).cancel_shard(victim.remote_id)
                except (KeyError, *worker_errors):
                    pass  # best effort: nothing more can start there
                detach(victim, exclude=False)
                retire(victim)
            return True

        def rebalance(now: float) -> bool:
            """When a worker is idle, move the back half of the busiest
            placement's unstarted tail to it (:func:`release_tail`).
            Returns whether anything moved."""
            if cancelled or idle_worker(fleet, assigned,
                                        unreachable) is None:
                return False
            busiest = None
            for state in open_placements():
                if state.remote_id is None or state.drained:
                    continue
                tail = release_tail(
                    state.experiments, recorded[state.index], expected,
                    running=worker_parallelism[state.index] or 1)
                seconds = sum(expected.get(planned.point.point_id, 1.0)
                              for planned in tail)
                if tail and (busiest is None or seconds > busiest[0]):
                    busiest = (seconds, state, tail)
            if busiest is None:
                return False
            _seconds, victim, tail = busiest
            url = idle_worker(fleet, assigned,
                              victim.excluded | unreachable)
            return url is not None and release(victim, tail, now, url)

        def sync_tail(state: _RemoteShard) -> bool:
            """Mirror the worker stream's newline-aligned tail locally;
            returns whether any bytes arrived."""
            raw = client_for(state.url).shard_stream(state.remote_id,
                                                     offset=state.offset)
            if not raw:
                return False
            path = shard_stream_path(stream.path, state.index)
            path.parent.mkdir(parents=True, exist_ok=True)
            with open(path, "ab") as handle:
                handle.write(raw)
            state.offset += len(raw)
            recorded[state.index].update(
                json.loads(line)["experiment_id"]
                for line in raw.splitlines())
            return True

        poll = _AdaptivePoll(self.poll_min_seconds, self.poll_max_seconds,
                             self.poll_backoff)
        while unfinished:
            now = time.monotonic()
            refresh_fleet(now)
            progressed = False
            if (context.cancel is not None and context.cancel()
                    and not cancelled):
                cancelled = True
            for state in open_placements():
                if state not in unfinished:
                    continue  # retired by a release earlier this tick
                index = state.index
                now = time.monotonic()
                if state.remote_id is None:
                    if cancelled:
                        # Nothing dispatched and the campaign is
                        # stopping: leave the shard for the resume.
                        retire(state)
                        continue
                    progressed = place(state, now) or progressed
                    continue
                view = fleet.get(state.url)
                if view is not None and view["state"] == _DEAD:
                    # The lease already proved this worker missed its
                    # heartbeats — steal without touching its sockets
                    # (a SIGSTOPped host would stall us until timeout).
                    steal(state, now)
                    progressed = True
                    continue
                client = client_for(state.url)
                if cancelled and not state.cancel_relayed:
                    try:
                        client.cancel_shard(state.remote_id)
                        state.cancel_relayed = True
                    except (KeyError, *worker_errors):
                        pass  # retried next tick; the status poll below
                        # handles a worker that is actually gone (or one
                        # that restarted and answers unknown_shard)
                try:
                    status = client.shard_status(state.remote_id)
                    if sync_tail(state):
                        state.last_progress = now
                        state.failures = 0
                        progressed = True
                except (KeyError, *worker_errors) as error:
                    # KeyError: the worker restarted and forgot the
                    # shard — its stream is gone with it.  Either way,
                    # a lost worker: fail the shard over.
                    lose_connection(state, error)
                    progressed = True
                    continue
                if status["state"] != state.last_remote_state:
                    state.last_remote_state = status["state"]
                    state.last_progress = now
                progress.set_done(index, len(recorded[index]))
                if status["state"] == "failed":
                    failed_shards[index] = (
                        f"shard {index} remote worker failed: "
                        f"{status.get('error') or 'unknown failure'}"
                    )
                    detach(state, exclude=False)
                    retire(state)
                    progressed = True
                elif status["state"] in ("completed", "cancelled"):
                    cancelled = cancelled or status["state"] == "cancelled"
                    detach(state, exclude=False)
                    retire(state)
                    progressed = True
                elif (not cancelled
                      and now - state.last_progress > self.stall_seconds
                      and idle_capacity(fleet, assigned,
                                        state.excluded | {state.url})):
                    # A straggler with idle capacity elsewhere: move
                    # what it has not started rather than wait it out.
                    state.last_progress = now
                    progressed = release(
                        state,
                        [planned for planned in state.experiments
                         if planned.experiment_id not in recorded[index]],
                        now,
                    ) or progressed
            progressed = rebalance(time.monotonic()) or progressed
            progress.emit()
            if unfinished:
                poll.record(progressed)
                time.sleep(poll.interval)

        merge_and_backfill(stream, shards, recorded, failed_shards)
        cancelled = cancelled or (context.cancel is not None
                                  and context.cancel())
        progress.emit()
        return ExecutionOutcome(cancelled=cancelled,
                                shards=progress.snapshot()["shards"])


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
                                    image_manifest=None),
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
