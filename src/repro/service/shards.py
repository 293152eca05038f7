"""Worker-side shard execution for the remote backend (``/v1/shards``).

A ``profipy worker`` host — or one of the process backend's loopback
workers — accepts shard payloads, the JSON-plain form built by
:func:`repro.orchestrator.backends.build_shard_payload`, and runs each
through :func:`repro.orchestrator.backends._run_shard_worker`, the same
pipelined engine the thread backend runs, so a shard executes
byte-identically on every backend.

:class:`ShardHost` is the behavioural core behind the worker endpoints:

* ``submit`` rewrites the payload's local-only paths into a private
  per-shard directory under ``<workspace>/shards/<shard_id>/`` (stream,
  cancel flag, sandbox scratch) and starts a daemon thread; at most
  ``max_concurrent`` shards *execute* at a time — excess submissions
  are admitted as ``queued`` and start as slots free (the same
  bounded-admission policy the job scheduler applies to campaigns, so
  N dispatchers cannot oversubscribe one worker host);
* ``status`` reports ``{state, total, recorded, cancelled, error}`` —
  ``recorded`` is the stream's line count, so polling is O(stream), not
  O(json);
* ``stream_path`` exposes the shard's ``experiments.jsonl`` for the
  newline-aligned NDJSON tail endpoint;
* ``cancel`` touches the shard's cancel-flag file, which the engine
  polls between experiments;
* ``release`` takes back experiments the engine has not handed out yet
  (the shard's :class:`ReleaseGate`, checked before each hand-out), so
  a dispatcher can move unstarted work to an idle worker without any
  experiment ever running twice.

Shard ids never repeat within a workspace (max-suffix scan over the
shard directories, like the job scheduler's id allocation), so a
dispatcher retrying after a worker restart can never collide with a
previous shard's directory.  The registry itself is in-memory: a
restarted worker answers ``unknown_shard`` for old ids, which the
remote backend treats as a lost worker and fails over.
"""

from __future__ import annotations

import math
import re
import threading
from dataclasses import dataclass, field
from pathlib import Path

_SHARD_ID_RE = re.compile(r"shard-(\d+)")

QUEUED = "queued"
RUNNING = "running"
COMPLETED = "completed"
FAILED = "failed"
CANCELLED = "cancelled"

#: Shards a worker executes concurrently; each shard runs a whole
#: experiment pipeline (sandbox pool included), so a small number
#: saturates a host — queued shards start as slots free.
DEFAULT_MAX_CONCURRENT = 4

#: Payload keys a dispatcher must provide (the wire schema of
#: ``build_shard_payload``; local-only paths are filled in worker-side).
#: The image arrives either as ``image`` (host-local staging paths, what
#: the process backend's loopback workers get) or as ``image_manifest``
#: (content-addressed, materialized from this worker's blob store) — one
#: of the two is required on top of these.
REQUIRED_PAYLOAD_KEYS = (
    "shard",
    "planned",
    "fault_model",
    "workload",
    "trigger",
    "rounds",
    "campaign_seed",
    "parallelism",
)


class ReleaseGate:
    """Which of a shard's experiments may still start.

    The engine calls :meth:`admit` before it hands an experiment to the
    pool; :meth:`release` takes the requested ids that were not handed
    out yet.  Both run under one lock, so an id is either admitted (and
    may run here) or released (and never starts here), never both.
    """

    def __init__(self) -> None:
        self._lock = threading.Lock()
        self._admitted: set[str] = set()
        self._released: set[str] = set()

    def admit(self, experiment_id: str) -> bool:
        with self._lock:
            if experiment_id in self._released:
                return False
            self._admitted.add(experiment_id)
            return True

    def release(self, experiment_ids) -> list[str]:
        """The requested ids not yet admitted or released, in request
        order; each is released exactly once."""
        with self._lock:
            taken = [experiment_id for experiment_id
                     in dict.fromkeys(experiment_ids)
                     if experiment_id not in self._admitted
                     and experiment_id not in self._released]
            self._released.update(taken)
        return taken


@dataclass
class ShardRun:
    """One accepted shard payload and its execution state."""

    shard_id: str
    shard: int
    total: int
    directory: Path
    state: str = QUEUED
    cancelled: bool = False
    error: str = ""
    thread: threading.Thread | None = field(default=None, repr=False)
    gate: ReleaseGate = field(default_factory=ReleaseGate, repr=False)

    @property
    def stream_path(self) -> Path:
        return self.directory / "experiments.jsonl"

    @property
    def cancel_flag(self) -> Path:
        return self.directory / "cancel.flag"


class ShardHost:
    """Accepts and executes shard payloads on behalf of a dispatcher."""

    def __init__(self, shards_dir: str | Path,
                 max_concurrent: int = DEFAULT_MAX_CONCURRENT,
                 blob_store=None) -> None:
        if max_concurrent < 1:
            raise ValueError(
                f"max_concurrent must be >= 1, got {max_concurrent}"
            )
        self.shards_dir = Path(shards_dir)
        self.shards_dir.mkdir(parents=True, exist_ok=True)
        self.max_concurrent = max_concurrent
        #: Local :class:`~repro.service.blobs.BlobStore` that
        #: manifest-bearing payloads materialize their image from;
        #: ``None`` restricts this host to path-based payloads.
        self.blob_store = blob_store
        self._slots = threading.Semaphore(max_concurrent)
        self._runs: dict[str, ShardRun] = {}
        self._lock = threading.Lock()

    # -- id allocation -----------------------------------------------------------

    def _next_shard_id(self) -> str:
        """One past the highest suffix in memory or on disk (old shard
        directories keep blocking their ids across worker restarts)."""
        highest = 0
        names = set(self._runs)
        try:
            names.update(path.name for path in self.shards_dir.iterdir()
                         if path.is_dir())
        except OSError:
            pass
        for name in names:
            match = _SHARD_ID_RE.fullmatch(name)
            if match:
                highest = max(highest, int(match.group(1)))
        return f"shard-{highest + 1:04d}"

    # -- lifecycle ---------------------------------------------------------------

    def submit(self, payload: dict) -> dict:
        """Accept one shard payload and start executing it.

        Raises ``ValueError`` for a structurally malformed payload (the
        API layer maps it to ``invalid_request``); deeper problems — a
        fault model that does not compile, an image path that does not
        exist on this host — surface as the shard's ``failed`` state.
        """
        if not isinstance(payload, dict):
            raise ValueError("shard payload must be a JSON object")
        missing = [key for key in REQUIRED_PAYLOAD_KEYS
                   if key not in payload]
        if missing:
            raise ValueError(
                f"shard payload missing keys: {', '.join(sorted(missing))}"
            )
        if not isinstance(payload["planned"], list):
            raise ValueError("shard payload 'planned' must be a list")
        manifest = payload.get("image_manifest")
        if manifest is None and "image" not in payload:
            raise ValueError(
                "shard payload needs 'image' (host-local staging paths) "
                "or 'image_manifest' (content-addressed)"
            )
        if manifest is not None:
            if self.blob_store is None:
                raise ValueError(
                    "this worker has no blob store; it cannot accept "
                    "manifest-bearing shard payloads"
                )
            from repro.service.blobs import ImageManifest

            # Parse eagerly: a malformed manifest is the dispatcher's
            # bug and must answer invalid_request, not a failed shard.
            ImageManifest.from_dict(manifest)
        if "expected_seconds" in payload:
            _check_expected_seconds(payload["expected_seconds"])
        with self._lock:
            shard_id = self._next_shard_id()
            directory = self.shards_dir / shard_id
            directory.mkdir(parents=True, exist_ok=True)
            run = ShardRun(
                shard_id=shard_id,
                shard=int(payload["shard"]),
                total=len(payload["planned"]),
                directory=directory,
            )
            self._runs[shard_id] = run
        # Only the local-only paths are rewritten into the shard's
        # private directory.  A manifest-bearing payload needs no
        # coordinator paths at all — the image is materialized from this
        # host's blob store in the worker thread below; a path-based
        # "image" still resolves on *this* host's filesystem (the
        # process backend's same-host form).
        body = dict(payload)
        body["stream_path"] = str(run.stream_path)
        body["cancel_flag"] = str(run.cancel_flag)
        body["base_dir"] = str(directory / "sandboxes")
        body.setdefault("artifacts_dir", None)
        body["admit"] = run.gate.admit
        thread = threading.Thread(target=self._run, args=(run, body),
                                  daemon=True)
        run.thread = thread
        thread.start()
        return self.status(shard_id)

    def _run(self, run: ShardRun, body: dict) -> None:
        from repro.orchestrator.backends import _run_shard_worker

        # The concurrency bound: a queued shard waits here for a slot.
        # Cancellation works while queued — the flag file is polled by
        # the engine, so a cancelled-while-queued shard starts, observes
        # the flag before its first experiment, and retires immediately.
        with self._slots:
            with self._lock:
                run.state = RUNNING
            try:
                manifest = body.pop("image_manifest", None)
                if manifest is not None:
                    # Materialize the content-addressed image into the
                    # shard's scratch corner (byte-identical to the
                    # coordinator's staging tree, permission bits
                    # included).  A blob the dispatcher never uploaded
                    # surfaces as this shard's failed state.
                    from repro.sandbox.image import SandboxImage
                    from repro.service.blobs import ImageManifest

                    image = SandboxImage.build_from_manifest(
                        ImageManifest.from_dict(manifest),
                        run.directory / "image",
                        self.blob_store,
                    )
                    body["image"] = {
                        "source_dir": str(image.source_dir),
                        "staging_dir": str(image.staging_dir),
                        "env": dict(image.env),
                    }
                report = _run_shard_worker(body)
            except Exception as error:  # noqa: BLE001 - via status
                with self._lock:
                    run.state = FAILED
                    run.error = f"{type(error).__name__}: {error}"
                return
            with self._lock:
                run.cancelled = bool(report.get("cancelled"))
                run.state = CANCELLED if run.cancelled else COMPLETED

    def _get(self, shard_id: str) -> ShardRun:
        try:
            return self._runs[shard_id]
        except KeyError:
            raise KeyError(f"unknown shard {shard_id!r}") from None

    def status(self, shard_id: str) -> dict:
        """The shard's state view (what ``GET /v1/shards/{id}`` serves)."""
        run = self._get(shard_id)
        with self._lock:
            state, cancelled, error = run.state, run.cancelled, run.error
        return {
            "shard_id": run.shard_id,
            "shard": run.shard,
            "state": state,
            "total": run.total,
            "recorded": _line_count(run.stream_path),
            "cancelled": cancelled,
            "error": error,
        }

    def load(self) -> dict:
        """This worker's live load — what its heartbeats carry so the
        dispatcher can place shards by least load instead of blindly."""
        with self._lock:
            running = sum(1 for run in self._runs.values()
                          if run.state == RUNNING)
            queued = sum(1 for run in self._runs.values()
                         if run.state == QUEUED)
        return {"running": running, "queued": queued,
                "max_concurrent": self.max_concurrent}

    def list(self) -> list[dict]:
        """Status views of every shard this worker accepted (newest id
        last), for operators inspecting a worker."""
        with self._lock:
            # Snapshot the ids under the lock: concurrent submits mutate
            # the registry while other server threads list it.
            shard_ids = sorted(self._runs)
        return [self.status(shard_id) for shard_id in shard_ids]

    def stream_path(self, shard_id: str) -> Path:
        """Where the shard's result stream lives (may not exist yet)."""
        return self._get(shard_id).stream_path

    def cancel(self, shard_id: str) -> dict:
        """Request cooperative cancellation (idempotent): the shard's
        engine polls the flag file between experiments."""
        run = self._get(shard_id)
        run.cancel_flag.parent.mkdir(parents=True, exist_ok=True)
        run.cancel_flag.touch()
        return self.status(shard_id)

    def release(self, shard_id: str, experiment_ids: list[str]) -> dict:
        """Take back the requested experiments this shard's engine has
        not handed out yet: none of the returned ids will ever start on
        this worker.  A queued (or never started) shard releases every
        requested id."""
        run = self._get(shard_id)
        released = run.gate.release(experiment_ids)
        with self._lock:
            run.total = max(0, run.total - len(released))
        return {"shard_id": shard_id, "released": released}

    def join(self, timeout: float | None = None) -> None:
        """Wait for every accepted shard to finish (test/shutdown help)."""
        for run in list(self._runs.values()):
            if run.thread is not None:
                run.thread.join(timeout)


def _check_expected_seconds(expected) -> None:
    """``expected_seconds`` must map point ids to finite, non-negative
    seconds (the worker's dispatch order is computed from it)."""
    if not isinstance(expected, dict):
        raise ValueError("shard payload 'expected_seconds' must be an "
                         "object")
    for seconds in expected.values():
        if (isinstance(seconds, bool)
                or not isinstance(seconds, (int, float))
                or (isinstance(seconds, float)
                    and not math.isfinite(seconds))
                or seconds < 0):
            raise ValueError("shard payload 'expected_seconds' values "
                             "must be finite, non-negative seconds")


def _line_count(path: Path) -> int:
    """Newlines in ``path`` (0 when absent) — the cheap ``recorded``
    counter for status polls; shard streams carry no meta lines and one
    fsynced line per experiment."""
    try:
        with open(path, "rb") as handle:
            return sum(chunk.count(b"\n")
                       for chunk in iter(lambda: handle.read(65536), b""))
    except OSError:
        return 0


__all__ = [
    "CANCELLED",
    "COMPLETED",
    "DEFAULT_MAX_CONCURRENT",
    "FAILED",
    "QUEUED",
    "REQUIRED_PAYLOAD_KEYS",
    "RUNNING",
    "ReleaseGate",
    "ShardHost",
    "ShardRun",
    "_line_count",
]
