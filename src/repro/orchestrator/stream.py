"""Streaming experiment-result sink: an append-only JSONL file.

The execution engine appends each :class:`ExperimentResult` to the stream
as it completes, instead of accumulating every result (with full logs) in
memory.  This gives the campaign constant memory during execution and
makes it crash-resumable: a restarted run reads the ids already recorded
and skips those experiments (the as-a-service resume path).

The format is one JSON object per line.  A process killed mid-write
leaves at most one truncated trailing line; readers tolerate and skip it,
so a partial stream is always a valid resume point.
"""

from __future__ import annotations

import json
import os
import threading
from pathlib import Path
from typing import Iterator

from repro.orchestrator.experiment import STATUS_HARNESS_ERROR, ExperimentResult


def parse_stream_lines(lines) -> Iterator[dict]:
    """Decode stream lines to dicts, skipping blanks, truncated lines
    (a killed run's partial trailing write), and non-object lines.

    The single definition of the line-level reader semantics: the
    on-disk reader below and the HTTP client's NDJSON consumer both go
    through here, so the transports can never diverge on how a stream
    is interpreted.
    """
    for line in lines:
        line = line.strip()
        if not line:
            continue
        try:
            data = json.loads(line)
        except ValueError:
            continue  # truncated trailing line from a killed run
        if isinstance(data, dict):
            yield data


def latest_entries(lines) -> dict[str, dict]:
    """Result entries keyed by experiment id; last record wins (a
    harness-errored experiment retried on resume supersedes the old
    record).  Meta lines are skipped."""
    entries: dict[str, dict] = {}
    for data in parse_stream_lines(lines):
        if "experiment_id" in data:
            entries[data["experiment_id"]] = data
    return entries


def read_complete_lines(path: str | Path, offset: int = 0) -> bytes:
    """The bytes of ``path`` from ``offset`` through its last newline.

    A read racing an in-flight append never returns half a record, and
    the next read starts at ``offset + len(result)``.  ``b""`` when the
    file is missing or holds no complete line past ``offset``; any
    other I/O error is raised.
    """
    try:
        with open(path, "rb") as handle:
            handle.seek(offset)
            data = handle.read()
    except FileNotFoundError:
        return b""
    return data[:data.rfind(b"\n") + 1]


class ExperimentStream:
    """Append-only JSONL stream of experiment results (thread-safe).

    Besides result lines, the stream may carry ``{"meta": {...}}`` lines
    describing the campaign that produced it (seed, faultload digest);
    result readers skip them, and :meth:`read_meta` exposes the last one
    so a resuming campaign can refuse a stream recorded under different
    parameters.  When an experiment id occurs more than once (a
    harness-errored experiment retried on resume), the *last* record
    wins.
    """

    def __init__(self, path: str | Path) -> None:
        self.path = Path(path)
        self._lock = threading.Lock()

    # -- writing -----------------------------------------------------------------

    def append(self, result: ExperimentResult) -> None:
        """Record one finished experiment; flushed and fsynced per line so
        a crash never loses a completed experiment."""
        self._append_line(json.dumps(result.to_dict(), sort_keys=True))

    def append_entry(self, entry: dict) -> None:
        """Record one raw result dict (the shard-merge path: entries read
        from a shard stream are re-appended without an
        ``ExperimentResult`` round-trip, so merging cannot reshape
        records)."""
        self._append_line(json.dumps(entry, sort_keys=True))

    def write_meta(self, meta: dict) -> None:
        """Append a campaign-metadata line (skipped by result readers)."""
        self._append_line(json.dumps({"meta": meta}, sort_keys=True))

    def _append_line(self, line: str) -> None:
        with self._lock:
            self.path.parent.mkdir(parents=True, exist_ok=True)
            # A killed run can leave a truncated line with no newline at
            # the end of the file; terminate it first so the new record
            # does not get glued onto (and corrupted by) the partial one.
            needs_newline = False
            try:
                with open(self.path, "rb") as existing:
                    existing.seek(-1, os.SEEK_END)
                    needs_newline = existing.read(1) != b"\n"
            except (FileNotFoundError, OSError):
                pass
            with open(self.path, "a", encoding="utf-8") as handle:
                if needs_newline:
                    handle.write("\n")
                handle.write(line + "\n")
                handle.flush()
                os.fsync(handle.fileno())

    def clear(self) -> None:
        """Drop the stream (fresh, non-resuming campaign runs)."""
        with self._lock:
            try:
                self.path.unlink()
            except FileNotFoundError:
                pass

    # -- reading -----------------------------------------------------------------

    def _raw_lines(self) -> Iterator[dict]:
        if not self.path.exists():
            return
        with open(self.path, "r", encoding="utf-8") as handle:
            yield from parse_stream_lines(handle)

    def _latest_entries(self) -> dict[str, dict]:
        """Result entries keyed by experiment id; last record wins."""
        if not self.path.exists():
            return {}
        with open(self.path, "r", encoding="utf-8") as handle:
            return latest_entries(handle)

    def entries(self) -> list[dict]:
        """Every recorded result as a raw dict, sorted by experiment id
        (the pagination fast path: no ExperimentResult round-trip)."""
        return [entry for _id, entry in sorted(self._latest_entries().items())]

    def read_meta(self) -> dict | None:
        """The last campaign-metadata line, if any."""
        meta = None
        for data in self._raw_lines():
            if "meta" in data and isinstance(data["meta"], dict):
                meta = data["meta"]
        return meta

    def recorded_ids(self) -> set[str]:
        """Ids a resumed campaign may skip: everything recorded except
        harness errors, which are infrastructure failures worth retrying
        (the retry's record supersedes the old one — last record wins)."""
        return {
            experiment_id
            for experiment_id, entry in self._latest_entries().items()
            if entry.get("status") != STATUS_HARNESS_ERROR
        }

    def durations(self) -> dict[str, float]:
        """Seconds per injection point id of every recorded experiment,
        harness errors excepted: their duration measures the harness,
        not the point (the input of longest-expected-first dispatch)."""
        return {
            entry["fault_id"]: entry["duration"]
            for entry in self._latest_entries().values()
            if entry.get("status") != STATUS_HARNESS_ERROR
            and entry.get("fault_id")
        }

    def canonical_bytes(self) -> bytes:
        """The stream's deterministic byte form: one sorted-key JSON line
        per experiment id, sorted by id, meta and superseded records
        dropped.  Two campaigns recorded the same experiments iff their
        canonical bytes are equal — regardless of completion order,
        execution backend, or shard count (the sharded-execution
        equivalence tests compare exactly this)."""
        lines = [json.dumps(entry, sort_keys=True)
                 for _id, entry in sorted(self._latest_entries().items())]
        if not lines:
            return b""
        return ("\n".join(lines) + "\n").encode("utf-8")

    def __iter__(self) -> Iterator[ExperimentResult]:
        for entry in self._latest_entries().values():
            yield ExperimentResult.from_dict(entry)

    def load(self) -> list[ExperimentResult]:
        """Every recorded result (one per experiment id)."""
        return list(self)

    def __len__(self) -> int:
        return len(self._latest_entries())


__all__ = ["ExperimentStream", "latest_entries", "parse_stream_lines",
           "read_complete_lines"]
