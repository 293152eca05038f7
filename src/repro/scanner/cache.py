"""Content-addressed scan memoization (the as-a-Service fast path).

Two memoizers live here:

* :class:`ScanCache` — per-file scan results keyed by
  ``(sha256(source), faultload_digest)``, plus two whole-tree layers that
  make re-campaigns over mostly-unchanged trees cost O(changed files):

  - a **stat manifest** per scan root mapping absolute path to
    ``(size, mtime_ns, sha)``, so unchanged files are recognized from a
    single ``stat`` without being read or hashed at all;
  - a **tree manifest** keyed by ``(tree_digest, faultload_digest)``,
    where the tree digest is the canonical-JSON sha256 of the
    ``{relative path: source sha}`` map (the same digest discipline as
    the executor's ``ImageManifest``) — a hit serves the *entire* scan
    from one entry.

  Service-mode campaigns re-scan the same (unchanged) target trees over
  and over; with a persistent cache directory the second campaign skips
  the matcher, the hashing, and the file reads entirely.  Entries store
  only file-independent match data (spec, ordinal, line span, snippet),
  so identical file contents share one entry regardless of path.  The
  in-memory map is LRU-bounded (``max_memory_entries``) so long-lived
  service workers stay bounded too.  The same directory holds
  **coverage entries** (``coverage-<key>.json``): the covered set and
  per-point reach times of a fault-free pre-run, keyed by the exact
  program and driver it executed
  (``orchestrator/coverage.py::coverage_key``), and **durations
  entries** (``durations-<key>.json``): the seconds each injection point's
  experiment took, keyed by the pristine image and the run parameters
  (``orchestrator/coverage.py::durations_key``), from which a
  re-campaign orders dispatch longest-expected-first.
* :class:`MatchMemo` — a memo of pristine parse trees, their line
  tables and their matches (one per mutant group, or private to a
  ``Mutator``), keyed per source content with all per-spec match lists
  hanging off one shared tree (one parse per file, however many specs).
  The splicer (``mutator/patch.py``) only reads what :meth:`peek` hands
  out, so nothing is ever copied here.
"""

from __future__ import annotations

import ast
import hashlib
import json
import math
import os
import threading
from collections import OrderedDict
from pathlib import Path

from repro.common.fsutil import atomic_write, read_json
from repro.common.textutil import SourceLines
from repro.dsl.metamodel import MetaModel
from repro.dsl.parser import BugSpec
from repro.scanner.matcher import Match, Matcher, pick_match


def source_digest(source: str) -> str:
    """Content address of one source file."""
    return hashlib.sha256(source.encode("utf-8")).hexdigest()


def faultload_digest(specs: "list[BugSpec] | list[MetaModel]") -> str:
    """Stable digest of an *ordered* faultload.

    Spec order matters: per-file points are emitted in model order, so two
    faultloads with the same specs in different orders are distinct.
    """
    digest = hashlib.sha256()
    for spec in specs:
        raw = spec.spec.raw if isinstance(spec, MetaModel) else spec.raw
        name = spec.name
        digest.update(name.encode("utf-8"))
        digest.update(b"\x00")
        digest.update(raw.encode("utf-8"))
        digest.update(b"\x01")
    return digest.hexdigest()


def tree_digest_of(files: "dict[str, str]") -> str:
    """Content address of a whole tree: ``{relative path: source sha}``.

    Canonical sorted JSON hashed with sha256 — the ``ImageManifest``
    discipline — so any file added, removed, renamed, or edited changes
    the digest, and nothing else does.
    """
    canonical = json.dumps(sorted(files.items()), separators=(",", ":"))
    return hashlib.sha256(canonical.encode("utf-8")).hexdigest()


#: Bump when the entry schema changes; older disk entries become misses.
CACHE_FORMAT_VERSION = 1

#: Bump when the tree-manifest schema changes (independent of the
#: per-file entry version it nests).
TREE_FORMAT_VERSION = 1

#: Bump when the coverage entry schema changes.  Version 2 added each
#: covered point's reach time and the length of the pre-run.
COVERAGE_FORMAT_VERSION = 2

#: Bump when the durations entry schema changes.
DURATIONS_FORMAT_VERSION = 1

_ROW_KEYS = {"spec_name", "ordinal", "lineno", "end_lineno", "snippet"}

_STAT_KEYS = {"size", "mtime_ns", "sha"}


def _versioned(entry, version: int) -> bool:
    """Schema check: malformed/old disk entries degrade to cache misses."""
    return isinstance(entry, dict) and entry.get("version") == version


def _valid_entry(entry) -> bool:
    if not _versioned(entry, CACHE_FORMAT_VERSION):
        return False
    matches = entry.get("matches")
    if not isinstance(matches, list):
        return False
    return all(
        isinstance(row, dict) and _ROW_KEYS <= row.keys()
        for row in matches
    )


def _valid_tree_entry(entry) -> bool:
    if not _versioned(entry, TREE_FORMAT_VERSION):
        return False
    files = entry.get("files")
    if not isinstance(files, dict):
        return False
    return all(
        isinstance(rel, str) and _valid_entry(file_entry)
        for rel, file_entry in files.items()
    )


def _valid_seconds(seconds) -> bool:
    return (isinstance(seconds, (int, float))
            and not isinstance(seconds, bool) and 0 <= seconds < math.inf)


def _valid_seconds_map(entry) -> bool:
    """A ``{point id: seconds}`` map."""
    return isinstance(entry, dict) and all(
        isinstance(point_id, str) and _valid_seconds(seconds)
        for point_id, seconds in entry.items()
    )


def _valid_coverage_entry(entry) -> bool:
    if not _versioned(entry, COVERAGE_FORMAT_VERSION):
        return False
    covered = entry.get("covered")
    return (isinstance(covered, list)
            and all(isinstance(point_id, str) for point_id in covered)
            and _valid_seconds_map(entry.get("reached"))
            and _valid_seconds(entry.get("seconds")))


def _valid_durations_entry(entry) -> bool:
    return (_versioned(entry, DURATIONS_FORMAT_VERSION)
            and _valid_seconds_map(entry.get("durations")))


def _valid_stat_manifest(entry) -> bool:
    if not _versioned(entry, CACHE_FORMAT_VERSION):
        return False
    files = entry.get("files")
    if not isinstance(files, dict):
        return False
    return all(
        isinstance(path, str) and isinstance(record, dict)
        and _STAT_KEYS <= record.keys()
        for path, record in files.items()
    )


class ScanCache:
    """Memo of per-file scan results, optionally persisted to disk.

    The in-memory map is always consulted first; when ``cache_dir`` is set,
    misses fall back to a JSON entry on disk and stores write through.
    Entries are schema-versioned — anything malformed or from another
    format version is treated as a miss, never a crash.  Both the disk
    cache (``max_disk_entries``, pruned LRU when the cache is opened) and
    the in-memory map (``max_memory_entries``, evicted LRU on insert) are
    bounded, so long-lived service workspaces and workers stay bounded.
    Thread-safe (service jobs scan on worker threads).

    Counters: ``hits``/``misses`` count per-file entry consultations (a
    whole-tree hit counts once per file it serves); ``tree_hits``/
    ``tree_misses`` count tree-manifest consultations; ``files_read`` and
    ``stat_hits`` count how many files a scan actually read versus
    recognized as unchanged from a single ``stat``; ``coverage_hits``/
    ``coverage_misses`` and ``durations_hits``/``durations_misses`` count
    coverage pre-run and dispatch-duration lookups.
    """

    def __init__(self, cache_dir: str | Path | None = None,
                 max_disk_entries: int = 4096,
                 max_memory_entries: int = 4096) -> None:
        self.cache_dir = Path(cache_dir) if cache_dir else None
        self.max_disk_entries = max_disk_entries
        self.max_memory_entries = max_memory_entries
        self._memory: OrderedDict[tuple[str, str], dict] = OrderedDict()
        self._tree_memory: OrderedDict[tuple[str, str], dict] = OrderedDict()
        self._stat_memory: dict[str, dict] = {}
        self._lock = threading.Lock()
        self.hits = 0
        self.misses = 0
        self.tree_hits = 0
        self.tree_misses = 0
        self.files_read = 0
        self.stat_hits = 0
        self.coverage_hits = 0
        self.coverage_misses = 0
        self.durations_hits = 0
        self.durations_misses = 0
        self._prune_disk()

    def _entry_path(self, source_sha: str, load_digest: str) -> Path:
        assert self.cache_dir is not None
        return self.cache_dir / f"{load_digest[:16]}-{source_sha}.json"

    def _tree_path(self, tree_digest: str, load_digest: str) -> Path:
        assert self.cache_dir is not None
        return self.cache_dir / f"tree-{load_digest[:16]}-{tree_digest}.json"

    def _keyed_path(self, kind: str, key: str) -> Path:
        assert self.cache_dir is not None
        return self.cache_dir / f"{kind}-{key}.json"

    def _stat_path(self, root_key: str) -> Path:
        assert self.cache_dir is not None
        token = hashlib.sha256(root_key.encode("utf-8")).hexdigest()[:16]
        return self.cache_dir / f"statmanifest-{token}.json"

    def _prune_disk(self) -> None:
        """Drop the oldest disk entries beyond ``max_disk_entries``.

        Stat manifests are exempt: there is one small manifest per scan
        root (not one per file), and it is what keeps re-scans from
        reading every file.
        """
        if self.cache_dir is None or not self.cache_dir.is_dir():
            return
        try:
            entries = sorted(
                (path for path in self.cache_dir.glob("*.json")
                 if not path.name.startswith("statmanifest-")),
                key=lambda path: path.stat().st_mtime,
            )
        except OSError:
            return
        for path in entries[:max(0, len(entries) - self.max_disk_entries)]:
            try:
                path.unlink()
            except OSError:
                pass

    def _remember(self, store: OrderedDict, key, entry,
                  cap: int | None = None) -> None:
        """Insert with LRU recency and eviction (caller holds no lock)."""
        cap = cap if cap is not None else self.max_memory_entries
        with self._lock:
            store[key] = entry
            store.move_to_end(key)
            while len(store) > cap:
                store.popitem(last=False)

    @staticmethod
    def _read(path: Path, valid) -> dict | None:
        """The disk entry at ``path``; missing, malformed or old-version
        entries are misses.  A hit's mtime is refreshed, so pruning is
        LRU, not FIFO: hot entries survive the ``max_disk_entries`` cap."""
        if not path.exists():
            return None
        try:
            entry = read_json(path)
        except (OSError, ValueError):
            return None
        if not valid(entry):
            return None
        try:
            os.utime(path)
        except OSError:
            pass
        return entry

    def _load(self, memory: OrderedDict, key, path: Path | None,
              valid, cap: int | None = None) -> dict | None:
        """Memory first, then :meth:`_read`; a disk hit is remembered."""
        with self._lock:
            entry = memory.get(key)
            if entry is not None:
                memory.move_to_end(key)
        if entry is None and path is not None:
            entry = self._read(path, valid)
            if entry is not None:
                self._remember(memory, key, entry, cap)
        return entry

    @staticmethod
    def _persist(path: Path, entry: dict) -> None:
        """Write ``entry`` atomically as compact JSON (the C encoder;
        indented output would force the pure-Python one)."""
        try:
            path.parent.mkdir(parents=True, exist_ok=True)
            atomic_write(path, json.dumps(entry, sort_keys=True,
                                          separators=(",", ":")))
        except OSError:
            pass  # persistence is best-effort

    def _count(self, entry: dict | None, hit: str,
               miss: str) -> dict | None:
        """Bump the ``hit`` or ``miss`` counter for ``entry``."""
        name = miss if entry is None else hit
        with self._lock:
            setattr(self, name, getattr(self, name) + 1)
        return entry

    # -- per-file entries -------------------------------------------------------

    def lookup(self, source_sha: str, load_digest: str) -> dict | None:
        """Cached entry ``{"matches": [...], "error": str|None}`` or None."""
        path = (self._entry_path(source_sha, load_digest)
                if self.cache_dir is not None else None)
        return self._count(self._load(
            self._memory, (source_sha, load_digest), path, _valid_entry,
        ), "hits", "misses")

    def store(self, source_sha: str, load_digest: str, entry: dict) -> None:
        entry = {**entry, "version": CACHE_FORMAT_VERSION}
        self._remember(self._memory, (source_sha, load_digest), entry)
        if self.cache_dir is not None:
            self._persist(self._entry_path(source_sha, load_digest), entry)

    # -- tree manifests ---------------------------------------------------------

    def lookup_tree(self, tree_digest: str,
                    load_digest: str) -> dict | None:
        """Whole-tree entry ``{"files": {rel: per-file entry}}`` or None."""
        path = (self._tree_path(tree_digest, load_digest)
                if self.cache_dir is not None else None)
        return self._count(self._load(
            self._tree_memory, (tree_digest, load_digest), path,
            _valid_tree_entry, cap=16,
        ), "tree_hits", "tree_misses")

    def store_tree(self, tree_digest: str, load_digest: str,
                   files: "dict[str, dict]") -> None:
        entry = {
            "version": TREE_FORMAT_VERSION,
            "files": {rel: {**file_entry, "version": CACHE_FORMAT_VERSION}
                      for rel, file_entry in files.items()},
        }
        self._remember(self._tree_memory, (tree_digest, load_digest), entry,
                       cap=16)
        if self.cache_dir is not None:
            self._persist(self._tree_path(tree_digest, load_digest), entry)

    # -- coverage entries -------------------------------------------------------

    def _lookup_keyed(self, kind: str, key: str, valid) -> dict | None:
        """The ``<kind>-<key>.json`` entry, counted as a ``<kind>_hits``
        or ``<kind>_misses``.  Only a persistent cache holds these
        entries: without ``cache_dir`` this is always a miss."""
        entry = None
        if self.cache_dir is not None:
            entry = self._read(self._keyed_path(kind, key), valid)
        return self._count(entry, f"{kind}_hits", f"{kind}_misses")

    def lookup_coverage(self, key: str) -> dict | None:
        """``{"covered": [point ids], "reached": {point id: seconds},
        "seconds": pre-run seconds}`` stored under a coverage pre-run
        key, or None."""
        return self._lookup_keyed("coverage", key, _valid_coverage_entry)

    def store_coverage(self, key: str, covered: "set[str]",
                       reached: "dict[str, float]",
                       seconds: float) -> None:
        if self.cache_dir is not None:
            self._persist(self._keyed_path("coverage", key), {
                "version": COVERAGE_FORMAT_VERSION,
                "covered": sorted(covered),
                "reached": dict(sorted(reached.items())),
                "seconds": seconds,
            })

    # -- durations entries ------------------------------------------------------

    def lookup_durations(self, key: str) -> dict | None:
        """Recorded ``{"durations": {point id: seconds}}`` under a
        durations key, or None."""
        return self._lookup_keyed("durations", key, _valid_durations_entry)

    def store_durations(self, key: str,
                        durations: "dict[str, float]") -> None:
        """Merge ``durations`` over the entry stored under ``key`` (the
        newer value wins per point).  Two campaigns storing at once may
        drop each other's points; durations only order dispatch."""
        if self.cache_dir is None or not durations:
            return
        path = self._keyed_path("durations", key)
        previous = self._read(path, _valid_durations_entry)
        self._persist(path, {
            "version": DURATIONS_FORMAT_VERSION,
            "durations": {**(previous or {}).get("durations", {}),
                          **durations},
        })

    # -- stat manifests ---------------------------------------------------------

    def load_stat_manifest(self, root: str | Path) -> dict:
        """``{absolute path: {size, mtime_ns, sha}}`` for ``root``, or {}."""
        root_key = os.path.abspath(str(root))
        with self._lock:
            manifest = self._stat_memory.get(root_key)
            if manifest is not None:
                return dict(manifest)
        if self.cache_dir is None:
            return {}
        path = self._stat_path(root_key)
        if not path.exists():
            return {}
        try:
            entry = read_json(path)
        except (OSError, ValueError):
            return {}
        if not _valid_stat_manifest(entry):
            return {}
        manifest = entry["files"]
        with self._lock:
            self._stat_memory[root_key] = dict(manifest)
        return manifest

    def save_stat_manifest(self, root: str | Path,
                           manifest: "dict[str, dict]") -> None:
        root_key = os.path.abspath(str(root))
        with self._lock:
            self._stat_memory[root_key] = dict(manifest)
        if self.cache_dir is not None:
            self._persist(self._stat_path(root_key), {
                "version": CACHE_FORMAT_VERSION,
                "files": manifest,
            })

    # -- counters ---------------------------------------------------------------

    def note_hits(self, count: int) -> None:
        """Count ``count`` per-file results served (tree fast path)."""
        with self._lock:
            self.hits += count

    def note_read(self, count: int = 1) -> None:
        with self._lock:
            self.files_read += count

    def note_stat_hit(self, count: int = 1) -> None:
        with self._lock:
            self.stat_hits += count

    def stats(self) -> dict:
        with self._lock:
            return {
                "hits": self.hits,
                "misses": self.misses,
                "entries": len(self._memory),
                "tree_hits": self.tree_hits,
                "tree_misses": self.tree_misses,
                "files_read": self.files_read,
                "stat_hits": self.stat_hits,
                "coverage_hits": self.coverage_hits,
                "coverage_misses": self.coverage_misses,
                "durations_hits": self.durations_hits,
                "durations_misses": self.durations_misses,
            }


class _MemoEntry:
    """One memoized source: its line table, a shared pristine tree, and
    per-spec matches."""

    __slots__ = ("lines", "tree", "matches")

    def __init__(self, lines: SourceLines, tree: ast.Module) -> None:
        self.lines = lines
        self.tree = tree
        #: ``(spec name, raw spec text) -> match list`` — the raw text is
        #: part of the key because two specs may share a name while
        #: matching different patterns (ScanCache digests name+raw for
        #: the same reason).
        self.matches: dict[tuple[str, str], list[Match]] = {}


class MatchMemo:
    """Bounded memo of ``source -> (line table, pristine tree, matches)``.

    One entry per source content; every spec's match list hangs off the
    same shared tree, so a file hit by many specs is parsed exactly once,
    and its line table (:class:`~repro.common.textutil.SourceLines`) is
    built once for every mutant and probe spliced into it.  Nothing
    handed out may be mutated: the splicer only reads positions and
    copies the statements it re-renders.
    """

    def __init__(self, max_entries: int = 64) -> None:
        self.max_entries = max_entries
        self._entries: OrderedDict[str, _MemoEntry] = OrderedDict()
        self._lock = threading.Lock()

    def _entry(self, source: str) -> _MemoEntry:
        key = source_digest(source)
        with self._lock:
            entry = self._entries.get(key)
            if entry is not None:
                self._entries.move_to_end(key)
                return entry
        entry = _MemoEntry(SourceLines(source), ast.parse(source))
        with self._lock:
            existing = self._entries.get(key)
            if existing is not None:
                # Another thread parsed the same source first; hand out
                # that entry so every caller shares a single pristine tree.
                self._entries.move_to_end(key)
                return existing
            self._entries[key] = entry
            self._entries.move_to_end(key)
            while len(self._entries) > self.max_entries:
                self._entries.popitem(last=False)
        return entry

    def _matches(self, entry: _MemoEntry, model: MetaModel) -> list[Match]:
        key = (model.name, model.spec.raw)
        with self._lock:
            matches = entry.matches.get(key)
        if matches is not None:
            return matches
        matches = Matcher(model).find_matches(entry.tree)
        with self._lock:
            # Existing wins: concurrent first-touches must agree on one
            # match list, so every window is a node of the shared tree.
            return entry.matches.setdefault(key, matches)

    def count(self, source: str, model: MetaModel) -> int:
        """Number of matches of ``model`` in ``source`` (memoized)."""
        return len(self._matches(self._entry(source), model))

    def peek(self, source: str, model: MetaModel,
             ordinal: int) -> tuple[SourceLines, ast.Module, Match]:
        """The *shared* line table and pristine tree, plus the
        ``ordinal``-th match.

        Callers must treat all three as read-only: they are handed to
        every other consumer of this source.
        """
        entry = self._entry(source)
        match = pick_match(self._matches(entry, model), model.name, ordinal)
        return entry.lines, entry.tree, match
