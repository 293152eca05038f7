"""Source-code scanner: find every injection point in a project (§IV-A).

The scan hot path is an *indexed engine* (§V-D scalability):

1. each file is parsed once and summarized by a
   :class:`~repro.scanner.index.FileIndex` — the statement lists the
   matcher windows over, each with a ``call segment -> positions`` map,
   plus a :class:`~repro.scanner.index.FileFingerprint`, all collected in
   a single AST walk;
2. every spec compiles to a :class:`~repro.scanner.prefilter.SpecRequirements`
   prefilter and an :class:`~repro.scanner.prefilter.Anchor`; specs the
   fingerprint cannot satisfy are skipped without running the matcher,
   and the others try a window only where their anchor statement can
   land, which eliminates most ``specs x files x statements`` work for
   API-glob faultloads;
3. ``jobs > 1`` fans files out over *warm* worker processes — specs are
   compiled once per worker (``ProcessPoolExecutor(initializer=...)``) and
   files are submitted in chunks, with a deterministic merge order;
4. an optional :class:`~repro.scanner.cache.ScanCache` memoizes per-file
   results by ``(sha256(source), faultload_digest)`` so repeated campaigns
   over unchanged trees (the as-a-Service case) skip re-matching.

The engine returns byte-identical :class:`InjectionPoint` lists to a
per-spec matcher that tries a window at every statement of every file
(see ``tests/test_scan_engine.py`` and ``tests/test_anchor_index.py``).
"""

from __future__ import annotations

import ast
import functools
import os
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass, field
from pathlib import Path

from repro.common.fsutil import iter_python_files
from repro.common.textutil import truncate
from repro.dsl.compiler import compile_spec
from repro.dsl.metamodel import MetaModel
from repro.dsl.parser import BugSpec
from repro.scanner.cache import (
    ScanCache,
    faultload_digest,
    source_digest,
    tree_digest_of,
)
from repro.scanner.index import build_index
from repro.scanner.matcher import Match, Matcher, pick_match
from repro.scanner.points import InjectionPoint, component_of


@dataclass
class ScanResult:
    """Outcome of scanning a source tree with a set of bug specs."""

    points: list[InjectionPoint] = field(default_factory=list)
    files_scanned: int = 0
    parse_errors: dict[str, str] = field(default_factory=dict)

    def by_spec(self) -> dict[str, list[InjectionPoint]]:
        grouped: dict[str, list[InjectionPoint]] = {}
        for point in self.points:
            grouped.setdefault(point.spec_name, []).append(point)
        return grouped

    def merge(self, other: "ScanResult") -> None:
        self.points.extend(other.points)
        self.files_scanned += other.files_scanned
        self.parse_errors.update(other.parse_errors)


# -- the scan engine ------------------------------------------------------------


class ScanEngine:
    """Compiled faultload + matchers, reusable across many files.

    One engine per scan (or per warm worker process): matchers are
    constructed once, the faultload digest is computed once, and prefilter
    effectiveness is reported by :meth:`prefilter_stats`.
    """

    def __init__(self, models: list[MetaModel]) -> None:
        self.models = models
        self._matchers = [Matcher(model) for model in models]
        self._digest: str | None = None

    @property
    def digest(self) -> str:
        if self._digest is None:
            self._digest = faultload_digest(self.models)
        return self._digest

    def scan_rows(self, source: str) -> list[dict]:
        """File-independent match rows of every model, in model order."""
        index = build_index(ast.parse(source))
        rows: list[dict] = []
        # Many patterns match the same statements: render each once.
        first_line = functools.cache(
            lambda stmt: ast.unparse(stmt).splitlines()[0])
        for model, matcher in zip(self.models, self._matchers):
            for ordinal, match in enumerate(matcher.find_matches_in(index)):
                snippet = "; ".join(
                    first_line(stmt) for stmt in match.stmts[:3])
                rows.append({
                    "spec_name": model.name,
                    "ordinal": ordinal,
                    "lineno": match.lineno,
                    "end_lineno": match.end_lineno,
                    "snippet": truncate(snippet, 120),
                })
        return rows

    def scan_source(self, source: str,
                    file: str = "<string>") -> list[InjectionPoint]:
        return rows_to_points(self.scan_rows(source), file)

    def prefilter_stats(self) -> dict:
        """File- and statement-level prefilter effectiveness.

        ``pairs_*`` count spec x file pairs and those the file-level
        requirements skipped; ``starts_*`` count, over the pairs the
        matcher ran on, the window starts of every statement list and
        those the anchor left to try.
        """
        def total(counter: str) -> int:
            return sum(getattr(matcher, counter) for matcher in self._matchers)

        pairs_total, pairs_skipped = total("runs"), total("runs_skipped")
        starts_total, starts_tried = total("starts_total"), total("starts_tried")
        return {
            "pairs_total": pairs_total,
            "pairs_skipped": pairs_skipped,
            "skip_rate": (pairs_skipped / pairs_total
                          if pairs_total else 0.0),
            "starts_total": starts_total,
            "starts_tried": starts_tried,
            "start_skip_rate": (1.0 - starts_tried / starts_total
                                if starts_total else 0.0),
        }


def rows_to_points(rows: list[dict], file: str) -> list[InjectionPoint]:
    """Attach file identity to cached/engine match rows."""
    component = component_of(file)
    return [
        InjectionPoint(
            spec_name=row["spec_name"],
            file=file,
            ordinal=row["ordinal"],
            lineno=row["lineno"],
            end_lineno=row["end_lineno"],
            snippet=row["snippet"],
            component=component,
        )
        for row in rows
    ]


# -- single-source entry points -------------------------------------------------


def match_source(source: str, model: MetaModel) -> list[Match]:
    """All matches of one meta-model in a source string."""
    return Matcher(model).find_matches(ast.parse(source))


def nth_match(source: str, model: MetaModel, ordinal: int) -> Match:
    """Re-locate the ``ordinal``-th match of ``model`` in ``source``.

    Used by the mutator: injection points store (spec, file, ordinal), and
    mutation re-parses the pristine file, so matches must be re-derived
    deterministically.
    """
    return pick_match(match_source(source, model), model.name, ordinal)


def scan_source(
    source: str, models: list[MetaModel], file: str = "<string>"
) -> list[InjectionPoint]:
    """Scan one source string with every meta-model."""
    return ScanEngine(models).scan_source(source, file=file)


def scan_file(
    path: str | Path,
    models: list[MetaModel] | None = None,
    root: str | Path | None = None,
    engine: ScanEngine | None = None,
    cache: ScanCache | None = None,
) -> ScanResult:
    """Scan one file; unreadable/unparseable files are recorded, not fatal."""
    path = Path(path)
    rel = _rel_name(path, root)
    result = ScanResult(files_scanned=1)
    try:
        source = path.read_text(encoding="utf-8", errors="replace")
    except OSError as exc:
        result.parse_errors[rel] = _os_error_text(exc)
        return result
    if engine is None:
        if models is None:
            raise ValueError("scan_file needs either models or an engine")
        engine = ScanEngine(models)
    if cache is not None:
        sha = source_digest(source)
        entry = cache.lookup(sha, engine.digest)
        if entry is not None:
            _apply_cache_entry(result, entry, rel)
            return result
    result = _scan_source_result(source, rel, engine)
    if cache is not None:
        cache.store(sha, engine.digest, _result_entry(result, rel))
    return result


def _rel_name(path: Path, root: str | Path | None) -> str:
    return str(path.relative_to(root)) if root else path.name


def _os_error_text(exc: OSError) -> str:
    reason = exc.strerror or type(exc).__name__
    return f"unreadable: {reason}"


def _scan_source_result(source: str, rel: str,
                        engine: ScanEngine) -> ScanResult:
    """Scan one source string into a per-file result (the single place
    the serial, parallel-parent, and worker paths all go through)."""
    result = ScanResult(files_scanned=1)
    try:
        rows = engine.scan_rows(source)
    except SyntaxError as exc:
        result.parse_errors[rel] = f"{exc.msg} (line {exc.lineno})"
    else:
        result.points = rows_to_points(rows, rel)
    return result


def _result_entry(result: ScanResult, rel: str) -> dict:
    """The cache entry describing one per-file result."""
    if rel in result.parse_errors:
        return {"matches": [], "error": result.parse_errors[rel]}
    return {
        "matches": [_point_row(point) for point in result.points],
        "error": None,
    }


def _apply_cache_entry(result: ScanResult, entry: dict, rel: str) -> None:
    error = entry.get("error")
    if error:
        result.parse_errors[rel] = error
    else:
        result.points = rows_to_points(entry.get("matches", []), rel)


# -- tree / file-list scanning --------------------------------------------------


def scan_tree(
    root: str | Path,
    specs: list[BugSpec],
    jobs: int = 1,
    cache: ScanCache | None = None,
    incremental: bool = True,
) -> ScanResult:
    """Scan every Python file under ``root`` with every spec.

    ``jobs > 1`` distributes files over warm worker processes.  Results are
    returned in deterministic file order regardless of parallelism.
    """
    root = Path(root)
    files = sorted(iter_python_files(root))
    scan_root = root if root.is_dir() else root.parent
    return scan_files(files, specs, root=scan_root, jobs=jobs, cache=cache,
                      incremental=incremental)


def scan_files(
    paths: list[Path],
    specs: list[BugSpec],
    root: str | Path | None = None,
    jobs: int = 1,
    cache: ScanCache | None = None,
    models: list[MetaModel] | None = None,
    incremental: bool = True,
) -> ScanResult:
    """Scan an explicit list of files with the indexed engine.

    Missing or unreadable files are recorded in ``parse_errors`` instead of
    aborting the scan (campaigns keep running on the files that exist).
    Pass pre-compiled ``models`` to skip recompilation on the serial path.
    With a cache, the scan is *incremental*: files whose ``(size,
    mtime_ns)`` match the root's stat manifest are trusted without being
    read, and an unchanged tree is served whole from one tree-manifest
    entry — a re-campaign over a tree with k changed files reads, hashes,
    and scans only those k files (``incremental=False`` keeps the per-file
    cache but always re-reads and re-hashes everything).
    """
    paths = [Path(path) for path in paths]
    if cache is not None:
        return _scan_files_cached(paths, specs, root, jobs, cache, models,
                                  incremental)
    if jobs <= 1 or len(paths) <= 1:
        engine = ScanEngine(models if models is not None
                            else [compile_spec(spec) for spec in specs])
        total = ScanResult()
        for path in paths:
            total.merge(scan_file(path, root=root, engine=engine))
        return total
    return _scan_files_parallel(paths, specs, root, jobs)


def _error_result(rel: str, exc: OSError) -> ScanResult:
    result = ScanResult(files_scanned=1)
    result.parse_errors[rel] = _os_error_text(exc)
    return result


def _scan_files_cached(
    paths: list[Path],
    specs: list[BugSpec],
    root: str | Path | None,
    jobs: int,
    cache: ScanCache,
    models: list[MetaModel] | None,
    incremental: bool,
) -> ScanResult:
    """The cached scan pipeline: stat -> tree manifest -> per-file -> scan.

    Phase 1 resolves every path to a content sha, reading only files the
    stat manifest cannot vouch for.  Phase 2 tries to serve the whole scan
    from one tree-manifest entry.  Phase 3 resolves per-file cache hits
    and lazily reads trusted-but-uncached files.  Phase 4 scans the
    remaining misses (serially on a warm engine, or fanned out over warm
    worker processes), shipping the exact source that was hashed so every
    stored entry describes the content behind its key even if the file
    changes mid-scan.
    """
    rels = {path: _rel_name(path, root) for path in paths}
    load_digest = faultload_digest(models if models is not None else specs)
    resolved: dict[Path, ScanResult] = {}
    #: Content by path; None = sha trusted from the manifest, not read yet.
    sources: dict[Path, str | None] = {}
    shas: dict[Path, str] = {}
    manifest = (cache.load_stat_manifest(root)
                if incremental and root is not None else {})
    new_manifest: dict[str, dict] = {}
    unreadable = False

    # Phase 1: content identity for every path, reading as little as
    # possible.  A manifest entry whose (size, mtime_ns) still match
    # vouches for the sha without a read.
    for path in paths:
        if path in sources:
            continue  # duplicate path in the list
        rel = rels[path]
        abs_key = os.path.abspath(str(path))
        try:
            stat = path.stat()
        except OSError as exc:
            resolved[path] = _error_result(rel, exc)
            unreadable = True
            continue
        known = manifest.get(abs_key)
        if (known is not None
                and known.get("size") == stat.st_size
                and known.get("mtime_ns") == stat.st_mtime_ns):
            cache.note_stat_hit()
            sources[path] = None
            shas[path] = known["sha"]
            new_manifest[abs_key] = known
            continue
        try:
            source = path.read_text(encoding="utf-8", errors="replace")
        except OSError as exc:
            resolved[path] = _error_result(rel, exc)
            unreadable = True
            continue
        cache.note_read()
        sha = source_digest(source)
        sources[path] = source
        shas[path] = sha
        try:
            after = path.stat()
        except OSError:
            continue
        if (after.st_size, after.st_mtime_ns) == (stat.st_size,
                                                  stat.st_mtime_ns):
            # Only vouch for content that provably did not change while
            # we were reading it.
            new_manifest[abs_key] = {"size": stat.st_size,
                                     "mtime_ns": stat.st_mtime_ns,
                                     "sha": sha}

    # Phase 2: one tree-manifest entry can serve the entire scan.  The
    # digest identifies the {rel: sha} map, so it is only meaningful when
    # every file hashed and no two distinct contents share a rel name.
    tree_key = None
    if incremental and not unreadable and shas:
        rel_to_sha: dict[str, str] = {}
        collision = False
        for path, sha in shas.items():
            rel = rels[path]
            if rel_to_sha.setdefault(rel, sha) != sha:
                collision = True
                break
        if not collision:
            tree_key = tree_digest_of(rel_to_sha)
            entry = cache.lookup_tree(tree_key, load_digest)
            if entry is not None and all(
                rels[path] in entry["files"] for path in paths
            ):
                cache.note_hits(len(paths))
                total = ScanResult()
                for path in paths:
                    result = ScanResult(files_scanned=1)
                    _apply_cache_entry(result, entry["files"][rels[path]],
                                       rels[path])
                    total.merge(result)
                if incremental and root is not None:
                    cache.save_stat_manifest(root, new_manifest)
                return total

    # Phase 3: per-file cache hits; trusted-but-uncached files are read
    # now (e.g. a new faultload over an unchanged tree).  A path whose
    # content is already queued for scanning is an *alias*: its lookup is
    # deferred until the scan stores the shared entry, so identical
    # contents are scanned once and still counted as a hit.
    misses: list[tuple[Path, str]] = []
    pending: set[str] = set()
    aliases: list[Path] = []
    for path in paths:
        if path in resolved:
            continue
        rel = rels[path]
        if shas[path] in pending:
            aliases.append(path)
            continue
        entry = cache.lookup(shas[path], load_digest)
        if entry is not None:
            result = ScanResult(files_scanned=1)
            _apply_cache_entry(result, entry, rel)
            resolved[path] = result
            continue
        source = sources[path]
        if source is None:
            try:
                source = path.read_text(encoding="utf-8", errors="replace")
            except OSError as exc:
                resolved[path] = _error_result(rel, exc)
                unreadable = True
                continue
            cache.note_read()
            actual = source_digest(source)
            if actual != shas[path]:
                # The manifest vouched for stale content: repair the sha
                # and stop trusting this round's tree digest.
                shas[path] = actual
                new_manifest.pop(os.path.abspath(str(path)), None)
                tree_key = None
            sources[path] = source
        pending.add(shas[path])
        misses.append((path, source))

    # Phase 4: scan the misses.
    if misses:
        if jobs > 1 and len(misses) > 1:
            flat = _scan_chunks(misses, specs, root, jobs)
        else:
            engine = ScanEngine(models if models is not None
                                else [compile_spec(spec) for spec in specs])
            flat = [_scan_source_result(source, rels[path], engine)
                    for path, source in misses]
        for (path, _source), result in zip(misses, flat):
            resolved[path] = result
            cache.store(shas[path], load_digest,
                        _result_entry(result, rels[path]))

    for path in aliases:
        rel = rels[path]
        entry = cache.lookup(shas[path], load_digest)
        result = ScanResult(files_scanned=1)
        if entry is not None:
            _apply_cache_entry(result, entry, rel)
        else:
            # The shared entry vanished (sha repaired mid-scan): scan the
            # alias itself rather than guessing.
            try:
                source = path.read_text(encoding="utf-8", errors="replace")
            except OSError as exc:
                resolved[path] = _error_result(rel, exc)
                unreadable = True
                continue
            cache.note_read()
            engine = ScanEngine(models if models is not None
                                else [compile_spec(spec) for spec in specs])
            result = _scan_source_result(source, rel, engine)
        resolved[path] = result

    total = ScanResult()
    for path in paths:
        total.merge(resolved[path])
    if incremental and root is not None:
        cache.save_stat_manifest(root, new_manifest)
    if tree_key is not None and not unreadable:
        cache.store_tree(tree_key, load_digest, {
            rels[path]: _result_entry(resolved[path], rels[path])
            for path in paths
        })
    return total


def _scan_files_parallel(
    paths: list[Path],
    specs: list[BugSpec],
    root: str | Path | None,
    jobs: int,
) -> ScanResult:
    """Fan files out over warm workers (no cache); merge in path order."""
    flat = _scan_chunks([(path, None) for path in paths], specs, root, jobs)
    total = ScanResult()
    for result in flat:
        total.merge(result)
    return total


def _scan_chunks(
    items: "list[tuple[Path, str | None]]",
    specs: list[BugSpec],
    root: str | Path | None,
    jobs: int,
) -> list[ScanResult]:
    """Dispatch ``(path, source-or-None)`` pairs over warm workers.

    Results come back in submission order; ``None`` sources are read by
    the worker.
    """
    chunk_size = max(1, -(-len(items) // (jobs * 4)))
    chunks = [items[i:i + chunk_size]
              for i in range(0, len(items), chunk_size)]
    flat: list[ScanResult] = []
    with ProcessPoolExecutor(
        max_workers=min(jobs, len(chunks)),
        initializer=_scan_worker_init,
        initargs=(specs,),
    ) as pool:
        futures = [
            pool.submit(_scan_chunk_task,
                        [(str(path), source) for path, source in chunk],
                        str(root) if root is not None else None)
            for chunk in chunks
        ]
        for future in futures:
            flat.extend(future.result())
    return flat


def _point_row(point: InjectionPoint) -> dict:
    return {
        "spec_name": point.spec_name,
        "ordinal": point.ordinal,
        "lineno": point.lineno,
        "end_lineno": point.end_lineno,
        "snippet": point.snippet,
    }


#: Per-process warm engine: specs are compiled once per worker instead of
#: once per file (the seed behavior, which dwarfed parse cost at 120 specs).
_WORKER_ENGINE: ScanEngine | None = None


def _scan_worker_init(specs: list[BugSpec]) -> None:
    global _WORKER_ENGINE
    _WORKER_ENGINE = ScanEngine([compile_spec(spec) for spec in specs])


def _scan_chunk_task(
    items: list[tuple[str, str | None]], root: str | None
) -> list[ScanResult]:
    assert _WORKER_ENGINE is not None, "worker initializer did not run"
    results = []
    for path, source in items:
        if source is None:
            results.append(scan_file(Path(path), root=root,
                                     engine=_WORKER_ENGINE))
        else:
            # The parent already read (and hashed) this content; scan
            # exactly it rather than re-reading a possibly-changed file.
            results.append(_scan_source_result(
                source, _rel_name(Path(path), root), _WORKER_ENGINE))
    return results
