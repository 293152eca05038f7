"""Coverage analysis: skip faults the workload never reaches (§IV-D).

Before executing experiments, ProFIPy runs the workload once against an
*instrumented* build in which every injection point carries a logging
probe and no fault.  Points whose probe never fires are dropped from the
plan — "injecting into non-covered paths causes a waste of time since the
fault would not cause any effect".

Each probe also records when it first fired, so the report carries
every covered point's *reach time*: seconds from just before the
services start to the first hit.  A fault cannot end round 1 before its
point is reached, so the reach time plus the fault-free rounds after it
(:meth:`CoverageReport.expected_seconds`) estimates how long the point's
experiment takes; a campaign with no recorded durations dispatches
longest-first from that estimate.

While the pre-run runs, :class:`ProbeTail` is a live view of its probe
file: the points reached so far, read from complete lines only.  A
campaign on the thread backend runs the pre-run in one pool slot and
starts experiments of points it has already reached in the others;
points never become uncovered once covered, and the view is closed
before the final read, so no point it shows is missing from the report.

The pre-run is content-addressed: its covered set and reach times are
stored in the campaign's :class:`~repro.scanner.cache.ScanCache` under
:func:`coverage_key`, a digest of the exact program and driver it
executes, so a re-campaign over an unchanged image starts no sandbox.
The same digest routine keys the per-point experiment durations that
order a re-campaign's dispatch (:func:`durations_key`).
"""

from __future__ import annotations

import hashlib
import json
import os
import sys
import threading
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable

from repro.dsl.metamodel import MetaModel
from repro.mutator.mutate import Mutator
from repro.mutator.runtime import COVERAGE_ENV
from repro.orchestrator.plan import Plan
from repro.orchestrator.stream import read_complete_lines
from repro.sandbox.image import SandboxImage
from repro.sandbox.sandbox import _INHERITED_ENV, Sandbox
from repro.scanner.cache import ScanCache
from repro.scanner.points import InjectionPoint
from repro.workload.runner import ServiceStartError, run_round, start_services
from repro.workload.spec import WorkloadSpec

COVERAGE_FILE = ".pfp_coverage"


@dataclass
class CoverageReport:
    """Which injection points the fault-free workload run reached."""

    covered: set[str] = field(default_factory=set)
    total: int = 0
    workload_failed: bool = False
    error: str = ""
    #: Seconds from just before the services started to each covered
    #: point's first probe hit (earliest over processes), and to the end
    #: of the workload round.  Timing, so never part of equality.
    reached: dict[str, float] = field(default_factory=dict, compare=False)
    seconds: float = field(default=0.0, compare=False)
    #: In-process only (never serialized): whether the covered set was
    #: served from the scan cache, and the key it is stored under.
    reused: bool = field(default=False, compare=False)
    key: str = field(default="", compare=False)

    @property
    def covered_count(self) -> int:
        return len(self.covered)

    @property
    def ratio(self) -> float:
        return self.covered_count / self.total if self.total else 0.0

    def expected_seconds(self, rounds: int) -> dict[str, float]:
        """Estimated experiment seconds per reached point: round 1 runs
        at least until the point is reached, and every later round runs
        fault-free."""
        return {point_id: offset + (rounds - 1) * self.seconds
                for point_id, offset in self.reached.items()}


class ProbeTail:
    """A live view of a running pre-run's probe file.

    Each probe line is ``point_id<TAB>time.time()``, one per point per
    process; :attr:`reached` keeps each known point's earliest stamp
    (``None`` for a line with no stamp).  :meth:`poll` reads only the
    complete lines appended since the last poll.  :meth:`close` reads
    the rest, an unterminated last line included, and ends the view:
    :func:`run_coverage` closes it before building its report, so every
    point a poll ever returned is covered by the report.
    """

    def __init__(self, path: Path, known: "set[str]") -> None:
        self.path = path
        self.reached: dict[str, float | None] = {}
        self._known = known
        self._offset = 0
        self._closed = False
        self._lock = threading.Lock()

    def poll(self) -> list[str]:
        """The point ids first seen since the last poll, in file order;
        none once the view is closed."""
        with self._lock:
            if self._closed:
                return []
            chunk = read_complete_lines(self.path, self._offset)
            self._offset += len(chunk)
            return self._absorb(chunk)

    def close(self) -> None:
        """Read what is left of the file and end the view."""
        with self._lock:
            if self._closed:
                return
            self._closed = True
            try:
                with open(self.path, "rb") as handle:
                    handle.seek(self._offset)
                    rest = handle.read()
            except OSError:
                rest = b""
            self._absorb(rest)

    def _absorb(self, chunk: bytes) -> list[str]:
        new = []
        for line in chunk.decode("utf-8", errors="replace").splitlines():
            point_id, _, stamp = line.strip().partition("\t")
            if point_id not in self._known:
                continue
            try:
                seconds = float(stamp)
            except ValueError:
                seconds = None  # an untimed probe line still covers
            if point_id not in self.reached:
                new.append(point_id)
                self.reached[point_id] = seconds
            elif seconds is not None:
                earlier = self.reached[point_id]
                self.reached[point_id] = (seconds if earlier is None
                                          else min(earlier, seconds))
        return new


def _run_key(image: SandboxImage, workload: WorkloadSpec,
             instrumented: "dict[str, str] | None" = None,
             **fields) -> str:
    """sha256 over an image run: the built image (runtime module and
    containerfile effects included) with each ``instrumented`` file in
    place of the pristine one, the workload, the interpreter, the host
    environment the sandbox inherits, and the extra ``fields``."""
    # Lazy: the service package imports orchestrator modules.
    from repro.service.blobs import ImageManifest, blob_digest

    manifest = ImageManifest.from_image(image)
    for rel_file, source in (instrumented or {}).items():
        data = source.encode("utf-8")
        manifest.entries[rel_file] = {
            **manifest.entries.get(rel_file, {}),
            "digest": blob_digest(data),
            "size": len(data),
        }
    canonical = json.dumps({
        **fields,
        "image": manifest.tree_digest,
        "workload": workload.to_dict(),
        "python": [sys.executable, sys.version],
        "env": {name: os.environ.get(name) for name in _INHERITED_ENV},
    }, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(canonical.encode("utf-8")).hexdigest()


def coverage_key(image: SandboxImage, instrumented: dict[str, str],
                 point_ids: "set[str]", workload: WorkloadSpec) -> str:
    """sha256 over everything the pre-run executes: the instrumented
    image, the instrumented point ids, the workload, the interpreter,
    and the inherited host environment."""
    return _run_key(image, workload, instrumented,
                    points=sorted(point_ids))


def durations_key(image: SandboxImage, workload: WorkloadSpec,
                  rounds: int, trigger: bool) -> str:
    """sha256 over what decides how long an experiment takes: the
    pristine image, the workload, the round count, the trigger, the
    interpreter, and the inherited host environment.  The campaign seed
    is left out: it does not make a point fast or slow."""
    return _run_key(image, workload, rounds=rounds, trigger=trigger)


def run_coverage(
    image: SandboxImage,
    workload: WorkloadSpec,
    points: list[InjectionPoint],
    models: dict[str, MetaModel],
    base_dir: str | Path,
    name: str = "coverage",
    cache: ScanCache | None = None,
    *,
    on_services_started: Callable[[ProbeTail], None] | None = None,
) -> CoverageReport:
    """Instrument every point, run the workload once, read the probes.

    With a ``cache``, a covered set and reach times stored under the
    same :func:`coverage_key` are returned without starting a sandbox; a
    fresh run is stored only when the workload started and passed.
    ``on_services_started`` is called once ``start_services`` has
    returned, with the live :class:`ProbeTail` of the probe file (its
    ``path`` is the file); it is never called for a reused report or a
    run whose services failed to start.
    """
    report = CoverageReport(total=len(points))
    if not points:
        return report
    by_file: dict[str, list[InjectionPoint]] = {}
    for point in points:
        by_file.setdefault(point.file, []).append(point)

    # The mutator's memo shares one parse + one matcher run per
    # (file, spec) across every point in the file.
    mutator = Mutator(trigger=False)
    instrumented: dict[str, str] = {}
    for rel_file, file_points in by_file.items():
        source = image.read_file(rel_file)
        targets = [
            (models[point.spec_name], point.ordinal, point.point_id)
            for point in file_points
        ]
        instrumented[rel_file] = mutator.instrument_source(
            source, targets, file=rel_file
        )
    known = {point.point_id for point in points}
    if cache is not None:
        report.key = coverage_key(image, instrumented, known, workload)
        entry = cache.lookup_coverage(report.key)
        if entry is not None:
            report.covered = set(entry["covered"]) & known
            report.reached = {point_id: offset for point_id, offset
                              in entry["reached"].items()
                              if point_id in report.covered}
            report.seconds = entry["seconds"]
            report.reused = True
            return report

    with Sandbox.create(image, base_dir, name) as sandbox:
        probes = ProbeTail(sandbox.path(COVERAGE_FILE), known)
        sandbox.env[COVERAGE_ENV] = str(probes.path)
        for rel_file, source in instrumented.items():
            sandbox.write_file(rel_file, source)
        origin = time.time()
        try:
            start_services(sandbox, workload)
        except ServiceStartError as error:
            report.error = str(error)
            return report
        if on_services_started is not None:
            on_services_started(probes)
        round_result = run_round(sandbox, workload, 1, fault_enabled=False)
        report.seconds = time.time() - origin
        report.workload_failed = round_result.failed
        probes.close()
    for point_id, stamp in probes.reached.items():
        report.covered.add(point_id)
        if stamp is not None:
            report.reached[point_id] = max(0.0, stamp - origin)
    if cache is not None and not report.workload_failed:
        cache.store_coverage(report.key, report.covered, report.reached,
                             report.seconds)
    return report


def reduce_plan(plan: Plan, report: CoverageReport) -> Plan:
    """Keep only covered injection points (the reduced plan of §IV-D)."""
    return plan.restrict_to(report.covered)
