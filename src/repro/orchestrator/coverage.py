"""Coverage analysis: skip faults the workload never reaches (§IV-D).

Before executing experiments, ProFIPy runs the workload once against an
*instrumented* build in which every injection point carries a logging
probe and no fault.  Points whose probe never fires are dropped from the
plan — "injecting into non-covered paths causes a waste of time since the
fault would not cause any effect".
"""

from __future__ import annotations

from dataclasses import dataclass, field
from pathlib import Path

from repro.dsl.metamodel import MetaModel
from repro.mutator.mutate import Mutator
from repro.mutator.runtime import COVERAGE_ENV
from repro.orchestrator.plan import Plan
from repro.sandbox.image import SandboxImage
from repro.sandbox.sandbox import Sandbox
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

    @property
    def covered_count(self) -> int:
        return len(self.covered)

    @property
    def ratio(self) -> float:
        return self.covered_count / self.total if self.total else 0.0


def run_coverage(
    image: SandboxImage,
    workload: WorkloadSpec,
    points: list[InjectionPoint],
    models: dict[str, MetaModel],
    base_dir: str | Path,
    name: str = "coverage",
) -> CoverageReport:
    """Instrument every point, run the workload once, read the probes."""
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

    with Sandbox.create(image, base_dir, name) as sandbox:
        coverage_path = sandbox.path(COVERAGE_FILE)
        sandbox.env[COVERAGE_ENV] = str(coverage_path)
        for rel_file, source in instrumented.items():
            sandbox.write_file(rel_file, source)
        try:
            start_services(sandbox, workload)
        except ServiceStartError as error:
            report.error = str(error)
            return report
        round_result = run_round(sandbox, workload, 1, fault_enabled=False)
        report.workload_failed = round_result.failed
        try:
            content = coverage_path.read_text(encoding="utf-8")
        except OSError:
            content = ""
    known = {point.point_id for point in points}
    report.covered = {
        line.strip() for line in content.splitlines() if line.strip()
    } & known
    return report


def reduce_plan(plan: Plan, report: CoverageReport) -> Plan:
    """Keep only covered injection points (the reduced plan of §IV-D)."""
    return plan.restrict_to(report.covered)
