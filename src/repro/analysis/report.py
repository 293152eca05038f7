"""Human-readable campaign reports (the Data Analysis box of Fig. 2)."""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.analysis.classify import ClassificationRule, Distribution
from repro.analysis.metrics import (
    AvailabilityReport,
    ComponentSpec,
    LoggingReport,
    PropagationReport,
    failure_logging,
    failure_propagation,
    service_availability,
)
from repro.orchestrator.campaign import CampaignResult


def format_table(headers: list[str], rows: list[list[str]]) -> str:
    """Render an aligned text table."""
    widths = [len(header) for header in headers]
    for row in rows:
        for index, cell in enumerate(row):
            widths[index] = max(widths[index], len(cell))
    lines = [
        "  ".join(header.ljust(widths[i]) for i, header in enumerate(headers)),
        "  ".join("-" * widths[i] for i in range(len(headers))),
    ]
    for row in rows:
        lines.append(
            "  ".join(cell.ljust(widths[i]) for i, cell in enumerate(row))
        )
    return "\n".join(lines)


def percent(numerator: int, denominator: int) -> str:
    if denominator == 0:
        return "n/a"
    return f"{100.0 * numerator / denominator:.0f}%"


@dataclass
class CampaignReport:
    """Aggregated analysis of one campaign's results."""

    result: CampaignResult
    rules: list[ClassificationRule] = field(default_factory=list)
    components: list[ComponentSpec] = field(default_factory=list)
    distribution: Distribution = field(init=False)
    availability: AvailabilityReport = field(init=False)
    logging: LoggingReport = field(init=False)
    propagation: PropagationReport | None = field(init=False, default=None)

    def __post_init__(self) -> None:
        self.distribution = Distribution.build(self.result.experiments,
                                               self.rules)
        self.availability = service_availability(self.result.experiments)
        self.logging = failure_logging(self.result.experiments)
        if self.components:
            self.propagation = failure_propagation(
                self.result.experiments, self.components
            )

    # -- rendering ---------------------------------------------------------------

    def render(self) -> str:
        sections = [
            self._render_headline(),
            self._render_distribution(),
            self._render_by_spec(),
            self._render_metrics(),
            self._render_estimates(),
        ]
        return "\n\n".join(section for section in sections if section)

    def inspect(self, mode: str, max_output: int = 400) -> str:
        """Drill into one failure class: per-experiment logs (§IV-C).

        "The user can drill-down the individual classes of failures, to
        further inspect logs of experiments in that class."
        """
        ids = set(self.distribution.experiments_in_mode(mode))
        if not ids:
            return f"(no experiments classified as {mode!r})"
        sections = []
        for experiment in self.result.experiments:
            if experiment.experiment_id not in ids:
                continue
            round1 = experiment.round(1)
            output = (round1.output if round1 else "").strip()
            if len(output) > max_output:
                output = "..." + output[-max_output:]
            lines = [
                f"--- {experiment.experiment_id} "
                f"[{experiment.spec_name}] ---",
                f"injected : {experiment.original_snippet.splitlines()[0]}"
                if experiment.original_snippet else "injected : <unknown>",
                f"became   : {experiment.mutated_snippet.splitlines()[0]}"
                if experiment.mutated_snippet else "became   : <removed>",
                f"round 2  : "
                f"{'failed' if experiment.failed_round2 else 'recovered'}",
                "output   :",
                output or "  (no output captured)",
            ]
            sections.append("\n".join(lines))
        return "\n\n".join(sections)

    def _render_headline(self) -> str:
        result = self.result
        covered = (str(result.coverage.covered_count)
                   if result.coverage else "n/a")
        rows = [[
            result.name,
            str(result.points_found),
            covered,
            str(result.executed),
            str(len(result.failures)),
        ]]
        return "== Campaign summary ==\n" + format_table(
            ["campaign", "points", "covered", "experiments", "failures"],
            rows,
        )

    def _render_distribution(self) -> str:
        counts = self.distribution.counts()
        if not counts:
            return ""
        total = self.distribution.total
        rows = [
            [mode, str(count), percent(count, total)]
            for mode, count in counts.items()
        ]
        return "== Failure mode distribution ==\n" + format_table(
            ["failure mode", "count", "share"], rows
        )

    def _render_by_spec(self) -> str:
        table = self.distribution.by_spec()
        if not table:
            return ""
        modes = sorted({mode for row in table.values() for mode in row})
        rows = [
            [spec] + [str(row.get(mode, 0)) for mode in modes]
            for spec, row in sorted(table.items())
        ]
        return "== Drill-down by fault type ==\n" + format_table(
            ["fault type"] + modes, rows
        )

    def _render_metrics(self) -> str:
        availability = self.availability
        logging_report = self.logging
        lines = [
            "== Metrics ==",
            (f"service availability (round 2): "
             f"{availability.available}/{availability.total} "
             f"({percent(availability.available, availability.total)})"),
            (f"failure logging: {logging_report.logged}/"
             f"{logging_report.failures} failures logged "
             f"({percent(logging_report.logged, logging_report.failures)})"),
        ]
        result = self.result
        fresh = result.executed - result.resumed
        if result.execution_seconds > 0 and fresh > 0:
            rate = fresh / result.execution_seconds
            # The execution phase spans the coverage pre-run, which
            # experiments may run beside.
            prerun = (", coverage pre-run included"
                      if result.coverage is not None else "")
            lines.append(
                f"execution throughput: {rate:.2f} experiments/s "
                f"({fresh} experiments in {result.execution_seconds:.1f} s"
                f"{prerun})"
            )
        if result.resumed:
            lines.append(
                f"resumed: {result.resumed} experiments replayed from the "
                "result stream (not re-executed)"
            )
        if self.propagation is not None:
            propagation = self.propagation
            lines.append(
                f"failure propagation: {propagation.propagated}/"
                f"{propagation.analyzed} faults affected >1 component "
                f"({percent(propagation.propagated, propagation.analyzed)})"
            )
        return "\n".join(lines)

    def _render_estimates(self) -> str:
        """Per-mode Wilson estimates when a sampling policy was active.

        Empty-denominator ratios elsewhere render as ``n/a`` (via
        :func:`percent`); this section only appears once the campaign
        actually observed experiments under a statistical policy.
        """
        result = self.result
        block = result.stopped_early or result.mode_estimates
        if not block or not block.get("modes"):
            return ""
        confidence = block.get("confidence", 0.95)
        rows = [
            [mode, str(row["count"]), f"{row['proportion']:.3f}",
             f"[{row['low']:.3f}, {row['high']:.3f}]",
             f"{row['margin']:.3f}"]
            for mode, row in sorted(block["modes"].items())
        ]
        lines = [
            (f"== Failure mode estimates (n={block.get('experiments', 0)}, "
             f"{100.0 * confidence:.0f}% Wilson intervals) =="),
            format_table(
                ["failure mode", "count", "estimate", "interval", "margin"],
                rows,
            ),
        ]
        if result.stopped_early is not None:
            lines.append(
                f"stopped early: {result.stopped_early.get('reason')}")
        return "\n".join(lines)


def summary_table(reports: list[CampaignReport]) -> str:
    """The §V cross-campaign table: points / covered / failures per row."""
    rows = []
    for report in reports:
        result = report.result
        covered = (str(result.coverage.covered_count)
                   if result.coverage else "n/a")
        rows.append([
            result.name,
            str(result.points_found),
            covered,
            str(result.executed),
            str(len(result.failures)),
            percent(report.availability.available,
                    report.availability.total),
        ])
    return format_table(
        ["campaign", "points", "covered", "experiments", "failures",
         "available r2"],
        rows,
    )
