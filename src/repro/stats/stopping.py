"""Sequential stopping rules evaluated through the cancel hook plumbing.

A :class:`StoppingMonitor` wraps a :class:`StoppingRule` and exposes a
zero-argument ``check()`` with cooperative-cancel semantics: the
campaign combines it with the user's cancel callback, so every backend
(thread, process, remote) already polls it between experiments and
drains in-flight work when it trips — no backend changes needed.

The monitor observes results by incrementally tailing the canonical
``experiments.jsonl`` plus any sibling ``experiments-<N>.jsonl`` shard
streams (the process and remote backends mirror their workers' streams
to those paths), deduplicating by experiment id.  Reads are incremental
byte tails, so polling stays cheap on large streams.
"""

from __future__ import annotations

from pathlib import Path
from typing import TYPE_CHECKING, Iterable, Protocol, runtime_checkable

from repro.stats.estimate import StreamingEstimator

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.analysis.classify import ClassificationRule
    from repro.stats.config import SamplingConfig

__all__ = [
    "AnyOf",
    "MarginBelow",
    "MaxExperiments",
    "MinSampleFloor",
    "StoppingMonitor",
    "StoppingRule",
    "rule_from_sampling",
]


@runtime_checkable
class StoppingRule(Protocol):
    """Decides whether enough evidence has accumulated to stop."""

    def should_stop(self, estimator: StreamingEstimator) -> str | None:
        """A human-readable reason to stop now, or None to continue."""


class MarginBelow:
    """Stop once every tracked mode's Wilson margin is below epsilon.

    ``modes=None`` tracks every mode observed so far (and requires at
    least one observation — zero evidence never satisfies a margin).
    """

    def __init__(self, margin: float,
                 modes: Iterable[str] | None = None) -> None:
        if not 0.0 < margin < 1.0:
            raise ValueError(f"margin must be in (0, 1), got {margin}")
        self.margin = margin
        self.modes = sorted(modes) if modes is not None else None

    def should_stop(self, estimator: StreamingEstimator) -> str | None:
        if estimator.n == 0:
            return None
        estimates = estimator.estimates(self.modes)
        if not estimates:
            return None
        worst = max(estimates.values(), key=lambda e: e.margin)
        if worst.margin < self.margin:
            return (f"all tracked margins below {self.margin:g} "
                    f"at n={estimator.n} "
                    f"(worst: {worst.mode} +/-{worst.margin:.4f})")
        return None


class MaxExperiments:
    """Stop once the sample size reaches a hard budget."""

    def __init__(self, limit: int) -> None:
        if limit < 1:
            raise ValueError(f"limit must be >= 1, got {limit}")
        self.limit = limit

    def should_stop(self, estimator: StreamingEstimator) -> str | None:
        if estimator.n >= self.limit:
            return f"experiment budget reached (n={estimator.n})"
        return None


class MinSampleFloor:
    """Gate another rule: never stop before ``floor`` observations."""

    def __init__(self, floor: int, rule: StoppingRule) -> None:
        if floor < 0:
            raise ValueError(f"floor must be >= 0, got {floor}")
        self.floor = floor
        self.rule = rule

    def should_stop(self, estimator: StreamingEstimator) -> str | None:
        if estimator.n < self.floor:
            return None
        return self.rule.should_stop(estimator)


class AnyOf:
    """First rule with an opinion wins."""

    def __init__(self, rules: Iterable[StoppingRule]) -> None:
        self.rules = list(rules)

    def should_stop(self, estimator: StreamingEstimator) -> str | None:
        for rule in self.rules:
            reason = rule.should_stop(estimator)
            if reason is not None:
                return reason
        return None


def rule_from_sampling(config: "SamplingConfig") -> StoppingRule | None:
    """The stopping rule a ``SamplingConfig`` implies, if any.

    Only the margin criterion becomes a runtime rule —
    ``max_experiments`` is enforced up front by truncating the plan to
    the seeded sample, which keeps completed-sample runs indistinguish-
    able from any other completed campaign.
    """
    if config.margin is None:
        return None
    rule: StoppingRule = MarginBelow(config.margin, modes=config.modes)
    if config.min_experiments > 0:
        rule = MinSampleFloor(config.min_experiments, rule)
    return rule


class StoppingMonitor:
    """Evaluates a stopping rule against a campaign's live streams.

    ``check()`` is the cancel-style hook: it ingests newly appended
    stream bytes, asks the rule, and latches True once tripped (backends
    may poll it concurrently; a latched stop never un-trips).
    """

    def __init__(self, stream_path: Path | str, rule: StoppingRule,
                 confidence: float = 0.95,
                 rules: Iterable["ClassificationRule"] | None = None,
                 ) -> None:
        self.stream_path = Path(stream_path)
        self.rule = rule
        self.classification_rules = list(rules) if rules is not None else None
        self.estimator = StreamingEstimator(confidence)
        self.stopped = False
        self.reason: str | None = None
        self._offsets: dict[Path, int] = {}

    def check(self) -> bool:
        """Cancel-hook: True once the rule has fired (latched)."""
        if self.stopped:
            return True
        self.ingest()
        reason = self.rule.should_stop(self.estimator)
        if reason is not None:
            self.stopped = True
            self.reason = reason
        return self.stopped

    def ingest(self) -> int:
        """Pull new records from the canonical + shard streams.

        Returns how many new experiments were observed.
        """
        from repro.orchestrator.backends import leftover_shard_streams

        paths = [self.stream_path]
        if self.stream_path.parent.is_dir():
            paths.extend(leftover_shard_streams(self.stream_path))
        observed = 0
        for path in paths:
            observed += self._ingest_file(path)
        return observed

    def _ingest_file(self, path: Path) -> int:
        from repro.orchestrator.experiment import ExperimentResult
        from repro.orchestrator.stream import (
            parse_stream_lines,
            read_complete_lines,
        )

        # Only consume complete lines; a partially-flushed record stays
        # buffered in the file until the trailing newline lands.
        offset = self._offsets.get(path, 0)
        try:
            chunk = read_complete_lines(path, offset)
        except OSError:
            return 0  # unreadable for now: retried on the next poll
        if not chunk:
            return 0
        self._offsets[path] = offset + len(chunk)
        text = chunk.decode("utf-8", errors="replace")
        observed = 0
        for entry in parse_stream_lines(text.splitlines()):
            if "meta" in entry:
                continue
            try:
                result = ExperimentResult.from_dict(entry)
            except (KeyError, TypeError, ValueError):
                continue
            if self.estimator.observe_result(
                    result, rules=self.classification_rules):
                observed += 1
        return observed

    def summary_block(self, final_ingest: bool = True) -> dict:
        """The ``stopped_early`` summary block for the campaign result."""
        if final_ingest:
            self.ingest()
        block = self.estimator.summary()
        block["reason"] = self.reason
        return block
