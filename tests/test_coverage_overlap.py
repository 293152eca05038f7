"""The coverage pre-run overlapped with execution (thread backend).

The fault-free pre-run (§IV-D) is the first job of the campaign's
experiment pool, so it holds one of the ``parallelism`` slots.  Each
other slot that frees starts a pending experiment as soon as the
pre-run's probe file shows its point reached, once the pre-run's
services are up.  This applies only when reaching a point decides that
it belongs to the plan: no sample, no ``sampling.max_experiments`` and
no stopping rule.  The report still reduces, samples and orders the
plan as before; the rest go through the grouped producer, and nothing
is handed out twice.
"""

import json
import textwrap
import threading
import time

import pytest
from chaos import stream_projection

import repro.orchestrator.campaign as campaign_module
from repro.dsl.parser import parse_spec
from repro.faultmodel.model import FaultModel
from repro.orchestrator.backends import _PreRunSlot
from repro.orchestrator.campaign import (
    Campaign,
    CampaignCancelled,
    CampaignConfig,
)
from repro.orchestrator.coverage import ProbeTail
from repro.orchestrator.executor import ExperimentExecutor
from repro.orchestrator.stream import ExperimentStream
from repro.stats.config import SamplingConfig
from repro.workload.spec import WorkloadSpec

pytestmark = pytest.mark.integration

RETURN_SPEC = """
change {
    $BLOCK{tag=pre; stmts=1,*}
    return $EXPR#v
} into {
    $BLOCK{tag=pre}
    return -1
}
"""

#: Seconds the workload sleeps before calling each next module.
REACH_GAP = 0.3

#: The points the workload reaches, in reach order, ``REACH_GAP`` apart.
REACH_ORDER = [f"R1:r_{index}.py:0" for index in range(4)]

#: A point of a module the workload never calls.
NEVER = "R1:never.py:0"


@pytest.fixture
def reach_project(tmp_path):
    """Four one-return modules the workload calls ``REACH_GAP`` apart
    (a fault in module *i* fails the run that late), plus one it never
    calls."""
    root = tmp_path / "target"
    root.mkdir()
    for index in range(len(REACH_ORDER)):
        (root / f"r_{index}.py").write_text(
            f"def value():\n    result = {index}\n    return result\n")
    (root / "never.py").write_text(
        "def value():\n    result = -5\n    return result\n")
    (root / "run.py").write_text(textwrap.dedent(
        f"""
        import importlib
        import sys
        import time

        for index in range({len(REACH_ORDER)}):
            if index:
                time.sleep({REACH_GAP})
            if importlib.import_module(f"r_{{index}}").value() != index:
                sys.exit(1)
        print("WORKLOAD SUCCESS")
        """
    ).strip() + "\n")
    return root


def reach_config(project, tmp_path, label, cache="cache", **overrides):
    model = FaultModel(name="returns")
    model.add(parse_spec(RETURN_SPEC, name="R1"), description="r1")
    settings = dict(
        name="overlap",
        target_dir=project,
        fault_model=model,
        workload=WorkloadSpec(commands=["{python} run.py"],
                              command_timeout=30.0),
        injectable_files=[f"r_{index}.py"
                          for index in range(len(REACH_ORDER))]
        + ["never.py"],
        rounds=1,
        parallelism=2,
        seed=5,
        scan_cache_dir=tmp_path / cache,
        workspace=tmp_path / label,
    )
    settings.update(overrides)
    return CampaignConfig(**settings)


class Timeline:
    """When experiments started, which points the probe view returned,
    and when the pre-run's report was in."""

    def __init__(self):
        self.lock = threading.Lock()
        self.started: list[tuple[str, float]] = []
        self.polled: list[tuple[str, float]] = []
        self.report_at: float | None = None

    def started_points(self):
        return [point for point, _ in self.started]

    def early(self):
        """Points whose experiment started before the report."""
        return [point for point, at in self.started if at < self.report_at]

    def first_polled(self, point):
        return min(at for polled, at in self.polled if polled == point)


@pytest.fixture
def timeline(monkeypatch):
    timeline = Timeline()
    run = ExperimentExecutor.run
    poll = ProbeTail.poll
    run_coverage = campaign_module.run_coverage

    def recording_run(self, planned, *args, **kwargs):
        with timeline.lock:
            timeline.started.append((planned.point.point_id,
                                     time.monotonic()))
        return run(self, planned, *args, **kwargs)

    def recording_poll(self):
        new = poll(self)
        now = time.monotonic()
        with timeline.lock:
            timeline.polled.extend((point, now) for point in new)
        return new

    def timed_run_coverage(*args, **kwargs):
        report = run_coverage(*args, **kwargs)
        timeline.report_at = time.monotonic()
        return report

    monkeypatch.setattr(ExperimentExecutor, "run", recording_run)
    monkeypatch.setattr(ProbeTail, "poll", recording_poll)
    monkeypatch.setattr(campaign_module, "run_coverage", timed_run_coverage)
    return timeline


def run(config, **kwargs):
    lines = []
    result = Campaign(config).run(progress=lines.append, **kwargs)
    return result, lines


def overlap_lines(lines):
    return [line for line in lines if "started while it ran" in line]


class TestAdmission:
    def test_reached_points_start_before_the_report(
            self, reach_project, tmp_path, timeline):
        result, lines = run(reach_config(reach_project, tmp_path, "first"))
        early = timeline.early()
        assert early, timeline.started
        # Each early experiment started after a poll of the probe file
        # showed its point reached.
        for point, at in timeline.started:
            if point in early:
                assert timeline.first_polled(point) <= at
        assert set(early) <= result.coverage.covered
        assert overlap_lines(lines) == [
            f"[overlap] coverage pre-run: {len(early)} experiments "
            "started while it ran"]
        # Nothing ran twice, and every covered point ran.
        assert sorted(timeline.started_points()) == sorted(REACH_ORDER)
        assert sorted(e.fault_id for e in result.experiments) == \
            sorted(REACH_ORDER)

    def test_unreached_point_never_starts(self, reach_project, tmp_path,
                                          timeline):
        result, _ = run(reach_config(reach_project, tmp_path, "first"))
        assert NEVER not in result.coverage.covered
        assert NEVER not in timeline.started_points()
        assert NEVER not in {e.fault_id for e in result.experiments}
        assert result.points_found == len(REACH_ORDER) + 1
        assert result.points_planned == len(REACH_ORDER)

    def test_projection_equals_a_one_slot_run(self, reach_project,
                                              tmp_path, timeline):
        overlapped, lines = run(reach_config(reach_project, tmp_path,
                                             "overlapped"))
        assert timeline.early()
        serial, serial_lines = run(reach_config(
            reach_project, tmp_path, "serial", cache="serial-cache",
            parallelism=1))
        assert overlap_lines(serial_lines) == []
        assert stream_projection(overlapped.experiments_path) == \
            stream_projection(serial.experiments_path)
        # The same lines, in the same order, apart from the new one.
        assert [line for line in lines
                if line not in overlap_lines(lines)] == serial_lines

    def test_first_snapshot_comes_at_the_report(self, reach_project,
                                                tmp_path, timeline):
        snapshots = []

        def on_progress(snapshot):
            snapshots.append((time.monotonic(), snapshot))

        run(reach_config(reach_project, tmp_path, "first"),
            on_progress=on_progress)
        assert timeline.early()
        first_at, first = snapshots[0]
        assert first_at >= timeline.report_at
        assert first["experiments_total"] == len(REACH_ORDER)
        finished_early = first["experiments_done"]
        dones = [snapshot["experiments_done"] for _, snapshot in snapshots]
        assert dones == sorted(dones)
        assert dones[-1] == len(REACH_ORDER)
        assert 0 <= finished_early <= len(timeline.early())


class TestNothingEarly:
    def test_failed_services_start_nothing(self, reach_project, tmp_path,
                                           timeline):
        config = reach_config(reach_project, tmp_path, "first")
        config.workload = WorkloadSpec(
            service_commands=['{python} -c "import sys; sys.exit(3)"'],
            commands=["{python} run.py"], command_timeout=30.0)
        with pytest.raises(RuntimeError, match="coverage pre-run failed"):
            run(config)
        assert timeline.started == []

    @pytest.mark.parametrize("overrides", [
        {"sample": len(REACH_ORDER)},
        {"sampling": SamplingConfig(max_experiments=len(REACH_ORDER))},
        # A margin no 4-experiment campaign reaches: the rule is active
        # but never stops the run.
        {"sampling": SamplingConfig(margin=0.01)},
    ], ids=["sample", "max-experiments", "stopping-rule"])
    def test_sampled_or_ruled_campaign_starts_nothing_early(
            self, overrides, reach_project, tmp_path, timeline):
        result, lines = run(reach_config(reach_project, tmp_path, "first",
                                         **overrides))
        assert result.executed == len(REACH_ORDER)
        assert timeline.early() == []
        assert overlap_lines(lines) == []

    def test_resumed_stream_reruns_nothing_recorded(
            self, reach_project, tmp_path, timeline):
        first, _ = run(reach_config(reach_project, tmp_path, "ws"))
        path = first.experiments_path
        # Keep the meta line and the first two records.
        kept, dropped = [], []
        for line in path.read_text().splitlines():
            entry = json.loads(line)
            if "meta" in entry or len(kept) < 3:
                kept.append(line)
            else:
                dropped.append(entry["fault_id"])
        assert "meta" in json.loads(kept[0])
        path.write_text("\n".join(kept) + "\n")
        recorded = ExperimentStream(path).recorded_ids()
        assert len(recorded) == 2
        del timeline.started[:]

        # A fresh cache: the pre-run runs again and overlaps.
        result, lines = run(reach_config(reach_project, tmp_path, "ws",
                                         cache="cold-cache"))
        assert not result.coverage.reused
        assert sorted(timeline.started_points()) == sorted(dropped)
        assert result.resumed == 2
        assert result.executed == len(REACH_ORDER)
        assert "[overlap] resuming: 2 experiments already recorded in the " \
            "stream" in lines

    def test_cancel_during_the_prerun_stops_hand_outs(
            self, reach_project, tmp_path, timeline, monkeypatch):
        cancelled = threading.Event()
        services_started = _PreRunSlot._services_started

        def cancel_at_services_start(self, probes):
            cancelled.set()
            services_started(self, probes)

        monkeypatch.setattr(_PreRunSlot, "_services_started",
                            cancel_at_services_start)
        lines = []
        with pytest.raises(CampaignCancelled) as caught:
            Campaign(reach_config(reach_project, tmp_path, "first")).run(
                progress=lines.append, cancel=cancelled.is_set)
        assert timeline.started == []
        partial = caught.value.result
        assert partial.executed == 0
        assert partial.coverage.covered == set(REACH_ORDER)
        assert lines[-1] == "[overlap] cancelled after 0 recorded experiments"

    def test_raising_prerun_propagates_after_the_drain(
            self, reach_project, tmp_path, timeline, monkeypatch):
        run_coverage = campaign_module.run_coverage

        def broken(*args, **kwargs):
            run_coverage(*args, **kwargs)
            raise OSError("pre-run broke")

        monkeypatch.setattr(campaign_module, "run_coverage", broken)
        config = reach_config(reach_project, tmp_path, "first")
        with pytest.raises(OSError, match="pre-run broke"):
            run(config)
        started = timeline.started_points()
        assert started
        # Every experiment that started drained and was recorded.
        recorded = ExperimentStream(
            tmp_path / "first" / "experiments.jsonl").load()
        assert sorted(e.fault_id for e in recorded) == sorted(started)
