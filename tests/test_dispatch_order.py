"""Longest-expected-first dispatch from durations recorded in the scan
cache, or from the coverage pre-run's reach times.

After execution a campaign with a ``scan_cache_dir`` stores each
injection point's experiment duration under ``durations_key`` — a digest
of the pristine image, the workload, the rounds, the trigger, the
interpreter and the inherited environment.  A re-campaign on the same
cache generates its ``(file, spec)`` groups slowest first, so a slow
experiment no longer starts last.  A campaign with no recorded durations
but a coverage pre-run estimates each experiment from when the pre-run
first reached its point.  Dispatch order never changes results.
"""

import json
import textwrap
from collections import Counter

import pytest
from chaos import stream_projection, worker_shard_streams

from repro.dsl.parser import parse_spec
from repro.faultmodel.model import FaultModel
from repro.orchestrator.campaign import Campaign, CampaignConfig
from repro.orchestrator.coverage import CoverageReport
from repro.orchestrator.executor import ExperimentExecutor
from repro.orchestrator.experiment import (
    STATUS_COMPLETED,
    STATUS_HARNESS_ERROR,
    ExperimentResult,
)
from repro.orchestrator.plan import PlannedExperiment, shard_index
from repro.orchestrator.stream import ExperimentStream
from repro.sandbox.image import SandboxImage
from repro.scanner.cache import DURATIONS_FORMAT_VERSION, ScanCache
from repro.scanner.points import InjectionPoint
from repro.service.jobs import COMPLETED
from repro.service.service import ProFIPyService
from repro.stats.config import SamplingConfig
from repro.workload.spec import WorkloadSpec

pytestmark = pytest.mark.integration

#: Two returns per module, so each (file, spec) group has two members.
MODULE = textwrap.dedent(
    """
    def first(x):
        y = x + 1
        return y


    def second(x):
        y = x * 2
        return y
    """
).strip() + "\n"

RETURN_SPEC = """
change {
    $BLOCK{tag=pre; stmts=1,*}
    return $EXPR#v
} into {
    $BLOCK{tag=pre}
    return -1
}
"""

#: Base (file, spec, ordinal) order of the 8 points.
BASE_ORDER = [
    f"{spec}:{file}:{ordinal}"
    for file in ("a.py", "b.py")
    for spec in ("R1", "R2")
    for ordinal in (0, 1)
]


@pytest.fixture
def project(tmp_path):
    root = tmp_path / "target"
    root.mkdir()
    (root / "a.py").write_text(MODULE)
    (root / "b.py").write_text(MODULE)
    (root / "run.py").write_text("print('WORKLOAD SUCCESS')\n")
    return root


@pytest.fixture
def model():
    model = FaultModel(name="returns")
    model.add(parse_spec(RETURN_SPEC, name="R1"), description="r1")
    model.add(parse_spec(RETURN_SPEC, name="R2"), description="r2")
    return model


@pytest.fixture
def started(monkeypatch):
    """Point ids in the order experiments start in this process."""
    order = []
    run = ExperimentExecutor.run

    def recording(self, planned, *args, **kwargs):
        order.append(planned.point.point_id)
        return run(self, planned, *args, **kwargs)

    monkeypatch.setattr(ExperimentExecutor, "run", recording)
    return order


def make_config(project, model, tmp_path, label, cache="cache",
                **overrides):
    settings = dict(
        name="order",
        target_dir=project,
        fault_model=model,
        workload=WorkloadSpec(commands=["{python} run.py"],
                              command_timeout=30.0),
        injectable_files=["a.py", "b.py"],
        coverage=False,
        rounds=1,
        parallelism=1,
        seed=5,
        scan_cache_dir=tmp_path / cache if cache else None,
        workspace=tmp_path / label,
    )
    settings.update(overrides)
    return CampaignConfig(**settings)


def run(config):
    lines = []
    campaign = Campaign(config)
    result = campaign.run(progress=lines.append)
    return campaign, result, lines


def durations_entries(cache_dir):
    return sorted(cache_dir.glob("durations-*.json"))


def write_durations(entry_path, durations):
    entry_path.write_text(json.dumps({
        "version": DURATIONS_FORMAT_VERSION, "durations": durations,
    }), encoding="utf-8")


def dispatch_lines(lines):
    return [line for line in lines if "dispatch longest-first" in line]


#: Recorded seconds that reverse the base order between and within
#: groups: (b.py, R2) holds the slowest point, (a.py, R1) the fastest.
SKEWED = {
    "R1:a.py:0": 0.1, "R1:a.py:1": 0.2,
    "R2:a.py:0": 0.3, "R2:a.py:1": 0.4,
    "R1:b.py:0": 0.5, "R1:b.py:1": 0.6,
    "R2:b.py:0": 0.7, "R2:b.py:1": 0.8,
}


# -- the ordering rule ------------------------------------------------------------


def planned_points(points):
    return [
        PlannedExperiment(
            experiment_id=f"exp-{index:04d}",
            point=InjectionPoint(spec_name=spec, file=file,
                                 ordinal=int(ordinal), lineno=1,
                                 end_lineno=1, snippet="", component=""),
        )
        for index, (spec, file, ordinal) in enumerate(
            point.split(":") for point in points)
    ]


def ordered_ids(expected_seconds, points=BASE_ORDER):
    executor = ExperimentExecutor(image=None, workload=None, models={},
                                  base_dir=None,
                                  expected_seconds=expected_seconds)
    # Shuffled input: the base order must not depend on plan order.
    planned = planned_points(list(reversed(points)))
    return [experiment.point.point_id
            for experiment in executor.dispatch_order(planned)]


class TestOrderingRule:
    def test_no_durations_keeps_the_base_order(self):
        assert ordered_ids({}) == BASE_ORDER

    def test_groups_and_members_come_longest_first(self):
        assert ordered_ids(SKEWED) == [
            "R2:b.py:1", "R2:b.py:0", "R1:b.py:1", "R1:b.py:0",
            "R2:a.py:1", "R2:a.py:0", "R1:a.py:1", "R1:a.py:0",
        ]

    def test_group_is_placed_by_its_longest_member(self):
        # One slow member pulls its whole group ahead; groups stay
        # contiguous, so (a.py, R1) keeps both members together.
        durations = dict.fromkeys(BASE_ORDER, 1.0)
        durations["R1:b.py:1"] = 5.0
        assert ordered_ids(durations) == [
            "R1:b.py:1", "R1:b.py:0",
            "R1:a.py:0", "R1:a.py:1", "R2:a.py:0", "R2:a.py:1",
            "R2:b.py:0", "R2:b.py:1",
        ]

    def test_unknown_points_get_the_median_estimate(self):
        # The recorded 1, 2, 4 and 20 have median 3 (mean 6.75): the
        # unrecorded (b.py, R1) group runs after the 4 s group and
        # before the 2 s one, and each unrecorded member is a 3 s one.
        durations = {"R1:a.py:0": 1.0, "R1:a.py:1": 2.0,
                     "R2:a.py:0": 4.0, "R2:b.py:0": 20.0}
        assert ordered_ids(durations) == [
            "R2:b.py:0", "R2:b.py:1",
            "R2:a.py:0", "R2:a.py:1",
            "R1:b.py:0", "R1:b.py:1",
            "R1:a.py:1", "R1:a.py:0",
        ]

    def test_iter_mutations_generates_in_dispatch_order(
            self, project, model, tmp_path):
        executor = ExperimentExecutor(
            image=SandboxImage.build(project, tmp_path / "image"),
            workload=None,
            models=Campaign(make_config(project, model, tmp_path,
                                        "unused")).models,
            base_dir=tmp_path / "unused",
            expected_seconds=SKEWED,
        )
        yielded = [(experiment.point.point_id, mutation)
                   for experiment, mutation in
                   executor.iter_mutations(planned_points(BASE_ORDER))]
        assert [point for point, _ in yielded] == ordered_ids(SKEWED)
        assert all(not isinstance(mutation, Exception)
                   for _, mutation in yielded)


# -- campaigns on one cache -------------------------------------------------------


class TestCampaignOrder:
    def test_first_campaign_runs_in_base_order_and_records(
            self, project, model, tmp_path, started):
        campaign, result, lines = run(make_config(project, model, tmp_path,
                                                  "first"))
        assert started == BASE_ORDER
        assert dispatch_lines(lines) == []
        stats = campaign.scan_cache.stats()
        assert (stats["durations_hits"], stats["durations_misses"]) == (0, 1)
        [entry] = durations_entries(tmp_path / "cache")
        recorded = json.loads(entry.read_text())["durations"]
        assert recorded == {
            experiment.fault_id: experiment.duration
            for experiment in result.experiments
        }

    def test_recampaign_dispatches_longest_first(
            self, project, model, tmp_path, started):
        run(make_config(project, model, tmp_path, "first"))
        [entry] = durations_entries(tmp_path / "cache")
        write_durations(entry, SKEWED)
        key = entry.name[len("durations-"):-len(".json")]
        del started[:]

        campaign, _, lines = run(make_config(project, model, tmp_path,
                                             "second"))
        assert started == ordered_ids(SKEWED)
        assert dispatch_lines(lines) == [
            f"[order] dispatch longest-first from 8 recorded durations "
            f"(key {key[:12]})"
        ]
        stats = campaign.scan_cache.stats()
        assert (stats["durations_hits"], stats["durations_misses"]) == (1, 0)

    @pytest.mark.parametrize("backend", ["thread", "process"])
    def test_order_never_changes_results(self, backend, project, model,
                                         tmp_path):
        def config(label):
            return make_config(project, model, tmp_path, label,
                               backend=backend, shards=2, parallelism=2)

        _, unordered, _ = run(config("first"))
        [entry] = durations_entries(tmp_path / "cache")
        write_durations(entry, SKEWED)
        _, ordered, _ = run(config("second"))
        assert ordered.executed == unordered.executed == 8
        assert stream_projection(ordered.experiments_path) == \
            stream_projection(unordered.experiments_path)

    def test_process_shards_dispatch_longest_first(
            self, project, model, tmp_path, kept_workers):
        run(make_config(project, model, tmp_path, "first"))
        [entry] = durations_entries(tmp_path / "cache")
        write_durations(entry, SKEWED)
        key = entry.name[len("durations-"):-len(".json")]

        campaign, result, lines = run(make_config(
            project, model, tmp_path, "second", backend="process",
            shards=2))
        assert dispatch_lines(lines) == [
            f"[order] dispatch longest-first from 8 recorded durations "
            f"(key {key[:12]})"
        ]
        assert campaign.scan_cache.stats()["durations_hits"] == 1
        # One slot per worker, so each worker-side shard stream records
        # in start order.  A release steal splits a shard into a prefix
        # of its order (left behind) and the released rest, which the
        # idle worker runs in their own dispatch order.
        executor = ExperimentExecutor(image=None, workload=None, models={},
                                      base_dir=None,
                                      expected_seconds=SKEWED)
        ran = Counter()
        streams = worker_shard_streams(tmp_path / "second")
        assert len(streams) >= 2
        for path in streams:
            started = [PlannedExperiment.from_dict(json.loads(line))
                       for line in path.read_text().splitlines()]
            assert len({shard_index(planned.experiment_id, 2)
                        for planned in started}) <= 1
            assert [planned.experiment_id for planned in started] == [
                planned.experiment_id
                for planned in executor.dispatch_order(started)]
            ran.update(planned.experiment_id for planned in started)
        assert sorted(ran) == sorted(experiment.experiment_id
                                     for experiment in result.experiments)
        assert set(ran.values()) == {1}

    def test_stopping_rule_keeps_the_base_order(
            self, project, model, tmp_path, started):
        # A margin no 8-experiment campaign reaches: the rule is active
        # but never stops the run.
        sampling = SamplingConfig(margin=0.01)
        run(make_config(project, model, tmp_path, "first",
                        sampling=sampling))
        [entry] = durations_entries(tmp_path / "cache")
        write_durations(entry, SKEWED)
        del started[:]

        campaign, result, lines = run(make_config(
            project, model, tmp_path, "second", sampling=sampling))
        assert result.stopped_early is None
        assert started == BASE_ORDER
        assert dispatch_lines(lines) == []
        stats = campaign.scan_cache.stats()
        assert (stats["durations_hits"], stats["durations_misses"]) == (0, 0)

    def test_recording_merges_over_the_previous_entry(
            self, project, model, tmp_path):
        run(make_config(project, model, tmp_path, "first",
                        spec_filter=["R1"]))
        [entry] = durations_entries(tmp_path / "cache")
        assert sorted(json.loads(entry.read_text())["durations"]) == \
            sorted(point for point in BASE_ORDER if point.startswith("R1"))
        run(make_config(project, model, tmp_path, "second",
                        spec_filter=["R2"]))
        assert sorted(json.loads(entry.read_text())["durations"]) == \
            sorted(BASE_ORDER)


# -- what is recorded -------------------------------------------------------------


class TestRecording:
    def test_without_cache_dir_nothing_is_recorded(
            self, project, model, tmp_path, started):
        for label in ("first", "second"):
            campaign, _, lines = run(make_config(project, model, tmp_path,
                                                 label, cache=None))
            assert campaign.scan_cache is None
            assert dispatch_lines(lines) == []
        assert started == BASE_ORDER * 2
        assert list(tmp_path.rglob("durations-*.json")) == []

    def test_harness_error_durations_are_never_stored(
            self, project, model, tmp_path, monkeypatch):
        run_inner = ExperimentExecutor._run_inner

        def broken_for_one(self, planned, result, mutation):
            if planned.point.point_id == "R2:b.py:1":
                raise RuntimeError("harness broke")
            return run_inner(self, planned, result, mutation)

        monkeypatch.setattr(ExperimentExecutor, "_run_inner",
                            broken_for_one)
        _, result, _ = run(make_config(project, model, tmp_path, "first"))
        statuses = {e.fault_id: e.status for e in result.experiments}
        assert statuses.pop("R2:b.py:1") == STATUS_HARNESS_ERROR
        [entry] = durations_entries(tmp_path / "cache")
        assert sorted(json.loads(entry.read_text())["durations"]) == \
            sorted(statuses)

    def test_stream_durations_skip_harness_errors(self, tmp_path):
        stream = ExperimentStream(tmp_path / "experiments.jsonl")
        stream.append(ExperimentResult(
            experiment_id="e-1", point={}, fault_id="P:a.py:0",
            status=STATUS_COMPLETED, duration=1.5))
        stream.append(ExperimentResult(
            experiment_id="e-2", point={}, fault_id="P:a.py:1",
            status=STATUS_HARNESS_ERROR, duration=0.01))
        # Last record wins: a retried experiment's new duration counts.
        stream.append(ExperimentResult(
            experiment_id="e-1", point={}, fault_id="P:a.py:0",
            status=STATUS_COMPLETED, duration=2.5))
        assert stream.durations() == {"P:a.py:0": 2.5}

    def test_cache_without_dir_holds_nothing(self):
        cache = ScanCache()
        cache.store_durations("k", {"P:a.py:0": 1.0})
        assert cache.lookup_durations("k") is None
        assert cache.stats()["durations_misses"] == 1


# -- keys and entries -------------------------------------------------------------


def _edit_target(project, config):
    with open(project / "b.py", "a", encoding="utf-8") as handle:
        handle.write("# edited\n")
    return config


def _change_workload(project, config):
    config.workload = WorkloadSpec(commands=["{python} -B run.py"],
                                   command_timeout=30.0)
    return config


def _change_rounds(project, config):
    config.rounds = 2
    return config


def _change_trigger(project, config):
    config.trigger = False
    return config


class TestKeys:
    @pytest.mark.parametrize("change", [
        _edit_target, _change_workload, _change_rounds, _change_trigger,
    ], ids=lambda change: change.__name__.lstrip("_"))
    def test_change_misses(self, change, project, model, tmp_path,
                           started):
        run(make_config(project, model, tmp_path, "first"))
        del started[:]
        campaign, _, lines = run(change(project, make_config(
            project, model, tmp_path, "changed")))
        assert dispatch_lines(lines) == []
        assert started == BASE_ORDER
        assert campaign.scan_cache.stats()["durations_misses"] == 1
        assert len(durations_entries(tmp_path / "cache")) == 2

    def test_campaign_seed_is_not_in_the_key(self, project, model,
                                             tmp_path):
        run(make_config(project, model, tmp_path, "first"))
        campaign, _, lines = run(make_config(project, model, tmp_path,
                                             "reseeded", seed=99))
        assert len(dispatch_lines(lines)) == 1
        assert campaign.scan_cache.stats()["durations_hits"] == 1

    @pytest.mark.parametrize("content", [
        "{not json",
        json.dumps({"version": DURATIONS_FORMAT_VERSION + 1,
                    "durations": SKEWED}),
        json.dumps({"version": DURATIONS_FORMAT_VERSION,
                    "durations": ["R1:a.py:0"]}),
        json.dumps({"version": DURATIONS_FORMAT_VERSION,
                    "durations": {"R1:a.py:0": "slow"}}),
        json.dumps({"version": DURATIONS_FORMAT_VERSION,
                    "durations": {"R1:a.py:0": -1.0}}),
        json.dumps([SKEWED]),
    ], ids=["corrupt", "old-version", "bad-durations", "bad-seconds",
            "negative-seconds", "not-an-object"])
    def test_malformed_entry_is_a_miss(self, content, project, model,
                                       tmp_path, started):
        run(make_config(project, model, tmp_path, "first"))
        [entry] = durations_entries(tmp_path / "cache")
        entry.write_text(content, encoding="utf-8")
        del started[:]

        campaign, _, lines = run(make_config(project, model, tmp_path,
                                             "second"))
        assert started == BASE_ORDER
        assert dispatch_lines(lines) == []
        assert campaign.scan_cache.stats()["durations_misses"] == 1
        # The rerun rewrote a valid entry.
        rewritten = json.loads(entry.read_text())
        assert rewritten["version"] == DURATIONS_FORMAT_VERSION
        assert sorted(rewritten["durations"]) == sorted(BASE_ORDER)

    def test_tenant_cache_holds_its_own_entries(self, project, model,
                                                tmp_path):
        service = ProFIPyService(tmp_path / "ws", max_workers=1)
        try:
            job = service.for_tenant("alice").submit_campaign(
                make_config(project, model, tmp_path, "alice", cache=None),
                block=True,
            )
            assert job.status == COMPLETED, job.error
        finally:
            service.close()
        alice = tmp_path / "ws" / "tenants" / "alice" / "scan_cache"
        [entry] = durations_entries(alice)
        assert sorted(json.loads(entry.read_text())["durations"]) == \
            sorted(BASE_ORDER)
        assert list((tmp_path / "ws").rglob("durations-*.json")) == [entry]


# -- cold campaigns ordered by coverage reach times -------------------------------

#: Seconds the reach workload sleeps before calling each next module.
REACH_GAP = 0.3

#: The reach project's points in base order; the pre-run reaches them
#: in this order too, ``REACH_GAP`` apart.
REACH_ORDER = [f"R1:r_{index}.py:0" for index in range(4)]


@pytest.fixture
def reach_project(tmp_path):
    """Four one-return modules; the workload calls module *i* after
    *i* sleeps, so a fault there fails the run that late."""
    root = tmp_path / "target"
    root.mkdir()
    for index in range(len(REACH_ORDER)):
        (root / f"r_{index}.py").write_text(
            f"def value():\n    result = {index}\n    return result\n")
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


def reach_config(project, tmp_path, label, **overrides):
    model = FaultModel(name="returns")
    model.add(parse_spec(RETURN_SPEC, name="R1"), description="r1")
    settings = dict(
        injectable_files=[f"r_{index}.py"
                          for index in range(len(REACH_ORDER))],
        coverage=True,
    )
    settings.update(overrides)
    return make_config(project, model, tmp_path, label, **settings)


def reach_line(count):
    return f"[order] dispatch longest-first from {count} coverage reach times"


class TestReachOrder:
    def test_cold_campaign_starts_the_latest_reached_first(
            self, reach_project, tmp_path, started):
        campaign, result, lines = run(reach_config(reach_project, tmp_path,
                                                   "first"))
        assert started == REACH_ORDER[::-1]
        assert dispatch_lines(lines) == [reach_line(4)]
        reached = result.coverage.reached
        assert sorted(reached, key=reached.get) == REACH_ORDER
        stats = campaign.scan_cache.stats()
        assert (stats["durations_hits"], stats["durations_misses"]) == (0, 1)

    def test_estimate_adds_the_fault_free_rounds(self):
        report = CoverageReport(reached={"R1:a.py:0": 0.25,
                                         "R1:a.py:1": 1.5}, seconds=2.0)
        assert report.expected_seconds(1) == report.reached
        assert report.expected_seconds(3) == {"R1:a.py:0": 4.25,
                                              "R1:a.py:1": 5.5}

    def test_process_shards_start_the_latest_reached_first(
            self, reach_project, tmp_path, kept_workers):
        _, result, lines = run(reach_config(
            reach_project, tmp_path, "first", backend="process", shards=2))
        assert dispatch_lines(lines) == [reach_line(4)]
        # Shard 1 holds r_0, r_1 and r_3 (shard 0 only r_2), so in plan
        # order its worker would start r_3 last.
        ids = {experiment.fault_id: experiment.experiment_id
               for experiment in result.experiments}
        assert [shard_index(ids[point], 2) for point in REACH_ORDER] == \
            [1, 1, 0, 1]
        executor = ExperimentExecutor(
            image=None, workload=None, models={}, base_dir=None,
            expected_seconds=result.coverage.expected_seconds(1))
        ran = Counter()
        first_started = []
        for path in worker_shard_streams(tmp_path / "first"):
            started = [PlannedExperiment.from_dict(json.loads(line))
                       for line in path.read_text().splitlines()]
            assert [planned.experiment_id for planned in started] == [
                planned.experiment_id
                for planned in executor.dispatch_order(started)]
            first_started.append(started[0].point.point_id)
            ran.update(planned.experiment_id for planned in started)
        assert "R1:r_3.py:0" in first_started
        assert sorted(ran) == sorted(ids.values())
        assert set(ran.values()) == {1}

    def test_recorded_durations_win(self, reach_project, tmp_path,
                                    started):
        run(reach_config(reach_project, tmp_path, "first"))
        [entry] = durations_entries(tmp_path / "cache")
        # The reverse of the reach order: the earliest reached slowest.
        write_durations(entry, {point: float(len(REACH_ORDER) - index)
                                for index, point in enumerate(REACH_ORDER)})
        del started[:]
        _, _, lines = run(reach_config(reach_project, tmp_path, "second"))
        assert started == REACH_ORDER
        [line] = dispatch_lines(lines)
        assert "from 4 recorded durations" in line

    def test_stopping_rule_keeps_the_base_order(
            self, reach_project, tmp_path, started):
        _, result, lines = run(reach_config(
            reach_project, tmp_path, "first",
            sampling=SamplingConfig(margin=0.01)))
        assert result.coverage.reached
        assert result.stopped_early is None
        assert started == REACH_ORDER
        assert dispatch_lines(lines) == []

    def test_without_cache_dir_reach_times_still_order(
            self, reach_project, tmp_path, started):
        campaign, _, lines = run(reach_config(reach_project, tmp_path,
                                              "first", cache=None))
        assert campaign.scan_cache is None
        assert started == REACH_ORDER[::-1]
        assert dispatch_lines(lines) == [reach_line(4)]
