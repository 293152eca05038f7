"""Tests for fault injection plans: filtering, sampling, sharding,
persistence."""

import pytest

from repro.orchestrator.plan import Plan, PlannedExperiment, shard_index
from repro.scanner.points import InjectionPoint, component_of
from repro.stats.sampler import monotone_sample


def make_point(spec="MFC", file="pkg/mod.py", ordinal=0, line=1):
    return InjectionPoint(
        spec_name=spec, file=file, ordinal=ordinal, lineno=line,
        end_lineno=line, snippet="snippet", component=component_of(file),
    )


@pytest.fixture
def plan():
    points = [
        make_point("MFC", "pkg/a.py", 0, 10),
        make_point("MFC", "pkg/b.py", 0, 20),
        make_point("WPF", "pkg/a.py", 0, 30),
        make_point("WPF", "other/c.py", 0, 40),
    ]
    return Plan.from_points(points)


class TestComponentOf:
    def test_package_component(self):
        assert component_of("pkg/sub/mod.py") == "pkg"

    def test_root_file_component(self):
        assert component_of("main.py") == "main"


class TestPlanBuilding:
    def test_experiment_ids_stable(self, plan):
        ids = [e.experiment_id for e in plan]
        assert ids == ["exp-0001", "exp-0002", "exp-0003", "exp-0004"]

    def test_len_and_points(self, plan):
        assert len(plan) == 4
        assert len(plan.points) == 4


class TestSelection:
    def test_filter_by_spec(self, plan):
        assert len(plan.filter(spec_names=["MFC"])) == 2

    def test_filter_by_file_glob(self, plan):
        assert len(plan.filter(files=["pkg/*.py"])) == 3
        assert len(plan.filter(files=["*/a.py"])) == 2

    def test_filter_by_component(self, plan):
        assert len(plan.filter(components=["other"])) == 1

    def test_filter_conjunction(self, plan):
        assert len(plan.filter(spec_names=["WPF"],
                               components=["pkg"])) == 1

    def test_sample_deterministic(self, plan):
        first = monotone_sample(plan, 2, 7).point_ids()
        second = monotone_sample(plan, 2, 7).point_ids()
        assert first == second
        assert len(first) == 2

    def test_sample_larger_than_plan(self, plan):
        assert len(monotone_sample(plan, 100, 0)) == 4

    def test_sample_preserves_order(self, plan):
        sampled = monotone_sample(plan, 3, 1)
        ids = [e.experiment_id for e in sampled]
        assert ids == sorted(ids)

    def test_restrict_to(self, plan):
        keep = {plan.experiments[0].point.point_id}
        reduced = plan.restrict_to(keep)
        assert len(reduced) == 1


class TestSharding:
    def test_pinned_assignment(self):
        # sha256-derived, so a constant of the tool: changing the
        # partitioner silently re-shards resumed campaigns.
        assert shard_index("exp-0001", 4) == 1

    def test_depends_only_on_id_and_count(self, plan):
        for experiment in plan:
            assert shard_index(experiment.experiment_id, 4) == \
                shard_index(experiment.experiment_id, 4)

    def test_single_shard_is_identity(self, plan):
        [only] = plan.shards(1)
        assert [e.experiment_id for e in only] == \
            [e.experiment_id for e in plan]

    def test_partition_is_disjoint_and_complete(self, plan):
        for count in (2, 3, 4, 7):
            parts = plan.shards(count)
            assert len(parts) == count
            ids = [e.experiment_id for part in parts for e in part]
            assert sorted(ids) == sorted(e.experiment_id for e in plan)
            assert len(ids) == len(set(ids))

    def test_order_preserved_within_shard(self, plan):
        for part in plan.shards(3):
            ids = [e.experiment_id for e in part]
            assert ids == sorted(ids)

    def test_invalid_shard_count_rejected(self):
        with pytest.raises(ValueError):
            shard_index("exp-0001", 0)


class TestPersistence:
    def test_round_trip(self, plan, tmp_path):
        path = tmp_path / "plan.json"
        plan.save(path)
        loaded = Plan.load(path)
        assert loaded.point_ids() == plan.point_ids()
        assert loaded.experiments[0].experiment_id == "exp-0001"

    def test_planned_experiment_round_trip(self):
        planned = PlannedExperiment("exp-1", make_point())
        clone = PlannedExperiment.from_dict(planned.to_dict())
        assert clone == planned
