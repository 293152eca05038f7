"""Property-based tests for the deterministic shard partitioner and the
prefix-stable seeded sampler.

The remote/process backends lean entirely on ``shard_index`` /
``Plan.shards``: a resumed campaign may change the shard count *and* the
backend, so the partition must be a pure function of ``(experiment_id,
shard_count)`` — independent of plan order, of the other experiments,
and of the process (``PYTHONHASHSEED``).  Hypothesis drives arbitrary id
sets through the partitioner; a seeded-random corpus checks the balance
bound sha256 uniformity promises.

The sampler carries the same burden plus monotonicity: growing a
sampled campaign toward exhaustive rides resume, which only re-executes
nothing if ``sample_n(k)`` is always a subset of ``sample_n(k + m)``.
"""

import hashlib
import math

from hypothesis import given, settings
from hypothesis import strategies as st
import pytest

from repro.orchestrator.plan import Plan, PlannedExperiment, shard_index
from repro.scanner.points import InjectionPoint
from repro.stats.sampler import (
    monotone_sample,
    sample_priority,
    stratum_key,
)

SETTINGS = settings(max_examples=100, deadline=None)

#: Arbitrary experiment ids, unicode included (ids are hashed utf-8).
experiment_ids = st.text(min_size=1, max_size=40)


def _plan(ids) -> Plan:
    point = InjectionPoint(spec_name="WRR", file="app.py", ordinal=0,
                           lineno=1, end_lineno=1, snippet="",
                           component="app")
    return Plan(experiments=[
        PlannedExperiment(experiment_id=experiment_id, point=point)
        for experiment_id in ids
    ])


def _stratified_plan(ids, strata=3) -> Plan:
    """A plan whose points spread over ``strata`` files/components."""
    experiments = []
    for index, experiment_id in enumerate(ids):
        bucket = index % strata
        point = InjectionPoint(spec_name=f"S{bucket}",
                               file=f"mod{bucket}.py", ordinal=index,
                               lineno=1, end_lineno=1, snippet="",
                               component=f"comp{bucket}")
        experiments.append(PlannedExperiment(
            experiment_id=experiment_id, point=point))
    return Plan(experiments=experiments)


def _ids(plan: Plan) -> set:
    return {experiment.experiment_id for experiment in plan.experiments}


@SETTINGS
@given(st.lists(experiment_ids, unique=True, max_size=150),
       st.integers(1, 16))
def test_every_experiment_assigned_exactly_once(ids, shard_count):
    shards = _plan(ids).shards(shard_count)
    assert len(shards) == shard_count
    assigned = [experiment.experiment_id
                for shard in shards for experiment in shard]
    assert sorted(assigned) == sorted(ids)  # disjoint and complete
    for shard in shards:
        # Plan order is preserved within each shard.
        positions = [ids.index(experiment.experiment_id)
                     for experiment in shard]
        assert positions == sorted(positions)


@SETTINGS
@given(st.lists(experiment_ids, unique=True, max_size=150),
       st.integers(1, 16))
def test_partition_matches_shard_index_pointwise(ids, shard_count):
    # Plan.shards is exactly the pointwise partitioner — no hidden
    # dependence on plan contents or ordering.
    shards = _plan(ids).shards(shard_count)
    for index, shard in enumerate(shards):
        for experiment in shard:
            assert shard_index(experiment.experiment_id,
                               shard_count) == index


@SETTINGS
@given(experiment_ids, st.integers(1, 64))
def test_assignment_is_a_pure_function(experiment_id, shard_count):
    first = shard_index(experiment_id, shard_count)
    assert 0 <= first < shard_count
    assert shard_index(experiment_id, shard_count) == first


@SETTINGS
@given(st.lists(experiment_ids, unique=True, min_size=1, max_size=60),
       st.integers(1, 8), st.integers(1, 8))
def test_stable_under_shard_count_changes(ids, count_a, count_b):
    # Changing the shard count re-partitions, but each id's assignment
    # under a given count never depends on which other ids exist — the
    # invariant that lets a resumed campaign change its shard count
    # freely (the id's records remain valid wherever they were made).
    plan_all = _plan(ids)
    for count in (count_a, count_b):
        full = {
            experiment.experiment_id: index
            for index, shard in enumerate(plan_all.shards(count))
            for experiment in shard
        }
        for experiment_id in ids:
            solo = _plan([experiment_id]).shards(count)
            solo_index = next(index for index, shard in enumerate(solo)
                              if shard.experiments)
            assert solo_index == full[experiment_id]


def test_single_shard_is_identity():
    ids = [f"exp-{index:04d}" for index in range(50)]
    (only,) = _plan(ids).shards(1)
    assert [e.experiment_id for e in only] == ids
    assert all(shard_index(experiment_id, 1) == 0
               for experiment_id in ids)


def test_invalid_shard_count_rejected():
    with pytest.raises(ValueError, match="shard_count"):
        shard_index("exp-0001", 0)
    with pytest.raises(ValueError, match="shard_count"):
        shard_index("exp-0001", -3)


# -- prefix-stable seeded sampler ------------------------------------------------


@SETTINGS
@given(st.lists(experiment_ids, unique=True, max_size=80),
       st.integers(0, 80), st.integers(0, 2**31), st.booleans())
def test_sampler_prefix_monotone(ids, count, seed, stratified):
    # sample_n(k) ⊆ sample_n(k+1): the property that makes a sampled
    # campaign extendable toward exhaustive purely via resume.
    plan = _stratified_plan(ids) if stratified else _plan(ids)
    stratify_by = "file" if stratified else None
    smaller = _ids(monotone_sample(plan, count, seed,
                                   stratify_by=stratify_by))
    larger = _ids(monotone_sample(plan, count + 1, seed,
                                  stratify_by=stratify_by))
    assert smaller <= larger
    assert len(smaller) == min(count, len(ids))


@SETTINGS
@given(st.lists(experiment_ids, unique=True, max_size=80),
       st.integers(0, 80), st.integers(0, 2**31))
def test_sampler_is_pure_and_order_independent(ids, count, seed):
    plan = _plan(ids)
    reversed_plan = Plan(experiments=list(reversed(plan.experiments)))
    first = _ids(monotone_sample(plan, count, seed))
    again = _ids(monotone_sample(plan, count, seed))
    permuted = _ids(monotone_sample(reversed_plan, count, seed))
    assert first == again == permuted
    # Membership decided, execution order preserved: the sampled plan
    # keeps its experiments in original plan order.
    sampled = monotone_sample(plan, count, seed)
    positions = [ids.index(e.experiment_id) for e in sampled.experiments]
    assert positions == sorted(positions)


@SETTINGS
@given(st.lists(experiment_ids, unique=True, max_size=60),
       st.integers(0, 60), st.integers(0, 2**31))
def test_sampler_matches_explicit_sha256(ids, count, seed):
    # The draw is exactly "k smallest by (sha256(seed::id), id)" — a
    # pure hash computation, so PYTHONHASHSEED can play no part.
    plan = _plan(ids)

    def priority(experiment_id):
        material = f"{seed}::{experiment_id}".encode("utf-8")
        return int.from_bytes(
            hashlib.sha256(material).digest()[:8], "big")

    expected = set(sorted(ids, key=lambda i: (priority(i), i))[:count])
    assert _ids(monotone_sample(plan, count, seed)) == expected
    for experiment_id in ids:
        assert sample_priority(seed, experiment_id) == \
            priority(experiment_id)


@SETTINGS
@given(st.lists(experiment_ids, unique=True, max_size=60),
       st.integers(0, 60), st.integers(0, 2**31), st.integers(1, 8))
def test_sampler_independent_of_shard_count(ids, count, seed, shard_count):
    # Sampling is plan-level: re-assembling the plan from any sharding
    # of itself draws the same membership (shard count never affects
    # which experiments a sampled campaign runs).
    plan = _plan(ids)
    reassembled = Plan(experiments=[
        experiment
        for shard in plan.shards(shard_count)
        for experiment in shard
    ])
    assert _ids(monotone_sample(reassembled, count, seed)) == \
        _ids(monotone_sample(plan, count, seed))


@SETTINGS
@given(st.lists(experiment_ids, unique=True, min_size=1, max_size=60),
       st.integers(0, 2**31), st.integers(1, 5),
       st.sampled_from(["file", "component", "spec"]))
def test_stratified_sample_never_starves_a_populated_stratum(
        ids, seed, strata, key):
    plan = _stratified_plan(ids, strata=strata)
    populated = {stratum_key(e, key) for e in plan.experiments}
    # Once the sample can afford one pick per stratum, every stratum
    # with population is represented.
    sampled = monotone_sample(plan, len(populated), seed, stratify_by=key)
    assert {stratum_key(e, key) for e in sampled.experiments} == populated


def test_balance_within_statistical_bounds():
    # sha256 spreads realistic campaign ids uniformly: for n ids over k
    # shards each shard's size is within 5 standard deviations of n/k
    # (a deterministic corpus, so this never flakes — it fails only if
    # the partitioner's distribution genuinely degrades).
    ids = [f"campaign-{index:06d}" for index in range(4000)]
    plan = _plan(ids)
    for shard_count in (2, 4, 8, 16):
        sizes = [len(shard) for shard in plan.shards(shard_count)]
        assert sum(sizes) == len(ids)
        mean = len(ids) / shard_count
        deviation = 5 * math.sqrt(mean * (1 - 1 / shard_count))
        for size in sizes:
            assert abs(size - mean) <= deviation, (
                f"shard sizes {sizes} out of bounds for "
                f"{shard_count} shards"
            )
