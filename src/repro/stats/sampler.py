"""Prefix-stable seeded sampling over experiment plans.

Each experiment gets a deterministic priority from
``sha256(f"{campaign_seed}::{experiment_id}")`` — the same material
:func:`repro.common.rng.experiment_seed` hashes, so a sample is a pure
function of (campaign seed, experiment ids): independent of
``PYTHONHASHSEED``, plan ordering, shard count, and process.

Sampling takes the lowest-priority prefix of a *fixed total order*, so
``sample_n(k)`` is always a subset of ``sample_n(k + m)``.  Growing a
sampled campaign toward exhaustive therefore rides the existing resume
machinery: the larger sample re-plans a superset and
``Plan.excluding(recorded_ids)`` executes only the delta.

With stratification the total order interleaves strata by within-stratum
rank (best of every stratum first, then the second-best of every
stratum, ...).  That order is still fixed — monotonicity holds — and it
guarantees every non-empty stratum is represented once ``count`` reaches
the number of strata, so rare files/components/specs aren't starved.
"""

from __future__ import annotations

import hashlib
from collections import defaultdict
from typing import TYPE_CHECKING

if TYPE_CHECKING:  # pragma: no cover - import cycle guard for typing only
    from repro.orchestrator.plan import Plan, PlannedExperiment

STRATIFY_CHOICES = ("file", "component", "spec")

__all__ = [
    "STRATIFY_CHOICES",
    "monotone_sample",
    "sample_order",
    "sample_priority",
    "stratum_key",
]


def sample_priority(campaign_seed: int, experiment_id: str) -> int:
    """Deterministic sampling priority for one experiment (lower = first).

    Uses the same ``{seed}::{id}`` sha256 material as ``experiment_seed``
    so the draw never depends on interpreter hash salting.
    """
    material = f"{campaign_seed}::{experiment_id}".encode("utf-8")
    digest = hashlib.sha256(material).digest()
    return int.from_bytes(digest[:8], "big")


def stratum_key(experiment: "PlannedExperiment", stratify_by: str) -> str:
    """The stratum an experiment belongs to under ``stratify_by``."""
    point = experiment.point
    if stratify_by == "file":
        return point.file
    if stratify_by == "component":
        return point.component
    if stratify_by == "spec":
        return point.spec_name
    raise ValueError(
        f"unknown stratification key {stratify_by!r}; "
        f"expected one of {', '.join(STRATIFY_CHOICES)}"
    )


def sample_order(plan: "Plan", campaign_seed: int,
                 stratify_by: str | None = None,
                 ) -> list["PlannedExperiment"]:
    """The fixed total order whose prefixes are the samples.

    Plain: ascending ``(priority, experiment_id)``.  Stratified:
    ascending ``(rank within stratum, priority, experiment_id)`` so the
    strata are interleaved round-robin by rank.
    """
    experiments = list(plan.experiments)
    if stratify_by is None:
        return sorted(
            experiments,
            key=lambda e: (sample_priority(campaign_seed, e.experiment_id),
                           e.experiment_id),
        )
    strata: dict[str, list] = defaultdict(list)
    for experiment in experiments:
        priority = sample_priority(campaign_seed, experiment.experiment_id)
        strata[stratum_key(experiment, stratify_by)].append(
            (priority, experiment.experiment_id, experiment))
    keyed = []
    for members in strata.values():
        members.sort(key=lambda item: item[:2])
        for rank, (priority, experiment_id, experiment) in enumerate(members):
            keyed.append(((rank, priority, experiment_id), experiment))
    keyed.sort(key=lambda item: item[0])
    return [experiment for _, experiment in keyed]


def monotone_sample(plan: "Plan", count: int, campaign_seed: int,
                    stratify_by: str | None = None) -> "Plan":
    """A prefix-stable sample of at most ``count`` experiments.

    Returns the chosen experiments in their original plan order (the
    sample decides *membership*, not execution order), clamping at the
    population.  For fixed inputs the draw is pure,
    and ``monotone_sample(plan, k)`` is a subset of
    ``monotone_sample(plan, k + m)``.
    """
    from repro.orchestrator.plan import Plan

    if count < 0:
        raise ValueError(f"sample count must be >= 0, got {count}")
    if count >= len(plan.experiments):
        return Plan(experiments=list(plan.experiments))
    order = sample_order(plan, campaign_seed, stratify_by=stratify_by)
    chosen = {experiment.experiment_id for experiment in order[:count]}
    return Plan(experiments=[e for e in plan.experiments
                             if e.experiment_id in chosen])
