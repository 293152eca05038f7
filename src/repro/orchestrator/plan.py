"""Fault injection plans: configuration and sampling (paper §IV-A).

After the scan, "the user can select a subset of such locations according
to their needs": filter by component/file/fault type, sample randomly to
cap the number of experiments (:func:`repro.stats.sampler.monotone_sample`),
or keep everything.  The resulting
:class:`Plan` is the input of the execution phase and can be saved and
re-imported as JSON.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass, field
from pathlib import Path

from repro.common.fsutil import read_json, write_json
from repro.common.textutil import glob_match
from repro.scanner.points import InjectionPoint


def shard_index(experiment_id: str, shard_count: int) -> int:
    """Deterministic shard assignment for one experiment id.

    Derived from ``sha256(experiment_id)`` — never ``hash()``, which is
    salted per process (``PYTHONHASHSEED``) and would scatter the same
    plan differently on every run.  The assignment depends only on the
    id and the shard count, so re-planning after a crash partitions
    identically, and a resumed campaign may even change the shard count:
    experiment ids (and therefore seeds and mutants) are independent of
    which shard executes them.
    """
    if shard_count < 1:
        raise ValueError(f"shard_count must be >= 1, got {shard_count}")
    if shard_count == 1:
        return 0
    digest = hashlib.sha256(experiment_id.encode("utf-8")).digest()
    return int.from_bytes(digest[:8], "big") % shard_count


@dataclass(frozen=True)
class PlannedExperiment:
    """One experiment of the plan: a unique id plus its injection point."""

    experiment_id: str
    point: InjectionPoint

    def to_dict(self) -> dict:
        return {"experiment_id": self.experiment_id,
                "point": self.point.to_dict()}

    @classmethod
    def from_dict(cls, data: dict) -> "PlannedExperiment":
        return cls(
            experiment_id=data["experiment_id"],
            point=InjectionPoint.from_dict(data["point"]),
        )


@dataclass
class Plan:
    """An ordered set of fault injection experiments."""

    experiments: list[PlannedExperiment] = field(default_factory=list)

    @classmethod
    def from_points(cls, points: list[InjectionPoint],
                    prefix: str = "exp") -> "Plan":
        width = max(4, len(str(len(points))))
        return cls(experiments=[
            PlannedExperiment(
                experiment_id=f"{prefix}-{index:0{width}d}", point=point
            )
            for index, point in enumerate(points, start=1)
        ])

    def __len__(self) -> int:
        return len(self.experiments)

    def __iter__(self):
        return iter(self.experiments)

    @property
    def points(self) -> list[InjectionPoint]:
        return [experiment.point for experiment in self.experiments]

    def point_ids(self) -> list[str]:
        return [experiment.point.point_id for experiment in self.experiments]

    # -- selection -------------------------------------------------------------

    def filter(
        self,
        spec_names: list[str] | None = None,
        files: list[str] | None = None,
        components: list[str] | None = None,
    ) -> "Plan":
        """Keep experiments matching every provided criterion.

        ``files`` entries are glob patterns over the relative path, so a
        user can restrict injection to a specific component, class, or
        file as §IV-A describes.
        """

        def keep(experiment: PlannedExperiment) -> bool:
            point = experiment.point
            if spec_names is not None and point.spec_name not in spec_names:
                return False
            if files is not None and not any(
                glob_match(pattern, point.file) for pattern in files
            ):
                return False
            if components is not None and point.component not in components:
                return False
            return True

        return Plan(experiments=[e for e in self.experiments if keep(e)])

    def excluding(self, experiment_ids: set[str]) -> "Plan":
        """Drop experiments whose id is already recorded (crash-resume).

        Experiment ids are stable for a given scan + selection, so a
        restarted campaign re-plans identically and this subtraction
        yields exactly the not-yet-executed remainder.
        """
        if not experiment_ids:
            return Plan(experiments=list(self.experiments))
        return Plan(experiments=[
            experiment for experiment in self.experiments
            if experiment.experiment_id not in experiment_ids
        ])

    def shards(self, shard_count: int) -> "list[Plan]":
        """Partition into ``shard_count`` disjoint sub-plans (stable).

        Experiments keep their plan order within each shard; the union of
        the shards is exactly this plan.  Empty shards are returned as
        empty plans so callers can index shards positionally.
        """
        parts: list[Plan] = [Plan() for _ in range(shard_count)]
        for experiment in self.experiments:
            parts[shard_index(experiment.experiment_id,
                              shard_count)].experiments.append(experiment)
        return parts

    def restrict_to(self, point_ids: set[str]) -> "Plan":
        """Keep only experiments whose point id is in ``point_ids``
        (coverage reduction, §IV-D)."""
        return Plan(experiments=[
            experiment for experiment in self.experiments
            if experiment.point.point_id in point_ids
        ])

    # -- persistence --------------------------------------------------------------

    def to_dict(self) -> dict:
        return {"experiments": [e.to_dict() for e in self.experiments]}

    def save(self, path: str | Path) -> None:
        write_json(path, self.to_dict())

    @classmethod
    def load(cls, path: str | Path) -> "Plan":
        data = read_json(path)
        return cls(experiments=[
            PlannedExperiment.from_dict(item)
            for item in data.get("experiments", [])
        ])
