"""Two-round, trigger-controlled experiment execution (paper §IV-B).

For each experiment the executor:

1. instantiates a fresh sandbox from the image and writes the mutated
   source file into it (EDFI-style trigger wrapping);
2. starts the service commands with the fault *disabled*;
3. round 1 — enables the trigger, runs the workload;
4. round 2 — disables the trigger, runs the workload again *without
   restarting the target*, so persistent error states surface;
5. collects outputs/logs and tears the sandbox down.

The trigger is a file re-read by the injected runtime, the shared-memory
substitute documented in DESIGN.md.

Determinism: every stochastic input of an experiment — the mutation RNG
and the sandbox runtime seed (``SEED_ENV``) — derives from a sha256
digest of ``(campaign_seed, experiment_id)``.  Results are therefore
byte-identical across runs, hosts, ``PYTHONHASHSEED`` values, and
parallelism levels.  Every mutant comes from one producer,
:meth:`ExperimentExecutor.iter_mutations`: it emits one ``(file, spec)``
group at a time, so generation stays serial (the ``MatchMemo``
guarantee) while the sandbox pool executes earlier groups — peak memory
is bounded by the largest group, not the plan.  A mutant that cannot be
generated (unreadable or undecodable file, unknown spec, stale ordinal)
is yielded as the exception itself, and :meth:`ExperimentExecutor.run`
records it as that one experiment's ``harness_error``.  Groups are
dispatched longest-expected-first when
:attr:`ExperimentExecutor.expected_seconds` holds estimates, so the
slowest experiments do not start last: recorded durations on a
re-campaign, or, on a first campaign, the coverage pre-run's reach
times (``CoverageReport.expected_seconds``).  While a pre-run still
runs on the thread backend, an experiment whose point it has reached
may start early, its mutant made alone (``iter_mutations([planned])``,
on the same generating thread); the pre-run's report then orders the
rest.  Order never changes results.
"""

from __future__ import annotations

import statistics
import time
from dataclasses import dataclass, field
from itertools import groupby
from pathlib import Path
from typing import Callable, Iterable, Iterator

from repro.common.rng import SeededRandom, experiment_seed
from repro.dsl.metamodel import MetaModel
from repro.mutator.mutate import MutantRequest, Mutation, generate_mutants
from repro.mutator.runtime import SEED_ENV, TRIGGER_ENV
from repro.orchestrator.experiment import (
    STATUS_COMPLETED,
    STATUS_HARNESS_ERROR,
    STATUS_SERVICE_START_FAILED,
    ExperimentResult,
)
from repro.orchestrator.plan import PlannedExperiment
from repro.sandbox.image import SandboxImage
from repro.sandbox.sandbox import Sandbox
from repro.workload.runner import ServiceStartError, run_round, start_services
from repro.workload.spec import WorkloadSpec

TRIGGER_FILE = ".pfp_trigger"


@dataclass
class ExperimentExecutor:
    """Runs planned experiments against an image + workload."""

    image: SandboxImage
    workload: WorkloadSpec
    models: dict[str, MetaModel]
    base_dir: Path
    trigger: bool = True
    rounds: int = 2
    #: Campaign-level seed; every per-experiment stream derives from it.
    campaign_seed: int | str = 0
    artifacts_dir: Path | None = None
    #: Optional cooperative-cancellation hook polled before an experiment
    #: starts; once it returns true, :meth:`run` declines new experiments
    #: (returning ``None``) so a cancelled campaign drains quickly.
    cancel_check: Callable[[], bool] | None = None
    #: Expected seconds per injection point id (recorded durations, or
    #: estimates from coverage reach times), from which
    #: :meth:`iter_mutations` dispatches longest-expected-first.  Empty
    #: means plan order.  Shard payloads carry their members' entries
    #: (:meth:`expected_for`), so a shard worker orders its part alike.
    expected_seconds: dict[str, float] = field(default_factory=dict)

    # -- deterministic derivation ------------------------------------------------

    def experiment_rng(self, experiment_id: str) -> SeededRandom:
        """The experiment's private RNG stream (stable across runs)."""
        return SeededRandom(self.campaign_seed).derive(experiment_id)

    def runtime_seed(self, experiment_id: str) -> int:
        """The sandbox ``SEED_ENV`` value for one experiment."""
        return experiment_seed(self.campaign_seed, experiment_id)

    # -- pipelined mutant generation ----------------------------------------------

    def dispatch_order(
        self, planned: Iterable[PlannedExperiment],
    ) -> list[PlannedExperiment]:
        """``planned`` in the order :meth:`iter_mutations` generates it.

        The base order is ``(file, spec, ordinal)``.  With
        :attr:`expected_seconds`, ``(file, spec)`` groups come longest
        expected member first, and members longest first within their
        group; a point with no estimate is expected to take the median
        of the estimates, and ties keep the base order.
        Groups stay contiguous, so each still gets one ``MatchMemo``.
        """
        # sorted() is stable, so ties keep their plan order.
        ordered = sorted(planned, key=lambda experiment: (
            experiment.point.file, experiment.point.spec_name,
            experiment.point.ordinal,
        ))
        expected = self.expected_for(ordered)
        if not expected:
            return ordered

        def slowest_first(experiment: PlannedExperiment) -> float:
            return -expected[experiment.point.point_id]

        groups = [sorted(group, key=slowest_first)
                  for _, group in groupby(ordered, key=_group_key)]
        groups.sort(key=lambda group: slowest_first(group[0]))
        return [experiment for group in groups for experiment in group]

    def expected_for(
        self, planned: Iterable[PlannedExperiment],
    ) -> dict[str, float]:
        """Expected seconds per point id of ``planned``: its estimate in
        :attr:`expected_seconds`, or the median of the estimates for a
        point with none.  Empty when there are no estimates."""
        if not self.expected_seconds:
            return {}
        fallback = statistics.median(self.expected_seconds.values())
        return {experiment.point.point_id:
                self.expected_seconds.get(experiment.point.point_id,
                                          fallback)
                for experiment in planned}

    def iter_mutations(
        self, planned: Iterable[PlannedExperiment],
    ) -> Iterator[tuple[PlannedExperiment, Mutation | Exception]]:
        """Lazily generate the plan's mutants, one ``(file, spec)`` group
        at a time.

        This is the producer side of the pipelined execution engine and
        the only way a mutant is made: the sandbox pool pulls jobs from
        this generator as worker slots free, so group N+1 is generated
        while group N's experiments run.  Generation stays on the single
        consuming thread (the serial :class:`MatchMemo` guarantee), and
        peak memory is bounded by the largest group (one pristine source
        plus its mutants), not by the plan.

        Every request draws only from its experiment's own RNG stream
        (derived from the campaign seed), so the yielded mutants do not
        depend on plan order.  An experiment whose mutant cannot be
        generated — the file cannot be read or decoded, the spec is
        unknown, the ordinal is stale — yields the exception instead of
        a :class:`Mutation`; :meth:`run` records it as a ``harness_error``
        for just that experiment, and the rest of the plan proceeds.
        """
        source_file: str | None = None
        source: str | Exception = ""
        for (file, spec_name), group in groupby(
            self.dispatch_order(planned), key=_group_key,
        ):
            group = list(group)
            # Consecutive groups of one file share its source (or its
            # read error); only a longest-first order re-reads a file.
            if file != source_file:
                source_file = file
                try:
                    source = self.image.read_file(file)
                except Exception as error:  # noqa: BLE001 - per experiment
                    source = error
            error = source if isinstance(source, Exception) else None
            if error is None and spec_name not in self.models:
                error = KeyError(spec_name)
            if error is not None:
                for experiment in group:
                    yield experiment, error
                continue
            requests = [MutantRequest(
                key=experiment.experiment_id,
                source=source,
                model=self.models[spec_name],
                ordinal=experiment.point.ordinal,
                fault_id=experiment.point.point_id,
                file=experiment.point.file,
                rng=self.experiment_rng(experiment.experiment_id),
            ) for experiment in group]
            mutations = generate_mutants(requests, trigger=self.trigger)
            for experiment in group:
                # pop: each mutant is released to its job immediately, so
                # at most one group's worth is alive at any moment.
                yield experiment, mutations.pop(experiment.experiment_id)

    # -- execution ---------------------------------------------------------------

    def run(self, planned: PlannedExperiment,
            mutation: Mutation | Exception | None = None,
            ) -> ExperimentResult | None:
        """Execute one experiment end-to-end; never raises for target bugs.

        ``mutation`` is what :meth:`iter_mutations` yielded for
        ``planned``: its mutant, or the exception generation raised,
        which is recorded as this experiment's ``harness_error``.  When
        omitted, the mutant comes from ``iter_mutations([planned])``.
        Returns ``None`` without running anything when
        :attr:`cancel_check` reports a cancellation request (the
        experiment is simply not recorded, so a resumed campaign
        re-plans it).
        """
        if self.cancel_check is not None and self.cancel_check():
            return None
        if mutation is None:
            [(_, mutation)] = self.iter_mutations([planned])
        point = planned.point
        result = ExperimentResult(
            experiment_id=planned.experiment_id,
            point=point.to_dict(),
            fault_id=point.point_id,
            spec_name=point.spec_name,
            seed=self.runtime_seed(planned.experiment_id),
        )
        started = time.monotonic()
        try:
            self._run_inner(planned, result, mutation)
        except ServiceStartError as error:
            result.status = STATUS_SERVICE_START_FAILED
            result.error = str(error)
        except Exception as error:  # noqa: BLE001 - harness robustness
            result.status = STATUS_HARNESS_ERROR
            result.error = f"{type(error).__name__}: {error}"
        result.duration = time.monotonic() - started
        if self.artifacts_dir is not None:
            result.save(self.artifacts_dir / f"{planned.experiment_id}.json")
        return result

    def _run_inner(self, planned: PlannedExperiment,
                   result: ExperimentResult,
                   mutation: Mutation | Exception) -> None:
        if isinstance(mutation, Exception):
            raise mutation
        point = planned.point
        result.original_snippet = mutation.original_snippet
        result.mutated_snippet = mutation.mutated_snippet

        with Sandbox.create(self.image, self.base_dir,
                            planned.experiment_id) as sandbox:
            trigger_path = sandbox.write_file(TRIGGER_FILE, "0")
            sandbox.env[TRIGGER_ENV] = str(trigger_path)
            sandbox.env[SEED_ENV] = str(result.seed)
            sandbox.write_file(point.file, mutation.source)

            start_services(sandbox, self.workload)
            for round_no in range(1, self.rounds + 1):
                fault_enabled = round_no == 1
                sandbox.write_file(TRIGGER_FILE,
                                   "1" if fault_enabled else "0")
                round_result = run_round(sandbox, self.workload, round_no,
                                         fault_enabled)
                result.rounds.append(round_result)
            result.logs = {
                **sandbox.service_logs(),
                **sandbox.collect_logs(self.workload.log_files),
            }
        result.status = STATUS_COMPLETED

    def run_fault_free(self, name: str = "fault-free") -> ExperimentResult:
        """One pristine run of the workload (baseline / sanity check)."""
        result = ExperimentResult(experiment_id=name, point={},
                                  spec_name="<none>")
        started = time.monotonic()
        try:
            with Sandbox.create(self.image, self.base_dir, name) as sandbox:
                start_services(sandbox, self.workload)
                round_result = run_round(sandbox, self.workload, 1,
                                         fault_enabled=False)
                result.rounds.append(round_result)
                result.logs = sandbox.service_logs()
            result.status = STATUS_COMPLETED
        except ServiceStartError as error:
            result.status = STATUS_SERVICE_START_FAILED
            result.error = str(error)
        result.duration = time.monotonic() - started
        return result


def _group_key(experiment: PlannedExperiment) -> tuple[str, str]:
    """The ``(file, spec)`` group an experiment's mutant is made in."""
    return experiment.point.file, experiment.point.spec_name
