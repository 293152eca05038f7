"""Closed-loop load over ``/v1``: one client, one outstanding campaign.

The service runs in-process behind its loopback HTTP server; the
benchmark talks to it only through :class:`ProFIPyClient`: submit,
wait, then fetch the summary, the report and the experiments.  Every
measured campaign is checked against a reference built in-process
through the library on the thread backend.
"""

from __future__ import annotations

import json
import os
import resource
import shutil
import time
from dataclasses import dataclass, field, replace
from pathlib import Path

from repro.orchestrator.campaign import Campaign, CampaignConfig
from repro.orchestrator.experiment import (
    STATUS_HARNESS_ERROR,
    STATUS_SERVICE_START_FAILED,
)
from repro.service.client import ProFIPyClient
from repro.service.http import start_server
from repro.service.service import ProFIPyService

#: A campaign that is not done by then counts as a failed operation.
CAMPAIGN_TIMEOUT = 150.0

#: No cycle starts once the run could no longer end within this budget.
RUN_BUDGET_S = 150.0

#: Experiment outcomes that are harness failures, not fault effects.
HARNESS_FAILURES = (STATUS_HARNESS_ERROR, STATUS_SERVICE_START_FAILED)


def cpu_seconds() -> float:
    """User + system CPU of this process and its reaped children."""
    total = 0.0
    for who in (resource.RUSAGE_SELF, resource.RUSAGE_CHILDREN):
        usage = resource.getrusage(who)
        total += usage.ru_utime + usage.ru_stime
    return total


def projection(experiments, points_found: int) -> bytes:
    """The fields that must match the reference byte for byte:
    experiment ids, ``point``, ``mutated_snippet``, ``seed`` and
    ``points_found`` (the determinism invariant)."""
    rows = [
        {
            "experiment_id": experiment.experiment_id,
            "point": experiment.point,
            "mutated_snippet": experiment.mutated_snippet,
            "seed": experiment.seed,
        }
        for experiment in sorted(experiments,
                                 key=lambda e: e.experiment_id)
    ]
    return json.dumps({"points_found": points_found, "experiments": rows},
                      sort_keys=True).encode("utf-8")


@dataclass(frozen=True)
class Reference:
    """The expected projection of one tree state."""

    projection: bytes
    experiments: int

    def matches(self, experiments, points_found: int) -> bool:
        return projection(experiments, points_found) == self.projection


def build_reference(config: CampaignConfig) -> Reference:
    """Run ``config`` in-process through the library on the thread
    backend and keep its projection."""
    config = replace(config, backend="thread", shards=1)
    result = Campaign(config).run()
    return Reference(projection(result.experiments, result.points_found),
                     len(result.experiments))


@dataclass
class CampaignRun:
    """What one submitted campaign cost and produced."""

    kind: str
    turnaround: float = 0.0
    fetch: float = 0.0
    queue_wait: float = 0.0
    wait_return: float = 0.0
    cpu: float = 0.0
    status: str = ""
    planned: int = 0
    experiments: list = field(default_factory=list)
    #: False when a completed campaign's projection differs from the
    #: reference; a job that did not complete counts in ``failed``.
    correct: bool = True

    @property
    def failed(self) -> int:
        """Harness-failed experiments, missing experiments, and the job
        itself when it did not complete."""
        if self.status != "completed":
            return max(1, self.planned)
        harness = sum(1 for e in self.experiments
                      if e.status in HARNESS_FAILURES)
        missing = max(0, self.planned - len(self.experiments))
        return harness + missing


class Service:
    """The service in-process behind its loopback HTTP server."""

    def __init__(self, workspace: Path) -> None:
        self.core = ProFIPyService(workspace, max_workers=1)
        self.server, self.thread = start_server(self.core)
        self.client = ProFIPyClient(self.server.url,
                                    timeout=CAMPAIGN_TIMEOUT)
        self.client.ping()

    def close(self) -> None:
        self.server.shutdown()
        self.server.server_close()
        self.thread.join(timeout=30)
        self.core.close()

    def campaign(self, config: CampaignConfig, workload, kind: str,
                 reference: Reference | None) -> CampaignRun:
        """Submit, wait, fetch; check against ``reference``."""
        run = CampaignRun(kind=kind)
        if reference is not None:
            run.planned = reference.experiments
        client = self.client
        cpu_before = cpu_seconds()
        started = time.monotonic()
        job = client.submit_campaign(config, rules=workload.rules,
                                     components=workload.components,
                                     block=False)
        try:
            done = client.wait(job.job_id, timeout=CAMPAIGN_TIMEOUT)
        except TimeoutError:
            # A job that never finishes is a failed operation: cancel it
            # (in-flight experiments drain) and report the run as such.
            client.cancel(job.job_id)
            done = client.wait(job.job_id, timeout=CAMPAIGN_TIMEOUT)
        returned = time.time()
        run.status = done.status
        if done.status == "completed":
            fetch_started = time.monotonic()
            summary = client.result_summary(job.job_id)
            client.report_text(job.job_id)
            run.experiments = client.experiments(job.job_id)
            finished = time.monotonic()
            run.fetch = finished - fetch_started
        else:
            finished = time.monotonic()
        run.turnaround = finished - started
        run.cpu = cpu_seconds() - cpu_before
        if done.status == "completed" and reference is not None:
            run.correct = reference.matches(run.experiments,
                                            summary["points_found"])
        if done.started_at is not None:
            run.queue_wait = done.started_at - done.submitted_at
        if done.finished_at is not None:
            run.wait_return = returned - done.finished_at
        return run


def remove(path: Path) -> None:
    shutil.rmtree(path, ignore_errors=True)


class Bench:
    """Set-up, references, and the closed measurement loop of one run."""

    def __init__(self, workload, seed: int, work: Path) -> None:
        self.workload = workload
        self.seed = seed
        self.work = work
        self.started = time.monotonic()
        self.service = None
        self.target: Path | None = None
        self.references = {}
        self.setup_times: list[float] = []
        self.tracer = None

    def close(self) -> None:
        if self.service is not None:
            self.service.close()
            self.service = None

    # -- set-up ------------------------------------------------------------------

    def setup(self, repeats: int) -> None:
        """Start the service, generate the inputs from the seed, and run
        one untimed warm-up campaign over a tree distinct from the
        target; ``repeats`` times, keeping the last service."""
        workload = self.workload
        base = None
        for index in range(repeats):
            self.close()
            if base is not None:
                remove(base)
            base = self.work / f"setup-{index}"
            started = time.perf_counter()
            self.service = Service(base / "service")
            workload.generate(base / "inputs", self.seed)
            warmup = self.service.campaign(
                workload.config(base / "inputs" / "warmup",
                                base / "warmup", base / "warmup-cache",
                                warmup=True),
                workload, "warmup", None,
            )
            self.setup_times.append(time.perf_counter() - started)
            if warmup.status != "completed":
                raise RuntimeError(f"warm-up campaign {warmup.status}")
            remove(base / "warmup")
        self.target = base / "inputs" / "target"

    def build_references(self) -> None:
        """One reference per tree state, on a distinct copy of it."""
        workload = self.workload
        tree = self.work / "reference" / "target"
        shutil.copytree(self.target, tree)
        self.references["base"] = build_reference(workload.config(
            tree, self.work / "reference" / "base",
            self.work / "reference" / "base-cache"))
        if workload.edit(tree):
            self.references["edited"] = build_reference(workload.config(
                tree, self.work / "reference" / "edited",
                self.work / "reference" / "edited-cache"))

    # -- measurement ---------------------------------------------------------------

    def measure(self, seconds: float, tag: str) -> list:
        """Cycles of cold campaign → edit → re-campaign on the same
        scan cache → restore, until ``seconds`` have passed."""
        workload = self.workload
        runs = []
        # Flush what set-up wrote and deleted first: on a filesystem
        # with online discard, that backlog would otherwise land on the
        # first measured campaigns.  For the same reason the loop
        # deletes nothing of its own; the run's directory goes at exit.
        os.sync()
        deadline = time.monotonic() + seconds
        cycle = 0
        while True:
            cycle_started = time.monotonic()
            base = self.work / "cycles" / f"{tag}-{cycle}"
            cache = base / "cache"
            runs.append(self._campaign("cold", base / "cold", cache,
                                       self.references["base"]))
            edited = workload.edit(self.target)
            runs.append(self._campaign(
                "rescan", base / "rescan", cache,
                self.references["edited" if edited else "base"]))
            workload.restore(self.target)
            cycle += 1
            now = time.monotonic()
            if now >= deadline or (now - self.started + now - cycle_started
                                   > RUN_BUDGET_S):
                return runs

    def _campaign(self, kind: str, workspace: Path, cache: Path,
                  reference):
        if self.tracer is not None:
            self.tracer.phase = kind
        return self.service.campaign(
            self.workload.config(self.target, workspace, cache),
            self.workload, kind, reference)
