"""The full ProFIPy workflow: Scan → Execution → Data Analysis (Fig. 2).

:meth:`Campaign.run` is a sequence of stages, each a :class:`Campaign`
method that takes and returns plain data: ``prepare`` (materialize a
manifest-only target, check the target, build the sandbox image),
``scan``, ``plan`` (points to a :class:`Plan`, filters applied),
``open_stream`` (meta check, shard-stream recovery and the recorded
ids, before any sandbox starts), ``execute`` and ``finish`` (a stopping
rule's early stop versus a cancellation).

``execute`` hands a pluggable backend (``CampaignConfig.backend``) the
coverage pre-run (``cover``) and ``schedule``, which turns the pre-run's
report into the ordered pending list: the plan reduced to the covered
points, sampled, minus the recorded experiments, with expected seconds
for longest-first dispatch (``order``).  The thread backend runs the
pre-run in one pool slot and, when reaching a point decides that it
belongs to the plan (no sample, no stopping rule), starts experiments
of points already reached in the others; the sharded backends run it
first.  Without coverage, ``schedule`` runs before the backend.  The
backend pipelines mutant generation with execution and streams results
to disk.

The execution phase is deterministic and crash-resumable: every
per-experiment RNG and runtime seed derives from
``sha256(campaign_seed, experiment_id)``, and completed experiments are
appended to an ``experiments.jsonl`` stream as they finish.  A restarted
campaign over the same stream skips the recorded experiment ids.
"""

from __future__ import annotations

import dataclasses
import functools
import tempfile
import time
from dataclasses import dataclass, field
from pathlib import Path

from repro.common.fsutil import iter_python_files, remove_tree
from repro.faultmodel.model import FaultModel
from repro.orchestrator.backends import (
    BACKEND_REMOTE,
    BACKEND_THREAD,
    ExecutionContext,
    ExecutionOutcome,
    PreRun,
    create_backend,
    discard_shard_streams,
    recover_shard_streams,
    validate_backend_name,
)
from repro.orchestrator.coverage import (
    CoverageReport,
    durations_key,
    reduce_plan,
    run_coverage,
)
from repro.orchestrator.executor import ExperimentExecutor
from repro.orchestrator.experiment import ExperimentResult
from repro.orchestrator.plan import Plan, PlannedExperiment
from repro.orchestrator.stream import ExperimentStream
from repro.sandbox.image import SandboxImage
from repro.scanner.cache import ScanCache, faultload_digest
from repro.scanner.scan import ScanResult, scan_files
from repro.stats.config import SamplingConfig
from repro.stats.sampler import monotone_sample
from repro.stats.stopping import StoppingMonitor, rule_from_sampling
from repro.workload.spec import WorkloadSpec


class CampaignCancelled(Exception):
    """A campaign stopped early on a cooperative cancellation request.

    Raised by :meth:`Campaign.run` when its ``cancel`` hook reports a
    request between experiments.  In-flight experiments finish and are
    recorded; the partial :class:`CampaignResult` (with its result
    stream) rides on :attr:`result`, so the stream is a valid
    ``resume_from`` point for a follow-up campaign.
    """

    def __init__(self, result: "CampaignResult") -> None:
        super().__init__(f"campaign {result.name!r} cancelled after "
                         f"{result.executed} experiments")
        self.result = result


@dataclass
class CampaignConfig:
    """Everything the user configures for one campaign (paper Fig. 2)."""

    name: str
    target_dir: Path
    fault_model: FaultModel
    workload: WorkloadSpec
    #: Relative paths of the files to inject (None = every .py in target).
    injectable_files: list[str] | None = None
    containerfile: str | None = None
    trigger: bool = True
    rounds: int = 2
    coverage: bool = True
    #: Random sample size over the plan (None = inject everywhere).
    #: Drawn through the prefix-stable seeded sampler, so raising the
    #: size and resuming executes only the delta.
    sample: int | None = None
    #: Statistical sampling / early-stopping policy (see
    #: :class:`repro.stats.config.SamplingConfig`).  Its
    #: ``max_experiments`` supersedes :attr:`sample` when both are set.
    sampling: SamplingConfig | None = None
    #: Filters applied to the plan before sampling.
    spec_filter: list[str] | None = None
    file_filter: list[str] | None = None
    #: None = adaptive N-1 parallelism; an int pins the worker count.
    parallelism: int | None = None
    #: Execution backend: ``"thread"`` (one in-process pool),
    #: ``"remote"`` (per-shard workers over the /v1 API), or
    #: ``"process"`` (the remote backend over per-shard loopback worker
    #: processes it spawns itself).  Results are byte-identical
    #: across backends — this is purely a scaling choice.
    backend: str = BACKEND_THREAD
    #: Shard count for the deterministic plan partitioner (independent
    #: of results; a resumed campaign may change it freely).
    shards: int = 1
    #: Worker base URLs (``http://host:port`` of ``profipy worker``
    #: instances) for the remote backend.  The remote backend needs
    #: at least one of ``workers`` / ``registry_url``.
    workers: list[str] | None = None
    #: Coordinator URL whose ``/v1/workers`` registry supplies (and
    #: health-tracks) the fleet for the remote backend.  Static
    #: ``workers`` URLs still work and are registered there as
    #: unmanaged peers when both are given.
    registry_url: str | None = None
    #: Content-addressed snapshot of the pristine target tree
    #: (``ImageManifest.to_dict()`` form).  When set and ``target_dir``
    #: is absent on this host, the campaign materializes the tree from
    #: the blob store into its workspace first — how a campaign
    #: submitted over the /v1 API runs without any filesystem path
    #: shared with the client.
    image_manifest: dict | None = None
    #: Local blob store directory: where a manifest-bearing campaign
    #: materializes its target from, and where the remote backend
    #: ingests the built image before shipping it to workers (default:
    #: ``<workspace>/blobs``; the service points submitted campaigns at
    #: its own persistent store).
    blob_cache_dir: Path | None = None
    #: Scan-phase worker processes (None/1 = in-process indexed scan).
    scan_jobs: int | None = None
    #: Persistent scan-cache directory; repeated campaigns over unchanged
    #: trees skip re-matching (the as-a-Service fast path).
    scan_cache_dir: Path | None = None
    #: Incremental scan over the cache's stat/tree manifests: a
    #: re-campaign reads, hashes, and scans only the files that changed
    #: since the last scan.  Turn off to force every file to be re-read
    #: and re-hashed (the per-file cache still applies).
    scan_incremental: bool = True
    seed: int = 0
    #: Workspace directory (default: a fresh temporary directory).
    workspace: Path | None = None
    keep_artifacts: bool = False
    #: Result stream file (default: ``<workspace>/experiments.jsonl``).
    results_path: Path | None = None
    #: Skip experiments already recorded in the result stream.  Leave on
    #: for crash-resume; turn off to force a full re-run over a reused
    #: workspace (the stream is truncated first).
    resume: bool = True

    def __post_init__(self) -> None:
        self.target_dir = Path(self.target_dir)
        # target_dir existence is checked where the tree is actually
        # read (scan / run), not at construction: a config may legally
        # name a tree that exists only as a content-addressed manifest,
        # or round-trip through the API on a host that never sees the
        # client's filesystem.
        validate_backend_name(self.backend)
        if isinstance(self.sampling, dict):
            # Wire-format configs arrive with the sampling block as a
            # plain dict; normalize (and validate) it here.
            self.sampling = SamplingConfig.from_dict(self.sampling)
        elif not isinstance(self.sampling, (SamplingConfig, type(None))):
            raise ValueError(
                "sampling must be a SamplingConfig, its dict form, or "
                f"None, got {type(self.sampling).__name__}")
        if self.shards < 1:
            raise ValueError(f"shards must be >= 1, got {self.shards}")
        if (self.backend == BACKEND_REMOTE and not self.workers
                and not self.registry_url):
            raise ValueError(
                "backend 'remote' requires worker URLs "
                "(CampaignConfig.workers / --worker) or a registry "
                "(CampaignConfig.registry_url / --registry)"
            )
        if self.workspace is not None:
            # Sandboxed workloads run with their own cwd; a relative
            # workspace (e.g. the CLI's default .profipy) would make the
            # coverage/trigger paths resolve against the wrong directory.
            self.workspace = Path(self.workspace).resolve()
        if self.results_path is not None:
            self.results_path = Path(self.results_path).resolve()
        if self.blob_cache_dir is not None:
            self.blob_cache_dir = Path(self.blob_cache_dir).resolve()


@dataclass
class CampaignResult:
    """Everything a campaign produced, for the analysis phase.

    Experiment results live in the ``experiments.jsonl`` stream at
    ``experiments_path``; :attr:`experiments` loads them lazily (sorted by
    experiment id, so the order is deterministic regardless of completion
    order).  During execution nothing accumulates in memory.
    """

    name: str
    points_found: int = 0
    points_planned: int = 0
    #: Plan size before sampling truncated it (== points_planned for
    #: unsampled campaigns).
    population: int = 0
    coverage: CoverageReport | None = None
    scan_seconds: float = 0.0
    #: The coverage pre-run alone (instrumentation, cache lookup, run).
    coverage_seconds: float = 0.0
    #: The execution phase, pre-run included on every backend: on the
    #: thread backend experiments run beside the pre-run, so the two
    #: phases overlap.
    execution_seconds: float = 0.0
    scan_errors: dict[str, str] = field(default_factory=dict)
    #: Where the per-experiment result stream lives (None once the
    #: backing file is gone, e.g. a deleted temporary workspace).
    experiments_path: Path | None = None
    #: Kept workspace (explicit, or temporary with ``keep_artifacts``).
    workspace: Path | None = None
    artifacts_dir: Path | None = None
    #: Experiments skipped because the stream already recorded them.
    resumed: int = 0
    #: Set when a stopping rule ended the campaign before the plan was
    #: exhausted: ``{reason, experiments, confidence, modes: {...}}``
    #: with per-mode Wilson estimates.  The stream stays a valid resume
    #: point — a follow-up campaign extends it toward exhaustive.
    stopped_early: dict | None = None
    #: Final per-failure-mode estimates (same shape as the
    #: ``stopped_early`` block) whenever a sampling policy was active.
    mode_estimates: dict | None = None
    _experiments: list[ExperimentResult] | None = None

    @property
    def experiments(self) -> list[ExperimentResult]:
        if self._experiments is None:
            if self.experiments_path is not None:
                self._experiments = sorted(
                    ExperimentStream(self.experiments_path).load(),
                    key=lambda experiment: experiment.experiment_id,
                )
            else:
                self._experiments = []
        return self._experiments

    @experiments.setter
    def experiments(self, value: list[ExperimentResult]) -> None:
        self._experiments = list(value)

    def materialize(self) -> None:
        """Load the stream into memory (call before its file disappears)."""
        _ = self.experiments

    @property
    def executed(self) -> int:
        return len(self.experiments)

    @property
    def failures(self) -> list[ExperimentResult]:
        return [e for e in self.experiments if e.any_failure]

    @property
    def failures_round1(self) -> list[ExperimentResult]:
        return [e for e in self.experiments if e.failed_round1]

    @property
    def failures_round2(self) -> list[ExperimentResult]:
        return [e for e in self.experiments if e.failed_round2]

    def summary(self) -> dict:
        """The §V headline numbers for this campaign."""
        return {
            "campaign": self.name,
            "scan_errors": len(self.scan_errors),
            "points_found": self.points_found,
            "points_covered": (self.coverage.covered_count
                               if self.coverage else None),
            "experiments": self.executed,
            "experiments_with_failures": len(self.failures),
            "failures_round1": len(self.failures_round1),
            "failures_round2": len(self.failures_round2),
            "resumed": self.resumed,
            "population": self.population,
            "stopped_early": self.stopped_early,
            "mode_estimates": self.mode_estimates,
            "workspace": str(self.workspace) if self.workspace else None,
            "artifacts_dir": (str(self.artifacts_dir)
                              if self.artifacts_dir else None),
        }


class Campaign:
    """Drives one fault injection campaign end to end."""

    def __init__(self, config: CampaignConfig) -> None:
        self.config = config
        self.models = {
            model.name: model for model in config.fault_model.compile()
        }
        #: Shared by the scan and the coverage pre-run, so one
        #: ``stats()`` counts both.
        self.scan_cache = (ScanCache(config.scan_cache_dir)
                           if config.scan_cache_dir is not None else None)

    # -- stages ------------------------------------------------------------------

    def prepare(self, workspace: Path, say) -> tuple[object | None,
                                                     SandboxImage]:
        """Materialize a manifest-only target (replacing :attr:`config`),
        check the target and build the image: ``(manifest, image)``."""
        config = self.config
        target_manifest = None
        if config.image_manifest is not None:
            # Lazy: the service package imports orchestrator modules.
            from repro.service.blobs import BlobStore, ImageManifest

            target_manifest = ImageManifest.from_dict(config.image_manifest)
            if not config.target_dir.exists():
                # The target tree never touched this host's disk:
                # rebuild it byte-for-byte from the local blob store
                # and run the normal workflow over the copy.
                say("materializing target from manifest "
                    f"{target_manifest.tree_digest[:12]}")
                materialized = workspace / "target"
                target_manifest.materialize(materialized, BlobStore(
                    config.blob_cache_dir or workspace / "blobs"))
                config = self.config = dataclasses.replace(
                    config, target_dir=materialized)
        if not config.target_dir.exists():
            raise FileNotFoundError(
                f"target_dir {config.target_dir} not found")
        say("building sandbox image")
        image = SandboxImage.build(config.target_dir, workspace / "image",
                                   containerfile=config.containerfile)
        return target_manifest, image

    def scan(self) -> ScanResult:
        """Find every injection point in the injectable files.

        Runs through the indexed scan engine: spec prefilters, one shared
        AST walk per file, ``scan_jobs`` warm worker processes, and an
        optional content-addressed result cache.  Missing or unreadable
        injectable files are recorded in ``parse_errors`` rather than
        aborting the campaign.
        """
        config = self.config
        if not config.target_dir.exists():
            raise FileNotFoundError(
                f"target_dir {config.target_dir} not found")
        files = config.injectable_files
        if files is None:
            paths = sorted(iter_python_files(config.target_dir))
        else:
            paths = [config.target_dir / rel for rel in files]
        # Specs and models derive from the same compiled set, so the
        # serial and parallel paths scan an identical faultload (and
        # produce identical cache digests).
        models = list(self.models.values())
        return scan_files(
            paths, [model.spec for model in models], root=config.target_dir,
            jobs=config.scan_jobs or 1, cache=self.scan_cache, models=models,
            incremental=config.scan_incremental,
        )

    def plan(self, scan: ScanResult) -> Plan:
        """The scanned points as a plan, narrowed by the filters."""
        config = self.config
        plan = Plan.from_points(scan.points, prefix=f"{config.name}")
        if config.spec_filter or config.file_filter:
            plan = plan.filter(spec_names=config.spec_filter,
                               files=config.file_filter)
        return plan

    def open_stream(self, stream: ExperimentStream, plan: Plan,
                    target_manifest) -> tuple[set[str], int]:
        """Check the result stream against this campaign (or clear it,
        with ``resume`` off): ``(experiment ids it has recorded,
        experiments recovered from partial shard streams)``."""
        config = self.config
        # Fingerprint of everything that gives experiment ids their
        # meaning; a stream recorded under different parameters must
        # not be silently replayed as this campaign's results.
        stream_meta = {
            "campaign": config.name,
            "seed": config.seed,
            "faultload": faultload_digest(list(self.models.values())),
            # A manifest names the target by *content*, so the same
            # campaign resumes cleanly on any host; a path-based target
            # keeps its host-local identity.
            "target": (f"manifest:{target_manifest.tree_digest}"
                       if target_manifest is not None
                       else str(config.target_dir.resolve())),
        }
        if not config.resume:
            stream.clear()
            discard_shard_streams(stream.path)
            stream.write_meta(stream_meta)
            return set(), 0
        existing_meta = stream.read_meta()
        if existing_meta is not None and existing_meta != stream_meta:
            changed = sorted(key for key in stream_meta
                             if existing_meta.get(key) != stream_meta[key])
            raise ValueError(
                f"result stream {stream.path} was recorded by a "
                f"different campaign (changed: {', '.join(changed)}); "
                "re-run with resume=False (--no-resume) or use a "
                "fresh workspace"
            )
        # A run killed mid-flight under a sharded backend leaves partial
        # per-shard streams; fold them into the canonical stream *before*
        # computing the resume set, so those experiments count as
        # recorded regardless of the backend or shard count this run uses.
        salvaged = recover_shard_streams(stream)
        recorded = stream.recorded_ids()
        if existing_meta is None:
            stream.write_meta(stream_meta)
        return recorded, salvaged

    def cover(self, image: SandboxImage, plan: Plan, workspace: Path,
              result: CampaignResult, say,
              on_services_started) -> CoverageReport:
        """Run (or reuse) the coverage pre-run over ``plan``'s points,
        timed into ``result.coverage_seconds``; ``on_services_started``
        is :func:`run_coverage`'s callback."""
        say(f"coverage pre-run over {len(plan)} points")
        started = time.monotonic()
        report = run_coverage(image, self.config.workload, plan.points,
                              self.models, workspace / "sandboxes",
                              cache=self.scan_cache,
                              on_services_started=on_services_started)
        result.coverage_seconds = time.monotonic() - started
        return report

    def reduce(self, plan: Plan, report: CoverageReport, started: int,
               say) -> Plan:
        """``plan`` reduced to the covered points.  A pre-run whose
        services failed to start raises ``RuntimeError``."""
        if report.error:
            # Reducing by an empty covered set would "complete" a
            # campaign that injected nothing.
            raise RuntimeError(f"coverage pre-run failed: {report.error}")
        if report.reused:
            say(f"coverage reused (key {report.key[:12]})")
        if report.workload_failed:
            # The plan is still reduced, but by what a failing run
            # reached: say so.
            say("coverage pre-run: fault-free workload failed; covered "
                "set not stored")
        if started:
            say(f"coverage pre-run: {started} experiments started while "
                "it ran")
        return reduce_plan(plan, report)

    def sample(self, plan: Plan, say) -> Plan:
        """The configured sample of ``plan``, drawn prefix-stable: a
        larger target (or none) plans a superset, so resume runs only
        the delta."""
        target = self.sample_size()
        if target is None:
            return plan
        sampling = self.config.sampling
        sampled = monotone_sample(plan, target, self.config.seed, stratify_by=(
            sampling.stratify_by if sampling is not None else None))
        say(f"sampled {len(sampled)} of {len(plan)} planned experiments")
        return sampled

    def sample_size(self) -> int | None:
        """How many experiments the plan is sampled down to (None: all)."""
        sampling = self.config.sampling
        if sampling is not None and sampling.max_experiments is not None:
            return sampling.max_experiments
        return self.config.sample

    def order(self, dispatch_key: str | None,
              coverage: CoverageReport | None, say) -> dict[str, float]:
        """Expected seconds per point id for longest-first dispatch:
        recorded durations, else coverage reach times, else none."""
        recorded = (self.scan_cache.lookup_durations(dispatch_key)
                    if dispatch_key is not None else None)
        if recorded is not None:
            expected = recorded["durations"]
            say(f"dispatch longest-first from {len(expected)} recorded "
                f"durations (key {dispatch_key[:12]})")
            return expected
        if coverage is not None and coverage.reached:
            expected = coverage.expected_seconds(self.config.rounds)
            say(f"dispatch longest-first from {len(expected)} coverage "
                "reach times")
            return expected
        return {}

    def schedule(self, plan: Plan, recorded: set[str], salvaged: int,
                 monitor: StoppingMonitor | None, dispatch_key: str | None,
                 executor: ExperimentExecutor, result: CampaignResult, say,
                 report: CoverageReport | None = None,
                 started: int = 0) -> list[PlannedExperiment]:
        """The pending experiments: ``plan`` reduced by the pre-run's
        ``report`` (``started`` of them already running), sampled, minus
        the ``recorded`` ones, with their dispatch estimates set on
        ``executor``.  Fills the plan counts of ``result``."""
        config = self.config
        if report is not None:
            result.coverage = report
            plan = self.reduce(plan, report, started, say)
        result.population = len(plan)
        plan = self.sample(plan, say)
        result.points_planned = len(plan)
        if salvaged:
            say(f"recovered {salvaged} experiments from partial shard "
                "streams")
        pending = plan.excluding(recorded)
        result.resumed = len(plan) - len(pending)
        if result.resumed:
            say(f"resuming: {result.resumed} experiments already "
                "recorded in the stream")
        # A stopping rule reads the stream as it grows, so its order
        # stays the plan's.
        executor.expected_seconds = (
            {} if monitor is not None
            else self.order(dispatch_key, report, say))
        say(f"executing {len(pending)} experiments "
            f"({config.backend} backend, {config.shards} shard(s), "
            "pipelined mutant generation)")
        return list(pending)

    def execute(self, image: SandboxImage, plan: Plan, recorded: set[str],
                salvaged: int, stream: ExperimentStream, workspace: Path,
                result: CampaignResult, cancel,
                monitor: StoppingMonitor | None, on_progress,
                say) -> ExecutionOutcome:
        """Run the pre-run and ``plan``'s pending experiments on the
        configured backend, then record each point's duration.  The
        executor polls the user's ``cancel``; the backend polls
        :func:`_cancel_or_stop`."""
        config = self.config
        dispatch_key = (durations_key(image, config.workload,
                                      config.rounds, config.trigger)
                        if self.scan_cache is not None else None)
        executor = ExperimentExecutor(
            image=image, workload=config.workload, models=self.models,
            base_dir=workspace / "sandboxes", trigger=config.trigger,
            rounds=config.rounds, campaign_seed=config.seed,
            artifacts_dir=result.artifacts_dir, cancel_check=cancel,
        )
        schedule = functools.partial(self.schedule, plan, recorded, salvaged,
                                     monitor, dispatch_key, executor, result,
                                     say)
        pending, prerun = [], None
        if config.coverage:
            # Only when reaching a point decides that it belongs to the
            # plan may its experiment start before the report.
            early = (plan.excluding(recorded).experiments
                     if monitor is None and self.sample_size() is None
                     else [])
            prerun = PreRun(run=functools.partial(
                self.cover, image, plan, workspace, result, say),
                schedule=schedule, early=early)
        else:
            pending = schedule()
        registry = shard_manifest = blob_store = None
        if config.registry_url:
            # Lazy: client.py imports this module at load time.
            from repro.service.client import ProFIPyClient

            registry = ProFIPyClient(config.registry_url, timeout=10.0)
        if config.backend == BACKEND_REMOTE:
            # Snapshot the *built* image (runtime + containerfile
            # effects included) into the local blob store; the backend
            # ships workers the manifest plus only the blobs each one
            # reports missing — no shared filesystem.
            from repro.service.blobs import BlobStore, ImageManifest

            blob_store = BlobStore(config.blob_cache_dir
                                   or workspace / "blobs")
            shard_manifest = ImageManifest.from_image(image, store=blob_store)
        context = ExecutionContext(
            executor=executor, fault_model=config.fault_model,
            shards=config.shards, parallelism=config.parallelism,
            cancel=(cancel if monitor is None else functools.partial(
                _cancel_or_stop, cancel, monitor.check)),
            on_progress=on_progress, workers=config.workers,
            registry=registry, image_manifest=shard_manifest,
            blob_store=blob_store, prerun=prerun,
        )
        outcome = create_backend(config.backend).execute(
            context, pending, stream)
        if dispatch_key is not None:
            self.scan_cache.store_durations(dispatch_key, stream.durations())
        return outcome

    def finish(self, result: CampaignResult, outcome: ExecutionOutcome,
               monitor: StoppingMonitor | None, cancel,
               say) -> CampaignResult:
        """Tell a stopping rule's early stop, a successful bounded-cost
        campaign, from a cancellation, which raises
        :class:`CampaignCancelled` with the partial result."""
        user_cancelled = cancel is not None and cancel()
        if monitor is not None:
            result.mode_estimates = monitor.summary_block()
        if outcome.cancelled or user_cancelled:
            if (monitor is not None and monitor.stopped
                    and not user_cancelled):
                # The stream stays a valid resume point.
                result.stopped_early = result.mode_estimates
                say(f"stopped early after {result.executed} experiments: "
                    f"{monitor.reason}")
            else:
                say(f"cancelled after {result.executed} recorded "
                    "experiments")
                raise CampaignCancelled(result)
        if result.stopped_early is None:
            say(f"done: {len(result.failures)}/{result.executed} "
                "experiments showed failures")
        return result

    # -- full workflow -------------------------------------------------------------

    def run(self, progress=None, cancel=None,
            on_progress=None) -> CampaignResult:
        """Run the stages in order, each timed at its boundaries.

        ``cancel`` is an optional zero-argument callable polled between
        experiments.  Once it returns true, no further experiment
        starts; in-flight ones finish and are recorded, then
        :class:`CampaignCancelled` is raised carrying the partial result.
        ``on_progress`` receives shard-aware progress snapshots over the
        *whole* plan (the feed the service persists for
        ``/v1/jobs/{id}``).
        """
        config = self.config
        owns_workspace = config.workspace is None
        workspace = Path(
            config.workspace or tempfile.mkdtemp(prefix="profipy-"))
        workspace.mkdir(parents=True, exist_ok=True)
        result = CampaignResult(name=config.name, workspace=workspace)
        say = functools.partial(_announce, progress, config.name)
        stream = ExperimentStream(
            config.results_path or workspace / "experiments.jsonl")
        try:
            target_manifest, image = self.prepare(workspace, say)
            say("scanning for injection points")
            scan, result.scan_seconds = _timed(self.scan)
            result.scan_errors = scan.parse_errors
            result.points_found = len(scan.points)
            plan = self.plan(scan)
            recorded, salvaged = self.open_stream(stream, plan,
                                                  target_manifest)
            monitor = _stopping_monitor(config.sampling, stream.path)
            if config.keep_artifacts:
                result.artifacts_dir = workspace / "artifacts"
                result.artifacts_dir.mkdir(parents=True, exist_ok=True)
            feed = (functools.partial(_progress_over_plan, on_progress,
                                      result)
                    if on_progress is not None else None)
            outcome, result.execution_seconds = _timed(
                self.execute, image, plan, recorded, salvaged, stream,
                workspace, result, cancel, monitor, feed, say)
            result.experiments_path = stream.path
            return self.finish(result, outcome, monitor, cancel, say)
        finally:
            if owns_workspace and not config.keep_artifacts:
                _discard_workspace(result, workspace)


def _announce(progress, name: str, message: str) -> None:
    """Send one progress line, prefixed with the campaign name."""
    if progress is not None:
        progress(f"[{name}] {message}")


def _timed(stage, *args):
    """``(stage(*args), seconds it took)``."""
    started = time.monotonic()
    value = stage(*args)
    return value, time.monotonic() - started


def _stopping_monitor(sampling: SamplingConfig | None,
                      stream_path: Path) -> StoppingMonitor | None:
    """The monitor of the sampling policy's stopping rule, if it has one.

    Sequential stopping rides the cooperative-cancel plumbing: the
    monitor tails the result streams, and its ``check()`` is OR-ed into
    the cancel hook every backend already polls between experiments.
    """
    rule = rule_from_sampling(sampling) if sampling is not None else None
    if rule is None:
        return None
    return StoppingMonitor(stream_path, rule,
                           confidence=sampling.confidence)


def _cancel_or_stop(cancel, stop) -> bool:
    """The backends' cancel hook under a stopping rule: true once the
    user's ``cancel`` or the rule's ``stop`` check is.  In-flight
    experiments drain either way; only the user's cancel raises."""
    if cancel is not None and cancel():
        return True
    return stop()


def _progress_over_plan(on_progress, result: CampaignResult,
                        snapshot: dict) -> None:
    """Pass on a backend's progress snapshot, which counts the pending
    remainder, over the whole plan: the resumed experiments count too.
    Backends send no snapshot before the pending list is scheduled, so
    ``result.resumed`` is set by then."""
    resumed = result.resumed
    snapshot = dict(snapshot)
    snapshot["experiments_done"] += resumed
    snapshot["experiments_total"] += resumed
    snapshot["resumed"] = resumed
    on_progress(snapshot)


def _discard_workspace(result: CampaignResult, workspace: Path) -> None:
    """Remove a temporary workspace, materializing the results streamed
    into it first so the analysis layer still sees them."""
    result.materialize()
    if (result.experiments_path is not None
            and workspace in result.experiments_path.parents):
        result.experiments_path = None
    result.workspace = None
    remove_tree(workspace)
