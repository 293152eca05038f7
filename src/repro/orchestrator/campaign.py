"""The full ProFIPy workflow: Scan → Execution → Data Analysis (Fig. 2).

:class:`Campaign` wires every phase together: compile the fault model,
scan the injectable files, build the plan (filter/sample), optionally
reduce it by coverage, then hand the pending plan to a pluggable
execution backend (``CampaignConfig.backend``) that pipelines mutant
generation with sharded experiment execution, streaming results to
disk, and finally pass everything to the analysis layer.

The execution phase is deterministic and crash-resumable: every
per-experiment RNG and runtime seed derives from
``sha256(campaign_seed, experiment_id)``, and completed experiments are
appended to an ``experiments.jsonl`` stream as they finish.  A restarted
campaign over the same stream skips the recorded experiment ids.
"""

from __future__ import annotations

import dataclasses
import tempfile
import time
from dataclasses import dataclass, field
from pathlib import Path

from repro.common.fsutil import remove_tree
from repro.faultmodel.model import FaultModel
from repro.orchestrator.backends import (
    BACKEND_REMOTE,
    BACKEND_THREAD,
    ExecutionContext,
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
from repro.orchestrator.plan import Plan
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
    coverage_seconds: float = 0.0
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

    # -- scan phase --------------------------------------------------------------

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
                f"target_dir {config.target_dir} not found"
            )
        files = config.injectable_files
        if files is None:
            from repro.common.fsutil import iter_python_files

            paths = sorted(iter_python_files(config.target_dir))
        else:
            paths = [config.target_dir / rel for rel in files]
        # Specs and models derive from the same compiled set, so the
        # serial and parallel paths scan an identical faultload (and
        # produce identical cache digests).
        models = list(self.models.values())
        return scan_files(
            paths,
            [model.spec for model in models],
            root=config.target_dir,
            jobs=config.scan_jobs or 1,
            cache=self.scan_cache,
            models=models,
            incremental=config.scan_incremental,
        )

    # -- full workflow -------------------------------------------------------------

    def run(self, progress=None, cancel=None,
            on_progress=None) -> CampaignResult:
        """Scan, plan, (optionally) reduce by coverage, execute, collect.

        ``cancel`` is an optional zero-argument callable polled between
        experiments (the service layer wires it to the job scheduler's
        cancel flag).  Once it returns true, no further experiment
        starts; in-flight ones finish and are recorded, then
        :class:`CampaignCancelled` is raised carrying the partial result.

        ``on_progress`` is an optional callable receiving shard-aware
        progress snapshots (``experiments_done``/``experiments_total``
        over the *whole* plan, plus per-shard states) as the execution
        backend advances — the feed the service layer persists for
        ``/v1/jobs/{id}``.

        A coverage pre-run whose services fail to start raises
        ``RuntimeError`` instead of reducing the plan to nothing.
        """
        config = self.config
        owns_workspace = config.workspace is None
        workspace = Path(
            config.workspace or tempfile.mkdtemp(prefix="profipy-")
        )
        workspace.mkdir(parents=True, exist_ok=True)
        result = CampaignResult(name=config.name)
        result.workspace = workspace
        say = progress or (lambda _msg: None)
        stream = ExperimentStream(
            config.results_path or workspace / "experiments.jsonl"
        )
        try:
            target_manifest = None
            if config.image_manifest is not None:
                # Lazy: the service package imports orchestrator modules.
                from repro.service.blobs import BlobStore, ImageManifest

                target_manifest = ImageManifest.from_dict(
                    config.image_manifest
                )
                if not config.target_dir.exists():
                    # The target tree never touched this host's disk:
                    # rebuild it byte-for-byte from the local blob store
                    # and run the normal workflow over the copy.
                    say(f"[{config.name}] materializing target from "
                        f"manifest {target_manifest.tree_digest[:12]}")
                    materialized = workspace / "target"
                    target_manifest.materialize(
                        materialized,
                        BlobStore(config.blob_cache_dir
                                  or workspace / "blobs"),
                    )
                    config = self.config = dataclasses.replace(
                        config, target_dir=materialized
                    )
            if not config.target_dir.exists():
                raise FileNotFoundError(
                    f"target_dir {config.target_dir} not found"
                )
            say(f"[{config.name}] building sandbox image")
            image = SandboxImage.build(
                config.target_dir, workspace / "image",
                containerfile=config.containerfile,
            )

            say(f"[{config.name}] scanning for injection points")
            scan_started = time.monotonic()
            scan = self.scan()
            result.scan_seconds = time.monotonic() - scan_started
            result.scan_errors = scan.parse_errors
            result.points_found = len(scan.points)

            plan = Plan.from_points(scan.points,
                                    prefix=f"{config.name}")
            if config.spec_filter or config.file_filter:
                plan = plan.filter(spec_names=config.spec_filter,
                                   files=config.file_filter)
            if config.coverage:
                say(f"[{config.name}] coverage pre-run over "
                    f"{len(plan)} points")
                coverage_started = time.monotonic()
                report = run_coverage(
                    image, config.workload, plan.points, self.models,
                    workspace / "sandboxes", cache=self.scan_cache,
                )
                result.coverage_seconds = (
                    time.monotonic() - coverage_started
                )
                result.coverage = report
                if report.error:
                    # Reducing by an empty covered set would "complete"
                    # a campaign that injected nothing.
                    raise RuntimeError(
                        f"coverage pre-run failed: {report.error}"
                    )
                if report.reused:
                    say(f"[{config.name}] coverage reused "
                        f"(key {report.key[:12]})")
                if report.workload_failed:
                    # The plan is still reduced, but by what a failing
                    # run reached: say so.
                    say(f"[{config.name}] coverage pre-run: fault-free "
                        "workload failed; covered set not stored")
                plan = reduce_plan(plan, report)
            result.population = len(plan)
            sampling = config.sampling
            sample_target = (sampling.max_experiments
                             if sampling is not None else None)
            if sample_target is None:
                sample_target = config.sample
            if sample_target is not None:
                # Prefix-stable draw: re-running with a larger target
                # (or none) plans a superset, so resume executes only
                # the delta.
                plan = monotone_sample(
                    plan, sample_target, config.seed,
                    stratify_by=(sampling.stratify_by
                                 if sampling is not None else None),
                )
                say(f"[{config.name}] sampled {len(plan)} of "
                    f"{result.population} planned experiments")
            result.points_planned = len(plan)

            # Fingerprint of everything that gives experiment ids their
            # meaning; a stream recorded under different parameters must
            # not be silently replayed as this campaign's results.
            stream_meta = {
                "campaign": config.name,
                "seed": config.seed,
                "faultload": faultload_digest(list(self.models.values())),
                # A manifest names the target by *content*, so the same
                # campaign resumes cleanly on any host; a path-based
                # target keeps its host-local identity.
                "target": (f"manifest:{target_manifest.tree_digest}"
                           if target_manifest is not None
                           else str(config.target_dir.resolve())),
            }
            if config.resume:
                existing_meta = stream.read_meta()
                if existing_meta is not None and existing_meta != stream_meta:
                    changed = sorted(
                        key for key in stream_meta
                        if existing_meta.get(key) != stream_meta[key]
                    )
                    raise ValueError(
                        f"result stream {stream.path} was recorded by a "
                        f"different campaign (changed: {', '.join(changed)}); "
                        "re-run with resume=False (--no-resume) or use a "
                        "fresh workspace"
                    )
                # A run killed mid-flight under a sharded backend leaves
                # partial per-shard streams; fold them into the canonical
                # stream *before* computing the resume set, so those
                # experiments count as recorded regardless of the backend
                # or shard count this run uses.
                salvaged = recover_shard_streams(stream)
                if salvaged:
                    say(f"[{config.name}] recovered {salvaged} experiments "
                        "from partial shard streams")
                recorded = stream.recorded_ids()
                if existing_meta is None:
                    stream.write_meta(stream_meta)
            else:
                stream.clear()
                discard_shard_streams(stream.path)
                recorded = set()
                stream.write_meta(stream_meta)
            pending = plan.excluding(recorded)
            result.resumed = len(plan) - len(pending)
            if result.resumed:
                say(f"[{config.name}] resuming: {result.resumed} "
                    "experiments already recorded in the stream")

            artifacts = None
            if config.keep_artifacts:
                artifacts = workspace / "artifacts"
                artifacts.mkdir(parents=True, exist_ok=True)
                result.artifacts_dir = artifacts
            # Where per-point durations are read from and recorded.
            dispatch_key = (durations_key(image, config.workload,
                                          config.rounds, config.trigger)
                            if self.scan_cache is not None else None)
            executor = ExperimentExecutor(
                image=image,
                workload=config.workload,
                models=self.models,
                base_dir=workspace / "sandboxes",
                trigger=config.trigger,
                rounds=config.rounds,
                campaign_seed=config.seed,
                artifacts_dir=artifacts,
                cancel_check=cancel,
            )

            # Sequential stopping rides the cooperative-cancel plumbing:
            # the monitor tails the result streams and its check() is
            # OR-ed into the cancel hook every backend already polls
            # between experiments.  In-flight experiments drain
            # normally; the user's own cancel keeps raising.
            monitor = None
            backend_cancel = cancel
            if sampling is not None:
                stop_rule = rule_from_sampling(sampling)
                if stop_rule is not None:
                    monitor = StoppingMonitor(
                        stream.path, stop_rule,
                        confidence=sampling.confidence,
                    )

                    def backend_cancel(user_cancel=cancel,
                                       check=monitor.check):
                        if user_cancel is not None and user_cancel():
                            return True
                        return check()

            # Longest-expected-first dispatch keeps the slowest
            # experiments from starting last; shard payloads carry their
            # members' expected seconds.  Recorded durations win; with
            # none, the coverage pre-run's reach times give the
            # estimate.  A stopping rule reads the stream as it grows,
            # so its order stays the plan's.
            if monitor is None:
                recorded_durations = (
                    self.scan_cache.lookup_durations(dispatch_key)
                    if dispatch_key is not None else None)
                if recorded_durations is not None:
                    executor.expected_seconds = (
                        recorded_durations["durations"])
                    say(f"[{config.name}] dispatch longest-first from "
                        f"{len(executor.expected_seconds)} recorded "
                        f"durations (key {dispatch_key[:12]})")
                elif result.coverage is not None and result.coverage.reached:
                    executor.expected_seconds = (
                        result.coverage.expected_seconds(config.rounds))
                    say(f"[{config.name}] dispatch longest-first from "
                        f"{len(executor.expected_seconds)} coverage reach "
                        "times")

            say(f"[{config.name}] executing {len(pending)} experiments "
                f"({config.backend} backend, {config.shards} shard(s), "
                "pipelined mutant generation)")
            pending_list = list(pending)

            def emit_progress(snapshot):
                # Backends report over the pending remainder; the job
                # view shows progress over the whole plan, so offset by
                # the experiments the resume already accounted for.
                snapshot = dict(snapshot)
                snapshot["experiments_done"] += result.resumed
                snapshot["experiments_total"] += result.resumed
                snapshot["resumed"] = result.resumed
                on_progress(snapshot)

            backend = create_backend(config.backend)
            registry = None
            if config.registry_url:
                # Lazy: client.py imports this module at load time.
                from repro.service.client import ProFIPyClient

                registry = ProFIPyClient(config.registry_url, timeout=10.0)
            shard_manifest = None
            blob_store = None
            if config.backend == BACKEND_REMOTE:
                # Snapshot the *built* image (runtime + containerfile
                # effects included) into the local blob store; the
                # backend ships workers the manifest plus only the blobs
                # each one reports missing — no shared filesystem.
                from repro.service.blobs import BlobStore, ImageManifest

                blob_store = BlobStore(config.blob_cache_dir
                                       or workspace / "blobs")
                shard_manifest = ImageManifest.from_image(
                    image, store=blob_store
                )
            context = ExecutionContext(
                executor=executor,
                fault_model=config.fault_model,
                shards=config.shards,
                parallelism=config.parallelism,
                cancel=backend_cancel,
                on_progress=(emit_progress if on_progress is not None
                             else None),
                workers=config.workers,
                registry=registry,
                image_manifest=shard_manifest,
                blob_store=blob_store,
            )
            execution_started = time.monotonic()
            outcome = backend.execute(context, pending_list, stream)
            result.execution_seconds = time.monotonic() - execution_started
            result.experiments_path = stream.path
            if dispatch_key is not None:
                self.scan_cache.store_durations(dispatch_key,
                                                stream.durations())
            user_cancelled = cancel is not None and cancel()
            if monitor is not None:
                result.mode_estimates = monitor.summary_block()
            if outcome.cancelled or user_cancelled:
                if (monitor is not None and monitor.stopped
                        and not user_cancelled):
                    # The stopping rule — not the user — ended the run:
                    # a successful bounded-cost campaign, not a
                    # cancellation.  The stream stays a valid resume
                    # point toward exhaustive.
                    result.stopped_early = result.mode_estimates
                    say(f"[{config.name}] stopped early after "
                        f"{result.executed} experiments: "
                        f"{monitor.reason}")
                else:
                    say(f"[{config.name}] cancelled after "
                        f"{result.executed} recorded experiments")
                    raise CampaignCancelled(result)
            if result.stopped_early is None:
                say(f"[{config.name}] done: "
                    f"{len(result.failures)}/{result.executed} experiments "
                    "showed failures")
            return result
        finally:
            if owns_workspace and not config.keep_artifacts:
                # The stream file lives in the workspace we are about to
                # delete: materialize results first so the analysis layer
                # still sees them.
                result.materialize()
                if (result.experiments_path is not None
                        and workspace in result.experiments_path.parents):
                    result.experiments_path = None
                result.workspace = None
                remove_tree(workspace)
