"""The ProFIPy service core: fault models, campaigns, results (paper §I).

"ProFIPy is provided as software-as-a-service, and includes a workflow for
configuring the faultload and the workload" — this class is that workflow
as a programmatic API (the CLI sits on top; DESIGN.md documents the
substitution of the hosted UI):

* a persistent **fault-model registry** (save/import/list, plus the
  pre-defined models);
* **campaign submission** as asynchronous jobs scheduled on a bounded,
  tenant-fair worker pool (``queued`` → ``running`` →
  ``completed``/``failed``/``cancelled``), with persisted results and
  cooperative cancellation between experiments;
* **report retrieval** for finished jobs, streamed experiment results,
  and regression-test generation;
* **multi-tenancy**: every user-facing method takes an optional
  ``tenant``; a configured tenant's models, jobs, scan caches, and
  statistics live under ``<workspace>/tenants/<name>/…`` and are
  invisible to (and untouchable by — ``forbidden``) every other tenant.
  ``tenant=None`` is the trusted unscoped caller (the in-process facade
  and CLI on a single-user workspace); the HTTP transport always passes
  the tenant its bearer-token auth resolved.  With no tenants
  configured everything belongs to the default tenant and the workspace
  keeps its original single-user layout.

:class:`ProFIPyService` is the single behavioural core behind *both*
transports: the versioned ``/v1`` HTTP API
(:mod:`repro.service.http`, started via ``profipy serve``) projects
exactly these methods through the JSON schemas in
:mod:`repro.service.api`, and :class:`repro.service.client.ProFIPyClient`
mirrors this method surface 1:1 — swap ``ProFIPyService(workspace)`` for
``ProFIPyClient(url)`` and callers run unchanged, with identical job
lifecycles, summaries, experiment lists, and exception types
(``KeyError`` for unknown jobs/models, ``FileNotFoundError`` for missing
artifacts, ``TimeoutError`` from :meth:`wait`, ``PermissionError``
subclasses for auth failures).  :meth:`for_tenant` returns the same
surface with a tenant pre-bound, mirroring ``ProFIPyClient(token=...)``.
``docs/SERVICE_API.md`` documents the endpoint table and error codes.
"""

from __future__ import annotations

import dataclasses
import json
import shutil
import threading
from pathlib import Path

from repro.analysis.classify import ClassificationRule
from repro.analysis.metrics import ComponentSpec
from repro.analysis.report import CampaignReport
from repro.common.fsutil import read_json, write_json
from repro.faultmodel.library import predefined_models
from repro.faultmodel.model import FaultModel
from repro.orchestrator.campaign import (
    Campaign,
    CampaignCancelled,
    CampaignConfig,
    CampaignResult,
)
from repro.orchestrator.experiment import ExperimentResult
from repro.orchestrator.stream import ExperimentStream
from repro.stats.store import StatsStore
from repro.service.api import campaign_config_to_dict
from repro.service.jobs import (
    DEFAULT_MAX_WORKERS,
    Job,
    JobCancelled,
    JobRunner,
)
from repro.service.blobs import BlobStore
from repro.service.registry import DEFAULT_LEASE_SECONDS, WorkerRegistry
from repro.service.shards import ShardHost
from repro.service.tenants import (
    DEFAULT_TENANT,
    QuotaExceededError,
    TenantDirectory,
    TenantForbiddenError,
    TenantSpec,
    UNLIMITED_SPEC,
    validate_tenant_name,
)

#: Conventional tenants-file name auto-loaded from the workspace.
TENANTS_FILENAME = "tenants.json"

#: Campaign config fields naming server-side paths; only the default
#: tenant (the workspace's own user) may set them.
_SERVER_PATH_FIELDS = ("workspace", "results_path", "scan_cache_dir",
                       "blob_cache_dir")


class ProFIPyService:
    """In-process fault-injection-as-a-service."""

    def __init__(self, workspace: str | Path,
                 max_workers: int = DEFAULT_MAX_WORKERS,
                 lease_seconds: float = DEFAULT_LEASE_SECONDS,
                 blob_cache_dir: str | Path | None = None,
                 blob_cache_bytes: int | None = None,
                 tenants: TenantDirectory | str | Path | None = None) -> None:
        self.workspace = Path(workspace)
        # Tenant directory: an explicit TenantDirectory or tenants.json
        # path wins; otherwise a <workspace>/tenants.json is picked up
        # automatically.  None leaves the service in unauthenticated
        # single-user mode (everything is the default tenant).
        if isinstance(tenants, (str, Path)):
            tenants = TenantDirectory.from_file(tenants)
        if tenants is None:
            conventional = self.workspace / TENANTS_FILENAME
            if conventional.is_file():
                tenants = TenantDirectory.from_file(conventional)
        self.tenants: TenantDirectory | None = tenants
        self.tenants_root = self.workspace / "tenants"
        self.models_dir = self.workspace / "models"
        self.models_dir.mkdir(parents=True, exist_ok=True)
        self.runner = JobRunner(self.workspace / "jobs",
                                max_workers=max_workers,
                                tenants_root=self.tenants_root,
                                limits=self._spec)
        # Content-addressed blob cache (/v1/blobs): target trees arrive
        # as sha256-keyed blobs, persist across shards and campaigns, so
        # a dispatcher re-shipping an unchanged tree uploads nothing.
        # ``blob_cache_bytes`` bounds the cache LRU-style (worker hosts
        # with small disks); unbounded by default.  The store is shared
        # across tenants (content addressing makes that safe — equal
        # bytes are equal blobs); per-tenant *upload* accounting
        # enforces each tenant's max_blob_bytes quota.
        self.blobs = BlobStore(blob_cache_dir or self.workspace / "blobs",
                               max_bytes=blob_cache_bytes)
        self._blob_usage: dict[str, int] = {}
        self._blob_lock = threading.Lock()
        # The worker role: shard payloads accepted over /v1/shards run
        # out of their own corner of the workspace, materializing their
        # image from the blob cache when the payload ships a manifest.
        # Constructed eagerly (it is one mkdir) so every service
        # instance can act as a remote-backend worker.
        self.shards = ShardHost(self.workspace / "shards",
                                blob_store=self.blobs)
        # The coordinator role: fleet membership for remote-backend
        # dispatchers (/v1/workers).  In-memory, like the shard host —
        # workers re-register after a coordinator restart.
        self.registry = WorkerRegistry(lease_seconds=lease_seconds)
        # Cross-campaign statistical result store (/v1/stats): completed
        # job streams are indexed here by campaign meta, queryable for
        # per-mode estimates across campaigns.  One store per tenant;
        # the default tenant keeps the original <workspace>/stats.
        self.stats = StatsStore(self.workspace / "stats")
        self._stats_stores: dict[str, StatsStore] = {DEFAULT_TENANT:
                                                     self.stats}

    # -- tenancy -----------------------------------------------------------------

    def _spec(self, tenant: str) -> TenantSpec:
        """The tenant's resource envelope (unlimited when no directory
        is configured or for the default tenant)."""
        if self.tenants is not None and tenant in self.tenants:
            return self.tenants.spec(tenant)
        return UNLIMITED_SPEC

    def _resolve(self, tenant: str | None) -> str:
        """Normalize a caller-supplied tenant (``None`` → default)."""
        if tenant is None:
            return DEFAULT_TENANT
        return validate_tenant_name(tenant)

    def _tenant_root(self, tenant: str) -> Path:
        """Where the tenant's namespaced data lives; the default tenant
        keeps the original single-user workspace layout."""
        if tenant == DEFAULT_TENANT:
            return self.workspace
        validate_tenant_name(tenant)
        return self.tenants_root / tenant

    def _models_dir(self, tenant: str) -> Path:
        directory = self._tenant_root(tenant) / "models"
        directory.mkdir(parents=True, exist_ok=True)
        return directory

    def _stats_store(self, tenant: str) -> StatsStore:
        store = self._stats_stores.get(tenant)
        if store is None:
            store = StatsStore(self._tenant_root(tenant) / "stats")
            self._stats_stores[tenant] = store
        return store

    def _check_owner(self, job: Job, tenant: str | None) -> Job:
        """The job, if the caller may see it.

        ``tenant=None`` is the trusted unscoped caller (in-process
        facade, CLI on the workspace); an explicit tenant may only
        touch its own jobs — anything else answers ``forbidden``,
        deliberately distinct from ``unknown_job`` so a tenant probing
        ids learns nothing it could not learn from 403s alone.
        """
        if tenant is not None and job.tenant != tenant:
            raise TenantForbiddenError(
                f"job {job.job_id} belongs to another tenant"
            )
        return job

    def for_tenant(self, tenant: str) -> "TenantScopedService":
        """This service's surface with ``tenant`` pre-bound — the
        in-process mirror of ``ProFIPyClient(url, token=...)``."""
        return TenantScopedService(self, self._resolve(tenant))

    def tenant_views(self) -> list[dict]:
        """Operator view of every configured tenant: quotas plus live
        queue/running counts (``profipy tenants list``)."""
        views = []
        names = self.tenants.names() if self.tenants is not None else []
        for name in names:
            spec = self.tenants.spec(name)
            views.append({
                **spec.to_dict(redact_token=True),
                "queued": self.runner.queued_count(name),
                "running": self.runner.running_count(name),
                "blob_bytes_used": self._blob_usage.get(name, 0),
            })
        return views

    # -- fault model registry ------------------------------------------------

    def _model_path(self, name: str, tenant: str | None) -> Path:
        """Where the (tenant's) model ``name`` is stored.  A name is one
        file name: empty, ``.``/``..``, a path separator, or NUL raise
        ``ValueError`` — otherwise one tenant could write into another's
        namespace — and so does a name over 200 bytes, which with the
        ``.json`` suffix and the atomic write's temporary suffix would
        pass the 255-byte file-name limit."""
        if (not isinstance(name, str) or name in ("", ".", "..")
                or any(char in name for char in "/\\\0")
                or len(name.encode("utf-8", "replace")) > 200):
            raise ValueError(f"invalid fault model name {name!r}: it must "
                             "be one file name (no '/', '\\' or NUL)")
        return self._models_dir(self._resolve(tenant)) / f"{name}.json"

    def save_model(self, model: FaultModel,
                   tenant: str | None = None) -> Path:
        """Store a fault model in the registry (overwrites same name)."""
        path = self._model_path(model.name, tenant)
        model.save(path)
        return path

    def import_model(self, path: str | Path,
                     tenant: str | None = None) -> FaultModel:
        """Import a fault model JSON produced by a previous campaign."""
        model = FaultModel.load(path)
        self.save_model(model, tenant=tenant)
        return model

    def load_model(self, name: str, tenant: str | None = None) -> FaultModel:
        """A stored model by name, falling back to the pre-defined ones."""
        path = self._model_path(name, tenant)
        if path.exists():
            return FaultModel.load(path)
        predefined = predefined_models()
        if name in predefined:
            return predefined[name]
        raise KeyError(
            f"unknown fault model {name!r}; "
            f"stored: {self.stored_models(tenant=tenant)}, "
            f"predefined: {sorted(predefined)}"
        )

    def stored_models(self, tenant: str | None = None) -> list[str]:
        """Names of models stored in the (tenant's) registry."""
        directory = self._models_dir(self._resolve(tenant))
        return sorted(path.stem for path in directory.glob("*.json"))

    def list_models(self, tenant: str | None = None) -> list[str]:
        """Every loadable model name: stored **and** pre-defined.

        The pre-defined models are always available to :meth:`load_model`
        — hiding them here made ``GET /v1/models`` lie about what a
        campaign could reference.  A stored model shadows a pre-defined
        one of the same name (one name, one model, the stored one wins
        at load time).
        """
        stored = self.stored_models(tenant=tenant)
        return sorted(set(stored) | set(predefined_models()))

    # -- campaign submission -----------------------------------------------------

    def submit_campaign(
        self,
        config: CampaignConfig,
        rules: list[ClassificationRule] | None = None,
        components: list[ComponentSpec] | None = None,
        block: bool = True,
        resume_from: str | None = None,
        tenant: str | None = None,
    ) -> Job:
        """Run a campaign as a job; results and report persist on disk.

        Experiments stream to ``<job_dir>/experiments.jsonl`` as they
        complete.  ``resume_from`` names a previous job (e.g. one killed
        mid-campaign or cancelled) **of the same tenant**; its stream is
        carried over, so already-recorded experiments are not re-run —
        only the remainder executes.  With ``block=False`` the job is
        queued on the tenant-fair scheduler (a backlog past the tenant's
        ``max_queued`` quota raises
        :class:`~repro.service.tenants.QuotaExceededError`) and can be
        cancelled via :meth:`cancel`; cancellation is observed between
        experiments, leaving a partial stream that a follow-up
        ``resume_from`` completes.
        """
        rules = rules or []
        components = components or []
        owner = self._resolve(tenant)
        if (owner != DEFAULT_TENANT and self.tenants is not None
                and owner in self.tenants):
            # A configured tenant's campaign runs inside its namespace:
            # server-side paths are the service's to choose, never the
            # caller's (they would write anywhere the server can).
            chosen = [name for name in _SERVER_PATH_FIELDS
                      if getattr(config, name) is not None]
            if chosen:
                raise TenantForbiddenError(
                    f"tenant {owner!r} may not set server-side paths "
                    f"({', '.join(chosen)}) in a campaign config"
                )
        # Service campaigns share a persistent per-tenant scan cache:
        # repeated campaigns over unchanged target trees skip
        # re-matching entirely, and no tenant reads cache entries
        # derived from another tenant's tree.  The caller's config
        # object is left untouched.
        if config.scan_cache_dir is None:
            config = dataclasses.replace(
                config, scan_cache_dir=self._tenant_root(owner) / "scan_cache"
            )
        # Likewise the blob store: remote-backend campaigns ingest their
        # staged image into the service's persistent content-addressed
        # store, so repeat campaigns re-upload nothing.
        if config.blob_cache_dir is None:
            config = dataclasses.replace(
                config, blob_cache_dir=self.blobs.root
            )
        previous_stream = None
        if resume_from is not None:
            previous = self._check_owner(self.runner.get(resume_from),
                                         tenant)
            previous_stream = self._job_dir(previous) / "experiments.jsonl"
        stats_store = self._stats_store(owner)

        def body(job_dir: Path) -> None:
            # Persist the *complete* wire form of the config that runs
            # (plus resume provenance): the hand-rolled subset written
            # here before silently dropped sampling, image_manifest,
            # scan_incremental, registry_url, and the scan-cache knobs,
            # so audits and regression-test generation saw a config
            # that never existed.  target_dir is resolved for replay
            # tools that run from a different working directory.
            write_json(job_dir / "config.json", {
                **campaign_config_to_dict(config),
                "target_dir": str(Path(config.target_dir).resolve()),
                "resumed_from": resume_from,
                "tenant": owner,
            })
            stream_path = job_dir / "experiments.jsonl"
            if (previous_stream is not None and previous_stream.exists()
                    and previous_stream != stream_path):
                shutil.copyfile(previous_stream, stream_path)
                # Carry over partial *shard* streams too: a job killed
                # mid-campaign under a sharded backend recorded some
                # experiments only there; the campaign's recovery merges
                # them before computing the resume set.
                from repro.orchestrator.backends import leftover_shard_streams

                for shard_path in leftover_shard_streams(previous_stream):
                    shutil.copyfile(shard_path, job_dir / shard_path.name)
            run_config = config
            if run_config.results_path is None:
                run_config = dataclasses.replace(
                    run_config, results_path=stream_path
                )
            campaign = Campaign(run_config)
            # The job directory is named after the job id, so the body
            # can poll its own scheduler cancel flag without the id
            # existing before submit() assigns it.
            cancel = lambda: self.runner.cancel_requested(job_dir.name)  # noqa: E731

            def on_progress(snapshot: dict) -> None:
                # Atomic write (unique temp + os.replace) so readers
                # never see a torn snapshot; best-effort — progress must
                # never sink a campaign.
                try:
                    write_json(job_dir / "progress.json", snapshot)
                except OSError:
                    pass

            try:
                result = campaign.run(cancel=cancel,
                                      on_progress=on_progress)
            except CampaignCancelled as stopped:
                # Persist what the partial run produced — the stream is
                # a valid resume_from point and the report summarizes
                # the experiments that did record.
                report = CampaignReport(stopped.result, rules=rules,
                                        components=components)
                self._persist_result(job_dir, stopped.result, report,
                                     stats_store)
                raise JobCancelled(
                    f"cancelled after {stopped.result.executed} experiments"
                ) from None
            report = CampaignReport(result, rules=rules,
                                    components=components)
            self._persist_result(job_dir, result, report, stats_store)

        return self.runner.submit(config.name, body, block=block,
                                  tenant=owner)

    def job(self, job_id: str, tenant: str | None = None) -> Job:
        job = self._check_owner(self.runner.get(job_id), tenant)
        job.progress = self._progress_for(job)
        return job

    def list_jobs(self, tenant: str | None = None) -> list[Job]:
        jobs = self.runner.list(tenant)
        for job in jobs:
            job.progress = self._progress_for(job)
        return jobs

    def job_progress(self, job_id: str,
                     tenant: str | None = None) -> dict | None:
        """The job's latest shard-aware progress snapshot, or ``None``.

        Read from ``<job_dir>/progress.json`` (written atomically by the
        running campaign), so it works across processes: a CLI pointed
        at the workspace sees the same live numbers as the HTTP API.
        """
        return self._progress_for(
            self._check_owner(self.runner.get(job_id), tenant)
        )

    @staticmethod
    def _progress_for(job: Job) -> dict | None:
        # ``progress.json`` is advisory: a corrupt, truncated, or
        # otherwise unreadable snapshot (a crash mid-write, a stray
        # directory, bad encoding) must degrade to "no progress", never
        # crash a job view.  Anything the read raises lands here —
        # decode errors (``json.JSONDecodeError``/``UnicodeDecodeError``
        # are ``ValueError``\ s), filesystem errors, and pathological
        # payloads (e.g. nesting deep enough to exhaust the recursion
        # limit raises ``RecursionError``).
        if job.directory is None:
            return None
        try:
            data = read_json(job.directory / "progress.json")
        except (OSError, ValueError, RecursionError):
            return None
        return data if isinstance(data, dict) else None

    def wait(self, job_id: str, timeout: float | None = None,
             tenant: str | None = None) -> Job:
        self._check_owner(self.runner.get(job_id), tenant)
        job = self.runner.wait(job_id, timeout)
        job.progress = self._progress_for(job)
        return job

    def cancel(self, job_id: str, tenant: str | None = None) -> Job:
        """Request cancellation of a queued or running job (idempotent).

        A queued job retires immediately; a running campaign stops at
        the next between-experiments checkpoint and lands in the
        ``cancelled`` state with its partial result stream persisted.
        """
        self._check_owner(self.runner.get(job_id), tenant)
        job = self.runner.cancel(job_id)
        job.progress = self._progress_for(job)
        return job

    # -- results ---------------------------------------------------------------------

    def _job_dir(self, job: Job) -> Path:
        """The job's directory, or a clear error when it has none.

        A job without a directory used to resolve artifact paths against
        the *current working directory* (``Path() / "report.txt"``),
        silently reading whatever happened to be there.
        """
        if job.directory is None:
            raise FileNotFoundError(
                f"job {job.job_id} has no directory on disk; its artifacts "
                "(report, summary, experiments) are unavailable"
            )
        return job.directory

    def report_text(self, job_id: str, tenant: str | None = None) -> str:
        job = self._check_owner(self.runner.get(job_id), tenant)
        path = self._job_dir(job) / "report.txt"
        if not path.exists():
            raise FileNotFoundError(
                f"job {job_id} has no report (status: {job.status})"
            )
        return path.read_text(encoding="utf-8")

    def result_summary(self, job_id: str, tenant: str | None = None) -> dict:
        job = self._check_owner(self.runner.get(job_id), tenant)
        path = self._job_dir(job) / "summary.json"
        if not path.exists():
            raise FileNotFoundError(
                f"job {job_id} has no summary (status: {job.status})"
            )
        return read_json(path)

    def experiments(self, job_id: str,
                    tenant: str | None = None) -> list[ExperimentResult]:
        """Recorded experiments of a job, sorted by experiment id.

        Reads the job's result stream; safe to call on a job that was
        killed mid-campaign (a truncated trailing line is skipped) or on
        a cancelled job (the partial stream is returned).
        """
        from repro.orchestrator.stream import ExperimentStream

        job = self._check_owner(self.runner.get(job_id), tenant)
        path = self._job_dir(job) / "experiments.jsonl"
        return sorted(ExperimentStream(path).load(),
                      key=lambda experiment: experiment.experiment_id)

    def experiments_path(self, job_id: str,
                         tenant: str | None = None) -> Path:
        """Where the job's raw ``experiments.jsonl`` stream lives (the
        HTTP layer serves it verbatim as NDJSON)."""
        job = self._check_owner(self.runner.get(job_id), tenant)
        return self._job_dir(job) / "experiments.jsonl"

    def generate_regression_tests(self, job_id: str,
                                  dest_dir: str | Path,
                                  tenant: str | None = None) -> list[Path]:
        """Write one regression test per failed experiment of a job
        (the paper's §I regression-testing use case)."""
        from repro.regression import write_regression_test
        from repro.workload.spec import WorkloadSpec

        job = self._check_owner(self.runner.get(job_id), tenant)
        config_path = self._job_dir(job) / "config.json"
        if not config_path.exists():
            raise FileNotFoundError(
                f"job {job_id} has no persisted campaign config"
            )
        config = read_json(config_path)
        fault_model = FaultModel.from_dict(config["fault_model"])
        workload = WorkloadSpec.from_dict(config["workload"])
        target_dir = Path(config["target_dir"])
        # Replaying the recorded mutant requires the campaign seed: the
        # per-experiment RNG is keyed on (seed, experiment_id).
        campaign_seed = config.get("seed", 0)
        written = []
        for experiment in self.experiments(job_id, tenant=tenant):
            if experiment.completed and experiment.failed_round1:
                written.append(write_regression_test(
                    experiment, fault_model, target_dir, workload, dest_dir,
                    campaign_seed=campaign_seed,
                ))
        return written

    # -- remote-backend worker role ---------------------------------------------

    def submit_shard(self, payload: dict) -> dict:
        """Accept one remote-backend shard payload and start executing
        it (the worker side of ``POST /v1/shards``); returns the
        shard's status view.  Raises ``ValueError`` for a malformed
        payload."""
        return self.shards.submit(payload)

    def shard_status(self, shard_id: str) -> dict:
        """One shard's ``{state, total, recorded, cancelled, error}``
        view; raises ``KeyError`` for an unknown shard."""
        return self.shards.status(shard_id)

    def list_shards(self) -> list[dict]:
        """Status views of every shard this worker accepted (operator
        introspection of a worker host)."""
        return self.shards.list()

    def cancel_shard(self, shard_id: str) -> dict:
        """Request cooperative cancellation of a running shard
        (idempotent); the engine observes it between experiments."""
        return self.shards.cancel(shard_id)

    def release_shard(self, shard_id: str,
                      experiment_ids: list[str]) -> dict:
        """Take back the requested experiments the shard has not handed
        out yet: ``{shard_id, released}``, and none of the released ids
        will ever start here.  Raises ``KeyError`` for an unknown
        shard."""
        return self.shards.release(shard_id, experiment_ids)

    def shard_stream_path(self, shard_id: str) -> Path:
        """Where the shard's raw result stream lives (served as a
        newline-aligned NDJSON tail by the HTTP layer)."""
        return self.shards.stream_path(shard_id)

    # -- content-addressed blobs --------------------------------------------------

    def blob_path(self, digest: str) -> Path:
        """Where a stored blob lives (the HTTP layer serves the file
        verbatim); raises ``KeyError`` for a blob this host lacks and
        ``ValueError`` for a malformed digest."""
        path = self.blobs.path(digest)
        if not path.is_file():
            raise KeyError(f"unknown blob {digest}")
        return path

    def put_blob(self, digest: str, data: bytes,
                 tenant: str | None = None) -> str:
        """Store one content-addressed blob (idempotent); the content
        is verified against ``digest`` — raises ``ValueError`` on
        mismatch.  An explicit tenant's uploads are accounted against
        its ``max_blob_bytes`` quota (re-putting an already-stored blob
        costs nothing — content addressing makes dedup free)."""
        spec = self._spec(tenant) if tenant is not None else UNLIMITED_SPEC
        if spec.max_blob_bytes is None:
            return self.blobs.put_bytes(data, digest=digest)
        with self._blob_lock:
            new_bytes = len(data) if self.blobs.missing([digest]) else 0
            used = self._blob_usage.get(tenant, 0)
            if used + new_bytes > spec.max_blob_bytes:
                raise QuotaExceededError(
                    f"tenant {tenant!r} blob quota exhausted: "
                    f"{used} + {new_bytes} bytes exceeds "
                    f"max_blob_bytes={spec.max_blob_bytes}"
                )
            stored = self.blobs.put_bytes(data, digest=digest)
            self._blob_usage[tenant] = used + new_bytes
        return stored

    def missing_blobs(self, digests: list[str]) -> list[str]:
        """Which of ``digests`` this host's blob store lacks — the
        dispatcher uploads only those before submitting a shard."""
        return self.blobs.missing(digests)

    # -- worker fleet registry ---------------------------------------------------

    def register_worker(self, payload: dict) -> dict:
        """Grant a lease to the worker described by ``payload``
        (``{"url": ..., "max_concurrent": ..., "managed": ...}``);
        raises ``ValueError`` for a malformed payload."""
        return self.registry.register_worker(payload)

    def worker_heartbeat(self, worker_id: str,
                         load: dict | None = None) -> dict:
        """Refresh a worker's lease with its live load; raises
        ``KeyError`` for an unknown id and
        :class:`~repro.service.registry.LeaseExpiredError` for a dead
        or replaced lease (the worker must re-register)."""
        return self.registry.heartbeat(worker_id, load)

    def list_workers(self) -> list[dict]:
        """Every registered worker's view, lease states swept."""
        return self.registry.list_workers()

    # -- cross-campaign statistics -------------------------------------------

    def stats_add(self, stream_path: str | Path,
                  tenant: str | None = None) -> dict:
        """Register an experiment stream with the (tenant's) statistical
        store (completed job streams register automatically)."""
        return self._stats_store(self._resolve(tenant)).add(stream_path)

    def stats_campaigns(self, campaign: str | None = None,
                        tenant: str | None = None) -> list[dict]:
        """Campaigns indexed in the (tenant's) statistical result store."""
        return self._stats_store(self._resolve(tenant)).campaigns(campaign)

    def stats_aggregate(self, campaign: str | None = None,
                        spec: str | None = None,
                        file: str | None = None,
                        component: str | None = None,
                        confidence: float = 0.95,
                        rules: list[ClassificationRule] | None = None,
                        tenant: str | None = None,
                        ) -> dict:
        """Per-failure-mode Wilson estimates across stored campaigns."""
        return self._stats_store(self._resolve(tenant)).aggregate(
            campaign=campaign, spec=spec, file=file, component=component,
            confidence=confidence, rules=rules,
        )

    def close(self) -> None:
        """Stop the job scheduler (used by the HTTP server on shutdown)."""
        self.runner.close()

    def _persist_result(self, job_dir: Path, result: CampaignResult,
                        report: CampaignReport,
                        stats_store: StatsStore | None = None) -> None:
        write_json(job_dir / "summary.json", result.summary())
        (job_dir / "report.txt").write_text(report.render() + "\n",
                                            encoding="utf-8")
        # The campaign normally streamed straight into the job directory;
        # only materialize a copy when the results live elsewhere (e.g. a
        # caller-pinned results_path).  Compare resolved paths: job_dir
        # may be relative (the CLI's default workspace) while the
        # campaign resolved its results_path.
        stream_path = job_dir / "experiments.jsonl"
        if (result.experiments_path is None
                or Path(result.experiments_path).resolve()
                != stream_path.resolve()):
            # Carry the campaign meta line over so the copy keeps its
            # store-index fingerprint (name/seed/faultload/target).
            meta = None
            if (result.experiments_path is not None
                    and Path(result.experiments_path).is_file()):
                meta = ExperimentStream(result.experiments_path).read_meta()
            with open(stream_path, "w", encoding="utf-8") as handle:
                handle.write(json.dumps(
                    {"meta": meta or {"campaign": result.name}},
                    sort_keys=True) + "\n")
                for experiment in result.experiments:
                    handle.write(json.dumps(experiment.to_dict()) + "\n")
        # Index the finished stream for cross-campaign /v1/stats queries
        # (best-effort: a failed registration never fails the job).
        try:
            (stats_store or self.stats).add(stream_path,
                                            summary=result.summary())
        except (OSError, ValueError):
            pass


class TenantScopedService:
    """The :class:`ProFIPyService` surface with one tenant pre-bound.

    The in-process twin of ``ProFIPyClient(url, token=...)`` — the
    contract tests run the same calls through both.  Every method
    forwards to the underlying service with ``tenant=`` fixed, so the
    scoped view can never reach another tenant's data.
    """

    def __init__(self, service: ProFIPyService, tenant: str) -> None:
        self.service = service
        self.tenant = tenant

    # -- fault model registry ------------------------------------------------

    def save_model(self, model: FaultModel) -> Path:
        return self.service.save_model(model, tenant=self.tenant)

    def import_model(self, path: str | Path) -> FaultModel:
        return self.service.import_model(path, tenant=self.tenant)

    def load_model(self, name: str) -> FaultModel:
        return self.service.load_model(name, tenant=self.tenant)

    def stored_models(self) -> list[str]:
        return self.service.stored_models(tenant=self.tenant)

    def list_models(self) -> list[str]:
        return self.service.list_models(tenant=self.tenant)

    # -- campaigns and jobs --------------------------------------------------

    def submit_campaign(self, config: CampaignConfig,
                        rules: list[ClassificationRule] | None = None,
                        components: list[ComponentSpec] | None = None,
                        block: bool = True,
                        resume_from: str | None = None) -> Job:
        return self.service.submit_campaign(
            config, rules=rules, components=components, block=block,
            resume_from=resume_from, tenant=self.tenant,
        )

    def job(self, job_id: str) -> Job:
        return self.service.job(job_id, tenant=self.tenant)

    def job_progress(self, job_id: str) -> dict | None:
        return self.service.job_progress(job_id, tenant=self.tenant)

    def list_jobs(self) -> list[Job]:
        return self.service.list_jobs(tenant=self.tenant)

    def wait(self, job_id: str, timeout: float | None = None) -> Job:
        return self.service.wait(job_id, timeout, tenant=self.tenant)

    def cancel(self, job_id: str) -> Job:
        return self.service.cancel(job_id, tenant=self.tenant)

    # -- results -------------------------------------------------------------

    def report_text(self, job_id: str) -> str:
        return self.service.report_text(job_id, tenant=self.tenant)

    def result_summary(self, job_id: str) -> dict:
        return self.service.result_summary(job_id, tenant=self.tenant)

    def experiments(self, job_id: str) -> list[ExperimentResult]:
        return self.service.experiments(job_id, tenant=self.tenant)

    def experiments_path(self, job_id: str) -> Path:
        return self.service.experiments_path(job_id, tenant=self.tenant)

    def generate_regression_tests(self, job_id: str,
                                  dest_dir: str | Path) -> list[Path]:
        return self.service.generate_regression_tests(
            job_id, dest_dir, tenant=self.tenant
        )

    # -- statistics ----------------------------------------------------------

    def stats_add(self, stream_path: str | Path) -> dict:
        return self.service.stats_add(stream_path, tenant=self.tenant)

    def stats_campaigns(self, campaign: str | None = None) -> list[dict]:
        return self.service.stats_campaigns(campaign, tenant=self.tenant)

    def stats_aggregate(self, campaign: str | None = None,
                        spec: str | None = None,
                        file: str | None = None,
                        component: str | None = None,
                        confidence: float = 0.95,
                        rules: list[ClassificationRule] | None = None,
                        ) -> dict:
        return self.service.stats_aggregate(
            campaign=campaign, spec=spec, file=file, component=component,
            confidence=confidence, rules=rules, tenant=self.tenant,
        )
