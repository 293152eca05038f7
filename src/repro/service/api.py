"""Transport-agnostic, versioned service API core (``/v1``).

This module is the single definition of the service wire contract shared
by the HTTP server (:mod:`repro.service.http`) and the client SDK
(:mod:`repro.service.client`):

* **versioned request/response schemas** — dataclasses with explicit
  ``to_dict``/``from_dict`` JSON round-trips (:class:`JobView`,
  :class:`ExperimentPage`), plus lossless converters for
  :class:`CampaignConfig`, classification rules, and component specs,
  so a campaign submitted over HTTP is byte-identical to one submitted
  in-process;
* **explicit error codes** (:data:`ERROR_STATUS`) — every domain failure
  maps to one :class:`APIError` code with a fixed HTTP status, and the
  client maps each code back to the exception type the in-process
  :class:`~repro.service.service.ProFIPyService` raises;
* :data:`ROUTES` — every ``/v1`` endpoint declared once: method, path
  template, query types, body and response kinds, error code, auth
  scope, and the ``ProFIPyService`` operation it runs.  The server
  dispatches from it, the client builds its requests from it, and a
  test checks ``docs/SERVICE_API.md`` against it.

The wire format is versioned: every endpoint lives under ``/v1`` and
responses carry ``api_version``.  Breaking schema changes get a ``/v2``
mount next to (not instead of) this one.
"""

from __future__ import annotations

import dataclasses
import re
from dataclasses import dataclass
from functools import cached_property
from pathlib import Path
from typing import Callable
from urllib.parse import quote, unquote, urlencode

from repro.analysis.classify import ClassificationRule
from repro.analysis.metrics import ComponentSpec
from repro.dsl.errors import DslError
from repro.faultmodel.library import predefined_models
from repro.faultmodel.model import FaultModel
from repro.orchestrator.campaign import CampaignConfig
from repro.orchestrator.stream import read_complete_lines
from repro.service.jobs import Job
from repro.service.registry import LeaseExpiredError
from repro.service.tenants import (
    AuthenticationError,
    QuotaExceededError,
    TenantForbiddenError,
)
from repro.workload.spec import WorkloadSpec

API_VERSION = "v1"

# -- error codes -----------------------------------------------------------------

#: Every error the API can return, with its fixed HTTP status.  The
#: client maps codes back to in-process exception types (see
#: :func:`exception_for`): unknown_* → KeyError, missing_artifact →
#: FileNotFoundError, invalid_request → ValueError, timeout →
#: TimeoutError, unauthorized/forbidden → PermissionError subclasses,
#: quota_exceeded → QuotaExceededError.
ERROR_STATUS = {
    "invalid_request": 400,
    "unauthorized": 401,
    "forbidden": 403,
    "unknown_job": 404,
    "unknown_model": 404,
    "unknown_shard": 404,
    "unknown_worker": 404,
    "unknown_blob": 404,
    "missing_artifact": 404,
    "not_found": 404,
    "method_not_allowed": 405,
    "lease_expired": 409,
    "timeout": 408,
    "quota_exceeded": 429,
    "internal": 500,
}


class APIError(Exception):
    """A service error with a wire-level code and HTTP status."""

    def __init__(self, code: str, message: str) -> None:
        if code not in ERROR_STATUS:
            raise ValueError(f"unknown API error code {code!r}")
        super().__init__(message)
        self.code = code
        self.message = message
        self.http_status = ERROR_STATUS[code]

    def to_dict(self) -> dict:
        return {"error": {"code": self.code, "message": self.message},
                "api_version": API_VERSION}

    @classmethod
    def from_dict(cls, data: dict, http_status: int = 500) -> "APIError":
        error = data.get("error", {}) if isinstance(data, dict) else {}
        code = error.get("code")
        if code not in ERROR_STATUS:
            code = "internal" if http_status >= 500 else "invalid_request"
        return cls(code, error.get("message", "unrecognized server error"))


def exception_for(error: APIError) -> Exception:
    """The in-process exception equivalent of a wire error (what the
    client raises so it mirrors ``ProFIPyService`` exactly)."""
    if error.code in ("unknown_job", "unknown_model", "unknown_shard",
                      "unknown_worker", "unknown_blob"):
        return KeyError(error.message)
    if error.code in ("missing_artifact", "not_found"):
        return FileNotFoundError(error.message)
    if error.code == "timeout":
        return TimeoutError(error.message)
    if error.code == "invalid_request":
        return ValueError(error.message)
    if error.code == "lease_expired":
        return LeaseExpiredError(error.message)
    if error.code == "unauthorized":
        return AuthenticationError(error.message)
    if error.code == "forbidden":
        return TenantForbiddenError(error.message)
    if error.code == "quota_exceeded":
        return QuotaExceededError(error.message)
    return error


# -- schemas ---------------------------------------------------------------------


@dataclass(frozen=True)
class JobView:
    """Wire projection of one job's lifecycle.

    ``progress`` is the shard-aware execution progress snapshot
    (``experiments_done``/``experiments_total``, ``backend``, per-shard
    ``{shard, total, done, state}`` rows) while the campaign runs —
    ``None`` before execution starts or for jobs submitted by older
    services.
    """

    job_id: str
    name: str
    status: str
    submitted_at: float
    started_at: float | None
    finished_at: float | None
    error: str
    directory: str | None
    progress: dict | None = None

    @classmethod
    def from_job(cls, job: Job) -> "JobView":
        return cls(
            job_id=job.job_id,
            name=job.name,
            status=job.status,
            submitted_at=job.submitted_at,
            started_at=job.started_at,
            finished_at=job.finished_at,
            error=job.error,
            directory=str(job.directory) if job.directory else None,
            progress=job.progress,
        )

    def to_dict(self) -> dict:
        return dataclasses.asdict(self)

    @classmethod
    def from_dict(cls, data: dict) -> "JobView":
        return cls(
            job_id=data["job_id"],
            name=data.get("name", data["job_id"]),
            status=data["status"],
            submitted_at=data.get("submitted_at", 0.0),
            started_at=data.get("started_at"),
            finished_at=data.get("finished_at"),
            error=data.get("error", ""),
            directory=data.get("directory"),
            progress=data.get("progress"),
        )

    def to_job(self) -> Job:
        """A :class:`Job` the client hands back to callers (the
        ``directory`` is a *server-side* path, kept for workflows where
        client and server share a filesystem)."""
        return Job(
            job_id=self.job_id,
            name=self.name,
            status=self.status,
            submitted_at=self.submitted_at,
            started_at=self.started_at,
            finished_at=self.finished_at,
            error=self.error,
            directory=Path(self.directory) if self.directory else None,
            progress=self.progress,
        )


@dataclass(frozen=True)
class ExperimentPage:
    """One page of a job's recorded experiments, sorted by id."""

    experiments: list
    total: int
    offset: int
    limit: int

    @property
    def next_offset(self) -> int | None:
        end = self.offset + len(self.experiments)
        return end if end < self.total else None

    def to_dict(self) -> dict:
        return {
            "experiments": list(self.experiments),
            "total": self.total,
            "offset": self.offset,
            "limit": self.limit,
            "next_offset": self.next_offset,
        }

    @classmethod
    def from_dict(cls, data: dict) -> "ExperimentPage":
        return cls(
            experiments=list(data.get("experiments", [])),
            total=data["total"],
            offset=data.get("offset", 0),
            limit=data.get("limit", 0),
        )


# -- lossless config round-trips --------------------------------------------------


def campaign_config_to_dict(config: CampaignConfig) -> dict:
    """Serialize every field of a campaign config (paths as strings)."""

    def opt_path(value: Path | None) -> str | None:
        return str(value) if value is not None else None

    return {
        "name": config.name,
        "target_dir": str(config.target_dir),
        "fault_model": config.fault_model.to_dict(),
        "workload": config.workload.to_dict(),
        "injectable_files": (list(config.injectable_files)
                             if config.injectable_files is not None else None),
        "containerfile": config.containerfile,
        "trigger": config.trigger,
        "rounds": config.rounds,
        "coverage": config.coverage,
        "sample": config.sample,
        "spec_filter": (list(config.spec_filter)
                        if config.spec_filter is not None else None),
        "file_filter": (list(config.file_filter)
                        if config.file_filter is not None else None),
        "parallelism": config.parallelism,
        "backend": config.backend,
        "shards": config.shards,
        "workers": (list(config.workers)
                    if config.workers is not None else None),
        "registry_url": config.registry_url,
        "scan_jobs": config.scan_jobs,
        "scan_cache_dir": opt_path(config.scan_cache_dir),
        "scan_incremental": config.scan_incremental,
        "image_manifest": (dict(config.image_manifest)
                           if config.image_manifest is not None else None),
        "blob_cache_dir": opt_path(config.blob_cache_dir),
        "seed": config.seed,
        "workspace": opt_path(config.workspace),
        "keep_artifacts": config.keep_artifacts,
        "results_path": opt_path(config.results_path),
        "resume": config.resume,
        "sampling": (config.sampling.to_dict()
                     if config.sampling is not None else None),
    }


def campaign_config_from_dict(data: dict) -> CampaignConfig:
    """Rebuild a campaign config from its wire form (raises ``KeyError``
    / ``ValueError`` for malformed payloads — the API layer maps them to
    ``invalid_request``).  A ``target_dir`` that does not exist on this
    host is *not* rejected here: it is validated at scan/build time, so
    a config (possibly carrying an ``image_manifest``) round-trips on
    hosts whose filesystem lacks the path."""

    def opt_path(value) -> Path | None:
        return Path(value) if value is not None else None

    return CampaignConfig(
        name=data["name"],
        target_dir=Path(data["target_dir"]),
        fault_model=FaultModel.from_dict(data["fault_model"]),
        workload=WorkloadSpec.from_dict(data["workload"]),
        injectable_files=data.get("injectable_files"),
        containerfile=data.get("containerfile"),
        trigger=data.get("trigger", True),
        rounds=int(data.get("rounds", 2)),
        coverage=data.get("coverage", True),
        sample=data.get("sample"),
        spec_filter=data.get("spec_filter"),
        file_filter=data.get("file_filter"),
        parallelism=data.get("parallelism"),
        backend=data.get("backend", "thread"),
        shards=int(data.get("shards", 1)),
        workers=data.get("workers"),
        registry_url=data.get("registry_url"),
        scan_jobs=data.get("scan_jobs"),
        scan_cache_dir=opt_path(data.get("scan_cache_dir")),
        scan_incremental=bool(data.get("scan_incremental", True)),
        image_manifest=data.get("image_manifest"),
        blob_cache_dir=opt_path(data.get("blob_cache_dir")),
        seed=data.get("seed", 0),
        workspace=opt_path(data.get("workspace")),
        keep_artifacts=data.get("keep_artifacts", False),
        results_path=opt_path(data.get("results_path")),
        resume=data.get("resume", True),
        # CampaignConfig normalizes the wire dict to a SamplingConfig
        # (and validates it) in __post_init__.
        sampling=data.get("sampling"),
    )


def rule_to_dict(rule: ClassificationRule) -> dict:
    return {"mode": rule.mode, "pattern": rule.pattern,
            "scope": rule.scope, "description": rule.description}


def rule_from_dict(data: dict) -> ClassificationRule:
    return ClassificationRule(
        mode=data["mode"], pattern=data["pattern"],
        scope=data.get("scope", "any"),
        description=data.get("description", ""),
    )


def component_to_dict(component: ComponentSpec) -> dict:
    return {"name": component.name,
            "log_globs": list(component.log_globs),
            "error_pattern": component.error_pattern}


def component_from_dict(data: dict) -> ComponentSpec:
    return ComponentSpec(
        name=data["name"],
        log_globs=tuple(data["log_globs"]),
        error_pattern=data.get("error_pattern",
                               ComponentSpec.error_pattern),
    )




# -- the /v1 route table -------------------------------------------------------------

#: Page-size bounds for experiment retrieval.
DEFAULT_PAGE_LIMIT = 100
MAX_PAGE_LIMIT = 1000

#: Longest single long-poll a server answers; clients loop to wait longer.
MAX_WAIT_SECONDS = 60.0

# Request body kinds.
NO_BODY = "none"
JSON_BODY = "json"            # a JSON object, required
OPTIONAL_JSON = "json?"       # a JSON object; an empty body reads as {}
RAW_BODY = "bytes"            # the bytes verbatim

# Response kinds.
JSON = "json"                 # a JSON object
TEXT = "text"                 # text/plain
FILE = "file"                 # a result stream file, chunk-streamed
TAIL = "tail"                 # a newline-aligned NDJSON tail
BYTES = "bytes"               # raw bytes

# Auth scopes.
OPEN = "open"                 # no credentials (health probes)
AUTH = "auth"                 # a valid token; fleet resources are shared
TENANT = "tenant"             # a valid token; the operation sees its tenant

#: Exceptions that mean the request itself could not be decoded.
DECODE_ERRORS = (KeyError, TypeError, ValueError, AttributeError, DslError)

#: What an operation's exception means on the wire (``KeyError`` maps to
#: the row's own ``missing`` code; anything unlisted is ``internal``).
_CALL_ERRORS = (
    (FileNotFoundError, "missing_artifact"),
    (TenantForbiddenError, "forbidden"),
    (QuotaExceededError, "quota_exceeded"),
    (TimeoutError, "timeout"),
    (LeaseExpiredError, "lease_expired"),
    ((ValueError, TypeError), "invalid_request"),
)


@dataclass(frozen=True)
class Route:
    """One ``/v1`` endpoint, declared once for server, client, and docs.

    The server calls ``call(service, **arguments)``: the arguments are
    the path parameters (percent-decoded), the present ``query``
    parameters cast to their declared types, ``body`` (after
    ``decode``, when the row has a body), and ``tenant`` (tenant-scoped
    rows).  ``missing`` is the error code a ``KeyError`` from the call
    maps to; ``idempotent`` rows are the ones the client retries.
    """

    name: str
    method: str
    path: str
    call: Callable
    query: tuple[tuple[str, type], ...] = ()
    body: str = NO_BODY
    decode: Callable | None = None
    response: str = JSON
    status: int = 200
    missing: str = "invalid_request"
    scope: str = TENANT
    idempotent: bool = False

    @cached_property
    def params(self) -> tuple[str, ...]:
        """The path parameter names, in template order."""
        return tuple(re.findall(r"\{(\w+)\}", self.path))

    @cached_property
    def pattern(self) -> re.Pattern:
        return re.compile(re.sub(r"\\\{(\w+)\\\}", r"(?P<\1>[^/]+)",
                                 re.escape(self.path)))

    def url(self, *args, query: dict | None = None) -> str:
        """The request path for these path arguments (each
        percent-encoded, ``/`` included) and query values (``None``
        values are left out)."""
        path = self.path.format(**{
            name: quote(str(arg), safe="")
            for name, arg in zip(self.params, args, strict=True)
        })
        query = query or {}
        values = {key: query[key] for key, _cast in self.query
                  if query.get(key) is not None}
        return path + "?" + urlencode(values) if values else path


def resolve(method: str, path: str) -> tuple[Route | None, dict, list[str]]:
    """The route serving ``method path``, its percent-decoded path
    parameters, and — when no row has that method — the methods the
    path does allow (empty for an unknown path)."""
    allowed = set()
    for route in ROUTES:
        found = route.pattern.fullmatch(path)
        if found is None:
            continue
        if route.method == method:
            return route, {name: unquote(value) for name, value
                           in found.groupdict().items()}, []
        allowed.add(route.method)
    return None, {}, sorted(allowed)


def call_error(route: Route, error: Exception) -> APIError | None:
    """The wire error for an exception the row's operation raised, or
    ``None`` when it is an unexpected (``internal``) failure."""
    if isinstance(error, KeyError):
        message = error.args[0] if error.args else route.missing
        return APIError(route.missing, str(message))
    for types, code in _CALL_ERRORS:
        if isinstance(error, types):
            return APIError(code, str(error))
    return None


# -- operations that are more than one service call ---------------------------------


def _stamped(payload: dict) -> dict:
    return {**payload, "api_version": API_VERSION}


def _job_view(job: Job) -> dict:
    return JobView.from_job(job).to_dict()


def _models(service, tenant):
    return _stamped({"stored": service.stored_models(tenant=tenant),
                     "predefined": sorted(predefined_models()),
                     "models": service.list_models(tenant=tenant)})


def _put_model(service, name, body: FaultModel, tenant):
    if body.name != name:
        raise ValueError(
            f"model name {body.name!r} does not match URL name {name!r}")
    path = service.save_model(body, tenant=tenant)
    return _stamped({"name": body.name, "path": str(path)})


def _campaign_arguments(payload: dict) -> dict:
    """Payload ``{"config": {...}, "rules": [...], "components": [...],
    "resume_from": ..., "block": false}`` → ``submit_campaign``
    keyword arguments."""
    return {
        "config": campaign_config_from_dict(payload["config"]),
        "rules": [rule_from_dict(r) for r in payload.get("rules", [])],
        "components": [component_from_dict(c)
                       for c in payload.get("components", [])],
        "block": bool(payload.get("block", False)),
        "resume_from": payload.get("resume_from"),
    }


def _wait(service, job_id, tenant, timeout=None):
    """Long-poll until the job is terminal (bounded per request)."""
    if timeout is None or timeout > MAX_WAIT_SECONDS:
        timeout = MAX_WAIT_SECONDS
    return _job_view(service.wait(job_id, timeout=timeout, tenant=tenant))


def _experiments_page(service, job_id, tenant, offset=0,
                      limit=DEFAULT_PAGE_LIMIT):
    """One page of the recorded dicts, served straight from the stream
    (sorted by experiment id, like the in-process reader)."""
    if offset < 0 or limit < 1:
        raise ValueError(f"offset must be >= 0 and limit >= 1 "
                         f"(got offset={offset}, limit={limit})")
    from repro.orchestrator.stream import ExperimentStream

    limit = min(limit, MAX_PAGE_LIMIT)
    entries = ExperimentStream(
        service.experiments_path(job_id, tenant=tenant)).entries()
    return ExperimentPage(experiments=entries[offset:offset + limit],
                          total=len(entries), offset=offset,
                          limit=limit).to_dict()


def _regression_tests(service, job_id, tenant):
    """Generate regression tests server-side and return their sources
    (the client materializes them wherever it wants)."""
    dest = service._job_dir(service.job(job_id, tenant=tenant))
    written = service.generate_regression_tests(
        job_id, dest / "regression_tests", tenant=tenant)
    return _stamped({"tests": [
        {"filename": path.name, "content": path.read_text(encoding="utf-8")}
        for path in written
    ]})


def _shard_tail(service, shard_id, offset=0) -> bytes:
    """The shard stream's complete records from byte ``offset``
    (:func:`read_complete_lines`): never half a record, and the next
    poll starts at ``offset + len(tail)``."""
    if offset < 0:
        raise ValueError(f"offset must be >= 0, got {offset}")
    return read_complete_lines(service.shard_stream_path(shard_id), offset)


def _read_blob(service, digest) -> bytes:
    try:
        return service.blob_path(digest).read_bytes()
    except OSError:
        # Evicted between lookup and read: to the client that is
        # indistinguishable from never-stored.
        raise KeyError(f"unknown blob {digest!r}") from None


def _experiment_ids(payload: dict) -> list:
    ids = payload["experiment_ids"]
    if not isinstance(ids, list) or not all(isinstance(experiment_id, str)
                                            for experiment_id in ids):
        raise ValueError('"experiment_ids" must be a list of strings')
    return ids


def _digests(payload: dict) -> list:
    if not isinstance(payload["digests"], list):
        raise ValueError('"digests" must be a list')
    return payload["digests"]


#: Every ``/v1`` endpoint.  Matching is first-row-wins per method, so
#: ``POST /v1/blobs/missing`` precedes ``/v1/blobs/{digest}``.
ROUTES = (
    Route("ping", "GET", "/v1/ping", lambda service: _stamped(
        {"service": "profipy", "workspace": str(service.workspace)}),
        scope=OPEN, idempotent=True),
    # -- fault models
    Route("list_models", "GET", "/v1/models", _models, idempotent=True),
    Route("load_model", "GET", "/v1/models/{name}",
          lambda service, name, tenant:
          service.load_model(name, tenant=tenant).to_dict(),
          missing="unknown_model", idempotent=True),
    Route("save_model", "PUT", "/v1/models/{name}", _put_model,
          body=JSON_BODY, decode=FaultModel.from_dict),
    # -- campaigns and jobs
    Route("submit_campaign", "POST", "/v1/campaigns",
          lambda service, body, tenant:
          _job_view(service.submit_campaign(**body, tenant=tenant)),
          body=JSON_BODY, decode=_campaign_arguments, status=202,
          missing="unknown_job"),
    Route("list_jobs", "GET", "/v1/jobs", lambda service, tenant: _stamped(
        {"jobs": [_job_view(job)
                  for job in service.list_jobs(tenant=tenant)]}),
        idempotent=True),
    Route("job", "GET", "/v1/jobs/{job_id}",
          lambda service, job_id, tenant:
          _job_view(service.job(job_id, tenant=tenant)),
          missing="unknown_job", idempotent=True),
    Route("cancel", "POST", "/v1/jobs/{job_id}/cancel",
          lambda service, job_id, tenant:
          _job_view(service.cancel(job_id, tenant=tenant)),
          missing="unknown_job"),
    Route("wait", "GET", "/v1/jobs/{job_id}/wait", _wait,
          query=(("timeout", float),), missing="unknown_job",
          idempotent=True),
    Route("result_summary", "GET", "/v1/jobs/{job_id}/summary",
          lambda service, job_id, tenant:
          service.result_summary(job_id, tenant=tenant),
          missing="unknown_job", idempotent=True),
    Route("report_text", "GET", "/v1/jobs/{job_id}/report",
          lambda service, job_id, tenant:
          service.report_text(job_id, tenant=tenant),
          response=TEXT, missing="unknown_job", idempotent=True),
    Route("experiments_page", "GET", "/v1/jobs/{job_id}/experiments",
          _experiments_page, query=(("offset", int), ("limit", int)),
          missing="unknown_job", idempotent=True),
    Route("experiments", "GET", "/v1/jobs/{job_id}/experiments.ndjson",
          lambda service, job_id, tenant:
          service.experiments_path(job_id, tenant=tenant),
          response=FILE, missing="unknown_job", idempotent=True),
    Route("generate_regression_tests", "POST",
          "/v1/jobs/{job_id}/regression-tests", _regression_tests,
          missing="unknown_job"),
    # -- remote-backend worker role
    Route("submit_shard", "POST", "/v1/shards",
          lambda service, body: _stamped(service.submit_shard(body)),
          body=JSON_BODY, status=202, scope=AUTH),
    Route("list_shards", "GET", "/v1/shards", lambda service: _stamped(
        {"shards": service.list_shards()}), scope=AUTH, idempotent=True),
    Route("shard_status", "GET", "/v1/shards/{shard_id}",
          lambda service, shard_id:
          _stamped(service.shard_status(shard_id)),
          missing="unknown_shard", scope=AUTH, idempotent=True),
    Route("cancel_shard", "POST", "/v1/shards/{shard_id}/cancel",
          lambda service, shard_id:
          _stamped(service.cancel_shard(shard_id)),
          missing="unknown_shard", scope=AUTH),
    Route("release_shard", "POST", "/v1/shards/{shard_id}/release",
          lambda service, shard_id, body:
          _stamped(service.release_shard(shard_id, body)),
          body=JSON_BODY, decode=_experiment_ids, missing="unknown_shard",
          scope=AUTH),
    Route("shard_stream", "GET", "/v1/shards/{shard_id}/stream.ndjson",
          _shard_tail, query=(("offset", int),), response=TAIL,
          missing="unknown_shard", scope=AUTH, idempotent=True),
    # -- content-addressed blobs
    Route("missing_blobs", "POST", "/v1/blobs/missing",
          lambda service, body: _stamped(
              {"missing": service.missing_blobs(body)}),
          body=JSON_BODY, decode=_digests, scope=AUTH),
    Route("get_blob", "GET", "/v1/blobs/{digest}", _read_blob,
          response=BYTES, missing="unknown_blob", scope=AUTH,
          idempotent=True),
    Route("put_blob", "PUT", "/v1/blobs/{digest}",
          lambda service, digest, body, tenant: _stamped({
              "digest": service.put_blob(digest, body, tenant=tenant),
              "size": len(body)}),
          body=RAW_BODY),
    # -- worker fleet registry
    Route("register_worker", "POST", "/v1/workers/register",
          lambda service, body: _stamped(service.register_worker(body)),
          body=JSON_BODY, scope=AUTH),
    Route("list_workers", "GET", "/v1/workers", lambda service: _stamped(
        {"workers": service.list_workers()}), scope=AUTH, idempotent=True),
    Route("worker_heartbeat", "POST", "/v1/workers/{worker_id}/heartbeat",
          lambda service, worker_id, body: _stamped(
              service.worker_heartbeat(worker_id, body)),
          body=OPTIONAL_JSON, decode=lambda payload: payload.get("load"),
          missing="unknown_worker", scope=AUTH),
    # -- cross-campaign statistics
    Route("stats_campaigns", "GET", "/v1/stats/campaigns",
          lambda service, tenant: _stamped(
              {"campaigns": service.stats_campaigns(tenant=tenant)}),
          idempotent=True),
    Route("stats_aggregate", "GET", "/v1/stats/aggregate",
          lambda service, tenant, **filters: _stamped(
              service.stats_aggregate(tenant=tenant, **filters)),
          query=(("campaign", str), ("spec", str), ("file", str),
                 ("component", str), ("confidence", float)),
          idempotent=True),
)

#: The rows by name (the client's lookup).
ROUTE = {route.name: route for route in ROUTES}
