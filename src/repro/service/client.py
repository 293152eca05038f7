"""Typed HTTP client SDK mirroring the in-process service facade.

:class:`ProFIPyClient` exposes the *same method surface* as
:class:`repro.service.service.ProFIPyService` — ``save_model`` /
``load_model`` / ``submit_campaign`` / ``job`` / ``wait`` / ``cancel`` /
``report_text`` / ``experiments`` / ``generate_regression_tests`` — so
callers swap the in-process facade for a remote server without code
changes::

    service = ProFIPyService("workspace")          # in-process
    service = ProFIPyClient("http://host:8080")    # remote, same calls

Against a tenant-enabled server, pass the tenant's bearer token —
``ProFIPyClient(url, token="s3cret")`` — the remote twin of
``ProFIPyService.for_tenant(name)``.

Equivalence guarantees (the contract tests in
``tests/test_service_api_contract.py`` enforce them):

* identical return types (:class:`Job`, :class:`FaultModel`,
  :class:`ExperimentResult` lists sorted by experiment id), including
  the shard-aware ``Job.progress`` snapshot
  (``experiments_done``/``experiments_total`` + per-shard states) a
  running campaign publishes;
* identical exception types — the wire error codes map back to what the
  in-process facade raises (``unknown_job``/``unknown_model`` →
  ``KeyError``, ``missing_artifact`` → ``FileNotFoundError``,
  ``timeout`` → ``TimeoutError``, ``invalid_request`` → ``ValueError``,
  ``unauthorized``/``forbidden`` → ``PermissionError`` subclasses,
  ``quota_exceeded`` → ``QuotaExceededError``);
* identical campaign behaviour, because the server runs the exact same
  core with a lossless config round-trip.

``wait`` long-polls (bounded requests in a loop, no busy-polling) and
``experiments`` consumes the NDJSON stream with the same
last-record-wins / skip-meta semantics as the on-disk reader.

Only the stdlib is used (``urllib``); the client has no dependency on a
running event loop or third-party HTTP stack.
"""

from __future__ import annotations

import http.client
import json
import time
import urllib.error
import urllib.request
from pathlib import Path

from repro.analysis.classify import ClassificationRule
from repro.analysis.metrics import ComponentSpec
from repro.common.retry import RetryPolicy, retry_call
from repro.faultmodel.model import FaultModel
from repro.orchestrator.campaign import CampaignConfig
from repro.orchestrator.experiment import (
    STATUS_HARNESS_ERROR,
    ExperimentResult,
)
from repro.service.api import (
    API_VERSION,
    JSON,
    ROUTE,
    TEXT,
    APIError,
    ExperimentPage,
    JobView,
    campaign_config_to_dict,
    component_to_dict,
    exception_for,
    rule_to_dict,
)
from repro.service.jobs import Job

#: Per-request long-poll bound; overall waits loop over it.
WAIT_POLL_SECONDS = 30.0


class TransportError(ConnectionError):
    """The server could not be reached or the connection died mid-request
    — refused/reset sockets, DNS failure, timeouts, torn HTTP framing.

    Distinct from an HTTP-level :class:`APIError`: a transport error
    means the server never (verifiably) answered, so retrying an
    idempotent request is safe, while an HTTP error is an authoritative
    answer that must not be retried.  Subclasses :class:`ConnectionError`
    so existing ``OSError``-based failover handling keeps working.
    """


#: Default retry for idempotent rows (the GETs): a couple of quick,
#: jittered retries smooth over connection blips without masking a dead
#: server for long.  Writes (POST/PUT) never retry at the transport
#: layer — a shard submission in particular must stay exactly-once on
#: the wire.
DEFAULT_GET_RETRY = RetryPolicy(attempts=3, base_delay=0.05,
                                max_delay=0.5, jitter=0.25)


class ProFIPyClient:
    """Remote fault-injection-as-a-service, same surface as the
    in-process :class:`~repro.service.service.ProFIPyService`."""

    def __init__(self, base_url: str, timeout: float = 60.0,
                 retry_policy: RetryPolicy | None = DEFAULT_GET_RETRY,
                 token: str | None = None) -> None:
        self.base_url = base_url.rstrip("/")
        self.timeout = timeout
        #: Applied to idempotent GETs only; ``None`` disables retries.
        self.retry_policy = retry_policy
        #: Bearer token for tenant-enabled servers; sent as
        #: ``Authorization: Bearer <token>`` on every request.  ``None``
        #: for open single-user servers.
        self.token = token

    # -- transport ---------------------------------------------------------------

    def _call(self, name: str, *path_args, query: dict | None = None,
              body: dict | bytes | None = None,
              timeout: float | None = None):
        """One request through the ``ROUTES`` row ``name``: the path and
        query string come from the row, and only idempotent rows retry.
        Returns the decoded JSON object, the text, or the raw bytes —
        whichever the row's response kind is."""
        route = ROUTE[name]
        path = route.url(*path_args, query=query)
        headers = {"Accept": "application/json"}
        if self.token is not None:
            headers["Authorization"] = f"Bearer {self.token}"
        if isinstance(body, bytes):
            # Raw-body endpoints (blob uploads) ship the bytes verbatim.
            headers["Content-Type"] = "application/octet-stream"
        elif body is not None:
            body = json.dumps(body).encode("utf-8")
            headers["Content-Type"] = "application/json"
        request_timeout = timeout or self.timeout
        # Only idempotent rows (status, stream tails, listings) retry:
        # a retried non-idempotent write could double-execute server
        # side — a resubmitted shard, a duplicate campaign.
        def attempt(attempt_timeout=None):
            return self._send(route.method, path, body, headers,
                              attempt_timeout or request_timeout)

        if route.idempotent and self.retry_policy is not None:
            _status, raw, _ctype = retry_call(
                attempt, policy=self.retry_policy, retry_on=(TransportError,))
        else:
            _status, raw, _ctype = attempt()
        if route.response == JSON:
            return json.loads(raw.decode("utf-8"))
        if route.response == TEXT:
            return raw.decode("utf-8")
        return raw

    def _send(self, method: str, path: str, body: bytes | None,
              headers: dict, timeout: float) -> tuple[int, bytes, str]:
        url = self.base_url + path
        request = urllib.request.Request(url, data=body,
                                         headers=dict(headers),
                                         method=method)
        try:
            with urllib.request.urlopen(
                request, timeout=timeout
            ) as response:
                return (response.status, response.read(),
                        response.headers.get("Content-Type", ""))
        except urllib.error.HTTPError as error:
            # HTTP-level: the server is up and answered.  Authoritative —
            # map the wire code back to the in-process exception type.
            raw = error.read()
            try:
                data = json.loads(raw.decode("utf-8"))
            except (UnicodeDecodeError, ValueError):
                data = {}
            raise exception_for(
                APIError.from_dict(data, http_status=error.code)
            ) from None
        except urllib.error.URLError as error:
            raise TransportError(
                f"{method} {url}: {error.reason}"
            ) from error
        except (http.client.HTTPException, ConnectionError,
                TimeoutError) as error:
            raise TransportError(
                f"{method} {url}: {type(error).__name__}: {error}"
            ) from error

    def ping(self) -> dict:
        """Server identity and API version (connectivity check)."""
        info = self._call("ping")
        if info.get("api_version") != API_VERSION:
            raise APIError(
                "invalid_request",
                f"server speaks API {info.get('api_version')!r}, "
                f"this client speaks {API_VERSION!r}",
            )
        return info

    # -- fault model registry ------------------------------------------------

    def save_model(self, model: FaultModel) -> Path:
        """Store a fault model in the server's registry; returns the
        *server-side* path of the stored JSON."""
        result = self._call("save_model", model.name, body=model.to_dict())
        return Path(result["path"])

    def import_model(self, path: str | Path) -> FaultModel:
        """Import a local fault model JSON into the server's registry."""
        model = FaultModel.load(path)
        self.save_model(model)
        return model

    def load_model(self, name: str) -> FaultModel:
        """A stored model by name, falling back to the pre-defined ones
        (resolved server-side, exactly like the in-process facade)."""
        return FaultModel.from_dict(self._call("load_model", name))

    def list_models(self) -> list[str]:
        """Every loadable model name — stored **and** pre-defined —
        mirroring :meth:`ProFIPyService.list_models`."""
        result = self._call("list_models")
        merged = result.get("models")
        if merged is None:
            # Pre-tenancy servers sent only the split lists.
            merged = sorted(set(result["stored"])
                            | set(result.get("predefined", [])))
        return list(merged)

    def stored_models(self) -> list[str]:
        """Names of models stored in the server-side registry (the
        pre-defined ones are not listed here, but always loadable)."""
        return list(self._call("list_models")["stored"])

    # -- campaign submission -----------------------------------------------------

    def submit_campaign(
        self,
        config: CampaignConfig,
        rules: list[ClassificationRule] | None = None,
        components: list[ComponentSpec] | None = None,
        block: bool = True,
        resume_from: str | None = None,
    ) -> Job:
        """Submit a campaign to the server; mirrors the in-process call.

        The config round-trips losslessly over the wire, so the server
        runs exactly the campaign this process would have run (note the
        paths inside — target dir, workspace — resolve on the *server's*
        filesystem).  With ``block=True`` the call long-polls until the
        job is terminal.
        """
        payload = {
            "config": campaign_config_to_dict(config),
            "rules": [rule_to_dict(rule) for rule in (rules or [])],
            "components": [component_to_dict(component)
                           for component in (components or [])],
            "resume_from": resume_from,
            "block": False,
        }
        job = self._to_job(self._call("submit_campaign", body=payload))
        if block:
            return self.wait(job.job_id)
        return job

    def job(self, job_id: str) -> Job:
        """One job's lifecycle view; ``job.progress`` carries the live
        shard-aware progress snapshot while the campaign runs."""
        return self._to_job(self._call("job", job_id))

    def job_progress(self, job_id: str) -> dict | None:
        """The job's latest progress snapshot (mirrors
        :meth:`ProFIPyService.job_progress`)."""
        return self.job(job_id).progress

    def list_jobs(self) -> list[Job]:
        return [self._to_job(view)
                for view in self._call("list_jobs")["jobs"]]

    def wait(self, job_id: str, timeout: float | None = None) -> Job:
        """Block until the job finishes (long-polling) and return it.

        Raises :class:`TimeoutError` when ``timeout`` seconds pass with
        the job still queued/running, like the in-process facade.
        """
        deadline = None if timeout is None else time.monotonic() + timeout
        while True:
            remaining = None
            if deadline is not None:
                remaining = deadline - time.monotonic()
                if remaining <= 0:
                    raise TimeoutError(
                        f"job {job_id} still running after {timeout}s"
                    )
            poll = WAIT_POLL_SECONDS if remaining is None \
                else min(WAIT_POLL_SECONDS, max(remaining, 0.05))
            try:
                view = self._call("wait", job_id,
                                  query={"timeout": f"{poll:g}"},
                                  timeout=poll + self.timeout)
            except TimeoutError:
                if deadline is not None and time.monotonic() >= deadline:
                    raise
                continue
            return self._to_job(view)

    def cancel(self, job_id: str) -> Job:
        """Request cancellation of a queued or running job (idempotent)."""
        return self._to_job(self._call("cancel", job_id))

    # -- results ---------------------------------------------------------------------

    def report_text(self, job_id: str) -> str:
        return self._call("report_text", job_id)

    def result_summary(self, job_id: str) -> dict:
        return self._call("result_summary", job_id)

    def experiments(self, job_id: str) -> list[ExperimentResult]:
        """Recorded experiments of a job, sorted by experiment id.

        Consumes the NDJSON stream (the raw ``experiments.jsonl`` file)
        applying the reader semantics of the on-disk stream: meta and
        truncated lines are skipped, the last record per experiment id
        wins.
        """
        from repro.orchestrator.stream import latest_entries

        raw = self._call("experiments", job_id)
        entries = latest_entries(raw.decode("utf-8").splitlines())
        return sorted(
            (ExperimentResult.from_dict(entry)
             for entry in entries.values()),
            key=lambda experiment: experiment.experiment_id,
        )

    def experiments_page(self, job_id: str, offset: int = 0,
                         limit: int = 100) -> ExperimentPage:
        """One page of experiment dicts (the paginated JSON endpoint,
        for UIs that render incrementally)."""
        return ExperimentPage.from_dict(self._call(
            "experiments_page", job_id,
            query={"offset": offset, "limit": limit},
        ))

    def recorded_ids(self, job_id: str) -> set[str]:
        """Resumable ids recorded so far (harness errors excluded,
        mirroring the stream reader used by campaign resume)."""
        return {
            experiment.experiment_id
            for experiment in self.experiments(job_id)
            if experiment.status != STATUS_HARNESS_ERROR
        }

    # -- remote-backend worker endpoints ----------------------------------------

    def submit_shard(self, payload: dict) -> dict:
        """Dispatch one shard payload to this worker host; returns the
        shard's status view (carrying the worker-assigned ``shard_id``).  Mirrors
        :meth:`ProFIPyService.submit_shard` — a malformed payload raises
        ``ValueError``."""
        return self._call("submit_shard", body=payload)

    def shard_status(self, shard_id: str) -> dict:
        """The shard's ``{state, total, recorded, cancelled, error}``
        status view; raises ``KeyError`` for an unknown shard (e.g. a
        worker that restarted and forgot it)."""
        return self._call("shard_status", shard_id)

    def list_shards(self) -> list[dict]:
        """Status views of every shard this worker accepted."""
        return list(self._call("list_shards")["shards"])

    def cancel_shard(self, shard_id: str) -> dict:
        """Request cooperative cancellation of a running shard
        (idempotent); the worker observes it between experiments."""
        return self._call("cancel_shard", shard_id)

    def release_shard(self, shard_id: str,
                      experiment_ids: list[str]) -> list[str]:
        """Take back the requested experiments the worker has not handed
        out yet; returns the released ids, none of which will ever start
        there.  Not retried: a release whose answer is lost may have
        taken experiments, so the caller must treat the worker as lost.
        Raises ``KeyError`` for an unknown shard."""
        return list(self._call(
            "release_shard", shard_id,
            body={"experiment_ids": list(experiment_ids)})["released"])

    def shard_stream(self, shard_id: str, offset: int = 0) -> bytes:
        """The shard stream's newline-aligned NDJSON tail from byte
        ``offset``.  Only complete records are returned, so the caller
        may append the bytes verbatim to a local mirror and poll again
        at ``offset + len(returned)``."""
        return self._call("shard_stream", shard_id,
                          query={"offset": int(offset)})

    # -- content-addressed blobs --------------------------------------------------

    def get_blob(self, digest: str) -> bytes:
        """One blob's raw content; raises ``KeyError`` for a blob the
        host lacks (``unknown_blob``),
        mirroring :meth:`ProFIPyService.blob_path` + read."""
        return self._call("get_blob", digest)

    def put_blob(self, digest: str, data: bytes) -> dict:
        """Upload one content-addressed blob (raw body).  Idempotent — re-putting a stored blob is a no-op —
        and verified: content that does not hash to ``digest`` raises
        ``ValueError``.  Safe to retry despite being a write, but the
        transport keeps its no-retry-on-writes policy for uniformity."""
        return self._call("put_blob", digest, body=data)

    def missing_blobs(self, digests) -> list[str]:
        """Which of ``digests`` the host lacks — upload exactly those
        before submitting a manifest-bearing shard."""
        result = self._call("missing_blobs",
                            body={"digests": sorted(set(digests))})
        return list(result["missing"])

    # -- worker registry (fleet membership) --------------------------------------

    def register_worker(self, payload: dict) -> dict:
        """Join (or re-join) the coordinator's fleet; returns the lease
        view carrying the coordinator-assigned ``worker_id`` and ``lease_seconds``.
        Mirrors :meth:`ProFIPyService.register_worker`."""
        return self._call("register_worker", body=payload)

    def worker_heartbeat(self, worker_id: str, load: dict | None = None) -> dict:
        """Renew the worker's lease, carrying its live load.  Raises ``KeyError`` for
        an id the coordinator never saw (``unknown_worker``) and
        :class:`~repro.service.registry.LeaseExpiredError` for an
        evicted or fenced lease (``lease_expired``) — the agent
        re-registers on either."""
        return self._call("worker_heartbeat", worker_id,
                          body={"load": load})

    def list_workers(self) -> list[dict]:
        """The fleet as the coordinator sees it — one view per worker
        with ``state`` (alive/suspect/dead), live load, and lease age."""
        return list(self._call("list_workers")["workers"])

    # -- cross-campaign statistics ---------------------------------------------

    def stats_campaigns(self) -> list[dict]:
        """Campaigns indexed in the server's statistical result store."""
        return list(self._call("stats_campaigns")["campaigns"])

    def stats_aggregate(self, campaign: str | None = None,
                        spec: str | None = None,
                        file: str | None = None,
                        component: str | None = None,
                        confidence: float | None = None) -> dict:
        """Per-failure-mode Wilson estimates across stored campaigns."""
        return self._call("stats_aggregate", query={
            "campaign": campaign, "spec": spec, "file": file,
            "component": component, "confidence": confidence})

    def generate_regression_tests(self, job_id: str,
                                  dest_dir: str | Path) -> list[Path]:
        """Generate regression tests server-side and materialize them
        locally under ``dest_dir``; returns the local paths."""
        result = self._call("generate_regression_tests", job_id)
        dest_dir = Path(dest_dir)
        dest_dir.mkdir(parents=True, exist_ok=True)
        written = []
        for test in result["tests"]:
            path = dest_dir / test["filename"]
            path.write_text(test["content"], encoding="utf-8")
            written.append(path)
        return written

    def _to_job(self, view: dict) -> Job:
        return JobView.from_dict(view).to_job()
