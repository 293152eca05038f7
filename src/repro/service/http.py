"""Stdlib HTTP transport for the versioned service API (``/v1``).

A :class:`ThreadingHTTPServer` that dispatches every request through
the route table :data:`repro.service.api.ROUTES` onto the same
:class:`ProFIPyService` core the in-process facade uses — so a campaign
submitted over the wire behaves byte-identically to one submitted
in-process.  Started from the CLI via ``profipy serve``; the endpoint
list is ``ROUTES`` (documented in ``docs/SERVICE_API.md``).

Errors are JSON bodies ``{"error": {"code": ..., "message": ...}}`` with
the HTTP status fixed per code (:data:`repro.service.api.ERROR_STATUS`);
a known path with an unlisted method answers ``method_not_allowed``
with an ``Allow`` header, an unknown path ``not_found``.
``/v1/jobs/{id}/wait`` long-polls: the handler thread blocks (bounded to
``MAX_WAIT_SECONDS`` per request) and answers 408/``timeout`` when the
job is still running, so clients loop without busy-polling.  The NDJSON
endpoint streams the raw result stream file in chunks — constant server
memory regardless of campaign size.

**Authentication.**  When the service carries a tenant directory
(``profipy serve --tenants FILE`` or a ``tenants.json`` in the
workspace), every endpoint except ``GET /v1/ping`` requires an
``Authorization: Bearer <token>`` header naming a configured tenant;
requests without one answer 401/``unauthorized``.  The resolved tenant
scopes every tenant-owned resource (models, jobs, stats) and feeds the
per-tenant token-bucket rate limiter (429/``quota_exceeded``).  With no
directory configured the server is the original open single-user API.
"""

from __future__ import annotations

import json
import math
import threading
from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer
from pathlib import Path
from urllib.parse import parse_qs, urlparse

from repro.service.api import (
    API_VERSION,
    BYTES,
    DECODE_ERRORS,
    FILE,
    JSON,
    NO_BODY,
    OPEN,
    OPTIONAL_JSON,
    RAW_BODY,
    TAIL,
    TENANT,
    TEXT,
    APIError,
    Route,
    call_error,
    resolve,
)
from repro.service.service import ProFIPyService
from repro.service.tenants import (
    DEFAULT_TENANT,
    AuthenticationError,
    TokenBucket,
)

#: Upper bound on accepted request bodies (fault models and campaign
#: configs are small; a runaway body must not exhaust server memory).
MAX_BODY_BYTES = 16 * 1024 * 1024

_STREAM_CHUNK = 64 * 1024

_CONTENT_TYPES = {JSON: "application/json; charset=utf-8",
                  TEXT: "text/plain; charset=utf-8",
                  FILE: "application/x-ndjson",
                  TAIL: "application/x-ndjson",
                  BYTES: "application/octet-stream"}


class ServiceRequestHandler(BaseHTTPRequestHandler):
    """Serves ``/v1`` requests from the route table."""

    server_version = f"ProFIPy/{API_VERSION}"
    protocol_version = "HTTP/1.1"

    def __getattr__(self, name: str):
        # BaseHTTPRequestHandler looks up ``do_<METHOD>`` and answers an
        # HTML 501 when it is missing; every method goes through the
        # table instead, so an unlisted one answers JSON 405/404.
        if name.startswith("do_"):
            return self._dispatch
        raise AttributeError(name)

    def log_message(self, format: str, *args) -> None:  # noqa: A002
        pass  # request logging is the embedding application's business

    # -- dispatch ----------------------------------------------------------------

    def _dispatch(self) -> None:
        parsed = urlparse(self.path)
        self._response_started = False
        self._tenant = DEFAULT_TENANT
        try:
            route, params, allowed = resolve(self.command, parsed.path)
            if (route is None or route.body == NO_BODY) and (
                    self.headers.get("Content-Length", "0").strip() != "0"
                    or "Transfer-Encoding" in self.headers):
                # Nothing reads this body: on a kept-alive connection
                # its bytes would be parsed as the next request.
                self.close_connection = True
            if route is None or route.scope != OPEN:
                self._authenticate()
            if route is None and allowed:
                error = APIError(
                    "method_not_allowed",
                    f"{self.command} not allowed on {parsed.path} "
                    f"(allowed: {', '.join(allowed)})",
                )
                error.allow = allowed
                raise error
            if route is None:
                raise APIError(
                    "not_found", f"no such endpoint: {self.command} "
                    f"{parsed.path} (API version {API_VERSION})"
                )
            arguments = self._arguments(route, params,
                                        parse_qs(parsed.query))
            try:
                result = route.call(self.server.service, **arguments)
            except Exception as error:  # noqa: BLE001 - translated below
                translated = call_error(route, error)
                if translated is None:
                    raise
                raise translated from None
            self._respond(route, result)
        except APIError as error:
            self._send_error(error)
        except ConnectionError:  # client went away mid-response
            self.close_connection = True
        except Exception as error:  # noqa: BLE001 - one request, not the server
            self._send_error(APIError(
                "internal", f"{type(error).__name__}: {error}"
            ))

    def _arguments(self, route: Route, params: dict, query: dict) -> dict:
        """The operation's keyword arguments; anything malformed about
        the query or body answers ``invalid_request``."""
        arguments = dict(params)
        try:
            for key, cast in route.query:
                if query.get(key):
                    arguments[key] = cast(query[key][-1])
            if route.body != NO_BODY:
                body = self._read_body(route.body)
                arguments["body"] = (route.decode(body) if route.decode
                                     else body)
        except DECODE_ERRORS as error:
            raise APIError(
                "invalid_request", f"malformed {route.method} "
                f"{route.path} request: {type(error).__name__}: {error}"
            ) from None
        if route.scope == TENANT:
            arguments["tenant"] = self._tenant
        return arguments

    def _authenticate(self) -> None:
        """Resolve the request's tenant (and spend a rate-limit token).

        No tenant directory → the open single-user API: every caller is
        the default tenant.  With a directory, everything but the open
        rows needs a bearer token that maps to a configured tenant.
        """
        directory = self.server.tenants  # type: ignore[attr-defined]
        if directory is None:
            return
        header = self.headers.get("Authorization") or ""
        token = None
        if header.lower().startswith("bearer "):
            token = header[7:].strip() or None
        try:
            self._tenant = directory.authenticate(token)
        except AuthenticationError as error:
            raise APIError("unauthorized", str(error)) from None
        bucket = self.server.bucket_for(self._tenant)  # type: ignore[attr-defined]
        if bucket is not None and not bucket.try_acquire():
            raise APIError(
                "quota_exceeded",
                f"tenant {self._tenant!r} exceeded its request rate "
                "limit; retry later",
            )

    def _send_error(self, error: APIError) -> None:
        # A rejected request may leave its body unread, and a keep-alive
        # socket with pending bytes would corrupt the next request's
        # framing: every error response closes the connection.
        self.close_connection = True
        if self._response_started:
            # Headers (and possibly part of a streamed body) are already
            # on the wire; injecting a second response would corrupt the
            # HTTP framing.  Dropping the connection is the only honest
            # signal left.
            return
        headers = {}
        if getattr(error, "allow", None):
            headers["Allow"] = ", ".join(error.allow)
        self._send_body(error.http_status, _json_bytes(error.to_dict()),
                        _CONTENT_TYPES[JSON], headers=headers)

    # -- request bodies ----------------------------------------------------------

    def _read_raw(self) -> bytes:
        """The request body verbatim (blob uploads are raw bytes, not
        JSON), bounded like every accepted body.

        The header is validated before use: a malformed value
        (``Content-Length: abc``) used to raise an unhandled
        ``ValueError`` (a 500 for a client mistake), and a *negative*
        value sailed past the upper-bound check and turned into
        ``rfile.read(-5)`` — read-to-EOF, defeating the body bound
        entirely.  Both answer 400/``invalid_request``.
        """
        header = self.headers.get("Content-Length")
        if header is None or not header.strip():
            return b""
        try:
            length = int(header.strip())
        except ValueError:
            raise APIError(
                "invalid_request",
                f"malformed Content-Length header: {header.strip()!r}",
            ) from None
        if length < 0:
            raise APIError("invalid_request",
                           f"negative Content-Length: {length}")
        if length > MAX_BODY_BYTES:
            raise APIError("invalid_request",
                           f"request body exceeds {MAX_BODY_BYTES} bytes")
        return self.rfile.read(length) if length else b""

    def _read_body(self, kind: str):
        raw = self._read_raw()
        if kind == RAW_BODY:
            return raw
        if not raw:
            if kind == OPTIONAL_JSON:
                # A load-less heartbeat still renews the lease.
                return {}
            raise APIError("invalid_request", "request body required")
        try:
            data = json.loads(raw.decode("utf-8"),
                              parse_constant=_reject_constant,
                              parse_float=_finite_float)
        except (UnicodeDecodeError, ValueError, RecursionError):
            raise APIError("invalid_request",
                           "request body is not valid JSON") from None
        if not isinstance(data, dict):
            raise APIError("invalid_request",
                           "request body must be a JSON object")
        return data

    # -- responses ---------------------------------------------------------------

    def _respond(self, route: Route, result) -> None:
        if route.response == FILE:
            self._stream_file(route.status, result)
            return
        if route.response == JSON:
            result = _json_bytes(result)
        elif route.response == TEXT:
            result = result.encode("utf-8")
        self._send_body(route.status, result,
                        _CONTENT_TYPES[route.response])

    def _send_body(self, status: int, body: bytes, content_type: str,
                   headers: dict | None = None) -> None:
        self._response_started = True
        self.send_response(status)
        self.send_header("Content-Type", content_type)
        self.send_header("Content-Length", str(len(body)))
        for name, value in (headers or {}).items():
            self.send_header(name, value)
        self.end_headers()
        self.wfile.write(body)

    def _stream_file(self, status: int, path: Path) -> None:
        """Stream a result file verbatim in chunks: the wire format IS
        the on-disk format, and server memory stays constant no matter
        how many experiments the campaign recorded.  The stream is
        append-only, so reading up to the size advertised is safe even
        while a campaign is still running.  A file not written yet is
        an empty stream, exactly as the in-process facade returns []."""
        size = path.stat().st_size if path.exists() else 0
        self._response_started = True
        self.send_response(status)
        self.send_header("Content-Type", _CONTENT_TYPES[FILE])
        self.send_header("Content-Length", str(size))
        self.end_headers()
        if not size:
            return
        remaining = size
        with open(path, "rb") as handle:
            while remaining > 0:
                chunk = handle.read(min(_STREAM_CHUNK, remaining))
                if not chunk:
                    break
                self.wfile.write(chunk)
                remaining -= len(chunk)


def _reject_constant(name: str):
    raise ValueError(f"{name} is not JSON")


def _finite_float(text: str) -> float:
    # Standard JSON has no infinities, but Python reads 1e400 as one
    # (and int(inf) deep in an operation is an OverflowError).
    value = float(text)
    if not math.isfinite(value):
        raise ValueError(f"number {text} is out of range")
    return value


def _json_bytes(payload: dict) -> bytes:
    return (json.dumps(payload, sort_keys=True) + "\n").encode("utf-8")


class ProFIPyHTTPServer(ThreadingHTTPServer):
    """The service API served over HTTP; one handler thread per request
    (long-polls therefore never starve other callers)."""

    daemon_threads = True

    def __init__(self, address: tuple[str, int],
                 service: ProFIPyService) -> None:
        super().__init__(address, ServiceRequestHandler)
        self.service = service
        self.tenants = service.tenants
        self._buckets: dict[str, TokenBucket] = {}
        self._bucket_lock = threading.Lock()

    def bucket_for(self, tenant: str) -> TokenBucket | None:
        """The tenant's request rate limiter (``None`` when the tenant
        is unthrottled); one bucket per tenant per server process."""
        if self.tenants is None:
            return None
        spec = self.tenants.spec(tenant)
        if spec.requests_per_second is None:
            return None
        with self._bucket_lock:
            bucket = self._buckets.get(tenant)
            if bucket is None:
                burst = (spec.burst
                         or int(spec.requests_per_second) or 1)
                bucket = TokenBucket(spec.requests_per_second, burst)
                self._buckets[tenant] = bucket
        return bucket

    @property
    def url(self) -> str:
        host, port = self.server_address[:2]
        return f"http://{host}:{port}"


def start_server(service: ProFIPyService, host: str = "127.0.0.1",
                 port: int = 0) -> tuple[ProFIPyHTTPServer, threading.Thread]:
    """Start a server on a background thread (port 0 = ephemeral);
    returns it with its thread.  The embedding test/benchmark calls
    ``server.shutdown()`` when done."""
    server = ProFIPyHTTPServer((host, port), service)
    thread = threading.Thread(target=server.serve_forever, daemon=True)
    thread.start()
    return server, thread


def serve(workspace: str | Path, host: str = "127.0.0.1", port: int = 8080,
          max_workers: int | None = None, say=print,
          role: str = "service", join: str | None = None,
          advertise: str | None = None,
          blob_cache: str | Path | None = None,
          blob_cache_limit: int | None = None,
          tenants: str | Path | None = None) -> None:
    """Run the service API in the foreground (``profipy serve`` /
    ``profipy worker`` — the worker role is the same server, announced
    as such; shard and blob endpoints are mounted either way).

    ``join`` is a coordinator URL: the server registers itself in that
    coordinator's worker fleet and heartbeats its live shard load for
    as long as it runs (``profipy worker --join URL``).  ``advertise``
    overrides the URL the coordinator hands to dispatchers — required
    when the bind address (e.g. ``0.0.0.0``) is not reachable as-is.
    ``blob_cache`` relocates the content-addressed blob cache
    (default ``<workspace>/blobs``) and ``blob_cache_limit`` bounds it
    in bytes with least-recently-used eviction (``profipy worker
    --blob-cache DIR --blob-cache-limit BYTES``).  ``tenants`` is a
    ``tenants.json`` path: it turns on bearer-token authentication,
    per-tenant namespaces, fair-share scheduling, and quotas
    (``profipy serve --tenants FILE``; a ``tenants.json`` inside the
    workspace is picked up automatically).
    """
    from repro.service.jobs import DEFAULT_MAX_WORKERS

    service = ProFIPyService(
        workspace, max_workers=max_workers or DEFAULT_MAX_WORKERS,
        blob_cache_dir=blob_cache, blob_cache_bytes=blob_cache_limit,
        tenants=tenants,
    )
    server = ProFIPyHTTPServer((host, port), service)
    tenancy = (f", {len(service.tenants)} tenants (auth on)"
               if service.tenants is not None else "")
    say(f"profipy {role} API {API_VERSION} on {server.url} "
        f"(workspace {Path(workspace).resolve()}, "
        f"{service.runner.max_workers} campaign workers{tenancy})")
    agent = None
    if join:
        from repro.service.registry import WorkerAgent

        agent = WorkerAgent(join, advertise or server.url, service.shards)
        agent.start()
        say(f"joined fleet at {join} as {agent.worker_id} "
            f"(lease {agent.lease_seconds:g}s)")
    try:
        server.serve_forever()
    except KeyboardInterrupt:
        say("shutting down")
    finally:
        if agent is not None:
            agent.stop()
        server.shutdown()
        service.close()
