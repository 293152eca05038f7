"""HTTP transport tests: routing, error codes, pagination, NDJSON
streaming, and long-poll waits — against fabricated job artifacts, so no
real campaign runs here (the contract suite covers end-to-end)."""

import json
import re
import threading
import urllib.error
import urllib.request

import pytest

from repro.faultmodel.library import gswfit_model
from repro.orchestrator.experiment import ExperimentResult
from repro.orchestrator.stream import ExperimentStream
from repro.service.api import API_VERSION
from repro.service.client import ProFIPyClient
from repro.service.http import start_server
from repro.service.jobs import COMPLETED
from repro.service.service import ProFIPyService


@pytest.fixture
def stack(tmp_path):
    """A service + running HTTP server + client over one workspace."""
    service = ProFIPyService(tmp_path / "ws", max_workers=2)
    server, _thread = start_server(service)
    client = ProFIPyClient(server.url)
    yield service, server, client
    server.shutdown()
    service.close()


def fabricate_result(experiment_id, status="completed", seed=0):
    return ExperimentResult(
        experiment_id=experiment_id,
        point={"file": "app.py"},
        fault_id=f"{experiment_id}-point",
        spec_name="WRR",
        status=status,
        seed=seed,
    )


def fabricate_job(service, count=5):
    """A finished job whose directory carries a realistic result stream
    (meta line, duplicate id with last-record-wins, truncated tail)."""

    def body(job_dir):
        stream = ExperimentStream(job_dir / "experiments.jsonl")
        stream.write_meta({"campaign": "fab", "seed": 0})
        for index in range(count):
            stream.append(fabricate_result(f"fab-{index:04d}", seed=index))
        # A superseded earlier record: readers must keep the last one.
        stream.append(fabricate_result("fab-0000", seed=999))
        with open(job_dir / "experiments.jsonl", "a",
                  encoding="utf-8") as handle:
            handle.write('{"experiment_id": "fab-trunc')  # killed mid-write

    job = service.runner.submit("fab", body, block=True)
    assert job.status == COMPLETED
    return job


def http_get(url):
    try:
        with urllib.request.urlopen(url, timeout=10) as response:
            return response.status, json.loads(response.read())
    except urllib.error.HTTPError as error:
        return error.code, json.loads(error.read())


class TestRoutingAndErrors:
    def test_ping(self, stack):
        _service, server, client = stack
        info = client.ping()
        assert info["service"] == "profipy"
        assert info["api_version"] == API_VERSION

    def test_unknown_endpoint_is_json_404(self, stack):
        _service, server, _client = stack
        status, body = http_get(f"{server.url}/v1/nope")
        assert status == 404
        assert body["error"]["code"] == "not_found"

    def test_unknown_job_maps_to_keyerror(self, stack):
        _service, _server, client = stack
        with pytest.raises(KeyError, match="job-9999"):
            client.job("job-9999")
        with pytest.raises(KeyError):
            client.cancel("job-9999")
        with pytest.raises(KeyError):
            client.report_text("job-9999")

    def test_unknown_model_maps_to_keyerror(self, stack):
        _service, _server, client = stack
        with pytest.raises(KeyError, match="unknown fault model"):
            client.load_model("nope")

    def test_missing_artifact_maps_to_filenotfound(self, stack):
        service, _server, client = stack
        job = service.runner.submit("empty", lambda d: None, block=True)
        with pytest.raises(FileNotFoundError, match="no report"):
            client.report_text(job.job_id)
        with pytest.raises(FileNotFoundError, match="no summary"):
            client.result_summary(job.job_id)

    def test_no_stream_yet_returns_empty_like_inprocess(self, stack):
        # Transport equivalence: a job with no recorded experiments is
        # an empty list over both facades, not an error over one.
        service, _server, client = stack
        job = service.runner.submit("empty", lambda d: None, block=True)
        assert service.experiments(job.job_id) == []
        assert client.experiments(job.job_id) == []
        page = client.experiments_page(job.job_id)
        assert page.total == 0 and page.experiments == []

    def test_wrong_method_is_405_with_allow(self, stack):
        service, server, _client = stack
        job = fabricate_job(service)
        request = urllib.request.Request(
            f"{server.url}/v1/jobs/{job.job_id}", data=b"{}",
            headers={"Content-Type": "application/json"}, method="POST",
        )
        with pytest.raises(urllib.error.HTTPError) as info:
            urllib.request.urlopen(request, timeout=10)
        assert info.value.code == 405
        assert info.value.headers["Allow"] == "GET"
        assert json.loads(info.value.read())["error"]["code"] == \
            "method_not_allowed"

    def test_invalid_json_body_is_400(self, stack):
        _service, server, _client = stack
        request = urllib.request.Request(
            f"{server.url}/v1/campaigns", data=b"{not json",
            headers={"Content-Type": "application/json"}, method="POST",
        )
        with pytest.raises(urllib.error.HTTPError) as info:
            urllib.request.urlopen(request, timeout=10)
        assert info.value.code == 400
        assert json.loads(info.value.read())["error"]["code"] == \
            "invalid_request"

    def test_submit_without_config_maps_to_valueerror(self, stack):
        _service, server, _client = stack
        status, body = None, None
        request = urllib.request.Request(
            f"{server.url}/v1/campaigns",
            data=json.dumps({"wrong": 1}).encode(),
            headers={"Content-Type": "application/json"}, method="POST",
        )
        try:
            urllib.request.urlopen(request, timeout=10)
        except urllib.error.HTTPError as error:
            status, body = error.code, json.loads(error.read())
        assert status == 400
        assert body["error"]["code"] == "invalid_request"


def send(server, method, path, body=None):
    """A raw request; returns the status, headers, and JSON body."""
    import http.client

    host, port = server.server_address[:2]
    connection = http.client.HTTPConnection(host, port, timeout=10)
    try:
        connection.request(method, path, body=body,
                           headers={"Content-Type": "application/json"})
        response = connection.getresponse()
        return response.status, response.headers, json.loads(response.read())
    finally:
        connection.close()


def campaign_body(tmp_path, **changes):
    """A valid campaign submission (whose target does not exist), with
    ``changes`` applied to its config; ``resume_from`` goes top-level."""
    from repro.orchestrator.campaign import CampaignConfig
    from repro.service.api import campaign_config_to_dict
    from repro.workload.spec import WorkloadSpec

    config = campaign_config_to_dict(CampaignConfig(
        name="bad", target_dir=tmp_path / "no-such-target",
        fault_model=gswfit_model(), workload=WorkloadSpec(commands=["true"]),
    ))
    body = {"config": config, "resume_from": changes.pop("resume_from",
                                                         None)}
    config.update(changes)
    return json.dumps(body).encode()


class TestMalformedBodies:
    """Regression: bodies the old per-endpoint ``try`` blocks did not
    anticipate answered 500 (or 202 and a job that failed at run time);
    each answers 400/``invalid_request``."""

    @pytest.mark.parametrize("case", [
        "bad_dsl", "fault_model_not_object", "workload_not_object",
        "resume_from_list", "sampling_number", "sampling_list",
    ])
    def test_malformed_body_is_invalid_request(self, stack, tmp_path, case):
        _service, server, _client = stack
        method, path = "POST", "/v1/campaigns"
        if case == "bad_dsl":
            model = gswfit_model().to_dict()
            model["name"] = "x"
            model["faults"][0]["dsl"] = "this is not a bug spec"
            method, path, body = "PUT", "/v1/models/x", \
                json.dumps(model).encode()
        elif case == "fault_model_not_object":
            body = campaign_body(tmp_path, fault_model="gswfit")
        elif case == "workload_not_object":
            body = campaign_body(tmp_path, workload=["true"])
        elif case == "resume_from_list":
            body = campaign_body(tmp_path, resume_from=["job-0001"])
        elif case == "sampling_number":
            body = campaign_body(tmp_path, sampling=5)
        else:
            body = campaign_body(tmp_path, sampling=[1])
        status, _headers, payload = send(server, method, path, body)
        assert status == 400, payload
        assert payload["error"]["code"] == "invalid_request"

    @pytest.mark.parametrize("shard", ["NaN", "Infinity", "1e400"])
    def test_non_finite_json_numbers_are_invalid_request(self, stack,
                                                         shard):
        # Python's json reads NaN, Infinity and 1e400 (as inf); standard
        # JSON has none of them, and int(inf) in the shard host was an
        # OverflowError, answered 500.
        _service, server, _client = stack
        body = ('{"shard": %s, "planned": [], "fault_model": {}, '
                '"workload": null, "trigger": true, "rounds": 2, '
                '"campaign_seed": 0, "parallelism": 1, "image": {}}' % shard)
        status, _headers, payload = send(server, "POST", "/v1/shards",
                                         body.encode())
        assert status == 400, payload
        assert payload["error"]["code"] == "invalid_request"


class TestUnlistedMethods:
    """Regression: methods without a ``do_*`` handler answered
    BaseHTTPRequestHandler's HTML 501 page."""

    @pytest.mark.parametrize("method", ["DELETE", "PATCH", "OPTIONS",
                                        "TRACE"])
    def test_known_path_is_405_with_allow(self, stack, method):
        _service, server, _client = stack
        status, headers, payload = send(server, method, "/v1/jobs")
        assert status == 405
        assert headers["Allow"] == "GET"
        assert payload["error"]["code"] == "method_not_allowed"
        status, headers, _payload = send(server, method, "/v1/blobs/ab")
        assert headers["Allow"] == "GET, PUT"

    @pytest.mark.parametrize("method", ["DELETE", "PATCH", "OPTIONS",
                                        "TRACE"])
    def test_unknown_path_is_not_found(self, stack, method):
        _service, server, _client = stack
        status, _headers, payload = send(server, method, "/v1/nope")
        assert status == 404
        assert payload["error"]["code"] == "not_found"


class TestRouteTable:
    def test_docs_endpoint_tables_match_routes(self):
        import re
        from pathlib import Path

        from repro.service.api import ROUTES

        docs = (Path(__file__).resolve().parents[1] / "docs"
                / "SERVICE_API.md").read_text(encoding="utf-8")

        def normalized(path):
            return re.sub(r"\{\w+\}", "{}", path.split("?")[0])

        documented = sorted(
            (method, normalized(path)) for method, path in re.findall(
                r"^\| (GET|POST|PUT|DELETE|PATCH) \| `(/v1/[^`]*)` \|",
                docs, flags=re.M))
        declared = sorted((route.method, normalized(route.path))
                          for route in ROUTES)
        assert documented == declared

    def test_docs_error_table_matches_error_status(self):
        import re
        from pathlib import Path

        from repro.service.api import ERROR_STATUS

        docs = (Path(__file__).resolve().parents[1] / "docs"
                / "SERVICE_API.md").read_text(encoding="utf-8")
        documented = {code: int(status) for code, status in re.findall(
            r"^\| `(\w+)` \| (\d{3}) \|", docs, flags=re.M)}
        assert documented == ERROR_STATUS

    def test_exactly_the_get_rows_are_retried(self):
        from repro.service.api import ROUTES

        assert [route.name for route in ROUTES if route.idempotent] == \
            [route.name for route in ROUTES if route.method == "GET"]

    def test_client_percent_encodes_path_parameters(self):
        from repro.service.api import ROUTE

        assert ROUTE["load_model"].url("a b/c?d#e") == \
            "/v1/models/a%20b%2Fc%3Fd%23e"
        assert ROUTE["wait"].url("job-1", query={"timeout": 2.5}) == \
            "/v1/jobs/job-1/wait?timeout=2.5"


class TestModelsOverHTTP:
    def test_model_round_trip(self, stack):
        _service, _server, client = stack
        model = gswfit_model()
        model.name = "custom"
        client.save_model(model)
        assert "custom" in client.list_models()
        loaded = client.load_model("custom")
        assert len(loaded.faults) == len(model.faults)

    def test_predefined_fallback_over_http(self, stack):
        _service, _server, client = stack
        assert client.load_model("extended").name == "extended"

    def test_put_name_mismatch_is_invalid_request(self, stack):
        _service, server, _client = stack
        model = gswfit_model()
        request = urllib.request.Request(
            f"{server.url}/v1/models/other",
            data=json.dumps(model.to_dict()).encode(),
            headers={"Content-Type": "application/json"}, method="PUT",
        )
        with pytest.raises(urllib.error.HTTPError) as info:
            urllib.request.urlopen(request, timeout=10)
        assert info.value.code == 400


class TestExperimentRetrieval:
    def test_ndjson_stream_is_raw_file(self, stack):
        service, server, _client = stack
        job = fabricate_job(service)
        with urllib.request.urlopen(
            f"{server.url}/v1/jobs/{job.job_id}/experiments.ndjson",
            timeout=10,
        ) as response:
            assert response.headers["Content-Type"] == "application/x-ndjson"
            raw = response.read()
        on_disk = (job.directory / "experiments.jsonl").read_bytes()
        assert raw == on_disk

    def test_client_experiments_match_stream_semantics(self, stack):
        service, _server, client = stack
        job = fabricate_job(service, count=5)
        via_http = client.experiments(job.job_id)
        via_core = service.experiments(job.job_id)
        assert [e.to_dict() for e in via_http] == \
            [e.to_dict() for e in via_core]
        # Meta skipped, truncated line skipped, last record wins.
        assert len(via_http) == 5
        by_id = {e.experiment_id: e for e in via_http}
        assert by_id["fab-0000"].seed == 999

    def test_pagination(self, stack):
        service, _server, client = stack
        job = fabricate_job(service, count=5)
        page = client.experiments_page(job.job_id, offset=0, limit=2)
        assert page.total == 5
        assert [e["experiment_id"] for e in page.experiments] == \
            ["fab-0000", "fab-0001"]
        assert page.next_offset == 2
        last = client.experiments_page(job.job_id, offset=4, limit=2)
        assert len(last.experiments) == 1
        assert last.next_offset is None

    def test_pagination_walk_reassembles_everything(self, stack):
        service, _server, client = stack
        job = fabricate_job(service, count=5)
        seen, offset = [], 0
        while True:
            page = client.experiments_page(job.job_id, offset=offset,
                                           limit=2)
            seen.extend(e["experiment_id"] for e in page.experiments)
            if page.next_offset is None:
                break
            offset = page.next_offset
        assert seen == [f"fab-{i:04d}" for i in range(5)]

    def test_negative_offset_is_invalid_request(self, stack):
        service, server, _client = stack
        job = fabricate_job(service)
        status, body = http_get(
            f"{server.url}/v1/jobs/{job.job_id}/experiments?offset=-1"
        )
        assert status == 400
        assert body["error"]["code"] == "invalid_request"


class TestJobsOverHTTP:
    def test_list_jobs_and_get_job(self, stack):
        service, _server, client = stack
        job = fabricate_job(service)
        listed = client.list_jobs()
        assert [j.job_id for j in listed] == [job.job_id]
        fetched = client.job(job.job_id)
        assert fetched.status == COMPLETED
        assert fetched.name == "fab"
        assert fetched.submitted_at == pytest.approx(job.submitted_at)

    def test_wait_long_poll_timeout(self, stack):
        service, _server, client = stack
        release = threading.Event()
        job = service.runner.submit("slow", lambda d: release.wait(15))
        with pytest.raises(TimeoutError):
            client.wait(job.job_id, timeout=0.3)
        release.set()
        finished = client.wait(job.job_id, timeout=30)
        assert finished.status == COMPLETED

    def test_cancel_queued_job_over_http(self, tmp_path):
        service = ProFIPyService(tmp_path / "ws", max_workers=1)
        server, _thread = start_server(service)
        client = ProFIPyClient(server.url)
        try:
            release = threading.Event()
            service.runner.submit("blocker", lambda d: release.wait(15))
            queued = service.runner.submit("queued", lambda d: None)
            cancelled = client.cancel(queued.job_id)
            assert cancelled.status == "cancelled"
            release.set()
        finally:
            server.shutdown()
            service.close()


class TestContentLengthValidation:
    """Regression: ``_read_raw`` used to feed the raw Content-Length
    header straight into ``int(...)`` — a malformed value blew up as an
    unhandled ValueError (500 for a client mistake), and a *negative*
    value sailed past the ``> MAX_BODY_BYTES`` bound and became
    ``rfile.read(-5)``: read-to-EOF, defeating the body limit."""

    def _raw_request(self, server, content_length, body=b""):
        """A hand-built request with an arbitrary Content-Length header
        (urllib/ProFIPyClient would refuse to send these)."""
        import http.client

        host, port = server.server_address[:2]
        connection = http.client.HTTPConnection(host, port, timeout=10)
        try:
            connection.putrequest("POST", "/v1/blobs/missing")
            connection.putheader("Content-Length", content_length)
            connection.putheader("Content-Type", "application/json")
            connection.endheaders()
            if body:
                try:
                    connection.send(body)
                except OSError:
                    pass  # server already rejected and closed
            response = connection.getresponse()
            return response.status, json.loads(response.read())
        finally:
            connection.close()

    def test_malformed_content_length_is_400(self, stack):
        _service, server, client = stack
        status, payload = self._raw_request(server, "abc", body=b"{}")
        assert status == 400
        assert payload["error"]["code"] == "invalid_request"
        assert "Content-Length" in payload["error"]["message"]
        # The server survives the rejected request.
        assert client.ping()["api_version"] == API_VERSION

    def test_negative_content_length_is_400(self, stack):
        _service, server, client = stack
        status, payload = self._raw_request(server, "-5", body=b"{}")
        assert status == 400
        assert payload["error"]["code"] == "invalid_request"
        assert "negative" in payload["error"]["message"]
        assert client.ping()["api_version"] == API_VERSION

    def test_oversized_content_length_is_400(self, stack):
        from repro.service.http import MAX_BODY_BYTES

        _service, server, _client = stack
        status, payload = self._raw_request(server,
                                            str(MAX_BODY_BYTES + 1))
        assert status == 400
        assert payload["error"]["code"] == "invalid_request"


class TestKeepAliveFraming:
    """Regression: the server never reads the body of a request to a
    bodiless row, so on a kept-alive connection that body used to be
    parsed as the next request (a ping answered twice)."""

    SECOND = b"GET /v1/ping HTTP/1.1\r\nHost: x\r\n\r\n"

    @staticmethod
    def _exchange(server, request: bytes) -> bytes:
        """Send raw bytes, read until the server closes the socket."""
        import socket

        host, port = server.server_address[:2]
        received = b""
        with socket.create_connection((host, port), timeout=10) as sock:
            sock.sendall(request)
            while True:
                chunk = sock.recv(65536)
                if not chunk:
                    return received
                received += chunk

    @staticmethod
    def _status_of_only_response(received: bytes) -> int:
        """The status of the single response ``received`` holds; fails
        on any byte past its ``Content-Length``."""
        head, _, body = received.partition(b"\r\n\r\n")
        length = int(re.search(rb"Content-Length: (\d+)", head).group(1))
        assert len(body) == length, received
        return int(head.split(b" ", 2)[1])

    def _ping_with(self, server, headers: bytes, body: bytes) -> int:
        return self._status_of_only_response(self._exchange(
            server, b"GET /v1/ping HTTP/1.1\r\nHost: x\r\n" + headers
            + b"\r\n" + body))

    def test_body_of_a_bodiless_request_is_not_a_request(self, stack):
        _service, server, _client = stack
        assert self._ping_with(
            server, b"Content-Length: %d\r\n" % len(self.SECOND),
            self.SECOND) == 200

    def test_chunked_body_of_a_bodiless_request(self, stack):
        _service, server, _client = stack
        chunk = b"%x\r\n%s\r\n0\r\n\r\n" % (len(self.SECOND), self.SECOND)
        assert self._ping_with(
            server, b"Transfer-Encoding: chunked\r\n", chunk) == 200

    def test_malformed_length_on_a_bodiless_request(self, stack):
        # Answered as before (nothing parses the body), but the
        # connection closes instead of reading on.
        _service, server, _client = stack
        assert self._ping_with(server, b"Content-Length: abc\r\n",
                               self.SECOND) == 200

    def test_unresolved_path_with_a_body(self, stack):
        _service, server, _client = stack
        received = self._exchange(
            server, b"GET /v1/nope HTTP/1.1\r\nHost: x\r\n"
            b"Content-Length: %d\r\n\r\n" % len(self.SECOND) + self.SECOND)
        assert self._status_of_only_response(received) == 404

    def test_bodiless_requests_keep_the_connection(self, stack):
        _service, server, _client = stack
        received = self._exchange(
            server, self.SECOND + b"GET /v1/ping HTTP/1.1\r\nHost: x\r\n"
            b"Connection: close\r\n\r\n")
        assert received.count(b"HTTP/1.1 200") == 2
