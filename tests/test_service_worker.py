"""Worker role of the service layer: /v1/shards endpoints + ShardHost.

Covers the remote backend's worker side in isolation — payload
validation, the shard lifecycle (running → completed/failed/cancelled),
the newline-aligned NDJSON tail the dispatcher mirrors locally, the
client SDK mirror of the endpoints — plus the regression tests for job
views tolerating a corrupt/partially-written ``progress.json``.
"""

import json
import textwrap
import threading
import time
import urllib.error
import urllib.request

import pytest
from chaos import build_chaos_project

from repro.common.fsutil import write_json
from repro.orchestrator.backends import build_shard_payload
from repro.orchestrator.executor import ExperimentExecutor
from repro.orchestrator.plan import Plan
from repro.sandbox.image import SandboxImage
from repro.scanner.scan import scan_file
from repro.service.client import ProFIPyClient
from repro.service.http import start_server
from repro.service.service import ProFIPyService
from repro.service.shards import REQUIRED_PAYLOAD_KEYS, ShardHost, ShardRun
from repro.workload.spec import WorkloadSpec


def _shard_payload(toy_project, toy_model, tmp_path, workload=None,
                   parallelism=1):
    """A real, runnable shard payload over the toy project."""
    models = {model.name: model for model in toy_model.compile()}
    scan = scan_file(toy_project / "app.py", toy_model.compile(),
                     root=toy_project)
    plan = Plan.from_points(scan.points)
    image = SandboxImage.build(toy_project, tmp_path / "image")
    executor = ExperimentExecutor(
        image=image, workload=workload, models=models,
        base_dir=tmp_path / "boxes", campaign_seed=0,
    )
    return build_shard_payload(executor, toy_model, 0, list(plan),
                               parallelism)


def _wait_state(read_status, states, timeout=60.0):
    deadline = time.monotonic() + timeout
    while time.monotonic() < deadline:
        status = read_status()
        if status["state"] in states:
            return status
        time.sleep(0.05)
    raise AssertionError(f"shard never reached {states}: {read_status()}")


# -- ShardHost unit tests ----------------------------------------------------------


class TestShardHost:
    def test_rejects_malformed_payloads(self, tmp_path):
        host = ShardHost(tmp_path / "shards")
        with pytest.raises(ValueError, match="JSON object"):
            host.submit(["not", "a", "dict"])
        with pytest.raises(ValueError, match="missing keys"):
            host.submit({"shard": 0})
        payload = {key: None for key in REQUIRED_PAYLOAD_KEYS}
        payload["planned"] = "nope"
        with pytest.raises(ValueError, match="'planned' must be a list"):
            host.submit(payload)

    def test_unknown_shard_raises_keyerror(self, tmp_path):
        host = ShardHost(tmp_path / "shards")
        with pytest.raises(KeyError, match="unknown shard"):
            host.status("shard-0042")
        with pytest.raises(KeyError, match="unknown shard"):
            host.cancel("shard-0042")
        with pytest.raises(KeyError, match="unknown shard"):
            host.stream_path("shard-0042")

    def test_ids_never_reuse_existing_directories(self, tmp_path):
        shards_dir = tmp_path / "shards"
        (shards_dir / "shard-0007").mkdir(parents=True)
        host = ShardHost(shards_dir)
        assert host._next_shard_id() == "shard-0008"

    def test_structurally_valid_but_broken_payload_fails(self, tmp_path):
        # Passes submit-time validation, then the engine raises (the
        # fault model does not deserialize): the shard lands in
        # ``failed`` with the error on its status view.
        host = ShardHost(tmp_path / "shards")
        view = host.submit({
            "shard": 3,
            "planned": [{"experiment_id": "exp-0001",
                         "point": {"spec_name": "WRR", "file": "app.py",
                                   "ordinal": 0, "lineno": 1,
                                   "end_lineno": 1, "snippet": "",
                                   "component": "app"}}],
            "fault_model": {"name": "broken", "description": "",
                            "faults": [{"not": "a fault spec"}]},
            "workload": None,
            "image": {"source_dir": str(tmp_path), "staging_dir":
                      str(tmp_path / "missing"), "env": {}},
            "trigger": True,
            "rounds": 2,
            "campaign_seed": 0,
            "parallelism": 1,
        })
        host.join(timeout=30)
        status = host.status(view["shard_id"])
        assert status["state"] == "failed"
        assert status["error"]
        assert status["recorded"] == 0

    def test_concurrency_bound_queues_excess_shards(self, tmp_path,
                                                    monkeypatch):
        # With one execution slot, a second submission is admitted as
        # ``queued`` and starts only when the first shard's slot frees.
        import threading

        import repro.orchestrator.backends as backends_module

        release = threading.Event()
        started = threading.Event()

        def slow_worker(_body):
            started.set()
            assert release.wait(timeout=30)
            return {"shard": 0, "recorded": 0, "cancelled": False}

        monkeypatch.setattr(backends_module, "_run_shard_worker",
                            slow_worker)
        host = ShardHost(tmp_path / "shards", max_concurrent=1)
        payload = {key: None for key in REQUIRED_PAYLOAD_KEYS}
        payload.update(shard=0, planned=[], image=None)
        first = host.submit(dict(payload))
        assert started.wait(timeout=30)
        second = host.submit(dict(payload))
        assert host.status(second["shard_id"])["state"] == "queued"
        release.set()
        host.join(timeout=30)
        assert host.status(first["shard_id"])["state"] == "completed"
        assert host.status(second["shard_id"])["state"] == "completed"

    def test_rejects_invalid_concurrency_bound(self, tmp_path):
        with pytest.raises(ValueError, match="max_concurrent"):
            ShardHost(tmp_path / "shards", max_concurrent=0)

    def test_runs_a_real_shard_to_completion(self, toy_project, toy_model,
                                             toy_workload, tmp_path):
        host = ShardHost(tmp_path / "shards")
        payload = _shard_payload(toy_project, toy_model, tmp_path,
                                 workload=toy_workload)
        view = host.submit(payload)
        assert view["state"] in ("queued", "running")
        assert view["total"] == 2
        shard_id = view["shard_id"]
        status = _wait_state(lambda: host.status(shard_id),
                             ("completed", "failed"))
        assert status["state"] == "completed"
        assert status["recorded"] == 2
        assert not status["cancelled"]
        lines = host.stream_path(shard_id).read_text().splitlines()
        ids = sorted(json.loads(line)["experiment_id"] for line in lines)
        assert ids == ["exp-0001", "exp-0002"]


# -- HTTP + client mirror ----------------------------------------------------------


@pytest.fixture
def live_worker(tmp_path):
    service = ProFIPyService(tmp_path / "worker-ws")
    server, _thread = start_server(service)
    client = ProFIPyClient(server.url)
    yield service, client
    server.shutdown()
    service.close()


class TestWorkerEndpoints:
    def test_submit_poll_and_stream(self, toy_project, toy_model,
                                    toy_workload, tmp_path, live_worker):
        service, client = live_worker
        payload = _shard_payload(toy_project, toy_model, tmp_path,
                                 workload=toy_workload)
        view = client.submit_shard(payload)
        assert view["state"] in ("queued", "running")
        assert view["api_version"] == "v1"
        shard_id = view["shard_id"]
        status = _wait_state(lambda: client.shard_status(shard_id),
                             ("completed", "failed"))
        assert status["state"] == "completed"
        assert status["recorded"] == status["total"] == 2

        views = client.list_shards()
        assert [view["shard_id"] for view in views] == [shard_id]
        assert views[0]["state"] == "completed"

        raw = client.shard_stream(shard_id)
        assert raw == service.shard_stream_path(shard_id).read_bytes()
        # Incremental polling: the next offset is offset + len(fetched).
        assert client.shard_stream(shard_id, offset=len(raw)) == b""
        assert client.shard_stream(shard_id, offset=len(raw) + 999) == b""
        head = client.shard_stream(shard_id, offset=0)
        entries = [json.loads(line) for line in
                   head.decode("utf-8").splitlines()]
        assert {entry["experiment_id"] for entry in entries} == \
            {"exp-0001", "exp-0002"}

    def test_stream_tail_is_newline_aligned(self, toy_project, toy_model,
                                            toy_workload, tmp_path,
                                            live_worker):
        service, client = live_worker
        payload = _shard_payload(toy_project, toy_model, tmp_path,
                                 workload=toy_workload)
        shard_id = client.submit_shard(payload)["shard_id"]
        _wait_state(lambda: client.shard_status(shard_id),
                    ("completed", "failed"))
        path = service.shard_stream_path(shard_id)
        complete = path.read_bytes()
        # A racing half-written record must never ship to a dispatcher.
        with open(path, "ab") as handle:
            handle.write(b'{"experiment_id": "exp-9999", "sta')
        raw = client.shard_stream(shard_id)
        assert raw == complete
        tail = client.shard_stream(shard_id, offset=len(complete))
        assert tail == b""  # nothing complete past the old end yet

    def test_cancel_stops_between_experiments(self, toy_project,
                                              toy_model, tmp_path,
                                              live_worker):
        _service, client = live_worker
        # A slow workload so the cancel lands inside the first
        # experiment; parallelism 1 means the second is never started.
        (toy_project / "run.py").write_text(textwrap.dedent(
            """
            import time

            import app

            time.sleep(1.5)
            app.compute(3)
            print("WORKLOAD SUCCESS")
            """
        ).strip() + "\n")
        workload = WorkloadSpec(commands=["{python} run.py"],
                                command_timeout=30.0)
        payload = _shard_payload(toy_project, toy_model, tmp_path,
                                 workload=workload, parallelism=1)
        shard_id = client.submit_shard(payload)["shard_id"]
        view = client.cancel_shard(shard_id)
        assert view["shard_id"] == shard_id
        status = _wait_state(lambda: client.shard_status(shard_id),
                             ("completed", "cancelled", "failed"),
                             timeout=90.0)
        assert status["state"] == "cancelled"
        assert status["cancelled"] is True
        assert status["recorded"] < status["total"]

    def test_error_mapping_matches_in_process(self, live_worker):
        _service, client = live_worker
        with pytest.raises(KeyError, match="unknown shard"):
            client.shard_status("shard-9999")
        with pytest.raises(KeyError, match="unknown shard"):
            client.cancel_shard("shard-9999")
        with pytest.raises(ValueError, match="missing keys"):
            client.submit_shard({"shard": 0})


# -- release gate ------------------------------------------------------------------


def _six_experiment_payload(tmp_path, toy_model, startup_sleep):
    """A runnable one-slot shard of six experiments over the chaos
    project, and its experiment ids in plan order."""
    project = build_chaos_project(tmp_path / "six", functions=6,
                                  startup_sleep=startup_sleep)
    workload = WorkloadSpec(commands=["{python} run.py"],
                            command_timeout=30.0)
    payload = _shard_payload(project, toy_model, tmp_path,
                             workload=workload, parallelism=1)
    return payload, [entry["experiment_id"] for entry in payload["planned"]]


def _recorded_ids(host, shard_id):
    path = host.stream_path(shard_id)
    if not path.exists():
        return []
    return [json.loads(line)["experiment_id"]
            for line in path.read_text().splitlines()]


class TestReleaseGate:
    def test_concurrent_releases_never_overlap_recorded_work(
            self, toy_model, tmp_path):
        host = ShardHost(tmp_path / "shards")
        payload, ids = _six_experiment_payload(tmp_path, toy_model, 0.1)
        shard_id = host.submit(payload)["shard_id"]
        released = []

        def release_again_and_again():
            # One id at a time from the back, over and over, while the
            # engine admits from the front.
            while host.status(shard_id)["state"] in ("queued", "running"):
                for experiment_id in reversed(ids):
                    released.extend(host.release(
                        shard_id, [experiment_id])["released"])
                    time.sleep(0.01)

        deadline = time.monotonic() + 60
        while not host.status(shard_id)["recorded"]:
            assert time.monotonic() < deadline, "nothing was recorded"
            time.sleep(0.02)
        releaser = threading.Thread(target=release_again_and_again)
        releaser.start()
        releaser.join(timeout=120)
        status = host.status(shard_id)
        assert status["state"] == "completed"
        recorded = _recorded_ids(host, shard_id)
        assert released and recorded
        assert not set(released) & set(recorded)
        assert sorted(released + recorded) == sorted(ids)
        assert status["total"] == status["recorded"] == len(recorded)

    def test_queued_shard_releases_everything(self, toy_model, tmp_path):
        host = ShardHost(tmp_path / "shards", max_concurrent=1)
        payload, ids = _six_experiment_payload(tmp_path, toy_model, 0.05)
        first = host.submit(payload)["shard_id"]
        second = host.submit(payload)["shard_id"]
        assert host.status(second)["state"] == "queued"
        assert host.release(second, ids)["released"] == ids
        assert host.release(second, ids)["released"] == []
        host.join(timeout=120)
        assert host.status(first)["recorded"] == len(ids)
        assert host.status(second)["state"] == "completed"
        assert host.status(second)["total"] == 0
        assert _recorded_ids(host, second) == []

    def test_parked_shard_releases_everything(self, tmp_path):
        # Accepted but never started, as a silent straggler would be.
        host = ShardHost(tmp_path / "shards")
        directory = host.shards_dir / "shard-0001"
        directory.mkdir(parents=True)
        host._runs["shard-0001"] = ShardRun(
            shard_id="shard-0001", shard=0, total=3, directory=directory)
        ids = ["exp-0003", "exp-0001", "exp-0002"]
        assert host.release("shard-0001", ids) == {
            "shard_id": "shard-0001", "released": ids}
        assert host.status("shard-0001")["total"] == 0

    def test_unknown_shard_answers_404(self, live_worker):
        service, client = live_worker
        with pytest.raises(KeyError, match="unknown shard"):
            client.release_shard("shard-9999", ["exp-0001"])
        status, body = _post(client, "/v1/shards/shard-9999/release",
                             {"experiment_ids": ["exp-0001"]})
        assert (status, body["error"]["code"]) == (404, "unknown_shard")

    @pytest.mark.parametrize("expected", [
        "slow", ["R1:a.py:0"], {"WRR:app.py:0": -1.0},
        {"WRR:app.py:0": True}, {"WRR:app.py:0": "1.5"},
    ], ids=["string", "list", "negative", "bool", "string-seconds"])
    def test_malformed_expected_seconds_is_invalid_request(
            self, expected, toy_project, toy_model, tmp_path, live_worker):
        _service, client = live_worker
        payload = _shard_payload(toy_project, toy_model, tmp_path)
        payload["expected_seconds"] = expected
        status, body = _post(client, "/v1/shards", payload)
        assert (status, body["error"]["code"]) == (400, "invalid_request")
        assert client.list_shards() == []


def _post(client, path, body):
    """POST ``body`` as JSON; the status and the decoded answer."""
    request = urllib.request.Request(
        client.base_url + path, data=json.dumps(body).encode(),
        headers={"Content-Type": "application/json"}, method="POST")
    try:
        with urllib.request.urlopen(request, timeout=30) as response:
            return response.status, json.loads(response.read())
    except urllib.error.HTTPError as error:
        return error.code, json.loads(error.read())


# -- corrupt progress.json regression ----------------------------------------------


class TestCorruptProgressTolerated:
    """A corrupt/partially-written ``progress.json`` must degrade to
    "no progress" on every job view — never crash it (the file is
    written while the campaign runs and can be damaged by a crash)."""

    def _service_with_job(self, workspace):
        job_dir = workspace / "jobs" / "job-0001"
        job_dir.mkdir(parents=True)
        write_json(job_dir / "job.json", {
            "job_id": "job-0001", "name": "damaged",
            "status": "completed", "submitted_at": 1.0,
            "started_at": 2.0, "finished_at": 3.0, "error": "",
        })
        return ProFIPyService(workspace), job_dir

    @pytest.mark.parametrize("damage", [
        b'{"experiments_done": 3, "experi',   # truncated mid-write
        b"",                                   # zero-byte crash artifact
        b"\x80\x81\xff",                       # not UTF-8 at all
        b"[1, 2, 3]\n",                        # valid JSON, wrong shape
    ])
    def test_damaged_progress_returns_none(self, tmp_path, damage):
        service, job_dir = self._service_with_job(tmp_path / "ws")
        (job_dir / "progress.json").write_bytes(damage)
        assert service.job("job-0001").progress is None
        assert service.job_progress("job-0001") is None
        (job,) = service.list_jobs()
        assert job.progress is None

    def test_progress_path_being_a_directory(self, tmp_path):
        service, job_dir = self._service_with_job(tmp_path / "ws")
        (job_dir / "progress.json").mkdir()
        assert service.job("job-0001").progress is None

    def test_damaged_progress_over_http(self, tmp_path):
        service, job_dir = self._service_with_job(tmp_path / "ws")
        (job_dir / "progress.json").write_bytes(b'{"half": ')
        server, _thread = start_server(service)
        try:
            client = ProFIPyClient(server.url)
            assert client.job("job-0001").progress is None
            (job,) = client.list_jobs()
            assert job.progress is None
        finally:
            server.shutdown()
            service.close()

    def test_intact_progress_still_served(self, tmp_path):
        service, job_dir = self._service_with_job(tmp_path / "ws")
        snapshot = {"backend": "thread", "experiments_done": 2,
                    "experiments_total": 5, "shards": []}
        write_json(job_dir / "progress.json", snapshot)
        assert service.job("job-0001").progress == snapshot
