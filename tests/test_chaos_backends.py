"""Chaos matrix over the execution stack: {thread, process, remote} ×
{kill, truncate, cancel}.

Every cell hurts a running (or finished) campaign — SIGKILL of the whole
process group (workers included), a stream truncated mid-record, a
cooperative cancel mid-run — and then asserts the canonical-stream
byte-equality oracle: a follow-up resume records byte-identical
experiments (modulo volatile timing/log fields) to one uninterrupted
reference run, whatever backend or shard count either side used.

Remote-specific chaos rides along: a worker killed mid-pool fails its
shards over to a survivor, and a worker-*reported* shard failure
degrades to retried ``harness_error`` records.  The process backend is
the remote backend over loopback workers it spawns, so the same
failover covers a killed loopback worker.
"""

import json
import multiprocessing
import os
import signal
import threading
import time
from collections import Counter

import pytest

from chaos import (
    WorkerProcess,
    assert_streams_equivalent,
    build_chaos_project,
    descendants,
    kill_group,
    launch_campaign,
    make_chaos_config,
    recorded_total,
    stream_projection,
    truncate_mid_record,
    wait_until,
    worker_shard_streams,
)
from conftest import TOY_SPEC
from repro.orchestrator.backends import leftover_shard_streams
from repro.orchestrator.campaign import Campaign, CampaignCancelled
from repro.orchestrator.plan import shard_index
from repro.orchestrator.stream import ExperimentStream
from repro.service.http import start_server
from repro.service.service import ProFIPyService

pytestmark = pytest.mark.integration

EXPERIMENTS = 6


@pytest.fixture(scope="module")
def chaos_env(tmp_path_factory):
    """The shared chaos target plus one uninterrupted reference run."""
    base = tmp_path_factory.mktemp("chaos")
    project = build_chaos_project(base / "target", functions=EXPERIMENTS)
    reference_ws = base / "reference"
    result = Campaign(make_chaos_config(
        project, TOY_SPEC, reference_ws, "thread", 1
    )).run()
    assert result.executed == EXPERIMENTS

    class Env:
        pass

    env = Env()
    env.project = project
    env.reference_stream = reference_ws / "experiments.jsonl"
    return env


@pytest.fixture
def worker_urls(tmp_path):
    """Two in-process worker servers (real HTTP, cheap startup)."""
    servers = []
    for index in range(2):
        service = ProFIPyService(tmp_path / f"inworker-{index}")
        server, _thread = start_server(service)
        servers.append((server, service))
    yield [server.url for server, _service in servers]
    for server, service in servers:
        server.shutdown()
        service.close()


def _workers_for(backend, request, tmp_path):
    return (request.getfixturevalue("worker_urls")
            if backend == "remote" else None)


# -- kill --------------------------------------------------------------------------


@pytest.mark.parametrize("backend,shards", [
    ("thread", 1), ("process", 4), ("remote", 2),
])
def test_killed_campaign_resumes_byte_identically(chaos_env, tmp_path,
                                                  backend, shards):
    """SIGKILL the campaign's whole session mid-run (remote workers die
    too), then resume on the *thread* backend with a different shard
    count: the canonical stream must match the uninterrupted reference.
    """
    workspace = tmp_path / "ws"
    worker_procs = []
    workers = None
    if backend == "remote":
        worker_procs = [WorkerProcess(tmp_path / f"worker-{index}")
                        for index in range(2)]
        workers = [proc.url for proc in worker_procs]
    child = launch_campaign(chaos_env.project, TOY_SPEC, workspace,
                            backend, shards, workers=workers)
    try:
        recorded = wait_until(
            lambda: recorded_total(workspace) >= 1
            or child.poll() is not None
        )
        assert recorded, "nothing recorded before the deadline"
    finally:
        kill_group(child)
        for proc in worker_procs:
            proc.stop()  # the worker dies with the campaign

    resumed = Campaign(make_chaos_config(
        chaos_env.project, TOY_SPEC, workspace, "thread", 3
    )).run()
    assert resumed.executed == EXPERIMENTS
    assert_streams_equivalent(workspace / "experiments.jsonl",
                              chaos_env.reference_stream)
    assert leftover_shard_streams(workspace / "experiments.jsonl") == []


# -- truncate ----------------------------------------------------------------------


@pytest.mark.parametrize("backend,shards", [
    ("thread", 2), ("process", 2), ("remote", 2),
])
def test_truncated_stream_resumes_byte_identically(chaos_env, tmp_path,
                                                   request, backend,
                                                   shards):
    """Truncate the canonical stream *inside* its last record (a crash
    mid-write): the damaged record is re-run, everything else resumes,
    and the result is byte-identical to the reference."""
    workers = _workers_for(backend, request, tmp_path)
    workspace = tmp_path / "ws"
    first = Campaign(make_chaos_config(
        chaos_env.project, TOY_SPEC, workspace, backend, shards,
        workers=workers,
    )).run()
    assert first.executed == EXPERIMENTS
    canonical = workspace / "experiments.jsonl"
    truncate_mid_record(canonical)

    resumed = Campaign(make_chaos_config(
        chaos_env.project, TOY_SPEC, workspace, backend, shards,
        workers=workers,
    )).run()
    assert resumed.executed == EXPERIMENTS
    assert resumed.resumed < EXPERIMENTS  # the damaged record re-ran
    assert_streams_equivalent(canonical, chaos_env.reference_stream)


# -- cancel ------------------------------------------------------------------------


@pytest.mark.parametrize("backend,shards", [
    ("thread", 2), ("process", 2), ("remote", 2),
])
def test_cancelled_campaign_resumes_byte_identically(chaos_env, tmp_path,
                                                     request, backend,
                                                     shards):
    """Cancel cooperatively once the first experiment lands; the partial
    stream is a valid resume point and the follow-up run completes it
    byte-identically (remote relays the cancel to its workers)."""
    workers = _workers_for(backend, request, tmp_path)
    workspace = tmp_path / "ws"
    progressed = threading.Event()

    def on_progress(snapshot):
        if snapshot.get("experiments_done", 0) >= 1:
            progressed.set()

    with pytest.raises(CampaignCancelled) as stopped:
        Campaign(make_chaos_config(
            chaos_env.project, TOY_SPEC, workspace, backend, shards,
            workers=workers,
        )).run(cancel=progressed.is_set, on_progress=on_progress)
    assert stopped.value.result.executed <= EXPERIMENTS

    resumed = Campaign(make_chaos_config(
        chaos_env.project, TOY_SPEC, workspace, backend, shards,
        workers=workers,
    )).run()
    assert resumed.executed == EXPERIMENTS
    assert_streams_equivalent(workspace / "experiments.jsonl",
                              chaos_env.reference_stream)


# -- remote-specific chaos ---------------------------------------------------------


def test_remote_fails_over_a_dead_worker(chaos_env, tmp_path,
                                         worker_urls):
    """A worker that is already gone when shards are dispatched: every
    shard fails over to the survivor and the campaign completes without
    needing a resume."""
    victim = WorkerProcess(tmp_path / "victim")
    victim.kill()  # connection refused from the first request on
    workspace = tmp_path / "ws"
    result = Campaign(make_chaos_config(
        chaos_env.project, TOY_SPEC, workspace, "remote", 2,
        workers=[victim.url, worker_urls[0]],
    )).run()
    assert result.executed == EXPERIMENTS
    assert_streams_equivalent(workspace / "experiments.jsonl",
                              chaos_env.reference_stream)


def test_remote_worker_killed_mid_shard_fails_over(chaos_env, tmp_path,
                                                   worker_urls):
    """Kill a worker once results start flowing: its unfinished shard
    fails over to the survivor (resubmitting only what was never
    mirrored) and the campaign still completes byte-identically."""
    victim = WorkerProcess(tmp_path / "victim")
    workspace = tmp_path / "ws"
    config = make_chaos_config(
        chaos_env.project, TOY_SPEC, workspace, "remote", 2,
        workers=[victim.url, worker_urls[0]],
    )
    outcome = {}

    def run():
        try:
            outcome["result"] = Campaign(config).run()
        except BaseException as error:  # noqa: BLE001 - reraised below
            outcome["error"] = error

    thread = threading.Thread(target=run)
    thread.start()
    try:
        assert wait_until(lambda: recorded_total(workspace) >= 1
                          or not thread.is_alive())
    finally:
        victim.kill()
    thread.join(timeout=180)
    assert not thread.is_alive(), "campaign hung after the worker died"
    if "error" in outcome:
        raise outcome["error"]
    result = outcome["result"]
    assert result.executed == EXPERIMENTS
    assert_streams_equivalent(workspace / "experiments.jsonl",
                              chaos_env.reference_stream)


def test_remote_worker_internal_errors_fail_over(chaos_env, tmp_path,
                                                 worker_urls):
    """A worker answering 500 on every submit (server-side fault, not a
    connection loss) is excluded like a dead one: shards fail over to
    the healthy worker and the campaign completes cleanly."""
    service = ProFIPyService(tmp_path / "bad-worker")

    def explode(_payload):
        raise RuntimeError("disk full")

    service.shards.submit = explode
    server, _thread = start_server(service)
    try:
        workspace = tmp_path / "ws"
        result = Campaign(make_chaos_config(
            chaos_env.project, TOY_SPEC, workspace, "remote", 2,
            workers=[server.url, worker_urls[0]],
        )).run()
        assert result.executed == EXPERIMENTS
        assert all(e.status != "harness_error"
                   for e in result.experiments)
        assert_streams_equivalent(workspace / "experiments.jsonl",
                                  chaos_env.reference_stream)
    finally:
        server.shutdown()
        service.close()


def test_remote_worker_failure_degrades_to_harness_errors(
        chaos_env, tmp_path):
    """A worker-*reported* shard failure (the shard engine raised) is
    not failed over: the shard's experiments become ``harness_error``
    records — retried on resume, exactly like a dead process worker."""
    service = ProFIPyService(tmp_path / "worker")
    sabotaged = []
    original_submit = service.shards.submit

    def sabotage(payload):
        payload = dict(payload)
        if not sabotaged:
            sabotaged.append(payload["shard"])
            # A fault model that does not compile: the shard engine
            # raises before its first experiment, after the submit was
            # accepted.  (An unknown spec name would not: generation
            # errors are recorded per experiment.)
            payload["fault_model"] = {
                "name": "toy", "description": "",
                "faults": [{"name": "WRR", "dsl": "change {"}],
            }
        return original_submit(payload)

    service.shards.submit = sabotage
    server, _thread = start_server(service)
    try:
        workspace = tmp_path / "ws"
        result = Campaign(make_chaos_config(
            chaos_env.project, TOY_SPEC, workspace, "remote", 2,
            workers=[server.url],
        )).run()
        assert sabotaged, "no shard was sabotaged"
        errored = [e for e in result.experiments
                   if e.status == "harness_error"]
        assert errored, "sabotaged shard produced no harness errors"
        assert all("remote worker failed" in e.error for e in errored)

        resumed = Campaign(make_chaos_config(
            chaos_env.project, TOY_SPEC, workspace, "thread", 1
        )).run()
        assert resumed.executed == EXPERIMENTS
        assert_streams_equivalent(workspace / "experiments.jsonl",
                                  chaos_env.reference_stream)
    finally:
        server.shutdown()
        service.close()


# -- registry fleet chaos (leases, stalls, work stealing) --------------------------


def _await_fleet(client, count, timeout=30.0):
    assert wait_until(
        lambda: len([w for w in client.list_workers()
                     if w["state"] == "alive"]) >= count,
        timeout=timeout,
    ), f"fleet never reached {count} alive workers"


def _campaign_thread(config):
    """Run a campaign on a thread, returning (thread, outcome dict)."""
    outcome = {}

    def run():
        try:
            outcome["result"] = Campaign(config).run()
        except BaseException as error:  # noqa: BLE001 - reraised by caller
            outcome["error"] = error

    thread = threading.Thread(target=run)
    thread.start()
    return thread, outcome


def _finish(thread, outcome, timeout=240.0):
    thread.join(timeout=timeout)
    assert not thread.is_alive(), "campaign hung"
    if "error" in outcome:
        raise outcome["error"]
    return outcome["result"]


def test_stalled_shard_is_stolen_to_an_idle_worker(chaos_env, tmp_path,
                                                   monkeypatch):
    """Deterministic stall-steal, no signals involved: the only worker
    in the fleet *parks* every submitted shard (accepted, never
    executed).  Once an idle worker joins, the straggler detector must
    steal the parked shards onto it — there is no other way for this
    campaign to finish."""
    from repro.orchestrator.backends import RemoteBackend
    from repro.service.registry import WorkerAgent
    from repro.service.shards import ShardRun

    monkeypatch.setattr(RemoteBackend, "stall_seconds", 1.0)
    monkeypatch.setattr(RemoteBackend, "poll_max_seconds", 0.5)

    coordinator = ProFIPyService(tmp_path / "coordinator",
                                 lease_seconds=5.0)
    coordinator_server, _t = start_server(coordinator)
    parker = ProFIPyService(tmp_path / "parker")
    parker_server, _t = start_server(parker)
    healthy = ProFIPyService(tmp_path / "healthy")
    healthy_server, _t = start_server(healthy)
    agents = []

    parked = []

    def park(payload):
        # Accept the shard but never start its thread: it sits queued
        # forever — the silent-straggler failure mode.
        host = parker.shards
        with host._lock:
            shard_id = host._next_shard_id()
            directory = host.shards_dir / shard_id
            directory.mkdir(parents=True, exist_ok=True)
            run = ShardRun(shard_id=shard_id,
                           shard=int(payload["shard"]),
                           total=len(payload["planned"]),
                           directory=directory)
            host._runs[shard_id] = run
        parked.append(shard_id)
        return host.status(shard_id)

    parker.shards.submit = park
    try:
        agent = WorkerAgent("local", parker_server.url, parker.shards,
                            client=coordinator, interval=0.2)
        agent.start()
        agents.append(agent)

        workspace = tmp_path / "ws"
        config = make_chaos_config(
            chaos_env.project, TOY_SPEC, workspace, "remote", 2,
            registry_url=coordinator_server.url,
        )
        thread, outcome = _campaign_thread(config)
        try:
            # Every shard must be parked on the only fleet member
            # before the rescuer appears.
            assert wait_until(lambda: len(parked) >= 1, timeout=30.0)
            time.sleep(0.5)
            rescuer = WorkerAgent("local", healthy_server.url,
                                  healthy.shards, client=coordinator,
                                  interval=0.2)
            rescuer.start()
            agents.append(rescuer)
        except BaseException:
            _finish(thread, outcome)
            raise
        result = _finish(thread, outcome)
        assert result.executed == EXPERIMENTS
        assert all(e.status != "harness_error" for e in result.experiments)
        assert_streams_equivalent(workspace / "experiments.jsonl",
                                  chaos_env.reference_stream)
        # The parked shards never ran where they were first placed.
        assert parked
        assert all(parker.shards.status(sid)["recorded"] == 0
                   for sid in parked)
    finally:
        for agent in agents:
            agent.stop()
        for server in (coordinator_server, parker_server, healthy_server):
            server.shutdown()
        for service in (coordinator, parker, healthy):
            service.close()


def test_cold_cache_joiner_fetches_blobs_before_running_stolen_tail(
        chaos_env, tmp_path, monkeypatch):
    """The blob-shipping steal cell: the only fleet member parks every
    shard, and the rescuer that joins mid-campaign is *cold* — an empty
    blob store, no shared filesystem, nothing but its registration.
    The steal path must ship it the image blobs before the stolen tail
    runs, and the results must still be byte-identical to the
    uninterrupted reference."""
    from repro.orchestrator.backends import RemoteBackend
    from repro.service.registry import WorkerAgent
    from repro.service.shards import ShardRun

    monkeypatch.setattr(RemoteBackend, "stall_seconds", 1.0)
    monkeypatch.setattr(RemoteBackend, "poll_max_seconds", 0.5)

    coordinator = ProFIPyService(tmp_path / "coordinator",
                                 lease_seconds=5.0)
    coordinator_server, _t = start_server(coordinator)
    parker = ProFIPyService(tmp_path / "parker")
    parker_server, _t = start_server(parker)
    rescuer_service = ProFIPyService(tmp_path / "rescuer")
    rescuer_server, _t = start_server(rescuer_service)
    agents = []

    parked = []

    def park(payload):
        # Accept but never execute (see the stall-steal cell above).
        host = parker.shards
        with host._lock:
            shard_id = host._next_shard_id()
            directory = host.shards_dir / shard_id
            directory.mkdir(parents=True, exist_ok=True)
            run = ShardRun(shard_id=shard_id,
                           shard=int(payload["shard"]),
                           total=len(payload["planned"]),
                           directory=directory)
            host._runs[shard_id] = run
        parked.append(shard_id)
        return host.status(shard_id)

    parker.shards.submit = park
    try:
        agent = WorkerAgent("local", parker_server.url, parker.shards,
                            client=coordinator, interval=0.2)
        agent.start()
        agents.append(agent)

        workspace = tmp_path / "ws"
        config = make_chaos_config(
            chaos_env.project, TOY_SPEC, workspace, "remote", 2,
            registry_url=coordinator_server.url,
        )
        thread, outcome = _campaign_thread(config)
        try:
            assert wait_until(lambda: len(parked) >= 1, timeout=30.0)
            # The rescuer joins only now, with nothing in its store.
            assert rescuer_service.blobs.total_bytes() == 0
            rescuer = WorkerAgent("local", rescuer_server.url,
                                  rescuer_service.shards,
                                  client=coordinator, interval=0.2)
            rescuer.start()
            agents.append(rescuer)
        except BaseException:
            _finish(thread, outcome)
            raise
        result = _finish(thread, outcome)
        assert result.executed == EXPERIMENTS
        assert all(e.status != "harness_error" for e in result.experiments)
        assert_streams_equivalent(workspace / "experiments.jsonl",
                                  chaos_env.reference_stream)
        # The stolen tail really ran on the joiner, from blobs it was
        # shipped after joining — not on the parker, not from our disk.
        assert parked
        assert all(parker.shards.status(sid)["recorded"] == 0
                   for sid in parked)
        assert rescuer_service.blobs.total_bytes() > 0
        assert any(view["state"] == "completed"
                   for view in rescuer_service.shards.list())
    finally:
        for agent in agents:
            agent.stop()
        for server in (coordinator_server, parker_server, rescuer_server):
            server.shutdown()
        for service in (coordinator, parker, rescuer_service):
            service.close()


def test_sigstopped_worker_loses_its_lease_and_its_tail_is_stolen(
        chaos_env, tmp_path, monkeypatch):
    """The ``stall`` chaos cell: SIGSTOP a registered worker mid-shard.
    The frozen process holds its sockets open (requests hang, they are
    not refused), so only the missed heartbeats can expose it.  The
    dispatcher must steal the unmirrored tail without operator help and
    finish byte-identically — and the frozen worker's on-disk shard
    stream must be missing the stolen experiments."""
    from repro.orchestrator.backends import RemoteBackend
    from repro.orchestrator.plan import shard_index
    from repro.orchestrator.stream import ExperimentStream
    from repro.service.client import ProFIPyClient

    monkeypatch.setattr(RemoteBackend, "request_timeout", 3.0)
    monkeypatch.setattr(RemoteBackend, "stall_seconds", 60.0)

    coordinator = ProFIPyService(tmp_path / "coordinator",
                                 lease_seconds=1.0)
    coordinator_server, _t = start_server(coordinator)
    workers = []
    try:
        workers = [
            WorkerProcess(tmp_path / f"worker-{index}",
                          join=coordinator_server.url)
            for index in range(2)
        ]
        _await_fleet(ProFIPyClient(coordinator_server.url), 2)

        shards = 2
        workspace = tmp_path / "ws"
        config = make_chaos_config(
            chaos_env.project, TOY_SPEC, workspace, "remote", shards,
            registry_url=coordinator_server.url,
        )
        thread, outcome = _campaign_thread(config)

        frozen = {}

        def freeze_a_busy_worker():
            for worker in workers:
                try:
                    views = ProFIPyClient(
                        worker.url, timeout=2.0
                    ).list_shards()
                except Exception:  # noqa: BLE001 - not up yet
                    continue
                for view in views:
                    if (view["state"] in ("queued", "running")
                            and view["recorded"] < view["total"]):
                        worker.sigstop()
                        frozen["worker"] = worker
                        frozen["view"] = view
                        return True
            return not thread.is_alive()

        try:
            assert wait_until(freeze_a_busy_worker, timeout=60.0)
            assert "worker" in frozen, "campaign finished before a " \
                                       "worker could be frozen mid-shard"
        except BaseException:
            _finish(thread, outcome)
            raise
        result = _finish(thread, outcome)
        assert result.executed == EXPERIMENTS
        assert all(e.status != "harness_error" for e in result.experiments)
        canonical = workspace / "experiments.jsonl"
        assert_streams_equivalent(canonical, chaos_env.reference_stream)

        # The frozen worker could not have written a byte since the
        # freeze: its on-disk stream for the frozen shard must be
        # missing experiments the canonical stream has — the stolen
        # tail ran elsewhere.
        view = frozen["view"]
        frozen_ws = tmp_path / f"worker-{workers.index(frozen['worker'])}"
        frozen_stream = (frozen_ws / "shards" / view["shard_id"]
                         / "experiments.jsonl")
        frozen_ids = set(
            ExperimentStream(frozen_stream)._latest_entries()
        )
        shard_ids = {
            experiment_id
            for experiment_id in ExperimentStream(
                canonical)._latest_entries()
            if shard_index(experiment_id, shards) == view["shard"]
        }
        assert frozen_ids < shard_ids, (
            "no experiments were stolen from the frozen worker "
            f"(frozen={sorted(frozen_ids)} shard={sorted(shard_ids)})"
        )
    finally:
        for worker in workers:
            worker.stop()
        coordinator_server.shutdown()
        coordinator.close()


def test_registered_fleet_survives_sigstop_and_sigkill(chaos_env,
                                                       tmp_path,
                                                       monkeypatch):
    """The full ISSUE oracle: a three-worker registered fleet (no
    static ``--worker`` fallback) with one worker SIGSTOPped and
    another SIGKILLed mid-run still completes every experiment on the
    survivor, byte-identical to the uninterrupted reference, with no
    operator intervention."""
    from repro.orchestrator.backends import RemoteBackend
    from repro.service.client import ProFIPyClient

    monkeypatch.setattr(RemoteBackend, "request_timeout", 3.0)
    monkeypatch.setattr(RemoteBackend, "stall_seconds", 30.0)

    coordinator = ProFIPyService(tmp_path / "coordinator",
                                 lease_seconds=1.0)
    coordinator_server, _t = start_server(coordinator)
    workers = []
    try:
        workers = [
            WorkerProcess(tmp_path / f"worker-{index}",
                          join=coordinator_server.url)
            for index in range(3)
        ]
        _await_fleet(ProFIPyClient(coordinator_server.url), 3)

        workspace = tmp_path / "ws"
        config = make_chaos_config(
            chaos_env.project, TOY_SPEC, workspace, "remote", 3,
            registry_url=coordinator_server.url,
        )
        thread, outcome = _campaign_thread(config)
        try:
            assert wait_until(lambda: recorded_total(workspace) >= 1
                              or not thread.is_alive(), timeout=60.0)
            workers[0].sigstop()
            workers[1].kill()
        except BaseException:
            _finish(thread, outcome)
            raise
        result = _finish(thread, outcome)
        assert result.executed == EXPERIMENTS
        assert all(e.status != "harness_error" for e in result.experiments)
        assert_streams_equivalent(workspace / "experiments.jsonl",
                                  chaos_env.reference_stream)
    finally:
        for worker in workers:
            worker.stop()
        coordinator_server.shutdown()
        coordinator.close()


# -- process backend: the remote failure policy over loopback workers -------------


def _loopback_workers() -> dict:
    """This process's live loopback workers, by process name."""
    return {process.name: process
            for process in multiprocessing.active_children()
            if process.name.startswith("loopback-worker-")}


def test_process_worker_killed_mid_shard_fails_over(chaos_env, tmp_path):
    """SIGKILL one loopback worker whose shard is unfinished, once a
    mirrored shard stream holds a record: the process backend fails the
    unmirrored tail over to the sibling worker, exactly as the remote
    backend does, and the campaign completes byte-identically with no
    ``harness_error`` records."""
    shards = 2
    totals = Counter(
        shard_index(experiment_id, shards) for experiment_id in
        ExperimentStream(chaos_env.reference_stream)._latest_entries()
    )
    assert len(totals) == shards, "a shard is empty: no sibling to fail to"
    workspace = tmp_path / "ws"
    thread, outcome = _campaign_thread(make_chaos_config(
        chaos_env.project, TOY_SPEC, workspace, "process", shards,
    ))
    killed = []

    def unfinished_worker():
        """The first worker directory whose shard stream is short."""
        workers_dir = workspace / "experiments.workers"
        for directory in sorted(workers_dir.glob("worker-*")):
            ids = set()
            for path in directory.glob("shards/*/experiments.jsonl"):
                ids.update(ExperimentStream(path)._latest_entries())
            owned = {shard_index(experiment_id, shards)
                     for experiment_id in ids}
            if not ids or len(ids) < totals[owned.pop()]:
                return directory.name
        return None

    def kill_a_busy_worker():
        if not thread.is_alive():
            return True
        if recorded_total(workspace) < 1:
            return False
        process = _loopback_workers().get(
            f"loopback-{unfinished_worker()}")
        if process is None:
            return False
        os.kill(process.pid, signal.SIGKILL)
        killed.append(process.name)
        return True

    try:
        assert wait_until(kill_a_busy_worker)
    except BaseException:
        _finish(thread, outcome)
        raise
    result = _finish(thread, outcome)
    assert killed, "campaign finished before a worker could be killed"
    assert result.executed == EXPERIMENTS
    assert all(e.status != "harness_error" for e in result.experiments)
    assert_streams_equivalent(workspace / "experiments.jsonl",
                              chaos_env.reference_stream)


def test_stalled_loopback_shard_never_reruns_started_work(
        tmp_path, monkeypatch, kept_workers):
    """Three experiments of about 4 s on two loopback shards, with
    ``stall_seconds`` at 2 s: a stalled shard on a live worker gives up
    only what it has not started, and a busy loopback worker is never
    room.  Every experiment runs in exactly one worker-side shard
    stream, and the campaign takes about its serial critical path (two
    experiments back to back, plus the spawn) instead of re-running
    started experiments on a busy sibling."""
    from repro.orchestrator.backends import RemoteBackend

    monkeypatch.setattr(RemoteBackend, "stall_seconds", 2.0)
    project = build_chaos_project(tmp_path / "target", functions=3,
                                  startup_sleep=2.0)
    workspace = tmp_path / "ws"
    result = Campaign(make_chaos_config(
        project, TOY_SPEC, workspace, "process", 2,
    )).run()
    assert result.executed == 3
    assert all(e.status != "harness_error" for e in result.experiments)
    ids = sorted(e.experiment_id for e in result.experiments)
    assert sorted(Counter(shard_index(experiment_id, 2)
                          for experiment_id in ids).values()) == [1, 2]
    ran = Counter(
        json.loads(line)["experiment_id"]
        for path in worker_shard_streams(workspace)
        for line in path.read_text().splitlines()
    )
    assert sorted(ran) == ids
    assert set(ran.values()) == {1}, f"experiments ran twice: {ran}"
    assert result.execution_seconds < 12.0, result.execution_seconds


def test_process_backend_leaves_no_process_behind(chaos_env, tmp_path):
    """After a completed and after a cancelled process-backend run,
    every loopback worker has been stopped and reaped: no
    multiprocessing child and no descendant of this process remains
    (multiprocessing's resource tracker aside, which lives as long as
    this process does)."""
    from multiprocessing import resource_tracker

    before = descendants()

    def assert_nothing_left(workspace):
        assert multiprocessing.active_children() == []
        tracker = resource_tracker._resource_tracker._pid
        left = descendants() - before - {tracker}
        assert not left, f"processes left running: {sorted(left)}"
        assert not (workspace / "experiments.workers").exists()

    completed = tmp_path / "completed"
    result = Campaign(make_chaos_config(
        chaos_env.project, TOY_SPEC, completed, "process", 2,
    )).run()
    assert result.executed == EXPERIMENTS
    assert_nothing_left(completed)

    cancelled = tmp_path / "cancelled"
    progressed = threading.Event()

    def on_progress(snapshot):
        if snapshot.get("experiments_done", 0) >= 1:
            progressed.set()

    with pytest.raises(CampaignCancelled):
        Campaign(make_chaos_config(
            chaos_env.project, TOY_SPEC, cancelled, "process", 2,
        )).run(cancel=progressed.is_set, on_progress=on_progress)
    assert_nothing_left(cancelled)


def test_stream_projection_oracle_detects_divergence(chaos_env,
                                                     tmp_path):
    """The oracle itself: projections ignore volatile fields but flag a
    real divergence (sanity check that the matrix can actually fail)."""
    reference = stream_projection(chaos_env.reference_stream)
    copy = tmp_path / "copy.jsonl"
    copy.write_bytes(chaos_env.reference_stream.read_bytes())
    assert stream_projection(copy) == reference
    with open(copy, "a", encoding="utf-8") as handle:
        handle.write('{"experiment_id": "chaos-9999", "status": "x"}\n')
    assert stream_projection(copy) != reference
