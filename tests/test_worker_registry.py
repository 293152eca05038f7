"""Worker registry: lease transitions, fencing, and the agent loop.

The lease edge cases the ISSUE calls out get deterministic coverage
here, under an injected fake clock:

* a worker that misses heartbeats walks alive → suspect → dead →
  pruned, at exact lease multiples;
* a heartbeat after eviction re-registers under a *fresh* id;
* a re-registered URL fences the old lease — the previous incarnation
  answering late gets ``lease_expired``, not silently accepted;
* listings are deterministic functions of the fake clock.
"""

import pytest

from repro.service.registry import (
    ALIVE,
    DEAD,
    DEAD_AFTER_LEASES,
    PRUNE_AFTER_LEASES,
    SUSPECT,
    LeaseExpiredError,
    WorkerAgent,
    WorkerRegistry,
)


class FakeClock:
    def __init__(self):
        self.now = 100.0

    def __call__(self):
        return self.now

    def advance(self, seconds):
        self.now += seconds


@pytest.fixture
def clock():
    return FakeClock()


@pytest.fixture
def registry(clock):
    return WorkerRegistry(lease_seconds=10.0, clock=clock)


def state_of(registry, worker_id):
    views = {view["worker_id"]: view for view in registry.list_workers()}
    return views[worker_id]["state"] if worker_id in views else None


class TestLeaseTransitions:
    def test_alive_suspect_dead_pruned_at_lease_multiples(self, registry,
                                                          clock):
        view = registry.register("http://w:1")
        wid = view["worker_id"]
        assert state_of(registry, wid) == ALIVE

        clock.advance(10.0)  # exactly one lease: still alive
        assert state_of(registry, wid) == ALIVE
        clock.advance(0.1)  # past one lease: suspect
        assert state_of(registry, wid) == SUSPECT

        clock.advance(10.0)  # past DEAD_AFTER_LEASES leases: dead
        assert DEAD_AFTER_LEASES == 2
        assert state_of(registry, wid) == DEAD

        clock.advance(10.0 * (PRUNE_AFTER_LEASES - DEAD_AFTER_LEASES))
        assert state_of(registry, wid) is None  # pruned from listings

    def test_heartbeat_revives_a_suspect(self, registry, clock):
        wid = registry.register("http://w:1")["worker_id"]
        clock.advance(15.0)
        assert state_of(registry, wid) == SUSPECT
        view = registry.heartbeat(wid)
        assert view["state"] == ALIVE
        assert state_of(registry, wid) == ALIVE

    def test_dead_lease_rejects_heartbeats(self, registry, clock):
        wid = registry.register("http://w:1")["worker_id"]
        clock.advance(25.0)
        assert state_of(registry, wid) == DEAD
        with pytest.raises(LeaseExpiredError):
            registry.heartbeat(wid)

    def test_pruned_lease_is_unknown(self, registry, clock):
        wid = registry.register("http://w:1")["worker_id"]
        clock.advance(10.0 * PRUNE_AFTER_LEASES + 1.0)
        with pytest.raises(KeyError):
            registry.heartbeat(wid)

    def test_unmanaged_peer_never_expires(self, registry, clock):
        wid = registry.register("http://pin:1", managed=False)["worker_id"]
        clock.advance(10.0 * PRUNE_AFTER_LEASES * 5)
        assert state_of(registry, wid) == ALIVE

    def test_alive_filter_skips_suspects(self, registry, clock):
        registry.register("http://w1:1")
        clock.advance(15.0)
        registry.register("http://w2:1")
        urls = [view["url"] for view in registry.alive()]
        assert urls == ["http://w2:1"]

    def test_load_carried_by_heartbeat(self, registry):
        wid = registry.register("http://w:1")["worker_id"]
        view = registry.heartbeat(
            wid, {"running": 3, "queued": 1, "max_concurrent": 4}
        )
        assert view["load"] == {"running": 3, "queued": 1,
                                "max_concurrent": 4}
        assert view["max_concurrent"] == 4

    def test_malformed_load_rejected(self, registry):
        wid = registry.register("http://w:1")["worker_id"]
        with pytest.raises(ValueError):
            registry.heartbeat(wid, {"running": -1})
        with pytest.raises(ValueError):
            registry.heartbeat(wid, "busy")

    def test_listing_age_tracks_fake_clock(self, registry, clock):
        wid = registry.register("http://w:1")["worker_id"]
        clock.advance(7.5)
        views = {v["worker_id"]: v for v in registry.list_workers()}
        assert views[wid]["seconds_since_heartbeat"] == pytest.approx(7.5)
        assert views[wid]["lease_seconds"] == 10.0


class TestFencing:
    def test_reregistration_fences_the_old_lease(self, registry):
        old = registry.register("http://w:1")["worker_id"]
        new = registry.register("http://w:1")["worker_id"]
        assert new != old
        # The old incarnation answering late is told the truth —
        # lease_expired, not unknown_worker — so it re-registers
        # instead of assuming a coordinator restart.
        with pytest.raises(LeaseExpiredError):
            registry.heartbeat(old)
        assert state_of(registry, new) == ALIVE
        assert state_of(registry, old) == DEAD

    def test_fenced_lease_never_resurrects(self, registry, clock):
        old = registry.register("http://w:1")["worker_id"]
        registry.register("http://w:1")
        # Sweeping at any point must keep the tombstone dead even
        # though its heartbeat age says "alive".
        clock.advance(0.5)
        assert state_of(registry, old) == DEAD
        with pytest.raises(LeaseExpiredError):
            registry.heartbeat(old)

    def test_fenced_lease_eventually_prunes(self, registry, clock):
        old = registry.register("http://w:1")["worker_id"]
        registry.register("http://w:1")
        clock.advance(10.0 * PRUNE_AFTER_LEASES + 1.0)
        assert state_of(registry, old) is None

    def test_rejoined_worker_is_eligible_again(self, registry, clock):
        registry.register("http://w:1")
        clock.advance(25.0)
        assert registry.alive() == []
        rejoined = registry.register("http://w:1")
        assert [v["worker_id"] for v in registry.alive()] == [
            rejoined["worker_id"]
        ]

    def test_unmanaged_reregistration_is_idempotent(self, registry):
        first = registry.register("http://pin:1", managed=False)
        again = registry.register("http://pin:1", managed=False)
        assert again["worker_id"] == first["worker_id"]
        assert len(registry.list_workers()) == 1


class TestWireForm:
    def test_register_worker_validates_payload(self, registry):
        with pytest.raises(ValueError):
            registry.register_worker([])
        with pytest.raises(ValueError):
            registry.register_worker({})
        with pytest.raises(ValueError):
            registry.register_worker({"url": "   "})
        with pytest.raises(ValueError):
            registry.register_worker({"url": "http://w:1",
                                      "max_concurrent": 0})

    def test_url_normalized(self, registry):
        view = registry.register_worker({"url": " http://w:1/ "})
        assert view["url"] == "http://w:1"


class TestWorkerAgent:
    """The agent against an in-process service facade (no HTTP)."""

    def _service(self, tmp_path, lease_seconds=10.0):
        from repro.service.service import ProFIPyService

        return ProFIPyService(tmp_path / "ws", lease_seconds=lease_seconds)

    def test_register_carries_shard_host_capacity(self, tmp_path):
        service = self._service(tmp_path)
        agent = WorkerAgent("local", "http://me:1",
                            service.shards, client=service)
        view = agent.register()
        assert agent.worker_id == view["worker_id"]
        assert view["max_concurrent"] == service.shards.max_concurrent

    def test_heartbeat_after_eviction_reregisters_fresh_id(self, tmp_path):
        clock = FakeClock()
        service = self._service(tmp_path)
        service.registry.clock = clock
        agent = WorkerAgent("local", "http://me:1",
                            service.shards, client=service)
        agent.register()
        old_id = agent.worker_id
        clock.advance(10.0 * (PRUNE_AFTER_LEASES + 1))
        view = agent.heartbeat()  # unknown_worker → re-register
        assert agent.worker_id == view["worker_id"]
        assert agent.worker_id != old_id

    def test_heartbeat_after_fencing_reregisters(self, tmp_path):
        service = self._service(tmp_path)
        agent = WorkerAgent("local", "http://me:1",
                            service.shards, client=service)
        agent.register()
        old_id = agent.worker_id
        # Another incarnation of the same URL joined (worker restart).
        service.register_worker({"url": "http://me:1"})
        agent.heartbeat()  # lease_expired → re-register
        assert agent.worker_id != old_id
        alive = [v["worker_id"] for v in service.registry.alive()]
        assert agent.worker_id in alive
        assert old_id not in alive

    def test_heartbeat_carries_live_load(self, tmp_path):
        service = self._service(tmp_path)
        agent = WorkerAgent("local", "http://me:1",
                            service.shards, client=service)
        agent.register()
        view = agent.heartbeat()
        assert view["load"] == {"running": 0, "queued": 0,
                                "max_concurrent":
                                    service.shards.max_concurrent}

    def test_agent_thread_heartbeats(self, tmp_path):
        import time as _time

        service = self._service(tmp_path, lease_seconds=0.3)
        agent = WorkerAgent("local", "http://me:1",
                            service.shards, client=service,
                            interval=0.05)
        agent.start()
        try:
            deadline = _time.monotonic() + 5.0
            while _time.monotonic() < deadline:
                views = service.list_workers()
                if views and views[0]["load"] is not None:
                    break
                _time.sleep(0.02)
            else:
                pytest.fail("agent thread never heartbeated")
            # Stays alive across several lease windows only because the
            # thread keeps renewing.
            _time.sleep(0.5)
            assert service.registry.alive()
        finally:
            agent.stop()


class TestPlacementHelpers:
    """The dispatcher-side fleet helpers the remote backend places by."""

    def _fleet(self):
        return {
            "http://a:1": {"url": "http://a:1", "state": ALIVE,
                           "max_concurrent": 4,
                           "load": {"running": 3, "queued": 0}},
            "http://b:1": {"url": "http://b:1", "state": ALIVE,
                           "max_concurrent": 4,
                           "load": {"running": 1, "queued": 0}},
            "http://c:1": {"url": "http://c:1", "state": DEAD,
                           "max_concurrent": 4,
                           "load": {"running": 0, "queued": 0}},
        }

    def test_least_loaded_skips_dead_workers(self):
        from repro.orchestrator.backends import least_loaded_worker

        choice = least_loaded_worker(self._fleet(), {})
        assert choice["url"] == "http://b:1"

    def test_assigned_shards_count_towards_load(self):
        from repro.orchestrator.backends import least_loaded_worker

        # b already carries 3 of our placements: a (3/4) now beats
        # b (1+3 = 4/4).
        choice = least_loaded_worker(self._fleet(), {"http://b:1": 3})
        assert choice["url"] == "http://a:1"

    def test_excluded_workers_avoided_until_nothing_else_is_left(self):
        from repro.orchestrator.backends import least_loaded_worker

        fleet = self._fleet()
        choice = least_loaded_worker(fleet, {}, excluded={"http://b:1"})
        assert choice["url"] == "http://a:1"
        # Every alive worker excluded → exclusion is waived, not fatal.
        choice = least_loaded_worker(
            fleet, {}, excluded={"http://a:1", "http://b:1"}
        )
        assert choice is not None
        # No alive worker at all → None.
        for view in fleet.values():
            view["state"] = DEAD
        assert least_loaded_worker(fleet, {}) is None

    def test_deterministic_url_tie_break(self):
        from repro.orchestrator.backends import least_loaded_worker

        fleet = {
            url: {"url": url, "state": ALIVE, "max_concurrent": 2,
                  "load": {"running": 0, "queued": 0}}
            for url in ("http://b:1", "http://a:1")
        }
        assert least_loaded_worker(fleet, {})["url"] == "http://a:1"

    def test_idle_capacity(self):
        from repro.orchestrator.backends import idle_capacity

        fleet = self._fleet()
        assert idle_capacity(fleet, {})
        # Saturate both alive workers: no room to steal into.
        assert not idle_capacity(fleet, {"http://a:1": 1, "http://b:1": 3})
        # Unknown capacity (a static pin) always counts as room.
        fleet["http://pin:1"] = {"url": "http://pin:1", "state": ALIVE,
                                 "max_concurrent": None, "load": None}
        assert idle_capacity(fleet, {"http://a:1": 1, "http://b:1": 3})

    def test_idle_worker(self):
        from repro.orchestrator.backends import idle_worker

        fleet = self._fleet()
        # Both alive workers have a free slot and none of our placements.
        assert idle_worker(fleet, {}) == "http://a:1"
        # A worker holding one of our placements is never idle.
        assert idle_worker(fleet, {"http://a:1": 1}) == "http://b:1"
        assert idle_worker(fleet, {}, excluded={"http://a:1"}) == \
            "http://b:1"
        # Known load without a free slot is not idle either.
        fleet["http://b:1"]["load"] = {"running": 2, "queued": 2}
        assert idle_worker(fleet, {"http://a:1": 1}) is None
        # Unknown load: no placement of ours is enough.
        fleet["http://pin:1"] = {"url": "http://pin:1", "state": ALIVE,
                                 "max_concurrent": 1, "load": None}
        assert idle_worker(fleet, {"http://a:1": 1}) == "http://pin:1"
        assert idle_worker(fleet, {"http://a:1": 1,
                                   "http://pin:1": 1}) is None

    def test_release_tail_takes_the_back_half_by_expected_seconds(self):
        from repro.orchestrator.backends import release_tail
        from repro.orchestrator.plan import PlannedExperiment
        from repro.scanner.points import InjectionPoint

        planned = [PlannedExperiment(
            experiment_id=f"exp-{ordinal}",
            point=InjectionPoint(spec_name="S", file="a.py",
                                 ordinal=ordinal, lineno=1, end_lineno=1,
                                 snippet="", component=""))
            for ordinal in range(5)]

        def ids(tail):
            return [experiment.experiment_id for experiment in tail]

        expected = {"S:a.py:0": 4.0, "S:a.py:1": 3.0, "S:a.py:2": 2.0,
                    "S:a.py:3": 1.0, "S:a.py:4": 1.0}
        # exp-0 is recorded and exp-1 presumed running: of the 4 s
        # tail, the back 2 s move.
        assert ids(release_tail(planned, {"exp-0"}, expected,
                                running=1)) == ["exp-3", "exp-4"]
        # At least one experiment, even past half.
        assert ids(release_tail(planned, {"exp-0", "exp-1", "exp-2"},
                                expected, running=0)) == ["exp-4"]
        # No durations: every experiment weighs the same.
        assert ids(release_tail(planned, set(), {}, running=1)) == \
            ["exp-3", "exp-4"]
        assert release_tail(planned, {"exp-0", "exp-1", "exp-2",
                                      "exp-3"}, {}, running=1) == []

    def test_adaptive_poll_decays_and_resets(self):
        from repro.orchestrator.backends import _AdaptivePoll

        poll = _AdaptivePoll(0.25, 2.0, 2.0)
        assert poll.interval == 0.25
        poll.record(progressed=False)
        assert poll.interval == 0.5
        poll.record(progressed=False)
        poll.record(progressed=False)
        poll.record(progressed=False)
        assert poll.interval == 2.0  # capped
        poll.record(progressed=True)
        assert poll.interval == 0.25  # progress snaps back to fast

    def test_adaptive_poll_ceiling_keeps_pace_with_progress(self):
        # Results every second: a quiet interval stays a quarter of that
        # pace, so a shard's end is not noticed seconds late.
        from repro.orchestrator.backends import _AdaptivePoll

        now = [0.0]
        poll = _AdaptivePoll(0.25, 2.0, 2.0, clock=lambda: now[0])
        for tick in range(4):
            now[0] = float(tick)
            poll.record(progressed=True)
        now[0] = 3.5
        for _ in range(5):
            poll.record(progressed=False)
        assert poll.interval == 0.25
        # A long quiet stretch slows the pace, and the backoff with it.
        now[0] = 20.0
        poll.record(progressed=False)
        assert poll.interval == 0.5
        poll.record(progressed=False)
        poll.record(progressed=False)
        assert poll.interval == 1.25  # a quarter of 20 s over 4 ticks
        now[0] = 100.0
        poll.record(progressed=False)
        assert poll.interval == 2.0  # capped at the maximum


@pytest.mark.integration
class TestRegistryOverHTTP:
    """The same semantics through the real server and client."""

    @pytest.fixture
    def served(self, tmp_path):
        from repro.service.client import ProFIPyClient
        from repro.service.http import start_server
        from repro.service.service import ProFIPyService

        service = ProFIPyService(tmp_path / "ws", lease_seconds=10.0)
        clock = FakeClock()
        service.registry.clock = clock
        server, _thread = start_server(service)
        yield ProFIPyClient(server.url), clock
        server.shutdown()
        service.close()

    def test_round_trip(self, served):
        client, clock = served
        view = client.register_worker({"url": "http://w:1",
                                       "max_concurrent": 2})
        assert view["state"] == ALIVE
        hb = client.worker_heartbeat(
            view["worker_id"],
            {"running": 1, "queued": 0, "max_concurrent": 2},
        )
        assert hb["load"]["running"] == 1
        listed = client.list_workers()
        assert [w["worker_id"] for w in listed] == [view["worker_id"]]

    def test_error_codes_over_the_wire(self, served):
        client, clock = served
        with pytest.raises(KeyError):
            client.worker_heartbeat("worker-9999")
        view = client.register_worker({"url": "http://w:1"})
        client.register_worker({"url": "http://w:1"})
        with pytest.raises(LeaseExpiredError):
            client.worker_heartbeat(view["worker_id"])
        with pytest.raises(ValueError):
            client.register_worker({"url": ""})

    def test_transitions_visible_over_the_wire(self, served):
        client, clock = served
        view = client.register_worker({"url": "http://w:1"})
        clock.advance(15.0)
        assert client.list_workers()[0]["state"] == SUSPECT
        clock.advance(10.0)
        assert client.list_workers()[0]["state"] == DEAD
