"""Multi-tenancy tests: the tenant directory and token auth, fair-share
scheduling, per-tenant namespaces and quotas, and the two-tenants-on-one-
live-server isolation contract (the PR acceptance criterion).
"""

import dataclasses
import hashlib
import json
import threading
import time
import urllib.request
from pathlib import Path

import pytest

from repro.faultmodel.library import gswfit_model
from repro.orchestrator.campaign import CampaignConfig
from repro.service.client import ProFIPyClient
from repro.service.http import start_server
from repro.service.jobs import JobRunner
from repro.service.service import ProFIPyService
from repro.service.tenants import (
    DEFAULT_TENANT,
    UNLIMITED_SPEC,
    AuthenticationError,
    QuotaExceededError,
    TenantDirectory,
    TenantForbiddenError,
    TenantSpec,
    TokenBucket,
    validate_tenant_name,
)


def quick_config(toy_project, toy_model, toy_workload, name="toy"):
    return CampaignConfig(
        name=name,
        target_dir=toy_project,
        fault_model=toy_model,
        workload=toy_workload,
        injectable_files=["app.py"],
        coverage=False,
        parallelism=1,
        seed=7,
    )


# -- tenant directory and specs ---------------------------------------------------


class TestTenantSpecAndDirectory:
    def test_valid_names(self):
        for name in ("alice", "team-7", "a.b_c", "X"):
            assert validate_tenant_name(name) == name

    @pytest.mark.parametrize("name", ["", "../up", "a/b", ".", "..",
                                      "-lead", "x" * 65, 7, None])
    def test_invalid_names_rejected(self, name):
        with pytest.raises(ValueError):
            validate_tenant_name(name)

    def test_spec_validates_bounds(self):
        with pytest.raises(ValueError):
            TenantSpec(name="a", max_running=0)
        with pytest.raises(ValueError):
            TenantSpec(name="a", max_queued=-1)
        with pytest.raises(ValueError):
            TenantSpec(name="a", requests_per_second=0)
        with pytest.raises(ValueError):
            TenantSpec(name="a", burst=0)

    def test_from_dict_rejects_unknown_keys(self):
        with pytest.raises(ValueError, match="unknown keys"):
            TenantSpec.from_dict("a", {"token": "t", "max_jobs": 3})

    def test_directory_rejects_reserved_default_name(self):
        with pytest.raises(ValueError, match="reserved"):
            TenantDirectory([TenantSpec(name=DEFAULT_TENANT, token="t")])

    def test_directory_requires_unique_tokens(self):
        with pytest.raises(ValueError, match="unique"):
            TenantDirectory([TenantSpec(name="a", token="same"),
                             TenantSpec(name="b", token="same")])

    def test_directory_requires_tokens(self):
        with pytest.raises(ValueError, match="no token"):
            TenantDirectory([TenantSpec(name="a")])

    def test_authenticate(self):
        directory = TenantDirectory.from_dict({"tenants": {
            "alice": {"token": "a-tok"},
            "bob": {"token": "b-tok", "max_queued": 3},
        }})
        assert directory.authenticate("a-tok") == "alice"
        assert directory.authenticate("b-tok") == "bob"
        with pytest.raises(AuthenticationError):
            directory.authenticate(None)
        with pytest.raises(AuthenticationError):
            directory.authenticate("wrong")
        assert directory.spec("bob").max_queued == 3
        assert directory.spec(DEFAULT_TENANT) is UNLIMITED_SPEC
        assert directory.names() == ["alice", "bob"]

    def test_from_file(self, tmp_path):
        path = tmp_path / "tenants.json"
        path.write_text(json.dumps({"tenants": {
            "alice": {"token": "s3cret", "max_running": 2},
        }}), encoding="utf-8")
        directory = TenantDirectory.from_file(path)
        assert directory.authenticate("s3cret") == "alice"
        assert directory.spec("alice").max_running == 2

    def test_from_file_errors_are_valueerrors(self, tmp_path):
        with pytest.raises(ValueError, match="cannot read"):
            TenantDirectory.from_file(tmp_path / "absent.json")
        bad = tmp_path / "bad.json"
        bad.write_text("{nope", encoding="utf-8")
        with pytest.raises(ValueError, match="not valid JSON"):
            TenantDirectory.from_file(bad)

    def test_token_never_leaks_from_redacted_view(self):
        spec = TenantSpec(name="a", token="hunter2")
        assert spec.to_dict(redact_token=True)["token"] == "***"
        assert spec.to_dict()["token"] == "hunter2"


class TestTokenBucket:
    def test_burst_then_refill(self):
        clock = [0.0]
        bucket = TokenBucket(rate=1.0, burst=2, clock=lambda: clock[0])
        assert bucket.try_acquire()
        assert bucket.try_acquire()
        assert not bucket.try_acquire()
        clock[0] += 1.0
        assert bucket.try_acquire()
        assert not bucket.try_acquire()

    def test_refill_caps_at_burst(self):
        clock = [0.0]
        bucket = TokenBucket(rate=100.0, burst=3, clock=lambda: clock[0])
        clock[0] += 60.0
        for _ in range(3):
            assert bucket.try_acquire()
        assert not bucket.try_acquire()


# -- fair-share scheduler ---------------------------------------------------------


class TestFairShareScheduler:
    def _runner(self, tmp_path, max_workers=1, limits=None):
        return JobRunner(tmp_path / "jobs", max_workers=max_workers,
                         tenants_root=tmp_path / "tenants", limits=limits)

    def test_backlog_does_not_starve_other_tenant(self, tmp_path):
        """A tenant's deep backlog must not block another tenant's
        first job — the round-robin drain interleaves tenants."""
        runner = self._runner(tmp_path, max_workers=1)
        order = []
        gate = threading.Event()

        def body(name):
            def run(job_dir):
                order.append(name)
                if name == "a-0":
                    gate.wait(15)
            return run

        jobs = [runner.submit(name, body(name), tenant="alice")
                for name in ("a-0", "a-1", "a-2")]
        jobs.append(runner.submit("b-0", body("b-0"), tenant="bob"))
        gate.set()
        for job in jobs:
            assert runner.wait(job.job_id, 30).status == "completed"
        runner.close()
        # bob's first job runs ahead of the tail of alice's backlog.
        assert order.index("b-0") < order.index("a-2")

    def test_max_running_caps_one_tenant_not_others(self, tmp_path):
        limits = {"alice": TenantSpec(name="alice", token="t",
                                      max_running=1)}
        runner = self._runner(
            tmp_path, max_workers=2,
            limits=lambda tenant: limits.get(tenant, UNLIMITED_SPEC),
        )
        gate = threading.Event()
        first = runner.submit("a-first", lambda d: gate.wait(15),
                              tenant="alice")
        deadline = time.monotonic() + 10
        while (runner.get(first.job_id).status != "running"
               and time.monotonic() < deadline):
            time.sleep(0.02)
        second = runner.submit("a-second", lambda d: None, tenant="alice")
        # A free worker slot exists, but alice is at her cap.
        time.sleep(0.3)
        assert runner.get(second.job_id).status == "queued"
        # bob is not affected by alice's cap: his job takes the free slot.
        done = runner.submit("b-job", lambda d: None, tenant="bob",
                             block=True)
        assert done.status == "completed"
        gate.set()
        assert runner.wait(second.job_id, 30).status == "completed"
        runner.close()

    def test_max_queued_quota(self, tmp_path):
        limits = {"alice": TenantSpec(name="alice", token="t",
                                      max_running=1, max_queued=1)}
        runner = self._runner(
            tmp_path, max_workers=1,
            limits=lambda tenant: limits.get(tenant, UNLIMITED_SPEC),
        )
        gate = threading.Event()
        blocker = runner.submit("blocker", lambda d: gate.wait(15),
                                tenant="alice")
        deadline = time.monotonic() + 10
        while (runner.get(blocker.job_id).status != "running"
               and time.monotonic() < deadline):
            time.sleep(0.02)
        queued = runner.submit("queued", lambda d: None, tenant="alice")
        with pytest.raises(QuotaExceededError, match="max_queued"):
            runner.submit("rejected", lambda d: None, tenant="alice")
        # The other tenant still submits freely.
        other = runner.submit("bob-job", lambda d: None, tenant="bob")
        gate.set()
        for job in (blocker, queued, other):
            assert runner.wait(job.job_id, 30).status == "completed"
        runner.close()

    def test_tenant_jobs_live_in_tenant_namespace(self, tmp_path):
        runner = self._runner(tmp_path)
        scoped = runner.submit("scoped", lambda d: None, tenant="alice",
                               block=True)
        plain = runner.submit("plain", lambda d: None, block=True)
        assert scoped.directory.parent == tmp_path / "tenants" / "alice" \
            / "jobs"
        assert plain.directory.parent == tmp_path / "jobs"
        assert scoped.tenant == "alice"
        assert plain.tenant == DEFAULT_TENANT
        assert [j.job_id for j in runner.list("alice")] == [scoped.job_id]
        assert [j.job_id for j in runner.list(DEFAULT_TENANT)] == \
            [plain.job_id]
        assert len(runner.list()) == 2
        runner.close()

    def test_rescan_recovers_tenant_jobs_and_global_ids(self, tmp_path):
        runner = self._runner(tmp_path)
        scoped = runner.submit("scoped", lambda d: None, tenant="alice",
                               block=True)
        runner.close()
        reborn = self._runner(tmp_path)
        recovered = reborn.get(scoped.job_id)
        assert recovered.tenant == "alice"
        assert recovered.status == "completed"
        # Job ids stay globally unique across tenant namespaces.
        fresh = reborn.submit("fresh", lambda d: None, block=True)
        assert fresh.job_id != scoped.job_id
        reborn.close()


# -- in-process service namespaces -------------------------------------------------


class TestServiceTenantNamespaces:
    def test_model_registry_is_namespaced(self, tmp_path):
        service = ProFIPyService(tmp_path / "ws")
        alice = service.for_tenant("alice")
        bob = service.for_tenant("bob")
        model = gswfit_model()
        model.name = "custom"
        path = alice.save_model(model)
        assert (tmp_path / "ws" / "tenants" / "alice" / "models") in \
            path.parents
        assert "custom" in alice.list_models()
        assert "custom" not in bob.list_models()
        with pytest.raises(KeyError):
            bob.load_model("custom")
        # Pre-defined models stay available to every tenant.
        assert bob.load_model("gswfit").name == "gswfit"
        service.close()

    @pytest.mark.parametrize("name", ["../../bob/models/planted", "..",
                                      ".", "", "a\\b", "a\0b", "x" * 201])
    def test_model_name_cannot_leave_the_namespace(self, tmp_path, name):
        # Regression: the model name became the file name verbatim, so
        # alice could write tenants/bob/models/planted.json and bob's
        # registry then listed it.
        service = ProFIPyService(tmp_path / "ws")
        model = gswfit_model()
        model.name = name
        with pytest.raises(ValueError, match="invalid fault model name"):
            service.for_tenant("alice").save_model(model)
        with pytest.raises(ValueError, match="invalid fault model name"):
            service.for_tenant("alice").load_model(name)
        assert "planted" not in service.for_tenant("bob").stored_models()
        assert not list((tmp_path / "ws" / "tenants").rglob("planted*"))
        service.close()

    @pytest.mark.integration
    @pytest.mark.parametrize("field", ["workspace", "results_path",
                                       "scan_cache_dir", "blob_cache_dir"])
    def test_tenant_cannot_choose_server_paths(
            self, tmp_path, monkeypatch, toy_project, toy_model,
            toy_workload, field):
        # Regression: a tenant's config path was used as given, so a
        # submit with workspace="dir-workspace/inner" created that
        # directory under the server's working directory.
        monkeypatch.chdir(tmp_path)
        service = ProFIPyService(
            tmp_path / "ws", tenants=TenantDirectory.from_dict(TENANTS))
        config = dataclasses.replace(
            quick_config(toy_project, toy_model, toy_workload),
            **{field: Path("dir-workspace/inner")},
        )
        try:
            with pytest.raises(TenantForbiddenError, match=field):
                service.for_tenant("alice").submit_campaign(config)
            assert not (tmp_path / "dir-workspace").exists()
            assert service.list_jobs() == []
            # The workspace's own user keeps choosing its paths.
            job = service.submit_campaign(
                dataclasses.replace(config, **{field: None,
                                               "workspace": tmp_path / "own"}),
                block=True,
            )
            assert job.status == "completed", job.error
            assert (tmp_path / "own").is_dir()
        finally:
            service.close()

    def test_default_tenant_keeps_single_user_layout(self, tmp_path):
        service = ProFIPyService(tmp_path / "ws")
        model = gswfit_model()
        model.name = "plain"
        path = service.save_model(model)
        assert path.parent == tmp_path / "ws" / "models"
        service.close()

    @pytest.mark.integration
    def test_jobs_and_stats_are_tenant_scoped(
            self, tmp_path, toy_project, toy_model, toy_workload):
        service = ProFIPyService(tmp_path / "ws", max_workers=2)
        alice = service.for_tenant("alice")
        bob = service.for_tenant("bob")
        job = alice.submit_campaign(
            quick_config(toy_project, toy_model, toy_workload), block=True
        )
        assert job.status == "completed", job.error
        # On disk: the job, its scan cache, and its stats index all live
        # under the tenant namespace.
        root = tmp_path / "ws" / "tenants" / "alice"
        assert root / "jobs" in job.directory.parents
        assert (root / "scan_cache").is_dir()
        assert (root / "stats").is_dir()
        # Visibility: alice sees her job and stats, bob sees neither.
        assert [j.job_id for j in alice.list_jobs()] == [job.job_id]
        assert bob.list_jobs() == []
        assert alice.stats_campaigns()
        assert bob.stats_campaigns() == []
        # Cross-tenant access answers forbidden, for every accessor.
        for call in (bob.job, bob.cancel, bob.report_text,
                     bob.result_summary, bob.experiments, bob.job_progress):
            with pytest.raises(TenantForbiddenError):
                call(job.job_id)
        with pytest.raises(TenantForbiddenError):
            bob.wait(job.job_id, timeout=1)
        with pytest.raises(TenantForbiddenError):
            bob.submit_campaign(
                quick_config(toy_project, toy_model, toy_workload),
                block=False, resume_from=job.job_id,
            )
        # The unscoped in-process caller (operator) still sees all jobs.
        assert service.job(job.job_id).status == "completed"
        service.close()


# -- the live-server isolation contract --------------------------------------------


TENANTS = {"tenants": {
    "alice": {"token": "alice-token", "max_running": 1, "max_queued": 1,
              "max_blob_bytes": 10},
    "bob": {"token": "bob-token", "max_running": 1},
    "carol": {"token": "carol-token", "requests_per_second": 0.001,
              "burst": 2},
}}


@pytest.fixture
def tenant_stack(tmp_path):
    """One live server with three configured tenants, plus one client
    per tenant."""
    service = ProFIPyService(
        tmp_path / "ws", max_workers=2,
        tenants=TenantDirectory.from_dict(TENANTS),
    )
    server, _thread = start_server(service)
    clients = {name: ProFIPyClient(server.url,
                                   token=f"{name}-token")
               for name in ("alice", "bob", "carol")}
    yield service, server, clients
    server.shutdown()
    service.close()


class TestAuthOverHTTP:
    def test_missing_or_bad_token_is_unauthorized(self, tenant_stack):
        _service, server, _clients = tenant_stack
        for client in (ProFIPyClient(server.url),
                       ProFIPyClient(server.url, token="wrong")):
            with pytest.raises(AuthenticationError):
                client.list_jobs()
            with pytest.raises(AuthenticationError):
                client.list_models()

    def test_ping_stays_open(self, tenant_stack):
        _service, server, _clients = tenant_stack
        assert ProFIPyClient(server.url).ping()["service"] == "profipy"

    def test_non_bearer_authorization_is_unauthorized(self, tenant_stack):
        _service, server, _clients = tenant_stack
        request = urllib.request.Request(
            server.url + "/v1/jobs",
            headers={"Authorization": "Basic YWxpY2U6cHc="},
        )
        with pytest.raises(urllib.error.HTTPError) as excinfo:
            urllib.request.urlopen(request, timeout=10)
        assert excinfo.value.code == 401

    def test_encoded_traversal_in_model_name_is_invalid_request(
            self, tenant_stack):
        # Regression: with path parameters percent-decoded, only the
        # model-name rule stops this PUT from writing into bob's
        # namespace.
        service, server, clients = tenant_stack
        model = gswfit_model()
        model.name = "../../bob/models/planted"
        request = urllib.request.Request(
            server.url + "/v1/models/..%2F..%2Fbob%2Fmodels%2Fplanted",
            data=json.dumps(model.to_dict()).encode(), method="PUT",
            headers={"Authorization": "Bearer alice-token",
                     "Content-Type": "application/json"},
        )
        with pytest.raises(urllib.error.HTTPError) as excinfo:
            urllib.request.urlopen(request, timeout=10)
        assert excinfo.value.code == 400
        assert json.loads(excinfo.value.read())["error"]["code"] == \
            "invalid_request"
        with pytest.raises(ValueError, match="invalid fault model name"):
            clients["alice"].save_model(model)
        assert "planted" not in clients["bob"].stored_models()
        assert "planted" not in service.for_tenant("bob").stored_models()

    def test_tenant_workspace_path_is_forbidden(
            self, tenant_stack, tmp_path, monkeypatch, toy_project,
            toy_model, toy_workload):
        service, _server, clients = tenant_stack
        monkeypatch.chdir(tmp_path)
        config = dataclasses.replace(
            quick_config(toy_project, toy_model, toy_workload),
            workspace=Path("dir-workspace/inner"),
        )
        with pytest.raises(TenantForbiddenError, match="workspace"):
            clients["alice"].submit_campaign(config)
        assert not (tmp_path / "dir-workspace").exists()
        assert service.list_jobs() == []

    def test_rate_limit_answers_429(self, tenant_stack):
        _service, _server, clients = tenant_stack
        carol = clients["carol"]
        # burst=2 at a negligible refill rate: two requests pass, the
        # third bounces.
        carol.list_jobs()
        carol.list_jobs()
        with pytest.raises(QuotaExceededError):
            carol.list_jobs()
        # Other tenants have their own (absent) bucket.
        assert clients["bob"].list_jobs() == []


@pytest.mark.integration
class TestTenantIsolationOverHTTP:
    """Two tenants on one live server cannot see, cancel, or wait on
    each other's jobs/models/stats — and quotas bind per tenant."""

    def test_cross_tenant_isolation(self, tenant_stack, toy_project,
                                    toy_model, toy_workload):
        _service, _server, clients = tenant_stack
        alice, bob = clients["alice"], clients["bob"]

        model = gswfit_model()
        model.name = "alice-custom"
        alice.save_model(model)
        assert "alice-custom" in alice.list_models()
        assert "alice-custom" not in bob.list_models()
        with pytest.raises(KeyError):
            bob.load_model("alice-custom")

        job = alice.submit_campaign(
            quick_config(toy_project, toy_model, toy_workload), block=True
        )
        assert job.status == "completed", job.error
        assert [j.job_id for j in alice.list_jobs()] == [job.job_id]
        assert bob.list_jobs() == []
        for call in (bob.job, bob.cancel, bob.report_text,
                     bob.result_summary, bob.experiments):
            with pytest.raises(TenantForbiddenError):
                call(job.job_id)
        with pytest.raises(TenantForbiddenError):
            bob.wait(job.job_id, timeout=5)
        assert alice.stats_campaigns()
        assert bob.stats_campaigns() == []

    def test_over_quota_429_while_other_tenant_drains(
            self, tenant_stack, toy_project, toy_model, toy_workload):
        service, _server, clients = tenant_stack
        alice, bob = clients["alice"], clients["bob"]
        # Hold alice's single execution slot server-side, then fill her
        # one-deep queue.
        gate = threading.Event()
        blocker = service.runner.submit("blocker",
                                        lambda d: gate.wait(30),
                                        tenant="alice")
        config = quick_config(toy_project, toy_model, toy_workload)
        queued = alice.submit_campaign(config, block=False)
        with pytest.raises(QuotaExceededError):
            alice.submit_campaign(config, block=False)
        # The other tenant's submissions still drain to completion.
        done = bob.submit_campaign(config, block=True)
        assert done.status == "completed", done.error
        gate.set()
        assert alice.wait(blocker.job_id, timeout=60).status == "completed"
        assert alice.wait(queued.job_id, timeout=120).status == "completed"

    def test_blob_quota_charges_new_bytes_only(self, tenant_stack):
        _service, _server, clients = tenant_stack
        alice = clients["alice"]  # max_blob_bytes=10
        small = b"12345678"
        digest = hashlib.sha256(small).hexdigest()
        assert alice.put_blob(digest, small)["digest"] == digest
        # Re-putting the same blob is free (content-addressed dedup).
        assert alice.put_blob(digest, small)["digest"] == digest
        other = b"87654321"
        with pytest.raises(QuotaExceededError):
            alice.put_blob(hashlib.sha256(other).hexdigest(), other)
        # bob has no blob quota at all.
        assert clients["bob"].put_blob(
            hashlib.sha256(other).hexdigest(), other
        )["digest"] == hashlib.sha256(other).hexdigest()
