"""Coverage reuse: a re-campaign over an unchanged image skips the
fault-free pre-run (§IV-D).

The pre-run's covered set is stored in the campaign's scan cache under
``coverage_key`` — a digest of the instrumented image, the point ids,
the workload, the interpreter and the inherited environment — so only a
campaign that would execute the exact same program and driver reuses it.
"""

import json

import pytest
from chaos import stream_projection

from repro.dsl.parser import parse_spec
from repro.faultmodel.model import FaultModel
from repro.mutator.runtime import COVERAGE_ENV
from repro.orchestrator.campaign import Campaign, CampaignConfig
from repro.sandbox.sandbox import Sandbox
from repro.scanner.cache import COVERAGE_FORMAT_VERSION, ScanCache
from repro.service.client import ProFIPyClient
from repro.service.http import start_server
from repro.service.jobs import COMPLETED, FAILED
from repro.service.service import ProFIPyService
from repro.workload.spec import WorkloadSpec

pytestmark = pytest.mark.integration

FAILING_SERVICE = WorkloadSpec(
    service_commands=['{python} -c "import sys; sys.exit(3)"'],
    commands=["{python} run.py"],
    command_timeout=30.0,
)


@pytest.fixture
def coverage_runs(monkeypatch):
    """A list that grows by one per coverage sandbox started in this
    process (experiment sandboxes are not counted)."""
    started = []
    create = Sandbox.__dict__["create"].__func__

    def counting(cls, image, base_dir, name, *args, **kwargs):
        if name == "coverage":
            started.append(base_dir)
        return create(cls, image, base_dir, name, *args, **kwargs)

    monkeypatch.setattr(Sandbox, "create", classmethod(counting))
    return started


def make_config(project, model, workload, tmp_path, label,
                cache="cache", **overrides):
    return CampaignConfig(
        name="reuse",
        target_dir=project,
        fault_model=model,
        workload=workload,
        injectable_files=["app.py"],
        parallelism=2,
        seed=3,
        scan_cache_dir=tmp_path / cache if cache else None,
        workspace=tmp_path / label,
        **overrides,
    )


def run(config):
    campaign = Campaign(config)
    return campaign, campaign.run()


def coverage_entries(cache_dir):
    return sorted(cache_dir.glob("coverage-*.json"))


class TestReuse:
    @pytest.mark.parametrize("backend", ["thread", "process"])
    def test_recampaign_starts_no_coverage_sandbox(
            self, backend, toy_project, toy_model, toy_workload, tmp_path,
            coverage_runs):
        def config(label, cache="cache"):
            return make_config(toy_project, toy_model, toy_workload,
                               tmp_path, label, cache=cache,
                               backend=backend, shards=2)

        _, first = run(config("first"))
        assert len(coverage_runs) == 1
        assert not first.coverage.reused

        campaign, second = run(config("second"))
        assert len(coverage_runs) == 1, "re-campaign ran the pre-run"
        assert second.coverage.reused
        assert second.coverage == first.coverage
        assert second.coverage.key == first.coverage.key
        stats = campaign.scan_cache.stats()
        assert (stats["coverage_hits"], stats["coverage_misses"]) == (1, 0)

        _, fresh = run(config("fresh", cache="fresh-cache"))
        assert len(coverage_runs) == 2
        assert not fresh.coverage.reused
        assert fresh.coverage == second.coverage
        assert second.executed == fresh.executed == 1
        assert stream_projection(second.experiments_path) == \
            stream_projection(fresh.experiments_path)

    def test_reach_times_survive_reuse(
            self, toy_project, toy_model, toy_workload, tmp_path):
        _, first = run(make_config(toy_project, toy_model, toy_workload,
                                   tmp_path, "first"))
        assert set(first.coverage.reached) == {"WRR:app.py:0"}
        assert 0 <= first.coverage.reached["WRR:app.py:0"] \
            <= first.coverage.seconds
        _, second = run(make_config(toy_project, toy_model, toy_workload,
                                    tmp_path, "second"))
        assert second.coverage.reused
        assert second.coverage.reached == first.coverage.reached
        assert second.coverage.seconds == first.coverage.seconds

    def test_untimed_probe_line_still_covers_its_point(
            self, toy_project, toy_model, tmp_path):
        # A probe line with no time (the pre-v2 runtime's format) for
        # the point in ``unused_helper``, which the workload never calls.
        (toy_project / "untimed.py").write_text(
            "import os\n"
            f"with open(os.environ[{COVERAGE_ENV!r}], 'a') as handle:\n"
            "    handle.write('WRR:app.py:1\\n')\n")
        workload = WorkloadSpec(
            commands=["{python} run.py", "{python} untimed.py"],
            command_timeout=30.0,
        )
        _, result = run(make_config(toy_project, toy_model, workload,
                                    tmp_path, "first"))
        assert result.coverage.covered == {"WRR:app.py:0", "WRR:app.py:1"}
        assert set(result.coverage.reached) == {"WRR:app.py:0"}
        assert result.executed == 2

    def test_progress_names_the_reused_key(
            self, toy_project, toy_model, toy_workload, tmp_path):
        run(make_config(toy_project, toy_model, toy_workload, tmp_path,
                        "first"))
        lines = []
        campaign = Campaign(make_config(toy_project, toy_model,
                                        toy_workload, tmp_path, "second"))
        result = campaign.run(progress=lines.append)
        expected = f"[reuse] coverage reused (key {result.coverage.key[:12]})"
        assert expected in lines

    def test_reused_is_not_reported(self, toy_project, toy_model,
                                    toy_workload, tmp_path):
        _, first = run(make_config(toy_project, toy_model, toy_workload,
                                   tmp_path, "first"))
        _, second = run(make_config(toy_project, toy_model, toy_workload,
                                    tmp_path, "second"))
        assert second.coverage.reused

        def summary(result):
            return {key: value for key, value in result.summary().items()
                    if key != "workspace"}

        assert summary(second) == summary(first)

    def test_without_cache_dir_the_pre_run_always_runs(
            self, toy_project, toy_model, toy_workload, tmp_path,
            coverage_runs):
        for label in ("first", "second"):
            _, result = run(make_config(toy_project, toy_model,
                                        toy_workload, tmp_path, label,
                                        cache=None))
            assert not result.coverage.reused
            assert result.coverage.covered_count == 1
        assert len(coverage_runs) == 2


def _edit_driver(project, config):
    # The workload driver is in the image but not injectable.
    with open(project / "run.py", "a", encoding="utf-8") as handle:
        handle.write("# edited\n")
    return config


def _change_workload(project, config):
    config.workload = WorkloadSpec(commands=["{python} -B run.py"],
                                   command_timeout=30.0)
    return config


#: Same name and the same point ids as TOY_SPEC (two matches in app.py),
#: but both windows sit in ``compute``, which the workload calls.
MOVED_WRR = "change { steps.append($EXPR#v) } into { }"


def _change_spec_body(project, config):
    model = FaultModel(name="toy")
    for fault in config.fault_model.faults:
        spec = fault.spec
        if spec.name == "WRR":
            spec = parse_spec(MOVED_WRR, name="WRR")
        model.add(spec, description=fault.description)
    config.fault_model = model
    return config


def _narrow_spec_filter(project, config):
    config.spec_filter = ["WRR"]
    return config


def _change_containerfile_env(project, config):
    config.containerfile = "ENV TOY_FLAG=2"
    return config


class TestMisses:
    @pytest.fixture
    def two_spec_model(self):
        from conftest import TOY_SPEC

        model = FaultModel(name="toy")
        model.add(parse_spec(TOY_SPEC, name="WRR"), description="wrr")
        model.add(parse_spec(TOY_SPEC, name="WRR2"), description="wrr2")
        return model

    @pytest.mark.parametrize("change", [
        _edit_driver, _change_workload, _change_spec_body,
        _narrow_spec_filter, _change_containerfile_env,
    ], ids=lambda change: change.__name__.lstrip("_"))
    def test_change_reruns_the_pre_run(
            self, change, toy_project, two_spec_model, toy_workload,
            tmp_path, coverage_runs):
        def config(label):
            return make_config(toy_project, two_spec_model, toy_workload,
                               tmp_path, label,
                               containerfile="ENV TOY_FLAG=1")

        _, first = run(config("first"))
        assert len(coverage_runs) == 1
        campaign, changed = run(change(toy_project, config("changed")))
        assert len(coverage_runs) == 2
        assert not changed.coverage.reused
        assert changed.coverage.key != first.coverage.key
        assert campaign.scan_cache.stats()["coverage_misses"] == 1
        assert len(coverage_entries(tmp_path / "cache")) == 2

    def test_changed_spec_body_sees_its_own_coverage(
            self, toy_project, toy_model, toy_workload, tmp_path):
        _, first = run(make_config(toy_project, toy_model, toy_workload,
                                   tmp_path, "first"))
        assert first.coverage.covered == {"WRR:app.py:0"}
        _, changed = run(_change_spec_body(toy_project, make_config(
            toy_project, toy_model, toy_workload, tmp_path, "changed")))
        assert changed.coverage.total == first.coverage.total
        assert changed.coverage.covered == {"WRR:app.py:0", "WRR:app.py:1"}


class TestNeverStored:
    def test_failed_workload_is_not_stored(
            self, toy_project, toy_model, tmp_path, coverage_runs):
        workload = WorkloadSpec(
            commands=["{python} run.py",
                      '{python} -c "import sys; sys.exit(1)"'],
            command_timeout=30.0,
        )
        for label in ("first", "second"):
            lines = []
            result = Campaign(make_config(
                toy_project, toy_model, workload, tmp_path, label,
                rounds=1)).run(progress=lines.append)
            assert result.coverage.workload_failed
            assert not result.coverage.reused
            assert ("[reuse] coverage pre-run: fault-free workload "
                    "failed; covered set not stored") in lines
        assert len(coverage_runs) == 2
        assert coverage_entries(tmp_path / "cache") == []

    def test_service_start_error_fails_the_campaign(
            self, toy_project, toy_model, tmp_path, coverage_runs):
        for label in ("first", "second"):
            with pytest.raises(RuntimeError, match="coverage pre-run failed: "
                               "a service process exited during startup"):
                run(make_config(toy_project, toy_model, FAILING_SERVICE,
                                tmp_path, label))
        assert len(coverage_runs) == 2
        assert coverage_entries(tmp_path / "cache") == []

    def test_service_start_error_fails_the_v1_job(
            self, toy_project, toy_model, tmp_path):
        service = ProFIPyService(tmp_path / "ws", max_workers=1)
        server, _thread = start_server(service)
        try:
            client = ProFIPyClient(server.url)
            job = client.submit_campaign(make_config(
                toy_project, toy_model, FAILING_SERVICE, tmp_path, "job",
                cache=None,
            ))
            assert job.status == FAILED
            assert "coverage pre-run failed: a service process exited " \
                "during startup" in job.error
        finally:
            server.shutdown()
            service.close()
        assert coverage_entries(tmp_path / "ws" / "scan_cache") == []


class TestEntries:
    @pytest.mark.parametrize("content", [
        "{not json",
        json.dumps({"version": COVERAGE_FORMAT_VERSION + 1,
                    "covered": ["WRR:app.py:1"]}),
        json.dumps({"version": COVERAGE_FORMAT_VERSION,
                    "covered": "WRR:app.py:1"}),
        json.dumps(["WRR:app.py:1"]),
        json.dumps({"version": 1, "covered": ["WRR:app.py:1"]}),
        json.dumps({"version": COVERAGE_FORMAT_VERSION,
                    "covered": ["WRR:app.py:1"],
                    "reached": {"WRR:app.py:1": -1.0}, "seconds": 1.0}),
        json.dumps({"version": COVERAGE_FORMAT_VERSION,
                    "covered": ["WRR:app.py:1"], "reached": {}}),
    ], ids=["corrupt", "old-version", "bad-covered", "not-an-object",
            "v1-entry", "negative-reach", "no-seconds"])
    def test_malformed_entry_is_a_miss(
            self, content, toy_project, toy_model, toy_workload, tmp_path,
            coverage_runs):
        _, first = run(make_config(toy_project, toy_model, toy_workload,
                                   tmp_path, "first"))
        [entry] = coverage_entries(tmp_path / "cache")
        entry.write_text(content, encoding="utf-8")

        _, second = run(make_config(toy_project, toy_model, toy_workload,
                                    tmp_path, "second"))
        assert len(coverage_runs) == 2
        assert not second.coverage.reused
        assert second.coverage == first.coverage
        # The rerun rewrote a valid entry.
        assert json.loads(entry.read_text())["covered"] == ["WRR:app.py:0"]

    def test_service_tenant_cache_holds_the_covered_set(
            self, toy_project, toy_model, toy_workload, tmp_path):
        service = ProFIPyService(tmp_path / "ws", max_workers=1)
        try:
            for label in ("first", "second"):
                job = service.submit_campaign(make_config(
                    toy_project, toy_model, toy_workload, tmp_path, label,
                    cache=None,
                ), block=True)
                assert job.status == COMPLETED, job.error
        finally:
            service.close()
        cache = ScanCache(tmp_path / "ws" / "scan_cache")
        [entry] = coverage_entries(cache.cache_dir)
        key = entry.name[len("coverage-"):-len(".json")]
        stored = cache.lookup_coverage(key)
        assert (stored["version"], stored["covered"]) == (
            COVERAGE_FORMAT_VERSION, ["WRR:app.py:0"])
        assert set(stored["reached"]) == {"WRR:app.py:0"}
        assert stored["reached"]["WRR:app.py:0"] <= stored["seconds"]
