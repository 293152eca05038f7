"""Contract tests: ProFIPyService (in-process) and ProFIPyClient (HTTP)
must be interchangeable.

Every test here runs against *both* facades through one parametrized
fixture — same calls, same return types, same exception types — and the
equivalence tests run the same campaign through both transports and
require identical job lifecycles, summaries, and experiment lists (the
PR acceptance criterion).  Cancellation over either transport leaves a
partial result stream that a follow-up ``resume_from`` completes
byte-identically to an uninterrupted run (the PR 2 determinism
invariant).

The ``*-auth`` fixture params rerun the whole contract with tenancy
enabled: the in-process facade becomes ``service.for_tenant(...)`` and
the HTTP client authenticates with a bearer token — the lifecycle,
summaries, experiment lists, and the cancel+resume determinism
invariant must all survive authentication unchanged.
"""

import re
import textwrap
import time

import pytest

from repro.common.fsutil import read_json
from repro.faultmodel.library import gswfit_model
from repro.orchestrator.campaign import CampaignConfig
from repro.service.api import (
    campaign_config_from_dict,
    campaign_config_to_dict,
)
from repro.service.client import ProFIPyClient
from repro.service.http import start_server
from repro.service.service import ProFIPyService
from repro.service.tenants import TenantDirectory

#: The tenant the ``*-auth`` fixture params run the contract as.
CONTRACT_TENANT = "contract"
CONTRACT_TOKEN = "contract-secret-token"

#: Experiment fields that must be byte-identical across transports and
#: across cancel+resume (timing fields like duration legitimately vary).
DETERMINISTIC_FIELDS = ("experiment_id", "point", "fault_id", "spec_name",
                        "seed", "status", "original_snippet",
                        "mutated_snippet")


def deterministic_view(experiments):
    return [
        {field: experiment.to_dict()[field]
         for field in DETERMINISTIC_FIELDS}
        for experiment in experiments
    ]


@pytest.fixture(params=["inprocess", "http", "inprocess-auth", "http-auth"])
def facade_factory(request):
    """Builds a service facade over a workspace: the in-process core or
    an HTTP client talking to a server running that same core.  The
    ``-auth`` variants run the identical contract as a configured
    tenant (scoped in-process view / bearer-token client)."""
    servers = []
    auth = request.param.endswith("-auth")

    def factory(workspace, max_workers=2):
        tenants = None
        if auth:
            tenants = TenantDirectory.from_dict({"tenants": {
                CONTRACT_TENANT: {"token": CONTRACT_TOKEN,
                                  "max_running": max_workers},
            }})
        service = ProFIPyService(workspace, max_workers=max_workers,
                                 tenants=tenants)
        if request.param.startswith("inprocess"):
            return service.for_tenant(CONTRACT_TENANT) if auth else service
        server, _thread = start_server(service)
        servers.append((server, service))
        return ProFIPyClient(server.url,
                             token=CONTRACT_TOKEN if auth else None)

    yield factory
    for server, service in servers:
        server.shutdown()
        service.close()


class TestModelRegistryContract:
    def test_save_load_list(self, tmp_path, facade_factory):
        facade = facade_factory(tmp_path / "ws")
        model = gswfit_model()
        model.name = "custom"
        facade.save_model(model)
        assert "custom" in facade.list_models()
        assert len(facade.load_model("custom").faults) == len(model.faults)

    @pytest.mark.parametrize("name", ["my model", "a?b", "a#b", "café",
                                      "a%41"])
    def test_names_that_need_percent_encoding(self, tmp_path,
                                              facade_factory, name):
        # Regression: the client put path parameters into the URL raw,
        # so these names failed over HTTP (InvalidURL, a name cut at
        # '?'/'#', UnicodeEncodeError) while working in-process.
        facade = facade_factory(tmp_path / "ws")
        model = gswfit_model()
        model.name = name
        facade.save_model(model)
        assert name in facade.stored_models()
        assert facade.load_model(name).name == name

    def test_predefined_fallback(self, tmp_path, facade_factory):
        facade = facade_factory(tmp_path / "ws")
        assert facade.load_model("extended").name == "extended"

    def test_list_models_includes_predefined(self, tmp_path,
                                             facade_factory):
        # Regression: list_models used to hide the pre-defined models,
        # so GET /v1/models omitted names load_model happily resolved.
        facade = facade_factory(tmp_path / "ws")
        names = facade.list_models()
        assert "gswfit" in names and "extended" in names
        for name in names:
            assert facade.load_model(name).name == name

    def test_stored_model_shadows_predefined_in_listing(
            self, tmp_path, facade_factory):
        # One name, one listing entry: a stored model of the same name
        # shadows the pre-defined one instead of duplicating it.
        facade = facade_factory(tmp_path / "ws")
        shadow = gswfit_model()
        shadow.name = "extended"
        shadow.description = "stored shadow"
        facade.save_model(shadow)
        names = facade.list_models()
        assert names.count("extended") == 1
        assert facade.load_model("extended").description == "stored shadow"

    def test_unknown_model_raises_keyerror(self, tmp_path, facade_factory):
        facade = facade_factory(tmp_path / "ws")
        with pytest.raises(KeyError, match="unknown fault model"):
            facade.load_model("nope")

    def test_import_model(self, tmp_path, facade_factory):
        path = tmp_path / "custom.json"
        model = gswfit_model()
        model.name = "custom"
        model.save(path)
        facade = facade_factory(tmp_path / "ws")
        imported = facade.import_model(path)
        assert imported.name == "custom"
        assert "custom" in facade.list_models()


class TestJobSurfaceContract:
    def test_unknown_job_raises_keyerror(self, tmp_path, facade_factory):
        facade = facade_factory(tmp_path / "ws")
        for call in (facade.job, facade.report_text, facade.result_summary,
                     facade.experiments, facade.cancel):
            with pytest.raises(KeyError):
                call("job-9999")

    def test_list_jobs_empty(self, tmp_path, facade_factory):
        facade = facade_factory(tmp_path / "ws")
        assert facade.list_jobs() == []


@pytest.mark.integration
class TestCampaignContract:
    def campaign_config(self, toy_project, toy_model, toy_workload,
                        name="toy"):
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

    def test_campaign_lifecycle(self, tmp_path, facade_factory,
                                toy_project, toy_model, toy_workload):
        facade = facade_factory(tmp_path / "ws")
        config = self.campaign_config(toy_project, toy_model, toy_workload)
        job = facade.submit_campaign(config, block=True)
        assert job.status == "completed", job.error
        assert job.started_at is not None and job.finished_at is not None
        summary = facade.result_summary(job.job_id)
        assert summary["points_found"] == 2
        assert summary["experiments"] == 2
        assert "Campaign summary" in facade.report_text(job.job_id)
        experiments = facade.experiments(job.job_id)
        assert [e.experiment_id for e in experiments] == \
            sorted(e.experiment_id for e in experiments)
        assert len(experiments) == 2

    def test_job_progress_exposed(self, tmp_path, facade_factory,
                                  toy_project, toy_model, toy_workload):
        # Shard-aware progress rides the job view identically over both
        # transports: after a completed campaign the final snapshot shows
        # every experiment done and every shard completed.
        facade = facade_factory(tmp_path / "ws")
        config = self.campaign_config(toy_project, toy_model, toy_workload)
        job = facade.submit_campaign(config, block=True)
        assert job.status == "completed", job.error
        progress = facade.job(job.job_id).progress
        assert progress is not None
        assert progress["backend"] == "thread"
        assert progress["experiments_done"] == 2
        assert progress["experiments_total"] == 2
        assert {entry["state"] for entry in progress["shards"]} == \
            {"completed"}
        [listed] = [item for item in facade.list_jobs()
                    if item.job_id == job.job_id]
        assert listed.progress == progress
        # wait() on a finished job returns the same snapshot too (the
        # natural submit-then-wait flow must not lose progress).
        assert facade.wait(job.job_id, timeout=10).progress == progress

    def test_async_submit_then_wait(self, tmp_path, facade_factory,
                                    toy_project, toy_model, toy_workload):
        facade = facade_factory(tmp_path / "ws")
        config = self.campaign_config(toy_project, toy_model, toy_workload)
        job = facade.submit_campaign(config, block=False)
        assert job.status in ("queued", "running")
        finished = facade.wait(job.job_id, timeout=120)
        assert finished.status == "completed", finished.error
        assert facade.job(job.job_id).status == "completed"

    def test_regression_tests_materialize_locally(
            self, tmp_path, facade_factory, toy_project, toy_model,
            toy_workload):
        facade = facade_factory(tmp_path / "ws")
        config = self.campaign_config(toy_project, toy_model, toy_workload)
        job = facade.submit_campaign(config, block=True)
        assert job.status == "completed", job.error
        dest = tmp_path / "regressions"
        written = facade.generate_regression_tests(job.job_id, dest)
        assert written, "the toy fault always fails round 1"
        for path in written:
            assert path.parent == dest
            text = path.read_text(encoding="utf-8")
            assert "CAMPAIGN_SEED" in text and "EXPERIMENT_ID" in text


@pytest.mark.integration
class TestPersistedConfigContract:
    """Regression: ``<job_dir>/config.json`` used to be a hand-rolled
    subset that silently dropped ``sampling``, ``image_manifest``,
    ``scan_incremental``, ``registry_url``, and the scan-cache knobs —
    audits and ``generate_regression_tests`` saw a config that never
    existed.  The full wire form must persist, plus resume provenance.
    """

    def test_config_json_is_complete_wire_form(
            self, tmp_path, toy_project, toy_model, toy_workload):
        service = ProFIPyService(tmp_path / "ws", max_workers=1)
        config = CampaignConfig(
            name="audit",
            target_dir=toy_project,
            fault_model=toy_model,
            workload=toy_workload,
            injectable_files=["app.py"],
            coverage=False,
            parallelism=1,
            seed=7,
            scan_incremental=False,
            sampling={"max_experiments": 2, "min_experiments": 1},
        )
        job = service.submit_campaign(config, block=True)
        assert job.status == "completed", job.error
        persisted = read_json(job.directory / "config.json")
        # Every wire-form field is present — especially the ones the
        # old subset dropped.
        for key in campaign_config_to_dict(config):
            assert key in persisted, f"config.json dropped {key!r}"
        assert persisted["scan_incremental"] is False
        assert persisted["sampling"]["max_experiments"] == 2
        assert persisted["resumed_from"] is None
        # And it round-trips into a runnable config with the same
        # campaign-defining fields.
        rebuilt = campaign_config_from_dict(persisted)
        assert rebuilt.seed == config.seed
        assert rebuilt.scan_incremental is False
        assert rebuilt.sampling.max_experiments == 2
        assert rebuilt.fault_model.to_dict() == toy_model.to_dict()
        assert rebuilt.workload.to_dict() == toy_workload.to_dict()

    def test_config_json_records_resume_provenance(
            self, tmp_path, toy_project, toy_model, toy_workload):
        service = ProFIPyService(tmp_path / "ws", max_workers=1)
        config = CampaignConfig(
            name="prov",
            target_dir=toy_project,
            fault_model=toy_model,
            workload=toy_workload,
            injectable_files=["app.py"],
            coverage=False,
            parallelism=1,
            seed=7,
        )
        first = service.submit_campaign(config, block=True)
        assert first.status == "completed", first.error
        resumed = service.submit_campaign(config, block=True,
                                          resume_from=first.job_id)
        assert resumed.status == "completed", resumed.error
        persisted = read_json(resumed.directory / "config.json")
        assert persisted["resumed_from"] == first.job_id


@pytest.mark.integration
class TestTransportEquivalence:
    """The same campaign through both transports is byte-identical."""

    def run_campaign(self, facade, workspace_unused, toy_project, toy_model,
                     toy_workload):
        config = CampaignConfig(
            name="equiv",
            target_dir=toy_project,
            fault_model=toy_model,
            workload=toy_workload,
            injectable_files=["app.py"],
            coverage=False,
            parallelism=1,
            seed=7,
        )
        job = facade.submit_campaign(config, block=True)
        assert job.status == "completed", job.error
        return (facade.result_summary(job.job_id),
                facade.experiments(job.job_id),
                facade.report_text(job.job_id))

    def test_summaries_experiments_reports_identical(
            self, tmp_path, toy_project, toy_model, toy_workload):
        inprocess = ProFIPyService(tmp_path / "ws-local", max_workers=2)
        summary_local, experiments_local, report_local = self.run_campaign(
            inprocess, None, toy_project, toy_model, toy_workload
        )
        remote_core = ProFIPyService(tmp_path / "ws-remote", max_workers=2)
        server, _thread = start_server(remote_core)
        try:
            client = ProFIPyClient(server.url)
            summary_http, experiments_http, report_http = self.run_campaign(
                client, None, toy_project, toy_model, toy_workload
            )
        finally:
            server.shutdown()
            remote_core.close()
        def normalize(report):
            # Only wall-clock figures may differ between transports.
            return re.sub(r"\d+(\.\d+)?(?= (experiments/s|s\)))", "T",
                          report)

        assert summary_local == summary_http
        assert normalize(report_local) == normalize(report_http)
        assert deterministic_view(experiments_local) == \
            deterministic_view(experiments_http)


@pytest.mark.integration
class TestCancelAndResumeContract:
    """A cancelled campaign leaves a partial stream; resume_from
    completes it byte-identically (over either transport)."""

    POINTS = 6

    @pytest.fixture
    def slow_project(self, tmp_path):
        project = tmp_path / "slow-target"
        project.mkdir()
        functions = "\n\n".join(
            textwrap.dedent(
                f"""
                def compute_{index}(x):
                    steps = []
                    steps.append('start')
                    result = x * 2
                    steps.append('done')
                    return result
                """
            ).strip()
            for index in range(self.POINTS)
        )
        (project / "app.py").write_text(functions + "\n", encoding="utf-8")
        (project / "run.py").write_text(textwrap.dedent(
            """
            import sys
            import time

            import app

            time.sleep(0.3)
            failures = []
            for index in range(%d):
                value = getattr(app, f"compute_{index}")(3)
                if value != 6:
                    failures.append(index)
            if failures:
                print("WORKLOAD FAILURE:", failures, file=sys.stderr)
                sys.exit(1)
            print("WORKLOAD SUCCESS")
            """ % self.POINTS
        ).strip() + "\n", encoding="utf-8")
        return project

    def slow_config(self, project, toy_model):
        from repro.workload.spec import WorkloadSpec

        return CampaignConfig(
            name="cancellable",
            target_dir=project,
            fault_model=toy_model,
            workload=WorkloadSpec(commands=["{python} run.py"],
                                  command_timeout=30.0),
            injectable_files=["app.py"],
            coverage=False,
            parallelism=1,
            seed=11,
        )

    def wait_for_first_record(self, facade, job_id, deadline=90.0):
        started = time.monotonic()
        while time.monotonic() - started < deadline:
            # No stream yet is an empty list over both transports.
            if facade.experiments(job_id):
                return
            time.sleep(0.1)
        raise AssertionError("no experiment recorded before the deadline")

    def test_cancel_then_resume_completes_byte_identically(
            self, tmp_path, facade_factory, toy_model, slow_project):
        facade = facade_factory(tmp_path / "ws")
        config = self.slow_config(slow_project, toy_model)

        # Reference: the same campaign, uninterrupted.
        reference_job = facade.submit_campaign(config, block=True)
        assert reference_job.status == "completed", reference_job.error
        reference = facade.experiments(reference_job.job_id)
        assert len(reference) == self.POINTS

        # Cancel mid-campaign: at least one experiment recorded, then
        # the job lands in `cancelled` with a partial stream.
        victim = facade.submit_campaign(config, block=False)
        self.wait_for_first_record(facade, victim.job_id)
        facade.cancel(victim.job_id)
        cancelled = facade.wait(victim.job_id, timeout=120)
        assert cancelled.status == "cancelled"
        partial = facade.experiments(victim.job_id)
        assert 1 <= len(partial) <= self.POINTS
        # The partial results are already byte-identical to the
        # reference prefix (determinism is per-experiment).
        by_id = {e.experiment_id: e for e in reference}
        assert deterministic_view(partial) == deterministic_view(
            [by_id[e.experiment_id] for e in partial]
        )

        # Resume: only the remainder executes; the final stream matches
        # the uninterrupted run byte-for-byte on deterministic fields.
        resumed_job = facade.submit_campaign(config, block=True,
                                             resume_from=victim.job_id)
        assert resumed_job.status == "completed", resumed_job.error
        resumed = facade.experiments(resumed_job.job_id)
        assert len(resumed) == self.POINTS
        assert deterministic_view(resumed) == deterministic_view(reference)
        summary = facade.result_summary(resumed_job.job_id)
        assert summary["resumed"] == len(partial)

    def test_cancel_queued_campaign(self, tmp_path, facade_factory,
                                    toy_model, slow_project):
        facade = facade_factory(tmp_path / "ws", max_workers=1)
        config = self.slow_config(slow_project, toy_model)
        running = facade.submit_campaign(config, block=False)
        queued = facade.submit_campaign(config, block=False)
        assert facade.job(queued.job_id).status == "queued"
        cancelled = facade.cancel(queued.job_id)
        assert cancelled.status == "cancelled"
        # The running campaign is unaffected; cancel it too for a quick
        # teardown and check it persists a partial (possibly empty) job.
        facade.cancel(running.job_id)
        final = facade.wait(running.job_id, timeout=120)
        assert final.status in ("cancelled", "completed")
