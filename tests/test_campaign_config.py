"""Tests for campaign configuration, filters, and result summaries."""

import pytest

from repro.analysis.report import CampaignReport, summary_table
from repro.orchestrator.campaign import Campaign, CampaignConfig, CampaignResult
from repro.orchestrator.coverage import CoverageReport
from repro.orchestrator.experiment import ExperimentResult


class TestConfigValidation:
    def test_missing_target_rejected(self, toy_model, toy_workload,
                                     tmp_path):
        # Construction is lazy about the filesystem (a config may name a
        # tree that only exists as a manifest, or round-trip through the
        # API on another host); the clear error moves to scan/run time.
        config = CampaignConfig(
            name="x", target_dir=tmp_path / "nope",
            fault_model=toy_model, workload=toy_workload,
        )
        campaign = Campaign(config)
        with pytest.raises(FileNotFoundError, match="target_dir"):
            campaign.scan()
        with pytest.raises(FileNotFoundError, match="target_dir"):
            campaign.run()

    def test_defaults(self, toy_project, toy_model, toy_workload):
        config = CampaignConfig(
            name="x", target_dir=toy_project,
            fault_model=toy_model, workload=toy_workload,
        )
        assert config.trigger is True
        assert config.rounds == 2
        assert config.coverage is True
        assert config.sample is None
        assert config.scan_jobs is None
        assert config.scan_cache_dir is None
        assert config.backend == "thread"
        assert config.shards == 1

    def test_unknown_backend_rejected(self, toy_project, toy_model,
                                      toy_workload):
        with pytest.raises(ValueError, match="unknown execution backend"):
            CampaignConfig(
                name="x", target_dir=toy_project,
                fault_model=toy_model, workload=toy_workload,
                backend="quantum",
            )

    def test_invalid_shard_count_rejected(self, toy_project, toy_model,
                                          toy_workload):
        with pytest.raises(ValueError, match="shards must be >= 1"):
            CampaignConfig(
                name="x", target_dir=toy_project,
                fault_model=toy_model, workload=toy_workload,
                shards=0,
            )

    @pytest.mark.parametrize("sampling", [5, [1], "all"])
    def test_malformed_sampling_rejected(self, toy_project, toy_model,
                                         toy_workload, sampling):
        # Regression: a non-dict sampling block was kept as-is, so the
        # service accepted the campaign and it failed at run time.
        with pytest.raises(ValueError, match="sampling must be"):
            CampaignConfig(
                name="x", target_dir=toy_project,
                fault_model=toy_model, workload=toy_workload,
                sampling=sampling,
            )

    def test_wire_round_trip_preserves_execution_policy(
            self, toy_project, toy_model, toy_workload):
        from repro.service.api import (
            campaign_config_from_dict,
            campaign_config_to_dict,
        )

        config = CampaignConfig(
            name="x", target_dir=toy_project,
            fault_model=toy_model, workload=toy_workload,
            backend="process", shards=4,
        )
        clone = campaign_config_from_dict(campaign_config_to_dict(config))
        assert clone.backend == "process"
        assert clone.shards == 4
        assert clone.workers is None

        remote = CampaignConfig(
            name="x", target_dir=toy_project,
            fault_model=toy_model, workload=toy_workload,
            backend="remote", shards=2,
            workers=["http://a:8081", "http://b:8081"],
        )
        clone = campaign_config_from_dict(campaign_config_to_dict(remote))
        assert clone.backend == "remote"
        assert clone.workers == ["http://a:8081", "http://b:8081"]

    def test_relative_workspace_resolved(self, toy_project, toy_model,
                                         toy_workload, tmp_path,
                                         monkeypatch):
        # Regression: sandboxed workloads run with their own cwd, so a
        # relative workspace (the CLI default) broke coverage/trigger
        # paths — the config must absolutize it up front.
        monkeypatch.chdir(tmp_path)
        config = CampaignConfig(
            name="x", target_dir=toy_project,
            fault_model=toy_model, workload=toy_workload,
            workspace="relative-ws",
        )
        assert config.workspace.is_absolute()
        assert config.workspace == tmp_path / "relative-ws"


class TestCampaignScan:
    def test_scan_all_files_by_default(self, toy_project, toy_model,
                                       toy_workload):
        config = CampaignConfig(
            name="x", target_dir=toy_project,
            fault_model=toy_model, workload=toy_workload,
        )
        scan = Campaign(config).scan()
        # app.py has 2 return points; run.py has none matching.
        assert len(scan.points) == 2
        assert scan.files_scanned == 2

    def test_scan_restricted_files(self, toy_project, toy_model,
                                   toy_workload):
        config = CampaignConfig(
            name="x", target_dir=toy_project,
            fault_model=toy_model, workload=toy_workload,
            injectable_files=["app.py"],
        )
        scan = Campaign(config).scan()
        assert scan.files_scanned == 1

    @pytest.mark.integration
    def test_spec_filter_limits_plan(self, toy_project, toy_model,
                                     toy_workload, tmp_path):
        config = CampaignConfig(
            name="x", target_dir=toy_project,
            fault_model=toy_model, workload=toy_workload,
            injectable_files=["app.py"],
            spec_filter=["NOT_A_SPEC"],
            coverage=False,
            parallelism=1,
            workspace=tmp_path / "ws",
        )
        result = Campaign(config).run()
        assert result.points_found == 2
        assert result.points_planned == 0
        assert result.executed == 0


class TestCampaignResult:
    def build(self):
        result = CampaignResult(name="demo", points_found=10,
                                points_planned=4)
        result.coverage = CoverageReport(covered={"a", "b", "c", "d"},
                                         total=10)
        from repro.workload.runner import RoundResult

        ok = ExperimentResult(experiment_id="e1", point={})
        ok.rounds.append(RoundResult(round_no=1, fault_enabled=True))
        ok.rounds.append(RoundResult(round_no=2, fault_enabled=False))
        failed = ExperimentResult(experiment_id="e2", point={},
                                  status="harness_error", error="x")
        result.experiments = [ok, failed]
        return result

    def test_summary_fields(self):
        summary = self.build().summary()
        assert summary["campaign"] == "demo"
        assert summary["points_found"] == 10
        assert summary["points_covered"] == 4
        assert summary["experiments"] == 2

    def test_failures_include_harness_errors(self):
        result = self.build()
        assert [e.experiment_id for e in result.failures] == ["e2"]

    def test_summary_table_renders_rows(self):
        reports = [CampaignReport(self.build())]
        text = summary_table(reports)
        assert "demo" in text
        assert "available r2" in text

    def test_coverage_ratio(self):
        report = CoverageReport(covered={"a"}, total=4)
        assert report.ratio == 0.25
        assert CoverageReport().ratio == 0.0
