"""Streaming result sink: JSONL append, crash tolerance, campaign resume."""

import json
import shutil

import pytest

from repro.orchestrator.campaign import Campaign, CampaignConfig
from repro.orchestrator.experiment import ExperimentResult
from repro.orchestrator.stream import ExperimentStream, read_complete_lines
from repro.service import COMPLETED, ProFIPyService


def make_result(experiment_id, **kwargs):
    return ExperimentResult(experiment_id=experiment_id, point={}, **kwargs)


class TestExperimentStream:
    def test_append_and_load_roundtrip(self, tmp_path):
        stream = ExperimentStream(tmp_path / "experiments.jsonl")
        stream.append(make_result("e1", seed=42, error="boom"))
        stream.append(make_result("e2"))
        loaded = stream.load()
        assert [e.experiment_id for e in loaded] == ["e1", "e2"]
        assert loaded[0].seed == 42
        assert loaded[0].error == "boom"
        assert len(stream) == 2
        assert stream.recorded_ids() == {"e1", "e2"}

    def test_missing_file_is_empty(self, tmp_path):
        stream = ExperimentStream(tmp_path / "nope.jsonl")
        assert stream.load() == []
        assert stream.recorded_ids() == set()

    def test_truncated_trailing_line_skipped(self, tmp_path):
        path = tmp_path / "experiments.jsonl"
        stream = ExperimentStream(path)
        stream.append(make_result("e1"))
        # Simulate a process killed mid-write: a half-written JSON line.
        with open(path, "a", encoding="utf-8") as handle:
            handle.write('{"experiment_id": "e2", "poi')
        assert stream.recorded_ids() == {"e1"}
        assert [e.experiment_id for e in stream.load()] == ["e1"]

    def test_append_after_truncated_line_not_corrupted(self, tmp_path):
        # Regression: appending after a crash-truncated line (no trailing
        # newline) must not glue the new record onto the partial one.
        path = tmp_path / "experiments.jsonl"
        stream = ExperimentStream(path)
        stream.append(make_result("e1"))
        with open(path, "a", encoding="utf-8") as handle:
            handle.write('{"experiment_id": "e2", "poi')
        stream.append(make_result("e3"))
        assert stream.recorded_ids() == {"e1", "e3"}

    def test_clear(self, tmp_path):
        stream = ExperimentStream(tmp_path / "experiments.jsonl")
        stream.append(make_result("e1"))
        stream.clear()
        assert stream.load() == []
        stream.clear()  # idempotent on a missing file

    def test_last_record_wins_for_duplicate_ids(self, tmp_path):
        stream = ExperimentStream(tmp_path / "experiments.jsonl")
        stream.append(make_result("e1", status="harness_error",
                                  error="sandbox died"))
        stream.append(make_result("e1", status="completed"))
        [loaded] = stream.load()
        assert loaded.status == "completed"
        assert len(stream) == 1

    def test_harness_errors_not_in_resume_set(self, tmp_path):
        # Harness errors are infrastructure failures: a resumed campaign
        # should retry them, not carry them forward forever.
        stream = ExperimentStream(tmp_path / "experiments.jsonl")
        stream.append(make_result("ok", status="completed"))
        stream.append(make_result("broken", status="harness_error"))
        assert stream.recorded_ids() == {"ok"}
        # ...unless a later (retried) record superseded the error.
        stream.append(make_result("broken", status="completed"))
        assert stream.recorded_ids() == {"ok", "broken"}

    def test_meta_roundtrip_and_skipped_by_readers(self, tmp_path):
        stream = ExperimentStream(tmp_path / "experiments.jsonl")
        assert stream.read_meta() is None
        stream.write_meta({"seed": 7})
        stream.append(make_result("e1"))
        assert stream.read_meta() == {"seed": 7}
        assert stream.recorded_ids() == {"e1"}
        assert len(stream) == 1


@pytest.mark.parametrize("content, offset, expected", [
    (b'{"a": 1}\n{"b": 2}\n{"c"', 0, b'{"a": 1}\n{"b": 2}\n'),
    (b'{"a": 1}\n{"b": 2}\n{"c"', 9, b'{"b": 2}\n'),
    (b'{"a": 1}\n{"b"', 9, b""),
    (b'{"a": 1}\n', 100, b""),
    (None, 0, b""),
], ids=["partial-trailing-line", "from-offset", "nothing-complete",
        "offset-past-end", "missing-file"])
def test_read_complete_lines(tmp_path, content, offset, expected):
    path = tmp_path / "experiments.jsonl"
    if content is not None:
        path.write_bytes(content)
    assert read_complete_lines(path, offset) == expected


@pytest.mark.integration
class TestCampaignStreaming:
    def config(self, toy_project, toy_model, toy_workload, workspace,
               **kwargs):
        return CampaignConfig(
            name="resume",
            target_dir=toy_project,
            fault_model=toy_model,
            workload=toy_workload,
            injectable_files=["app.py"],
            coverage=False,
            parallelism=1,
            workspace=workspace,
            **kwargs,
        )

    def test_results_streamed_to_workspace(self, toy_project, toy_model,
                                           toy_workload, tmp_path):
        config = self.config(toy_project, toy_model, toy_workload,
                             tmp_path / "ws")
        result = Campaign(config).run()
        assert result.experiments_path == tmp_path / "ws" / \
            "experiments.jsonl"
        assert result.experiments_path.exists()
        streamed = ExperimentStream(result.experiments_path).load()
        assert len(streamed) == 2
        assert result.executed == 2
        assert result.resumed == 0

    def test_resume_skips_recorded_experiments(self, toy_project, toy_model,
                                               toy_workload, tmp_path):
        workspace = tmp_path / "ws"
        workspace.mkdir()
        # Simulate a campaign killed after its first experiment: the
        # stream already records resume-0001 (with a marker we can trace).
        pre = make_result("resume-0001", error="PRERECORDED")
        ExperimentStream(workspace / "experiments.jsonl").append(pre)

        config = self.config(toy_project, toy_model, toy_workload, workspace)
        result = Campaign(config).run()
        assert result.resumed == 1
        assert result.executed == 2
        by_id = {e.experiment_id: e for e in result.experiments}
        assert by_id["resume-0001"].error == "PRERECORDED"  # not re-run
        assert by_id["resume-0002"].completed

    def test_resume_retries_harness_errors(self, toy_project, toy_model,
                                           toy_workload, tmp_path):
        workspace = tmp_path / "ws"
        workspace.mkdir()
        pre = make_result("resume-0001", status="harness_error",
                          error="sandbox machinery died")
        ExperimentStream(workspace / "experiments.jsonl").append(pre)

        config = self.config(toy_project, toy_model, toy_workload, workspace)
        result = Campaign(config).run()
        assert result.resumed == 0  # the broken record did not count
        by_id = {e.experiment_id: e for e in result.experiments}
        assert by_id["resume-0001"].completed  # retried and superseded

    def test_resume_rejects_mismatched_campaign(self, toy_project, toy_model,
                                                toy_workload, tmp_path):
        workspace = tmp_path / "ws"
        config = self.config(toy_project, toy_model, toy_workload, workspace,
                             seed=1)
        Campaign(config).run()
        changed = self.config(toy_project, toy_model, toy_workload,
                              workspace, seed=2)
        with pytest.raises(ValueError, match="different campaign.*seed"):
            Campaign(changed).run()
        # The explicit escape hatch still works and replaces the stream.
        rerun = self.config(toy_project, toy_model, toy_workload, workspace,
                            seed=2, resume=False)
        result = Campaign(rerun).run()
        assert result.resumed == 0
        assert result.executed == 2

    def test_no_resume_reruns_everything(self, toy_project, toy_model,
                                         toy_workload, tmp_path):
        workspace = tmp_path / "ws"
        workspace.mkdir()
        pre = make_result("resume-0001", error="PRERECORDED")
        ExperimentStream(workspace / "experiments.jsonl").append(pre)

        config = self.config(toy_project, toy_model, toy_workload, workspace,
                             resume=False)
        result = Campaign(config).run()
        assert result.resumed == 0
        by_id = {e.experiment_id: e for e in result.experiments}
        assert by_id["resume-0001"].error != "PRERECORDED"

    def test_temp_workspace_results_survive_cleanup(self, toy_project,
                                                    toy_model, toy_workload):
        # Owned temporary workspace is deleted after the run; the results
        # must have been materialized before the stream file vanished.
        config = CampaignConfig(
            name="resume", target_dir=toy_project, fault_model=toy_model,
            workload=toy_workload, injectable_files=["app.py"],
            coverage=False, parallelism=1,
        )
        result = Campaign(config).run()
        assert result.workspace is None
        assert result.experiments_path is None
        assert result.executed == 2

    def test_keep_artifacts_surfaces_workspace(self, toy_project, toy_model,
                                               toy_workload):
        config = CampaignConfig(
            name="resume", target_dir=toy_project, fault_model=toy_model,
            workload=toy_workload, injectable_files=["app.py"],
            coverage=False, parallelism=1, keep_artifacts=True,
        )
        result = Campaign(config).run()
        try:
            assert result.workspace is not None
            assert result.workspace.exists()
            assert result.artifacts_dir is not None
            assert result.artifacts_dir.exists()
            assert result.experiments_path.exists()
            summary = result.summary()
            assert summary["workspace"] == str(result.workspace)
            assert summary["artifacts_dir"] == str(result.artifacts_dir)
        finally:
            shutil.rmtree(result.workspace, ignore_errors=True)


@pytest.mark.integration
class TestServiceResume:
    def test_killed_job_resumes_without_rerunning(self, tmp_path,
                                                  toy_project, toy_model,
                                                  toy_workload):
        service = ProFIPyService(tmp_path / "ws")
        config = CampaignConfig(
            name="toy",
            target_dir=toy_project,
            fault_model=toy_model,
            workload=toy_workload,
            injectable_files=["app.py"],
            coverage=False,
            parallelism=1,
            workspace=tmp_path / "campaign-ws1",
        )
        first = service.submit_campaign(config, block=True)
        assert first.status == COMPLETED, first.error
        stream_path = first.directory / "experiments.jsonl"
        lines = stream_path.read_text(encoding="utf-8").splitlines()
        # One campaign-metadata line plus two experiment records.
        assert len(lines) == 3
        assert "meta" in json.loads(lines[0])

        # Simulate the job having been killed mid-campaign: only the
        # first experiment made it to the stream, plus a half-written
        # line from the in-flight second one.
        stream_path.write_text(lines[0] + "\n" + lines[1] + "\n"
                               + lines[2][:25], encoding="utf-8")

        second = service.submit_campaign(
            config, block=True, resume_from=first.job_id,
        )
        assert second.status == COMPLETED, second.error
        assert second.job_id != first.job_id
        summary = service.result_summary(second.job_id)
        assert summary["resumed"] == 1
        assert summary["experiments"] == 2
        # The carried-over experiment is byte-identical to the original
        # record: it was copied from the stream, not re-executed.
        resumed_lines = (second.directory / "experiments.jsonl") \
            .read_text(encoding="utf-8").splitlines()
        assert lines[1] in resumed_lines
        experiments = service.experiments(second.job_id)
        assert [e.experiment_id for e in experiments] == \
            ["toy-0001", "toy-0002"]
        first_id = json.loads(lines[1])["experiment_id"]
        assert first_id == "toy-0001"
