"""Pipelined sharded execution: backends, merging, recovery, progress.

The tentpole invariants under test:

* pipelined per-``(file, spec)`` mutant generation reads each file once,
  holds one group at a time, and turns a mutant it cannot generate into
  a ``harness_error`` for just that experiment;
* the same campaign seed yields identical per-experiment ``point``,
  ``mutated_snippet``, and ``seed`` across ``ThreadBackend`` vs
  ``ProcessBackend`` and shard counts {1, 4};
* a campaign killed mid-run under one backend/shard count resumes under
  another, and the merged canonical stream records exactly the same
  experiments as an uninterrupted run.
"""

import json
import os
import signal
import subprocess
import sys
import textwrap
import time
from pathlib import Path

import pytest

import repro
from repro.mutator.mutate import Mutation
from repro.orchestrator.backends import (
    ShardProgress,
    create_backend,
    discard_shard_streams,
    leftover_shard_streams,
    recover_shard_streams,
    shard_stream_path,
)
from repro.orchestrator.campaign import Campaign, CampaignConfig
from repro.orchestrator.executor import ExperimentExecutor
from repro.orchestrator.plan import Plan
from repro.orchestrator.stream import ExperimentStream
from repro.sandbox.image import SandboxImage
from repro.scanner.scan import scan_file

SRC_DIR = str(Path(repro.__file__).resolve().parent.parent)


# -- pipelined generation ----------------------------------------------------------


class TestPipelinedGeneration:
    def build_executor(self, toy_project, toy_model, tmp_path):
        models = {m.name: m for m in toy_model.compile()}
        scan = scan_file(toy_project / "app.py", toy_model.compile(),
                         root=toy_project)
        plan = Plan.from_points(scan.points)
        image = SandboxImage.build(toy_project, tmp_path / "image")
        executor = ExperimentExecutor(
            image=image, workload=None, models=models,
            base_dir=tmp_path / "boxes", campaign_seed=0,
        )
        return executor, plan

    def test_generation_is_lazy_per_group(self, toy_project, toy_model,
                                          tmp_path):
        # Two injectable files -> two (file, spec) groups.  Consuming
        # only the first group's experiments must read only one file:
        # generation is pipelined, not batched up front.
        (toy_project / "extra.py").write_text(textwrap.dedent(
            """
            def helper(x):
                steps = []
                steps.append('go')
                return x + 41
            """
        ).strip() + "\n")
        executor, _plan = self.build_executor(toy_project, toy_model,
                                              tmp_path)
        points = []
        for name in ("app.py", "extra.py"):
            points.extend(scan_file(
                toy_project / name, toy_model.compile(), root=toy_project
            ).points)
        plan = Plan.from_points(points)
        assert len({p.file for p in plan.points}) == 2

        reads = []
        original_read = executor.image.read_file
        executor.image.read_file = lambda rel: (
            reads.append(rel) or original_read(rel)
        )
        iterator = executor.iter_mutations(plan)
        first_planned, first_mutation = next(iterator)
        assert isinstance(first_mutation, Mutation)
        assert reads == [first_planned.point.file]
        for _planned, _mutation in iterator:
            pass
        assert sorted(set(reads)) == ["app.py", "extra.py"]
        assert len(reads) == 2  # each file read exactly once

    def test_unreadable_file_yields_none(self, toy_project, toy_model,
                                         tmp_path):
        # A file that cannot be read yields its error, not a mutant, and
        # run() records that error for just this experiment.
        from repro.orchestrator.plan import PlannedExperiment
        from repro.scanner.points import InjectionPoint

        executor, plan = self.build_executor(toy_project, toy_model,
                                             tmp_path)
        bogus = PlannedExperiment(
            experiment_id="bad-file",
            point=InjectionPoint(spec_name="WRR", file="missing.py",
                                 ordinal=0, lineno=1, end_lineno=1,
                                 snippet="", component="missing"),
        )
        produced = dict(
            (planned.experiment_id, mutation)
            for planned, mutation in
            executor.iter_mutations(list(plan) + [bogus])
        )
        assert isinstance(produced["bad-file"], FileNotFoundError)
        assert all(isinstance(produced[planned.experiment_id], Mutation)
                   for planned in plan)
        result = executor.run(bogus, mutation=produced["bad-file"])
        assert result.status == "harness_error"
        missing = executor.image.staging_dir / "missing.py"
        assert result.error == (
            "FileNotFoundError: [Errno 2] No such file or directory: "
            f"'{missing}'"
        )


# -- shard stream bookkeeping ------------------------------------------------------


def _result_entry(experiment_id, status="completed"):
    return {"experiment_id": experiment_id, "status": status,
            "point": {}, "spec_name": "WRR", "seed": 1}


class TestShardStreamRecovery:
    def test_recover_merges_and_deletes(self, tmp_path):
        canonical = ExperimentStream(tmp_path / "experiments.jsonl")
        canonical.write_meta({"campaign": "x"})
        canonical.append_entry(_result_entry("exp-0001"))
        for shard, ids in ((0, ["exp-0004", "exp-0002"]),
                           (3, ["exp-0003"])):
            shard_stream = ExperimentStream(
                shard_stream_path(canonical.path, shard)
            )
            for experiment_id in ids:
                shard_stream.append_entry(_result_entry(experiment_id))
        assert len(leftover_shard_streams(canonical.path)) == 2

        merged = recover_shard_streams(canonical)
        assert merged == 3
        assert leftover_shard_streams(canonical.path) == []
        assert canonical.recorded_ids() == {
            "exp-0001", "exp-0002", "exp-0003", "exp-0004"
        }

    def test_recover_ignores_unrelated_siblings(self, tmp_path):
        canonical = ExperimentStream(tmp_path / "experiments.jsonl")
        canonical.append_entry(_result_entry("exp-0001"))
        (tmp_path / "experiments-old.jsonl").write_text("{}\n")
        assert leftover_shard_streams(canonical.path) == []
        assert recover_shard_streams(canonical) == 0
        assert (tmp_path / "experiments-old.jsonl").exists()

    def test_merge_empty_shard_stream(self, tmp_path):
        # A shard that died before recording anything leaves a zero-byte
        # stream: merging records nothing and still cleans the file up.
        canonical = ExperimentStream(tmp_path / "experiments.jsonl")
        empty = shard_stream_path(canonical.path, 1)
        empty.write_bytes(b"")
        assert leftover_shard_streams(canonical.path) == [empty]
        from repro.orchestrator.backends import merge_shard_stream

        assert merge_shard_stream(canonical, empty) == []
        assert not empty.exists()
        assert not canonical.path.exists()  # nothing was appended

    def test_merge_missing_shard_stream(self, tmp_path):
        # Merging a path that never existed is a no-op, not an error
        # (the process backend merges every *payload* index, whether or
        # not its worker got far enough to create a stream).
        from repro.orchestrator.backends import merge_shard_stream

        canonical = ExperimentStream(tmp_path / "experiments.jsonl")
        missing = shard_stream_path(canonical.path, 5)
        assert merge_shard_stream(canonical, missing) == []

    def test_duplicate_ids_across_shards_last_record_wins(self, tmp_path):
        # The same experiment id recorded by two shards (a failover
        # re-ran it): the higher shard merges later, so its record wins
        # in the canonical read — same last-record-wins rule as resume
        # retries within one stream.
        canonical = ExperimentStream(tmp_path / "experiments.jsonl")
        for shard, status in ((0, "harness_error"), (2, "completed")):
            shard_stream = ExperimentStream(
                shard_stream_path(canonical.path, shard)
            )
            shard_stream.append_entry(_result_entry("exp-0001",
                                                    status=status))
        assert recover_shard_streams(canonical) == 2  # one id, twice
        entries = canonical._latest_entries()
        assert set(entries) == {"exp-0001"}
        assert entries["exp-0001"]["status"] == "completed"

    def test_meta_line_only_stream_merges_nothing(self, tmp_path):
        # A shard stream holding only a meta line (nothing recorded yet)
        # contributes no entries — and the meta line is *not* promoted
        # into the canonical stream.
        canonical = ExperimentStream(tmp_path / "experiments.jsonl")
        shard_stream = ExperimentStream(
            shard_stream_path(canonical.path, 3)
        )
        shard_stream.write_meta({"campaign": "x"})
        assert recover_shard_streams(canonical) == 0
        assert not shard_stream.path.exists()
        assert canonical.read_meta() is None

    def test_discard_removes_leftovers(self, tmp_path):
        canonical = tmp_path / "experiments.jsonl"
        shard = shard_stream_path(canonical, 2)
        shard.write_text("{}\n")
        discard_shard_streams(canonical)
        assert not shard.exists()

    def test_canonical_bytes_order_independent(self, tmp_path):
        one = ExperimentStream(tmp_path / "a.jsonl")
        two = ExperimentStream(tmp_path / "b.jsonl")
        one.write_meta({"campaign": "x"})
        one.append_entry(_result_entry("exp-0002"))
        one.append_entry(_result_entry("exp-0001"))
        two.append_entry(_result_entry("exp-0001"))
        two.append_entry(_result_entry("exp-0002"))
        assert one.canonical_bytes() == two.canonical_bytes()
        assert b"meta" not in one.canonical_bytes()


class TestShardProgress:
    def test_snapshot_shape_and_counts(self):
        snapshots = []
        progress = ShardProgress("thread", [2, 0, 1],
                                 sink=snapshots.append)
        progress.start(0)
        progress.record(0)
        progress.record(0)
        progress.start(2)
        progress.record(2)
        final = progress.snapshot()
        assert final["backend"] == "thread"
        assert final["experiments_done"] == 3
        assert final["experiments_total"] == 3
        states = {entry["shard"]: entry["state"]
                  for entry in final["shards"]}
        assert states == {0: "completed", 1: "completed", 2: "completed"}
        assert snapshots  # every transition emitted

    def test_incomplete_shard_not_marked_completed(self):
        progress = ShardProgress("process", [3])
        progress.start(0)
        progress.record(0)
        progress.finish(0)  # stopped early (cancel / dead worker)
        assert progress.snapshot()["shards"][0]["state"] == "stopped"
        progress = ShardProgress("process", [1])
        progress.record(0)
        progress.finish(0, state="failed")
        # failure wins even when counts look complete
        assert progress.snapshot()["shards"][0]["state"] == "failed"

    def test_set_done_defers_emit_to_tick(self):
        snapshots = []
        progress = ShardProgress("process", [4], sink=snapshots.append)
        progress.set_done(0, 2)  # poll-loop pinning: no emit
        assert snapshots == []
        progress.emit()
        assert snapshots[-1]["experiments_done"] == 2
        emitted = len(snapshots)
        progress.emit()  # unchanged snapshot: no duplicate write
        assert len(snapshots) == emitted

    def test_unknown_backend_rejected(self):
        with pytest.raises(ValueError, match="unknown execution backend"):
            create_backend("quantum")

    def test_remote_backend_registered(self):
        from repro.orchestrator.backends import RemoteBackend

        assert isinstance(create_backend("remote"), RemoteBackend)

    def test_remote_config_requires_workers(self, toy_project, toy_model,
                                            toy_workload):
        with pytest.raises(ValueError, match="worker URL"):
            CampaignConfig(
                name="x", target_dir=toy_project, fault_model=toy_model,
                workload=toy_workload, backend="remote",
            )

    def test_shard_parallelism_distributes_remainder(self):
        from repro.orchestrator.backends import _shard_parallelism

        # A pinned total is fully used (remainder spread), floored at
        # one per worker when shards outnumber the pin.
        assert _shard_parallelism(4, 3) == [2, 1, 1]
        assert _shard_parallelism(8, 3) == [3, 3, 2]
        assert _shard_parallelism(2, 4) == [1, 1, 1, 1]
        assert _shard_parallelism(None, 3) == [None, None, None]
        # A fully-resumed campaign has no active shards to pin
        # (regression: pinned parallelism divided by zero).
        assert _shard_parallelism(2, 0) == []
        assert _shard_parallelism(None, 0) == []


class TestSinkFailureSurfaced:
    def test_failed_appends_raise_after_drain(self, toy_project, toy_model,
                                              tmp_path):
        # A dead result sink must not be silent: the pool drains (no
        # mid-flight kill), but the backend raises afterwards because
        # those experiments were never recorded anywhere.
        from repro.orchestrator.backends import ExecutionContext

        executor, plan = TestPipelinedGeneration().build_executor(
            toy_project, toy_model, tmp_path
        )

        class BrokenStream(ExperimentStream):
            def append(self, result):
                raise OSError("disk full")

        stream = BrokenStream(tmp_path / "broken.jsonl")
        context = ExecutionContext(executor=executor,
                                   fault_model=toy_model,
                                   shards=1, parallelism=2)
        with pytest.raises(RuntimeError, match="could not be appended"):
            create_backend("thread").execute(context, list(plan), stream)


# -- cross-backend determinism -----------------------------------------------------


def _campaign_projection(result):
    """The determinism-relevant projection of a campaign's stream."""
    rows = [
        {"id": e.experiment_id, "seed": e.seed, "point": e.point,
         "status": e.status, "mutated": e.mutated_snippet,
         "original": e.original_snippet}
        for e in result.experiments
    ]
    return json.dumps(rows, sort_keys=True).encode("utf-8")


def _stream_projection(path):
    """Canonical stream bytes minus the volatile timing/log fields (two
    *different runs* of the same campaign agree on exactly this)."""
    entries = []
    for _id, entry in sorted(ExperimentStream(path)._latest_entries().items()):
        entry = {key: value for key, value in entry.items()
                 if key not in ("duration", "logs", "rounds")}
        entries.append(entry)
    return ("\n".join(json.dumps(entry, sort_keys=True)
                      for entry in entries) + "\n").encode("utf-8")


def _run_campaign(toy_project, toy_model, toy_workload, workspace,
                  backend, shards, parallelism=2, workers=None,
                  sampling=None):
    config = CampaignConfig(
        name="sharded",
        target_dir=toy_project,
        fault_model=toy_model,
        workload=toy_workload,
        injectable_files=["app.py"],
        coverage=False,
        parallelism=parallelism,
        backend=backend,
        shards=shards,
        workers=workers,
        seed=7,
        workspace=workspace,
        sampling=sampling,
    )
    return Campaign(config).run()


@pytest.fixture
def worker_urls(tmp_path):
    """Two live worker servers for the remote backend (real HTTP)."""
    from repro.service.http import start_server
    from repro.service.service import ProFIPyService

    servers = []
    for index in range(2):
        service = ProFIPyService(tmp_path / f"worker-{index}")
        server, _thread = start_server(service)
        servers.append((server, service))
    yield [server.url for server, _service in servers]
    for server, service in servers:
        server.shutdown()
        service.close()


@pytest.mark.integration
class TestBackendDeterminism:
    def test_backends_and_shard_counts_byte_identical(
            self, toy_project, toy_model, toy_workload, tmp_path,
            worker_urls):
        projections = {}
        for backend, shards in (("thread", 1), ("thread", 4),
                                ("process", 1), ("process", 4),
                                ("remote", 1), ("remote", 4)):
            result = _run_campaign(
                toy_project, toy_model, toy_workload,
                tmp_path / f"ws-{backend}-{shards}", backend, shards,
                workers=(worker_urls if backend == "remote" else None),
            )
            assert result.executed == 2
            projections[(backend, shards)] = _campaign_projection(result)
            # No shard stream droppings left behind.
            assert leftover_shard_streams(
                result.experiments_path) == []
        reference = projections[("thread", 1)]
        for key, projection in projections.items():
            assert projection == reference, f"{key} diverged"

    def test_thread_backend_progress_snapshots(self, toy_project,
                                               toy_model, toy_workload,
                                               tmp_path):
        snapshots = []
        config = CampaignConfig(
            name="progress",
            target_dir=toy_project,
            fault_model=toy_model,
            workload=toy_workload,
            injectable_files=["app.py"],
            coverage=False,
            parallelism=2,
            backend="thread",
            shards=2,
            seed=7,
            workspace=tmp_path / "ws",
        )
        result = Campaign(config).run(on_progress=snapshots.append)
        assert result.executed == 2
        final = snapshots[-1]
        assert final["backend"] == "thread"
        assert final["experiments_done"] == 2
        assert final["experiments_total"] == 2
        assert final["resumed"] == 0
        assert len(final["shards"]) == 2
        assert all(entry["state"] == "completed"
                   for entry in final["shards"])
        done_counts = [s["experiments_done"] for s in snapshots]
        assert done_counts == sorted(done_counts)  # monotone feed


@pytest.mark.integration
class TestRemoteGiveUp:
    """The dispatcher's two give-up transitions: a shard whose every
    worker is unreachable, and a shard no alive worker ever appears
    for.  Either way each experiment gets a ``harness_error`` record
    naming the cause (retried on resume); the campaign itself
    completes."""

    EXPERIMENTS = 3

    @pytest.fixture
    def project(self, tmp_path):
        from chaos import build_chaos_project

        return build_chaos_project(tmp_path / "target",
                                   functions=self.EXPERIMENTS)

    def run_given_up(self, project, workspace, **endpoints):
        from chaos import make_chaos_config
        from conftest import TOY_SPEC

        result = Campaign(make_chaos_config(
            project, TOY_SPEC, workspace, "remote", 2, **endpoints)).run()
        assert len(result.experiments) == self.EXPERIMENTS
        assert {e.status for e in result.experiments} == {"harness_error"}
        return [e.error for e in result.experiments]

    def test_unreachable_worker_gives_the_shards_up(self, project,
                                                     tmp_path):
        import socket

        with socket.socket() as probe:
            probe.bind(("127.0.0.1", 0))
            port = probe.getsockname()[1]
        # The port is closed again: every submission is refused.
        errors = self.run_given_up(project, tmp_path / "ws",
                                   workers=[f"http://127.0.0.1:{port}"])
        assert all("remote worker unreachable after 2 failure(s)" in error
                   for error in errors), errors

    def test_empty_registry_gives_the_shards_up(self, project, tmp_path,
                                                monkeypatch):
        from repro.orchestrator.backends import RemoteBackend
        from repro.service.http import start_server
        from repro.service.service import ProFIPyService

        monkeypatch.setattr(RemoteBackend, "placement_timeout", 0.5)
        coordinator = ProFIPyService(tmp_path / "coordinator")
        server, _thread = start_server(coordinator)
        try:
            errors = self.run_given_up(project, tmp_path / "ws",
                                       registry_url=server.url)
        finally:
            server.shutdown()
            coordinator.close()
        assert all("unplaceable: no alive worker for 0.5s" in error
                   for error in errors), errors


class TestGenerationErrors:
    @pytest.mark.integration
    def test_undecodable_file_is_a_harness_error_on_every_backend(
            self, toy_model, toy_workload, tmp_path):
        # The scanner decodes with errors="replace", so a latin-1 byte
        # still yields injection points; generating their mutants fails
        # to decode.  That must cost only those experiments, identically
        # on every backend — not the campaign (thread) or the whole
        # shard (process).
        from conftest import TOY_APP

        project = tmp_path / "target"
        project.mkdir()
        (project / "app.py").write_bytes(b"# caf\xe9\n" + TOY_APP.encode())
        (project / "lib.py").write_text(TOY_APP)
        (project / "run.py").write_text(
            "import lib\n"
            "assert lib.compute(3) == 6\n"
            "print('WORKLOAD SUCCESS')\n"
        )
        projections = {}
        for backend, shards in (("thread", 1), ("process", 2)):
            config = CampaignConfig(
                name="latin1",
                target_dir=project,
                fault_model=toy_model,
                workload=toy_workload,
                injectable_files=["app.py", "lib.py"],
                coverage=False,
                parallelism=2,
                backend=backend,
                shards=shards,
                seed=7,
                workspace=tmp_path / f"ws-{backend}",
            )
            result = Campaign(config).run()
            by_file = {}
            for experiment in result.experiments:
                by_file.setdefault(experiment.point["file"], []).append(
                    experiment)
            assert sorted(by_file) == ["app.py", "lib.py"]
            for experiment in by_file["app.py"]:
                assert experiment.status == "harness_error"
                assert experiment.error.startswith("UnicodeDecodeError: ")
            for experiment in by_file["lib.py"]:
                assert experiment.status == "completed", experiment.error
            projections[backend] = _stream_projection(
                result.experiments_path)
        assert projections["process"] == projections["thread"]


# -- resume across shard boundaries ------------------------------------------------


class TestResumeAcrossShardBoundaries:
    def test_manufactured_partial_shards_resume_without_rerun(
            self, toy_project, toy_model, toy_workload, tmp_path):
        # Reference: one uninterrupted run.
        reference = _run_campaign(toy_project, toy_model, toy_workload,
                                  tmp_path / "ref", "thread", 1)
        assert reference.executed == 2
        ref_stream = ExperimentStream(reference.experiments_path)
        entries = sorted(ref_stream._latest_entries().items())
        meta = ref_stream.read_meta()
        assert meta is not None and len(entries) == 2

        # Crashed-run reconstruction: the canonical stream holds the
        # meta plus one result; the other result only ever landed in a
        # partial shard stream.
        workspace = tmp_path / "resumed"
        workspace.mkdir()
        canonical = ExperimentStream(workspace / "experiments.jsonl")
        canonical.write_meta(meta)
        canonical.append_entry(entries[0][1])
        shard = ExperimentStream(shard_stream_path(canonical.path, 2))
        shard.append_entry(entries[1][1])

        resumed = _run_campaign(toy_project, toy_model, toy_workload,
                                workspace, "thread", 3)
        # Everything was recovered or resumed; nothing re-ran.
        assert resumed.resumed == 2
        assert _campaign_projection(resumed) == \
            _campaign_projection(reference)
        assert ExperimentStream(resumed.experiments_path).canonical_bytes() \
            == ref_stream.canonical_bytes()

    @pytest.mark.integration
    def test_fully_resumed_campaign_reruns_nothing(
            self, toy_project, toy_model, toy_workload, tmp_path,
            worker_urls):
        # Regression: re-running a campaign whose stream already records
        # everything leaves zero pending experiments — the sharded
        # backends must handle an empty active set (pinned parallelism
        # used to divide by zero) and change nothing.
        workspace = tmp_path / "ws"
        first = _run_campaign(toy_project, toy_model, toy_workload,
                              workspace, "thread", 1)
        assert first.executed == 2
        for backend, workers in (("process", None),
                                 ("remote", worker_urls)):
            again = _run_campaign(toy_project, toy_model, toy_workload,
                                  workspace, backend, 2, workers=workers)
            assert again.resumed == 2
            assert again.executed == 2
            assert _campaign_projection(again) == \
                _campaign_projection(first)

    @pytest.mark.integration
    def test_killed_process_campaign_resumes_on_other_backend(
            self, tmp_path):
        """Kill a 4-shard process-backend campaign mid-run, resume with a
        different shard count and the thread backend: the merged stream
        records byte-identical experiments to an uninterrupted run."""
        project = tmp_path / "target"
        project.mkdir()
        chunks = []
        for index in range(6):
            chunks.append(textwrap.dedent(
                f"""
                def compute_{index}(x):
                    steps = []
                    steps.append('start')
                    result = x * 2 + {index}
                    steps.append('done')
                    return result
                """
            ).strip())
        (project / "app.py").write_text("\n\n\n".join(chunks) + "\n")
        (project / "run.py").write_text(textwrap.dedent(
            """
            import sys
            import time

            import app

            time.sleep(0.25)
            for index in range(6):
                value = getattr(app, "compute_" + str(index))(3)
                if value != 6 + index:
                    print("WORKLOAD FAILURE:", index, value,
                          file=sys.stderr)
                    sys.exit(1)
            print("WORKLOAD SUCCESS")
            """
        ).strip() + "\n")
        from conftest import TOY_SPEC

        spec_path = tmp_path / "spec.txt"
        spec_path.write_text(TOY_SPEC)

        def make_config(workspace, backend, shards):
            from repro.dsl.parser import parse_spec
            from repro.faultmodel.model import FaultModel
            from repro.workload.spec import WorkloadSpec

            model = FaultModel(name="toy")
            model.add(parse_spec(TOY_SPEC, name="WRR"),
                      description="wrong return value")
            return CampaignConfig(
                name="killed",
                target_dir=project,
                fault_model=model,
                workload=WorkloadSpec(commands=["{python} run.py"],
                                      command_timeout=30.0),
                injectable_files=["app.py"],
                coverage=False,
                parallelism=2,
                backend=backend,
                shards=shards,
                seed=7,
                workspace=workspace,
            )

        # Reference: uninterrupted run (thread backend, single shard).
        reference = Campaign(
            make_config(tmp_path / "ref", "thread", 1)
        ).run()
        assert reference.executed == 6
        ref_bytes = _stream_projection(reference.experiments_path)

        # Interrupted run: process backend, 4 shards, SIGKILLed (whole
        # process group, so shard workers die too) once results start
        # landing in the shard streams.
        workspace = tmp_path / "ws-killed"
        script = textwrap.dedent(
            """
            import sys
            from pathlib import Path

            from repro.dsl.parser import parse_spec
            from repro.faultmodel.model import FaultModel
            from repro.orchestrator.campaign import Campaign, CampaignConfig
            from repro.workload.spec import WorkloadSpec

            target, spec_path, workspace = sys.argv[1:4]
            model = FaultModel(name="toy")
            model.add(parse_spec(Path(spec_path).read_text(), name="WRR"),
                      description="wrong return value")
            config = CampaignConfig(
                name="killed",
                target_dir=Path(target),
                fault_model=model,
                workload=WorkloadSpec(commands=["{python} run.py"],
                                      command_timeout=30.0),
                injectable_files=["app.py"],
                coverage=False,
                parallelism=4,
                backend="process",
                shards=4,
                seed=7,
                workspace=Path(workspace),
            )
            Campaign(config).run()
            """
        )
        env = {**os.environ,
               "PYTHONPATH": SRC_DIR + os.pathsep +
               os.environ.get("PYTHONPATH", "")}
        child = subprocess.Popen(
            [sys.executable, "-c", script, str(project), str(spec_path),
             str(workspace)],
            env=env, start_new_session=True,
            stdout=subprocess.DEVNULL, stderr=subprocess.DEVNULL,
        )
        try:
            deadline = time.monotonic() + 120
            recorded = 0
            while time.monotonic() < deadline:
                recorded = sum(
                    len(ExperimentStream(path)._latest_entries())
                    for path in workspace.glob("experiments-*.jsonl")
                )
                if recorded >= 1:
                    break
                if child.poll() is not None:
                    pytest.fail("campaign finished before it was killed")
                time.sleep(0.05)
            assert recorded >= 1, "no shard results before the deadline"
        finally:
            try:
                os.killpg(child.pid, signal.SIGKILL)
            except ProcessLookupError:
                pass
            child.wait(timeout=30)

        leftover = leftover_shard_streams(workspace / "experiments.jsonl")
        assert leftover, "the kill left no partial shard streams"

        # Resume with a different backend AND shard count.
        resumed = Campaign(
            make_config(workspace, "thread", 3)
        ).run()
        assert resumed.resumed >= 1  # the salvaged shard results count
        assert resumed.executed == 6
        assert _stream_projection(resumed.experiments_path) == ref_bytes
        assert leftover_shard_streams(workspace / "experiments.jsonl") == []


class TestSampledCampaigns:
    """Seeded sampling composes with every backend: the drawn membership
    is a pure function of (seed, experiment ids), and growing the sample
    toward exhaustive rides resume without re-executing anything."""

    def test_sampled_membership_identical_across_backends(
            self, toy_project, toy_model, toy_workload, tmp_path):
        from repro.stats.config import SamplingConfig

        projections = {}
        for backend, shards in (("thread", 1), ("thread", 4),
                                ("process", 2)):
            result = _run_campaign(
                toy_project, toy_model, toy_workload,
                tmp_path / f"ws-{backend}-{shards}", backend, shards,
                sampling=SamplingConfig(max_experiments=1),
            )
            assert result.executed == 1
            assert result.population == 2
            assert result.points_planned == 1
            projections[(backend, shards)] = _campaign_projection(result)
        reference = projections[("thread", 1)]
        for key, projection in projections.items():
            assert projection == reference, f"{key} diverged"

    def test_extend_sample_to_exhaustive_executes_only_the_delta(
            self, toy_project, toy_model, toy_workload, tmp_path):
        from repro.stats.config import SamplingConfig

        workspace = tmp_path / "grow"
        sampled = _run_campaign(
            toy_project, toy_model, toy_workload, workspace,
            "thread", 1, sampling=SamplingConfig(max_experiments=1),
        )
        assert sampled.executed == 1
        # Same workspace, no sampling: the run resumes over the sampled
        # record and executes exactly the remaining experiment.
        grown = _run_campaign(
            toy_project, toy_model, toy_workload, workspace,
            "process", 2,
        )
        assert grown.resumed == 1
        assert grown.executed == 2
        # Canonical-stream oracle: the grown stream is what an
        # uninterrupted exhaustive run would have produced.
        exhaustive = _run_campaign(
            toy_project, toy_model, toy_workload, tmp_path / "full",
            "thread", 1,
        )
        assert _stream_projection(grown.experiments_path) == \
            _stream_projection(exhaustive.experiments_path)
