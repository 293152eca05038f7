"""Replay determinism of the execution engine.

The as-a-service premise is that re-running a campaign with the same seed
reproduces the same experiments exactly.  These tests pin the sha256 seed
derivation, check that the executor's mutant producer equals a directly
built ``Mutator`` on the experiment's RNG stream, and assert
byte-identical campaign output across parallelism levels and across
separate processes with different ``PYTHONHASHSEED`` values (the
salted-``hash()`` bug this engine replaced).
"""

import hashlib
import json
import os
import subprocess
import sys
import textwrap
from pathlib import Path

import pytest

import repro
from repro.common.rng import SeededRandom, experiment_seed
from repro.mutator.mutate import (
    MutantRequest,
    Mutation,
    Mutator,
    generate_mutants,
)
from repro.orchestrator.campaign import Campaign, CampaignConfig
from repro.orchestrator.executor import ExperimentExecutor
from repro.orchestrator.plan import Plan
from repro.sandbox.image import SandboxImage
from repro.scanner.scan import scan_file

SRC_DIR = str(Path(repro.__file__).resolve().parent.parent)


class TestSeedDerivation:
    def test_known_value_pinned(self):
        # Regression for the abs(hash(experiment_id)) seed: the value for
        # (campaign_seed=0, "exp-0001") is a constant of the tool now.
        # Changing the derivation silently breaks replay of old campaigns.
        assert experiment_seed(0, "exp-0001") == 299446758

    def test_matches_sha256_definition(self):
        digest = hashlib.sha256(b"7::toy-0002").digest()
        expected = int.from_bytes(digest[:8], "big") % (2 ** 31)
        assert experiment_seed(7, "toy-0002") == expected

    def test_fits_runtime_seed_range(self):
        for experiment_id in ("a", "exp-9999", "x" * 200):
            seed = experiment_seed(3, experiment_id)
            assert 0 <= seed < 2 ** 31

    def test_distinct_per_experiment_and_campaign(self):
        assert experiment_seed(0, "exp-0001") != experiment_seed(0, "exp-0002")
        assert experiment_seed(0, "exp-0001") != experiment_seed(1, "exp-0001")

    def test_experiment_rng_is_stable_stream(self):
        first = SeededRandom(5).derive("exp-0001").random()
        second = SeededRandom(5).derive("exp-0001").random()
        assert first == second


class TestBatchedPreGeneration:
    def fixture_bits(self, toy_project, toy_model, tmp_path):
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

    def test_batch_equals_inline(self, toy_project, toy_model, tmp_path):
        executor, plan = self.fixture_bits(toy_project, toy_model, tmp_path)
        produced = {
            planned.experiment_id: mutation
            for planned, mutation in executor.iter_mutations(plan)
        }
        assert sorted(produced) == [e.experiment_id for e in plan]
        source = (toy_project / "app.py").read_text()
        for planned in plan:
            direct = Mutator(
                trigger=True,
                rng=executor.experiment_rng(planned.experiment_id),
            ).mutate_source(
                source, executor.models[planned.point.spec_name],
                planned.point.ordinal, fault_id=planned.point.point_id,
                file=planned.point.file,
            )
            pre = produced[planned.experiment_id]
            assert pre.source == direct.source
            assert pre.mutated_snippet == direct.mutated_snippet
            assert pre.original_snippet == direct.original_snippet

    def test_request_order_does_not_matter(self, toy_project, toy_model,
                                           tmp_path):
        executor, plan = self.fixture_bits(toy_project, toy_model, tmp_path)
        forward = dict(executor.iter_mutations(list(plan)))
        backward = dict(executor.iter_mutations(list(plan)[::-1]))
        assert forward.keys() == backward.keys()
        for planned, mutation in forward.items():
            assert backward[planned].source == mutation.source
            assert backward[planned].mutated_snippet == \
                mutation.mutated_snippet

    def test_bad_request_skipped_not_fatal(self, toy_project, toy_model,
                                           tmp_path):
        # One unmutatable point (stale ordinal / missing file) must not
        # sink the plan: the others still generate, and each broken one
        # yields its error, which run() records as that experiment's
        # harness_error.
        from repro.orchestrator.plan import PlannedExperiment
        from repro.scanner.points import InjectionPoint

        executor, plan = self.fixture_bits(toy_project, toy_model, tmp_path)
        bogus = [
            PlannedExperiment(
                experiment_id="bad-ordinal",
                point=InjectionPoint(spec_name="WRR", file="app.py",
                                     ordinal=99, lineno=1, end_lineno=1,
                                     snippet="", component="app"),
            ),
            PlannedExperiment(
                experiment_id="bad-file",
                point=InjectionPoint(spec_name="WRR", file="missing.py",
                                     ordinal=0, lineno=1, end_lineno=1,
                                     snippet="", component="missing"),
            ),
        ]
        produced = dict(executor.iter_mutations(list(plan) + bogus))
        for planned in plan:
            assert isinstance(produced[planned], Mutation)
        missing = executor.image.staging_dir / "missing.py"
        expected = {
            "bad-ordinal": "IndexError: spec 'WRR' has 2 matches, "
                           "ordinal 99 requested",
            "bad-file": "FileNotFoundError: [Errno 2] No such file or "
                        f"directory: '{missing}'",
        }
        for planned in bogus:
            assert isinstance(produced[planned], Exception)
            result = executor.run(planned, mutation=produced[planned])
            assert result.status == "harness_error"
            assert result.error == expected[planned.experiment_id]
            # Without a supplied mutation, run() asks the same producer.
            assert executor.run(planned).error == \
                expected[planned.experiment_id]

    def test_generate_mutants_uses_request_stream_only(self, toy_project,
                                                       toy_model):
        source = (toy_project / "app.py").read_text()
        [model] = toy_model.compile()
        request = MutantRequest(
            key="k", source=source, model=model, ordinal=0,
            fault_id="WRR:app.py:0", file="app.py",
            rng=SeededRandom(0).derive("k"),
        )
        alone = generate_mutants([request])["k"]
        other = MutantRequest(
            key="o", source=source, model=model, ordinal=1,
            fault_id="WRR:app.py:1", file="app.py",
            rng=SeededRandom(0).derive("o"),
        )
        paired = generate_mutants([other, request])["k"]
        assert paired.source == alone.source


def _campaign_rows(toy_project, toy_model, toy_workload, workspace,
                   parallelism):
    config = CampaignConfig(
        name="replay",
        target_dir=toy_project,
        fault_model=toy_model,
        workload=toy_workload,
        injectable_files=["app.py"],
        coverage=False,
        parallelism=parallelism,
        seed=7,
        workspace=workspace,
    )
    result = Campaign(config).run()
    return [
        {"id": e.experiment_id, "seed": e.seed, "point": e.point,
         "mutated": e.mutated_snippet, "original": e.original_snippet}
        for e in result.experiments
    ]


@pytest.mark.integration
class TestCampaignReplay:
    def test_parallelism_invariance(self, toy_project, toy_model,
                                    toy_workload, tmp_path):
        serial = _campaign_rows(toy_project, toy_model, toy_workload,
                                tmp_path / "ws1", parallelism=1)
        wide = _campaign_rows(toy_project, toy_model, toy_workload,
                              tmp_path / "ws4", parallelism=4)
        assert json.dumps(serial, sort_keys=True) == \
            json.dumps(wide, sort_keys=True)
        assert len(serial) == 2
        assert all(row["seed"] is not None for row in serial)

    def test_cross_process_replay_with_varied_hashseed(self, toy_project,
                                                       tmp_path):
        """Two processes, different PYTHONHASHSEED and parallelism, same
        campaign seed: byte-identical per-experiment output."""
        script = textwrap.dedent(
            """
            import json, sys
            from pathlib import Path

            from repro.dsl.parser import parse_spec
            from repro.faultmodel.model import FaultModel
            from repro.orchestrator.campaign import Campaign, CampaignConfig
            from repro.workload.spec import WorkloadSpec

            target, spec_path, parallelism, workspace = sys.argv[1:5]
            model = FaultModel(name="toy")
            model.add(parse_spec(Path(spec_path).read_text(), name="WRR"),
                      description="wrong return value")
            config = CampaignConfig(
                name="replay",
                target_dir=Path(target),
                fault_model=model,
                workload=WorkloadSpec(commands=["{python} run.py"],
                                      command_timeout=30.0),
                injectable_files=["app.py"],
                coverage=False,
                parallelism=int(parallelism),
                seed=7,
                workspace=Path(workspace),
            )
            result = Campaign(config).run()
            rows = [
                {"id": e.experiment_id, "seed": e.seed, "point": e.point,
                 "mutated": e.mutated_snippet}
                for e in result.experiments
            ]
            print(json.dumps(rows, sort_keys=True))
            """
        )
        from conftest import TOY_SPEC

        spec_path = tmp_path / "spec.txt"
        spec_path.write_text(TOY_SPEC)

        def run(hashseed, parallelism, workspace):
            env = {**os.environ,
                   "PYTHONHASHSEED": hashseed,
                   "PYTHONPATH": SRC_DIR + os.pathsep +
                   os.environ.get("PYTHONPATH", "")}
            completed = subprocess.run(
                [sys.executable, "-c", script, str(toy_project),
                 str(spec_path), str(parallelism), str(tmp_path / workspace)],
                capture_output=True, text=True, env=env, timeout=300,
            )
            assert completed.returncode == 0, completed.stderr
            return completed.stdout

        first = run("101", 1, "ws-a")
        second = run("424242", 4, "ws-b")
        assert first == second
        assert json.loads(first)  # non-empty, well-formed
