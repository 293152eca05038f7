"""EX-dispatch — longest-expected-first dispatch on a re-campaign.

A campaign whose slow experiments sit late in ``(file, spec)`` order
leaves worker slots idle at its end.  After a campaign on a persistent
scan cache, each point's duration is recorded there; a re-campaign on
the same cache dispatches its groups slowest first.

The target has ``MODULES`` modules, each with one injection point.  The
workload checks them in order and sleeps ``SLEEP`` seconds before each
check, so a fault in module *i* fails the run after *i* sleeps: an
experiment's duration rises with its position in the plan, and plan
order starts the slowest one last.  The bench runs the campaign twice on
one cache at parallelism 2 and asserts that the re-campaign executes
faster while recording the same experiments.

Run: ``cd benchmarks && PYTHONPATH=../src python -m pytest
bench_dispatch_order.py -q -s``.
"""

import json
import textwrap

from conftest import write_result

from repro.dsl.parser import parse_spec
from repro.faultmodel.model import FaultModel
from repro.orchestrator.campaign import Campaign, CampaignConfig
from repro.orchestrator.stream import ExperimentStream
from repro.workload.spec import WorkloadSpec

MODULES = 4
SLEEP = 0.4
PARALLEL = 2

SPEC = """
change {
    $BLOCK{tag=pre; stmts=1,*}
    return $EXPR#v
} into {
    $BLOCK{tag=pre}
    return -1
}
"""

#: The fields the determinism invariant fixes (the rest is timing).
PROJECTED = ("experiment_id", "point", "mutated_snippet", "seed")


def make_project(root):
    for index in range(MODULES):
        (root / f"mod_{index}.py").write_text(textwrap.dedent(
            f"""
            def value():
                result = {index}
                return result
            """
        ).strip() + "\n")
    (root / "run.py").write_text(textwrap.dedent(
        f"""
        import importlib
        import sys
        import time

        for index in range({MODULES}):
            if index:
                time.sleep({SLEEP})
            module = importlib.import_module(f"mod_{{index}}")
            if module.value() != index:
                print("WORKLOAD FAILURE: module", index, file=sys.stderr)
                sys.exit(1)
        print("WORKLOAD SUCCESS")
        """
    ).strip() + "\n")


def projection(path):
    lines = ExperimentStream(path).canonical_bytes().decode().splitlines()
    return [{field: json.loads(line)[field] for field in PROJECTED}
            for line in lines]


def test_recampaign_dispatches_longest_first(tmp_path):
    project = tmp_path / "target"
    project.mkdir()
    make_project(project)
    model = FaultModel(name="bench")
    model.add(parse_spec(SPEC, name="WRR"), description="wrong return")

    def campaign(label):
        lines = []
        result = Campaign(CampaignConfig(
            name="dispatch",
            target_dir=project,
            fault_model=model,
            workload=WorkloadSpec(commands=["{python} run.py"],
                                  command_timeout=30.0),
            coverage=False,
            rounds=1,
            parallelism=PARALLEL,
            scan_cache_dir=tmp_path / "cache",
            workspace=tmp_path / label,
        )).run(progress=lines.append)
        assert result.executed == MODULES
        return result, lines

    first, first_lines = campaign("first")
    rerun, rerun_lines = campaign("rerun")

    assert not any("dispatch longest-first" in line for line in first_lines)
    assert any("dispatch longest-first" in line for line in rerun_lines)
    assert projection(rerun.experiments_path) == \
        projection(first.experiments_path)
    assert rerun.execution_seconds < first.execution_seconds, (
        f"re-campaign {rerun.execution_seconds:.2f} s vs first "
        f"{first.execution_seconds:.2f} s"
    )

    write_result(
        "dispatch_order",
        f"Dispatch order ({MODULES} experiments of 0-{MODULES - 1} x "
        f"{SLEEP} s sleeps, parallelism {PARALLEL}):\n"
        f"  plan order (first campaign): "
        f"{first.execution_seconds:.2f} s\n"
        f"  longest-expected-first (re-campaign): "
        f"{rerun.execution_seconds:.2f} s",
    )
