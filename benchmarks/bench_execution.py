"""EX1 — execution engine: pipelined generation + streaming throughput.

Paper §IV-B dominates campaign wall-clock once the scan is fast.
This bench measures experiments/sec on a synthetic plan through the
streaming engine: mutants come from the pipelined producer
(:meth:`ExperimentExecutor.iter_mutations`) as pool slots free, and
results are appended to ``experiments.jsonl``.  The experiments are
latency-bound, so at parallelism N the engine must beat parallelism 1
outright.
"""

import textwrap
import time

from conftest import write_result

from repro.dsl.parser import parse_spec
from repro.faultmodel.model import FaultModel
from repro.orchestrator.executor import ExperimentExecutor
from repro.orchestrator.plan import Plan
from repro.orchestrator.stream import ExperimentStream
from repro.sandbox.image import SandboxImage
from repro.sandbox.pool import ExperimentPool
from repro.scanner.scan import scan_file
from repro.workload.spec import WorkloadSpec

FUNCTIONS = 6
PARALLEL = 4

SPEC = """
change {
    $BLOCK{tag=pre; stmts=1,*}
    return $EXPR#v
} into {
    $BLOCK{tag=pre}
    return -1
}
"""


def make_project(root, functions=FUNCTIONS):
    """A synthetic target with one injection point per function."""
    chunks = []
    for index in range(functions):
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
    (root / "app.py").write_text("\n\n\n".join(chunks) + "\n")
    (root / "run.py").write_text(textwrap.dedent(
        f"""
        import sys
        import time

        import app

        # Real experiments are latency-bound (paper §V-D: 10-120 s of
        # service waits per experiment); model that with a short wait so
        # the parallel fan-out has overlap to exploit.
        time.sleep(0.15)
        for index in range({functions}):
            value = getattr(app, "compute_" + str(index))(3)
            if value != 6 + index:
                print("WORKLOAD FAILURE:", index, value, file=sys.stderr)
                sys.exit(1)
        print("WORKLOAD SUCCESS")
        """
    ).strip() + "\n")


def build_fixture(tmp_path):
    project = tmp_path / "target"
    project.mkdir()
    make_project(project)
    model = FaultModel(name="bench")
    model.add(parse_spec(SPEC, name="WRR"), description="wrong return")
    models = {m.name: m for m in model.compile()}
    scan = scan_file(project / "app.py", model.compile(), root=project)
    assert len(scan.points) == FUNCTIONS
    plan = Plan.from_points(scan.points, prefix="bench")
    image = SandboxImage.build(project, tmp_path / "image")
    workload = WorkloadSpec(commands=["{python} run.py"],
                            command_timeout=30.0)
    return image, workload, models, plan


def run_engine(image, workload, models, plan, base_dir, parallelism,
               stream_path=None):
    """One execution-phase pass; returns its wall-clock seconds."""
    executor = ExperimentExecutor(
        image=image, workload=workload, models=models,
        base_dir=base_dir, trigger=True, campaign_seed=0,
    )
    stream = ExperimentStream(stream_path) if stream_path else None
    started = time.monotonic()
    pool = ExperimentPool(parallelism=parallelism)

    def jobs():
        for planned, mutation in executor.iter_mutations(plan):
            yield (lambda p=planned, m=mutation:
                   executor.run(p, mutation=m))

    def on_result(outcome):
        assert outcome.ok, outcome.error
        if stream is not None:
            stream.append(outcome.result)

    outcomes = pool.run(jobs(), on_result=on_result, retain_results=False)
    elapsed = time.monotonic() - started
    assert len(outcomes) == len(plan)
    return elapsed


def test_execution_throughput(benchmark, tmp_path):
    image, workload, models, plan = build_fixture(tmp_path)

    def pass_dir(name):
        path = tmp_path / name
        path.mkdir(exist_ok=True)
        return path

    # Warm-up: first sandbox instantiation pays page-cache costs.
    run_engine(image, workload, models, list(plan)[:1], pass_dir("warm"), 1)

    serial = benchmark.pedantic(
        lambda: run_engine(image, workload, models, plan, pass_dir("p1"), 1,
                           stream_path=tmp_path / "p1.jsonl"),
        rounds=1, iterations=1,
    )
    parallel = run_engine(image, workload, models, plan, pass_dir("pn"),
                          PARALLEL, stream_path=tmp_path / "pn.jsonl")

    count = len(plan)
    rate = lambda seconds: count / seconds if seconds > 0 else float("inf")

    # Streamed results landed on disk, one line per experiment.
    assert len(ExperimentStream(tmp_path / "p1.jsonl").recorded_ids()) == count
    assert len(ExperimentStream(tmp_path / "pn.jsonl").recorded_ids()) == count

    # The fan-out overlaps the latency-bound experiments: parallelism N
    # must beat parallelism 1 through the same producer.
    assert parallel < serial, (
        f"p{PARALLEL} {parallel:.2f}s vs p1 {serial:.2f}s"
    )

    write_result(
        "execution_engine",
        f"Execution engine throughput ({count} two-round experiments):\n"
        f"  p1: {serial:.2f} s ({rate(serial):.2f} exp/s)\n"
        f"  p{PARALLEL}: {parallel:.2f} s ({rate(parallel):.2f} exp/s)\n"
        f"  speedup p{PARALLEL} vs p1: {serial / parallel:.1f}x",
    )
