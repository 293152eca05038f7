"""EX2 — pipelined mutant generation: peak memory bounded by one group.

Materializing every mutant of the plan before the fan-out would cost
peak memory O(plan × file size).  The pipelined producer generates one
``(file, spec)`` group at a time from the job generator while the pool
executes earlier groups, so peak memory is bounded by the largest group.

Measured here with ``tracemalloc`` (resettable peak, unlike ``ru_maxrss``)
over a plan of many padded files, each file its own group: the peak
allocation must stay below a constant number of groups, independent of
the number of files in the plan.
"""

import textwrap
import time
import tracemalloc

from conftest import write_result

from repro.dsl.parser import parse_spec
from repro.faultmodel.model import FaultModel
from repro.orchestrator.executor import ExperimentExecutor
from repro.orchestrator.plan import Plan
from repro.sandbox.image import SandboxImage
from repro.sandbox.pool import ExperimentPool
from repro.scanner.scan import scan_file
from repro.workload.spec import WorkloadSpec

FILES = 20
PARALLEL = 4
#: Padding per file so mutant sources dominate the allocation profile
#: (each mutant holds the whole mutated file as a string).
PAD_BYTES = 48 * 1024

SPEC = """
change {
    $BLOCK{tag=pre; stmts=1,*}
    return $EXPR#v
} into {
    $BLOCK{tag=pre}
    return -1
}
"""


def make_project(root, files=FILES):
    """One injection point per file; each file padded to PAD_BYTES so a
    materialized mutant is expensive and the plan's worth is FILES× that.

    The pad is a string *constant* (not comments): mutants are
    re-unparsed from the AST, and only constants survive into the
    mutated source."""
    pad = f'_PAD = "{"x" * PAD_BYTES}"\n'
    for index in range(files):
        (root / f"mod_{index:02d}.py").write_text(textwrap.dedent(
            f"""
            def compute(x):
                steps = []
                steps.append('start')
                result = x * 2 + {index}
                steps.append('done')
                return result
            """
        ).strip() + "\n\n\n" + pad)
    (root / "run.py").write_text(textwrap.dedent(
        f"""
        import sys

        failures = []
        for index in range({files}):
            mod = __import__("mod_%02d" % index)
            if mod.compute(3) != 6 + index:
                failures.append(index)
        if failures:
            print("WORKLOAD FAILURE:", failures, file=sys.stderr)
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
    points = []
    for index in range(FILES):
        scan = scan_file(project / f"mod_{index:02d}.py", model.compile(),
                         root=project)
        points.extend(scan.points)
    assert len(points) == FILES
    plan = Plan.from_points(points, prefix="bench")
    image = SandboxImage.build(project, tmp_path / "image")
    workload = WorkloadSpec(commands=["{python} run.py"],
                            command_timeout=30.0)
    return image, workload, models, plan


def run_engine(image, workload, models, plan, base_dir):
    """One execution pass; returns (seconds, tracemalloc peak bytes)."""
    executor = ExperimentExecutor(
        image=image, workload=workload, models=models,
        base_dir=base_dir, trigger=True, campaign_seed=0,
    )
    pool = ExperimentPool(parallelism=PARALLEL)
    tracemalloc.reset_peak()
    baseline, _peak = tracemalloc.get_traced_memory()
    started = time.monotonic()

    def jobs():
        for planned, mutation in executor.iter_mutations(plan):
            yield (lambda p=planned, m=mutation:
                   executor.run(p, mutation=m))

    outcomes = pool.run(jobs(), retain_results=False)
    elapsed = time.monotonic() - started
    _size, peak = tracemalloc.get_traced_memory()
    assert len(outcomes) == len(plan)
    assert all(outcome.ok for outcome in outcomes)
    # Peak *growth* during this pass (reset_peak pins the peak to the
    # pre-pass size, so subtracting the baseline isolates the engine).
    return elapsed, max(0, peak - baseline)


def test_pipelined_generation(benchmark, tmp_path):
    image, workload, models, plan = build_fixture(tmp_path)

    def pass_dir(name):
        path = tmp_path / name
        path.mkdir(exist_ok=True)
        return path

    tracemalloc.start()
    try:
        # Warm-up: page-cache and import costs land outside the pass.
        run_engine(image, workload, models, list(plan)[:1],
                   pass_dir("warm"))
        seconds, peak = benchmark.pedantic(
            lambda: run_engine(image, workload, models, plan,
                               pass_dir("pipelined")),
            rounds=1, iterations=1,
        )
    finally:
        tracemalloc.stop()

    group_bytes = PAD_BYTES  # one (file, spec) group ≈ one padded source
    # The producer holds O(one group): the pristine source, the group
    # being generated, and the PARALLEL in-flight mutants — a constant
    # independent of FILES, far below the plan's worth of mutants.
    assert peak < group_bytes * (PARALLEL + 8), (
        f"pipelined peak {peak} not bounded by group size"
    )

    count = len(plan)
    write_result(
        "pipelined_generation",
        f"Pipelined mutant generation "
        f"({count} experiments, parallelism {PARALLEL}, "
        f"{PAD_BYTES // 1024} KiB per source file):\n"
        f"  {seconds:.2f} s, peak alloc {peak / 1024:.0f} KiB "
        f"(bound {group_bytes * (PARALLEL + 8) // 1024} KiB, "
        f"plan {group_bytes * count // 1024} KiB)",
    )
