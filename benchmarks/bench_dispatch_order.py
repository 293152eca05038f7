"""EX-dispatch — longest-expected-first dispatch.

A campaign whose slow experiments sit late in ``(file, spec)`` order
leaves worker slots idle at its end.  After a campaign on a persistent
scan cache, each point's duration is recorded there; a re-campaign on
the same cache dispatches its groups slowest first.  A first campaign
with coverage on estimates each experiment from when the fault-free
pre-run first reached its point, and dispatches slowest first too.

Each target has one injection point per module.  The workload checks the
modules in order and sleeps a fixed time before each check, so a fault
in module *i* fails the run after the sleeps before checks 0..*i*: an
experiment's duration is set by its module.  The first two cases run
the campaign twice on one cache and assert that the re-campaign
executes faster while recording the same experiments.

* **Thread backend**: ``MODULES`` modules, ``SLEEP`` seconds before
  every check but the first, parallelism 2.  Plan order starts the
  slowest experiment last.
* **Process backend**: 6 modules on 2 one-slot shards.  The
  experiments take about 1, 1, 1, 2, 2 and 6 × ``UNIT`` seconds
  (``PROCESS_SLEEPS``), and ``sha256(id) % 2`` puts modules 0, 1, 2
  and 5 on shard 1 (9 units) and modules 3 and 4 on shard 0 (4 units).
  In plan order shard 1 starts its 6-unit experiment last, just before
  shard 0 finishes, so without recorded durations its slot (and, where
  shards never move work, shard 0's slot for 5 units) waits on it.  The
  re-campaign starts it first and shard 0's worker takes the fast tail
  by release, about 7 units in all.
* **Cold, thread backend**: the thread case's target and plan, run
  once with coverage off (plan order) and once with coverage on, each
  on a fresh cache.  The pre-run reaches module *i* after *i* sleeps,
  so the covered campaign starts the slowest experiment first with
  nothing recorded.  Its execution phase includes the pre-run, so the
  bench compares it without the pre-run to the plain one.
* **Overlap, thread backend**: three modules reached at once and a
  fourth ``LATE`` seconds later, ``rounds=2`` so that every experiment
  still runs a fault-free round, each run on a fresh cache.  Sampled to
  the whole plan, nothing starts before the pre-run's report; unsampled,
  the pre-run holds one slot and the other starts experiments of the
  points it has reached.  The unsampled campaign must take at least
  half a pre-run less wall-clock time, with an equal projection.

Run: ``cd benchmarks && PYTHONPATH=../src python -m pytest
bench_dispatch_order.py -q -s``.
"""

import json
import textwrap
import time

from conftest import write_result

from repro.dsl.parser import parse_spec
from repro.faultmodel.model import FaultModel
from repro.orchestrator.campaign import Campaign, CampaignConfig
from repro.orchestrator.plan import shard_index
from repro.orchestrator.stream import ExperimentStream
from repro.workload.spec import WorkloadSpec

MODULES = 4
SLEEP = 0.4
PARALLEL = 2

#: Process case: seconds slept before each module's check.
UNIT = 0.5
PROCESS_SLEEPS = [UNIT, 0, 0, UNIT, 0, 4 * UNIT]
#: Which shard each process-case module lands on (checked below).
PROCESS_SPLIT = [1, 1, 1, 0, 0, 1]

#: Overlap case: seconds the pre-run takes to reach its fourth module.
LATE = 1.0

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


def make_project(root, sleeps):
    """One module per entry of ``sleeps``, the seconds slept before its
    check."""
    root.mkdir()
    for index in range(len(sleeps)):
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

        for index, seconds in enumerate({list(sleeps)!r}):
            time.sleep(seconds)
            module = importlib.import_module(f"mod_{{index}}")
            if module.value() != index:
                print("WORKLOAD FAILURE: module", index, file=sys.stderr)
                sys.exit(1)
        print("WORKLOAD SUCCESS")
        """
    ).strip() + "\n")
    return root


def projection(path):
    lines = ExperimentStream(path).canonical_bytes().decode().splitlines()
    return [{field: json.loads(line)[field] for field in PROJECTED}
            for line in lines]


def run_campaign(tmp_path, project, label, cache="cache", **overrides):
    """One campaign over ``project`` with its progress lines."""
    model = FaultModel(name="bench")
    model.add(parse_spec(SPEC, name="WRR"), description="wrong return")
    settings = dict(
        name="dispatch",
        target_dir=project,
        fault_model=model,
        workload=WorkloadSpec(commands=["{python} run.py"],
                              command_timeout=30.0),
        coverage=False,
        rounds=1,
        parallelism=PARALLEL,
        scan_cache_dir=tmp_path / cache,
        workspace=tmp_path / label,
    )
    settings.update(overrides)
    lines = []
    result = Campaign(CampaignConfig(**settings)).run(progress=lines.append)
    return result, lines


def campaign_pair(tmp_path, sleeps, **overrides):
    """The first campaign and its re-campaign on one scan cache."""
    project = make_project(tmp_path / "target", sleeps)

    def campaign(label):
        result, lines = run_campaign(tmp_path, project, label, **overrides)
        assert result.executed == len(sleeps)
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
    return first, rerun


def test_recampaign_dispatches_longest_first(tmp_path):
    first, rerun = campaign_pair(tmp_path, [0] + [SLEEP] * (MODULES - 1))
    write_result(
        "dispatch_order",
        f"Dispatch order ({MODULES} experiments of 0-{MODULES - 1} x "
        f"{SLEEP} s sleeps, parallelism {PARALLEL}):\n"
        f"  plan order (first campaign): "
        f"{first.execution_seconds:.2f} s\n"
        f"  longest-expected-first (re-campaign): "
        f"{rerun.execution_seconds:.2f} s",
        metrics={"plan_order_execution_s": (first.execution_seconds, "s"),
                 "longest_first_execution_s": (rerun.execution_seconds,
                                               "s")},
    )


def test_process_recampaign_dispatches_longest_first(tmp_path):
    first, rerun = campaign_pair(tmp_path, PROCESS_SLEEPS,
                                 backend="process", shards=2)
    by_module = sorted(
        (experiment.point["file"], experiment.experiment_id)
        for experiment in first.experiments)
    assert [shard_index(experiment_id, 2)
            for _file, experiment_id in by_module] == PROCESS_SPLIT
    write_result(
        "dispatch_order_process",
        f"Dispatch order, process backend (2 one-slot shards, "
        f"experiments of 1,1,1,2,2,6 x {UNIT} s split 9/4 units):\n"
        f"  plan order (first campaign): "
        f"{first.execution_seconds:.2f} s\n"
        f"  longest-expected-first + release steals (re-campaign): "
        f"{rerun.execution_seconds:.2f} s",
        metrics={"plan_order_execution_s": (first.execution_seconds, "s"),
                 "longest_first_execution_s": (rerun.execution_seconds,
                                               "s")},
    )


def test_cold_campaign_dispatches_from_reach_times(tmp_path):
    sleeps = [0] + [SLEEP] * (MODULES - 1)
    project = make_project(tmp_path / "target", sleeps)
    plain, plain_lines = run_campaign(tmp_path, project, "plain",
                                      cache="plain-cache")
    covered, covered_lines = run_campaign(tmp_path, project, "covered",
                                          cache="covered-cache",
                                          coverage=True)
    assert plain.executed == covered.executed == MODULES
    assert not any("dispatch longest-first" in line
                   for line in plain_lines)
    assert (f"[dispatch] dispatch longest-first from {MODULES} coverage "
            "reach times") in covered_lines
    assert projection(covered.experiments_path) == \
        projection(plain.experiments_path)
    # The covered execution phase includes the pre-run.
    experiments_only = covered.execution_seconds - covered.coverage_seconds
    assert experiments_only < plain.execution_seconds, (
        f"reach-ordered {experiments_only:.2f} s vs plan order "
        f"{plain.execution_seconds:.2f} s"
    )
    write_result(
        "dispatch_order_cold",
        f"Dispatch order, cold campaign ({MODULES} experiments of "
        f"0-{MODULES - 1} x {SLEEP} s sleeps, parallelism {PARALLEL}, "
        f"fresh caches):\n"
        f"  plan order (coverage off): {plain.execution_seconds:.2f} s\n"
        f"  longest-first from coverage reach times: "
        f"{experiments_only:.2f} s after the pre-run "
        f"({covered.coverage_seconds:.2f} s)",
        metrics={"plan_order_execution_s": (plain.execution_seconds, "s"),
                 "reach_order_execution_s": (experiments_only, "s"),
                 "prerun_s": (covered.coverage_seconds, "s")},
    )


def test_prerun_overlaps_execution(tmp_path):
    project = make_project(tmp_path / "target", [0, 0, 0, LATE])

    def timed(label, **overrides):
        started = time.monotonic()
        result, lines = run_campaign(tmp_path, project, label,
                                     cache=f"{label}-cache", coverage=True,
                                     rounds=2, **overrides)
        assert result.executed == 4
        return result, lines, time.monotonic() - started

    sampled, sampled_lines, sampled_s = timed("sampled", sample=4)
    overlapped, lines, overlapped_s = timed("overlapped")
    assert "[dispatch] sampled 4 of 4 planned experiments" in sampled_lines
    assert not any("started while it ran" in line for line in sampled_lines)
    [started_line] = [line for line in lines if "started while it ran" in line]
    assert projection(overlapped.experiments_path) == \
        projection(sampled.experiments_path)
    prerun = overlapped.coverage_seconds
    assert overlapped_s <= sampled_s - prerun / 2, (
        f"overlapped {overlapped_s:.2f} s vs sampled {sampled_s:.2f} s "
        f"(pre-run {prerun:.2f} s)"
    )
    write_result(
        "dispatch_order_overlap",
        f"Pre-run overlap (3 points reached at once, 1 after {LATE} s, "
        f"rounds 2, parallelism {PARALLEL}, fresh caches):\n"
        f"  sampled to the whole plan (nothing before the report): "
        f"{sampled_s:.2f} s\n"
        f"  unsampled ({started_line.split(': ', 1)[1]}): "
        f"{overlapped_s:.2f} s (pre-run {prerun:.2f} s)",
        metrics={"sampled_wall_s": (sampled_s, "s"),
                 "overlapped_wall_s": (overlapped_s, "s"),
                 "prerun_s": (prerun, "s")},
    )
