"""Ablation — coverage-based plan reduction (§IV-D).

ProFIPy runs a fault-free instrumented pass to drop injection points the
workload never reaches, "since the fault would not cause any effect".
This ablation runs the external-API campaign with and without the
reduction and reports experiments and wall-clock saved, plus the wasted
no-failure experiments the reduction avoided.

The reduced campaign runs twice on one scan cache: the second run finds
the covered set stored under the same coverage key and starts no
pre-run sandbox, so its coverage phase costs instrumentation and
hashing only.  A campaign's execution phase includes its pre-run, and
on the thread backend experiments run beside it, so the reduced
campaign's execution time already holds the pre-run's.
"""

from conftest import write_result

from repro.casestudy import case_study_config
from repro.orchestrator.campaign import Campaign


def _run(tmp_path, coverage: bool, label: str):
    config = case_study_config(
        "external_api", tmp_path,
        command_timeout=30, parallelism=2, seed=6,
    )
    config.coverage = coverage
    config.scan_cache_dir = tmp_path / "scan-cache"
    config.workspace = tmp_path / f"ws-{label}"
    return Campaign(config).run()


def test_coverage_reduction(benchmark, tmp_path):
    reduced = benchmark.pedantic(lambda: _run(tmp_path, True, "cov"),
                                 rounds=1, iterations=1)
    # Same workspace: the rerun resumes every recorded experiment, so it
    # measures the coverage phase alone.
    rerun = _run(tmp_path, True, "cov")
    full = _run(tmp_path, False, "nocov")

    assert not reduced.coverage.reused and rerun.coverage.reused
    assert rerun.coverage.covered == reduced.coverage.covered
    assert rerun.coverage_seconds < reduced.coverage_seconds / 10
    assert rerun.resumed == reduced.executed

    assert full.points_found == reduced.points_found
    assert reduced.executed < full.executed
    # Every experiment pruned by coverage would have been wasted: the
    # uncovered faults cause no failure when injected anyway.
    pruned = full.executed - reduced.executed
    no_failure_full = full.executed - len(full.failures)
    assert no_failure_full >= pruned

    write_result(
        "ablation_coverage",
        "Coverage-reduction ablation (external-API campaign):\n"
        f"  without reduction: {full.executed} experiments, "
        f"{len(full.failures)} with failures, "
        f"{full.execution_seconds:.0f} s execution\n"
        f"  with reduction:    {reduced.executed} experiments, "
        f"{len(reduced.failures)} with failures, "
        f"{reduced.execution_seconds:.0f} s execution "
        f"(of which a {reduced.coverage_seconds:.2f} s pre-run, "
        "overlapped)\n"
        f"  re-campaign on the same scan cache: coverage reused, "
        f"{rerun.coverage_seconds * 1000:.0f} ms coverage phase "
        f"({rerun.coverage.covered_count}/{rerun.coverage.total} "
        "covered, same set)\n"
        f"  pruned {pruned} experiments that cannot fail "
        "(fault never activated)",
    )
