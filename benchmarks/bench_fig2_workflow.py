"""FIG2 — the full ProFIPy workflow (Scan -> Execution -> Data Analysis).

Runs the complete Fig. 2 pipeline on the toy target: compile fault model,
scan, coverage pre-run, two-round trigger-controlled execution, failure
classification and metrics.  One pedantic round (a campaign is seconds,
not microseconds); the result table reports the per-phase timings.  The
execution phase includes the coverage pre-run (with more than one pool
slot, experiments run beside it), so the two rows overlap.
"""

from conftest import write_result

from repro.analysis.report import CampaignReport
from repro.orchestrator.campaign import Campaign, CampaignConfig


def test_fig2_full_workflow(benchmark, toy_project, toy_model,
                            toy_workload, tmp_path):
    def run_workflow():
        config = CampaignConfig(
            name="fig2-toy",
            target_dir=toy_project,
            fault_model=toy_model,
            workload=toy_workload,
            injectable_files=["app.py"],
            coverage=True,
            parallelism=1,
            workspace=tmp_path / "ws",
        )
        result = Campaign(config).run()
        report = CampaignReport(result)
        return result, report

    result, report = benchmark.pedantic(run_workflow, rounds=1, iterations=1)

    assert result.points_found == 2
    assert result.coverage.covered_count == 1     # unused_helper pruned
    assert result.executed == 1
    assert result.failures_round1                 # fault visible in round 1
    assert not result.failures_round2             # trigger-off recovers

    write_result(
        "fig2_workflow",
        "Fig. 2 workflow on the toy target:\n"
        f"  scan:      {result.scan_seconds * 1000:8.1f} ms "
        f"({result.points_found} points)\n"
        f"  coverage:  {result.coverage_seconds:8.2f} s  "
        f"({result.coverage.covered_count}/{result.coverage.total} covered)\n"
        f"  execution: {result.execution_seconds:8.2f} s  "
        f"({result.executed} experiments, 2 rounds each; pre-run "
        "included)\n"
        f"  failures:  round1={len(result.failures_round1)} "
        f"round2={len(result.failures_round2)}\n\n"
        + report.render(),
    )
