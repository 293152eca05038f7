"""Coverage determinism — the precondition for reusing covered sets.

A covered set may only be reused across campaigns if the fault-free
pre-run (§IV-D) reaches the same points every time it runs on the same
image and workload.  For each bundled §V campaign this bench builds the
image and plan once, then runs the pre-run ``RERUNS`` times with no
cache, and asserts a single distinct covered set.  It reports the
covered count and the per-rerun pre-run time range.
"""

import time

import pytest
from conftest import write_result

from repro.casestudy import case_study_config
from repro.faultmodel.casestudy import ALL_CAMPAIGNS
from repro.orchestrator.campaign import Campaign
from repro.orchestrator.coverage import run_coverage
from repro.sandbox.image import SandboxImage

RERUNS = 10


def _reruns(tmp_path, campaign_name):
    config = case_study_config(campaign_name, tmp_path, command_timeout=30)
    campaign = Campaign(config)
    image = SandboxImage.build(config.target_dir, tmp_path / "image")
    points = campaign.scan().points
    covered_sets, seconds = set(), []
    for _ in range(RERUNS):
        started = time.monotonic()
        report = run_coverage(image, config.workload, points,
                              campaign.models, tmp_path / "sandboxes")
        seconds.append(time.monotonic() - started)
        assert not report.error and not report.workload_failed
        covered_sets.add(frozenset(report.covered))
    return len(points), covered_sets, seconds


@pytest.mark.parametrize("campaign_name", ALL_CAMPAIGNS)
def test_covered_set_repeats(benchmark, tmp_path, campaign_name):
    total, covered_sets, seconds = benchmark.pedantic(
        lambda: _reruns(tmp_path, campaign_name), rounds=1, iterations=1)
    assert len(covered_sets) == 1, covered_sets
    [covered] = covered_sets
    write_result(
        f"coverage_determinism_{campaign_name}",
        f"Coverage determinism ({campaign_name}, {RERUNS} uncached "
        f"reruns): {len(covered_sets)} distinct covered set, "
        f"{len(covered)}/{total} covered, pre-run "
        f"{min(seconds):.2f}-{max(seconds):.2f} s per rerun",
    )
