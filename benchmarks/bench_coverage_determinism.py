"""Coverage determinism — the precondition for reusing covered sets.

A covered set may only be reused across campaigns if the fault-free
pre-run (§IV-D) reaches the same points every time it runs on the same
image and workload.  For each bundled §V campaign this bench builds the
image and plan once, then runs the pre-run ``RERUNS`` times with no
cache, and asserts a single distinct covered set.  It reports the
covered count and the per-rerun pre-run time range.

A cold campaign dispatches slowest first from the pre-run's reach
times, so their order must repeat too, wherever it is wide enough to
matter: any two points whose reach offsets differ by at least
``ORDER_GAP`` seconds in one rerun must be reached in that order in
every rerun.  The bench also reports the largest spread (max − min over
the reruns) of any one point's reach offset.

On the thread backend the pre-run shares the host with experiments that
start in the other pool slots, so every other rerun runs it beside a
concurrent fault-free run of the same workload (``contended``).  The
single covered set and the order rule hold over all reruns together;
the spreads are reported for the solo and the contended reruns apart.
"""

import threading
import time

import pytest
from conftest import write_result

from repro.casestudy import case_study_config
from repro.faultmodel.casestudy import ALL_CAMPAIGNS
from repro.orchestrator.campaign import Campaign
from repro.orchestrator.coverage import run_coverage
from repro.orchestrator.executor import ExperimentExecutor
from repro.sandbox.image import SandboxImage

RERUNS = 10

#: Reach offsets this far apart in one rerun must keep their order.
ORDER_GAP = 0.5


def _reruns(tmp_path, campaign_name):
    """``(points, covered sets, seconds, reached, contended)``: one entry
    per rerun in the last three, and whether it ran contended."""
    config = case_study_config(campaign_name, tmp_path, command_timeout=30)
    campaign = Campaign(config)
    image = SandboxImage.build(config.target_dir, tmp_path / "image")
    points = campaign.scan().points
    neighbour = ExperimentExecutor(image=image, workload=config.workload,
                                   models=campaign.models,
                                   base_dir=tmp_path / "sandboxes")
    covered_sets, seconds, reached, contended = set(), [], [], []
    for index in range(RERUNS):
        beside = None
        if index % 2:
            beside = threading.Thread(target=neighbour.run_fault_free)
            beside.start()
        started = time.monotonic()
        report = run_coverage(image, config.workload, points,
                              campaign.models, tmp_path / "sandboxes")
        seconds.append(time.monotonic() - started)
        if beside is not None:
            beside.join()
        assert not report.error and not report.workload_failed
        covered_sets.add(frozenset(report.covered))
        reached.append(report.reached)
        contended.append(beside is not None)
    return len(points), covered_sets, seconds, reached, contended


def _spread(reached, covered):
    """The largest max − min of one point's reach offset over ``reached``."""
    return max((max(offsets[point] for offsets in reached)
                - min(offsets[point] for offsets in reached)
                for point in covered), default=0.0)


def _order_flips(reached):
    """``(first, second, rerun)`` for every pair of points that one rerun
    reaches at least ``ORDER_GAP`` apart and ``rerun`` reaches in the
    other order (or not at all)."""
    flips = []
    for offsets in reached:
        for first, early in offsets.items():
            for second, late in offsets.items():
                if late - early < ORDER_GAP:
                    continue
                flips.extend(
                    (first, second, index)
                    for index, other in enumerate(reached)
                    if not other.get(first, float("inf"))
                    < other.get(second, float("-inf")))
    return flips


@pytest.mark.parametrize("campaign_name", ALL_CAMPAIGNS)
def test_covered_set_repeats(benchmark, tmp_path, campaign_name):
    total, covered_sets, seconds, reached, contended = benchmark.pedantic(
        lambda: _reruns(tmp_path, campaign_name), rounds=1, iterations=1)
    assert len(covered_sets) == 1, covered_sets
    [covered] = covered_sets
    assert _order_flips(reached) == []
    apart = sum(1 for offsets in reached[:1]
                for early in offsets.values() for late in offsets.values()
                if late - early >= ORDER_GAP)
    solo = [offsets for offsets, busy in zip(reached, contended) if not busy]
    beside = [offsets for offsets, busy in zip(reached, contended) if busy]
    spread, solo_spread, beside_spread = (
        _spread(group, covered) for group in (reached, solo, beside))
    write_result(
        f"coverage_determinism_{campaign_name}",
        f"Coverage determinism ({campaign_name}, {RERUNS} uncached "
        f"reruns, {len(beside)} beside a concurrent fault-free run): "
        f"{len(covered_sets)} distinct covered set, "
        f"{len(covered)}/{total} covered, pre-run "
        f"{min(seconds):.2f}-{max(seconds):.2f} s per rerun, largest "
        f"reach-offset spread {spread:.3f} s ({solo_spread:.3f} s solo, "
        f"{beside_spread:.3f} s contended), {apart} point pairs "
        f">= {ORDER_GAP} s apart in the first rerun kept their order",
        metrics={"reach_spread_s": (spread, "s"),
                 "reach_spread_solo_s": (solo_spread, "s"),
                 "reach_spread_contended_s": (beside_spread, "s"),
                 "prerun_max_s": (max(seconds), "s")},
    )
