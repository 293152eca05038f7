"""The benchmark's own tests.

Run from the repository root::

    python3 -m pytest campaignbench/selftest.py -q

A tiny-size smoke of every workload (end-to-end and traced), the
correctness check against a tampered projection, the refusal to run
without the repository's sources, and that a run leaves no process
behind.
"""

from __future__ import annotations

import json
import os
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
sys.path[:0] = [str(ROOT / "src"), str(BENCH_DIR)]

from harness import Reference, projection  # noqa: E402

from repro.orchestrator.experiment import ExperimentResult  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())


def run_bench(*args: str, cwd: Path = ROOT) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, "campaignbench/run.py", *args],
        cwd=cwd, capture_output=True, text=True, timeout=170,
    )


def result_of(completed: subprocess.CompletedProcess) -> dict:
    assert completed.returncode == 0, completed.stderr[-3000:]
    return json.loads(completed.stdout.strip().splitlines()[-1])


@pytest.mark.parametrize("workload",
                         [entry["name"] for entry in SPEC["workloads"]])
def test_tiny_smoke(workload):
    result = result_of(run_bench("--workload", workload, "--seed", "3",
                                 "--seconds", "0", "--trace", "0",
                                 "--tiny"))
    assert result["correct"] is True
    assert result["failed"] == 0
    assert result["attempted"] >= 1
    expected = {entry["name"]: entry["unit"]
                for entry in SPEC["end_to_end"]}
    assert {name: metric["unit"]
            for name, metric in result["metrics"].items()} == expected
    assert all(metric["value"] > 0 for metric in result["metrics"].values())


@pytest.mark.parametrize("workload", ["scan-openstack", "etcd-process"])
def test_tiny_traced_reports_every_layer(workload):
    result = result_of(run_bench("--workload", workload, "--seed", "3",
                                 "--seconds", "0", "--trace", "1",
                                 "--tiny"))
    assert result["correct"] is True
    expected = {entry["name"]: entry["unit"]
                for entry in SPEC["per_layer"]}
    assert {name: metric["unit"]
            for name, metric in result["metrics"].items()} == expected
    # In-process wrappers on the thread backend, shard records on the
    # process backend.
    assert result["metrics"]["workload.round_ms"]["value"] > 0
    assert result["metrics"]["backends.execute_ms"]["value"] > 0


def test_leaves_no_process_behind():
    # The parent is the child subreaper, so anything the run leaves
    # behind becomes its child and shows up as its descendant.
    check = (
        "import os, subprocess, sys\n"
        "from children import adopt_orphans, descendants\n"
        "adopt_orphans()\n"
        "subprocess.run([sys.executable, 'campaignbench/run.py',\n"
        "                '--workload', 'etcd-process', '--seed', '3',\n"
        "                '--seconds', '0', '--trace', '0', '--tiny'],\n"
        "               check=True, capture_output=True)\n"
        "print(descendants(os.getpid()))\n"
    )
    completed = subprocess.run(
        [sys.executable, "-c", check], cwd=ROOT, capture_output=True,
        text=True, timeout=170,
        env={**os.environ, "PYTHONPATH": str(BENCH_DIR)},
    )
    assert completed.returncode == 0, completed.stderr[-3000:]
    assert completed.stdout.strip() == "[]"


def _experiments() -> list[ExperimentResult]:
    return [
        ExperimentResult(
            experiment_id=f"bench-{index:04d}",
            point={"spec_name": "MFC", "file": "app/core.py",
                   "ordinal": index},
            mutated_snippet=f"pass  # {index}",
            seed=1000 + index,
            duration=0.1 * index,
        )
        for index in range(3)
    ]


def test_tampered_projection_fails_the_check():
    reference = Reference(projection(_experiments(), 7), 3)
    assert reference.matches(list(reversed(_experiments())), 7)
    # Durations, logs and outcomes are not part of the projection.
    rerun = _experiments()
    rerun[0].duration = 9.0
    rerun[0].status = "harness_error"
    assert reference.matches(rerun, 7)

    def tampered(change):
        experiments = _experiments()
        change(experiments)
        return experiments

    for experiments in (
        tampered(lambda e: setattr(e[1], "mutated_snippet", "pass")),
        tampered(lambda e: setattr(e[2], "seed", 1)),
        tampered(lambda e: e[0].point.update(ordinal=9)),
        tampered(lambda e: setattr(e[0], "experiment_id", "bench-9999")),
        tampered(lambda e: e.pop()),
    ):
        assert not reference.matches(experiments, 7)
    assert not reference.matches(_experiments(), 8)


def test_refuses_to_run_without_sources(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path / "BENCHMARK.json")
    for path in SPEC["paths"]:
        shutil.copytree(ROOT / path, tmp_path / path,
                        ignore=shutil.ignore_patterns("__pycache__"))
    completed = run_bench("--workload", "scan-openstack", "--seed", "1",
                          "--seconds", "1", "--trace", "0", cwd=tmp_path)
    assert completed.returncode != 0
    assert '"correct"' not in completed.stdout
