"""Shared fixtures and reporting helpers for the benchmark suite.

Every benchmark regenerates one table/figure of the paper (see DESIGN.md
§3).  Besides the pytest-benchmark timings, each bench writes the
paper-style rows to ``benchmarks/results/<name>.txt`` so the measured
numbers survive output capture; EXPERIMENTS.md collects them.  A bench
that passes ``metrics`` to :func:`write_result` also leaves a JSON record,
``benchmarks/results/BENCH_<name>.json``.
"""

from __future__ import annotations

import json
import os
import platform
import subprocess
import textwrap
from pathlib import Path

import pytest

from repro.dsl.parser import parse_spec
from repro.faultmodel.model import FaultModel
from repro.synth import SynthConfig, generate_codebase
from repro.workload.spec import WorkloadSpec

RESULTS_DIR = Path(__file__).parent / "results"

TOY_APP = textwrap.dedent(
    """
    def compute(x):
        steps = []
        steps.append('start')
        result = x * 2
        steps.append('done')
        return result


    def unused_helper(x):
        marker = []
        marker.append('unused')
        result = x + 1
        marker.append('end')
        return result
    """
).strip() + "\n"

TOY_RUN = textwrap.dedent(
    """
    import sys

    import app

    value = app.compute(3)
    if value != 6:
        print("WORKLOAD FAILURE: compute(3) ==", value, file=sys.stderr)
        sys.exit(1)
    print("WORKLOAD SUCCESS")
    """
).strip() + "\n"

TOY_SPEC = """
change {
    $BLOCK{tag=pre; stmts=1,*}
    return $EXPR#v
} into {
    $BLOCK{tag=pre}
    return -1
}
"""


def git_sha() -> str | None:
    """The checked-out commit, or None outside a git checkout."""
    try:
        completed = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=Path(__file__).parent,
            capture_output=True, text=True, timeout=10, check=True)
    except (OSError, subprocess.SubprocessError):
        return None
    return completed.stdout.strip() or None


def write_result(name: str, text: str,
                 metrics: "dict[str, tuple[float, str]] | None" = None,
                 ) -> None:
    """Persist a paper-style table under benchmarks/results/ and print it.

    With ``metrics`` (``{metric: (value, unit)}``), also write the
    machine-readable record ``benchmarks/results/BENCH_<name>.json``:
    the git sha, the Python version, ``os.cpu_count()`` and
    ``{metric: {"value", "unit"}}``.
    """
    RESULTS_DIR.mkdir(parents=True, exist_ok=True)
    path = RESULTS_DIR / f"{name}.txt"
    path.write_text(text.rstrip() + "\n", encoding="utf-8")
    print(f"\n[{name}]\n{text}")
    if metrics is not None:
        record = {
            "bench": name,
            "git_sha": git_sha(),
            "python": platform.python_version(),
            "cpu_count": os.cpu_count(),
            "metrics": {metric: {"value": value, "unit": unit}
                        for metric, (value, unit) in metrics.items()},
        }
        (RESULTS_DIR / f"BENCH_{name}.json").write_text(
            json.dumps(record, indent=2, sort_keys=True) + "\n",
            encoding="utf-8")


@pytest.fixture(scope="session")
def synth_corpus(tmp_path_factory):
    """A small synthetic OpenStack-flavoured corpus (seeded)."""
    dest = tmp_path_factory.mktemp("synth-corpus")
    stats = generate_codebase(dest, SynthConfig(files=24, seed=11))
    return dest, stats


@pytest.fixture
def toy_project(tmp_path):
    project = tmp_path / "toy"
    project.mkdir()
    (project / "app.py").write_text(TOY_APP)
    (project / "run.py").write_text(TOY_RUN)
    return project


@pytest.fixture
def toy_model():
    model = FaultModel(name="toy")
    model.add(parse_spec(TOY_SPEC, name="WRR"),
              description="wrong return value")
    return model


@pytest.fixture
def toy_workload():
    return WorkloadSpec(commands=["{python} run.py"], command_timeout=30.0)
