"""Shared fixtures: a tiny injectable project used across orchestrator tests."""

import shutil
import textwrap

import pytest

from repro.dsl.parser import parse_spec
from repro.faultmodel.model import FaultModel
from repro.workload.spec import WorkloadSpec


def pytest_configure(config):
    config.addinivalue_line(
        "markers",
        "integration: end-to-end test that spawns processes or live servers",
    )


@pytest.fixture
def kept_workers(monkeypatch):
    """Keep the process backend's loopback worker workspaces
    (``<stream stem>.workers/``), which a run otherwise removes, so the
    worker-side shard streams can be read afterwards."""
    rmtree = shutil.rmtree

    def keep_workers(path, *args, **kwargs):
        if not str(path).endswith(".workers"):
            rmtree(path, *args, **kwargs)

    monkeypatch.setattr(shutil, "rmtree", keep_workers)


TOY_APP = textwrap.dedent(
    """
    \"\"\"Toy target application.\"\"\"


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

#: Wrong-return fault: matches one `return` per toy function.
TOY_SPEC = """
change {
    $BLOCK{tag=pre; stmts=1,*}
    return $EXPR#v
} into {
    $BLOCK{tag=pre}
    return -1
}
"""


@pytest.fixture
def toy_project(tmp_path):
    """A pristine toy target project directory."""
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
