"""RB1 — remote backend: auto-spawned loopback fleet vs pre-started workers.

Both sharded backends dispatch over the ``/v1`` service API: ``process``
is the remote backend over loopback workers it spawns for each campaign
(one process per non-empty shard), ``remote`` talks to workers that are
already running.  The question this bench answers for the paper's
as-a-service claim: what does a per-campaign worker fleet cost over a
standing one, and what does one HTTP shard round-trip cost?

Method: the same small campaign (bigger toy target, several shards) runs
under ``process`` and under ``remote`` against live in-process worker
servers; both produce byte-identical canonical experiments (asserted),
so the wall-clock delta is the fleet spawn (interpreter start, imports,
server start).  Also measured: a single empty-ish shard round-trip
(submit → poll → stream → merge path) as the metadata floor per shard.
"""

import textwrap
import time

from conftest import TOY_SPEC, write_result

from repro.dsl.parser import parse_spec
from repro.faultmodel.model import FaultModel
from repro.orchestrator.campaign import Campaign, CampaignConfig
from repro.service.client import ProFIPyClient
from repro.service.http import start_server
from repro.service.service import ProFIPyService
from repro.workload.spec import WorkloadSpec

FUNCTIONS = 8
SHARDS = 4
PARALLELISM = 4


def build_project(base):
    project = base / "target"
    project.mkdir()
    chunks = []
    for index in range(FUNCTIONS):
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
    (project / "app.py").write_text("\n\n\n".join(chunks) + "\n")
    (project / "run.py").write_text(textwrap.dedent(
        f"""
        import sys

        import app

        for index in range({FUNCTIONS}):
            value = getattr(app, "compute_" + str(index))(3)
            if value != 6 + index:
                print("WORKLOAD FAILURE", file=sys.stderr)
                sys.exit(1)
        print("WORKLOAD SUCCESS")
        """
    ).strip() + "\n")
    return project


def make_config(project, workspace, backend, workers=None):
    model = FaultModel(name="toy")
    model.add(parse_spec(TOY_SPEC, name="WRR"),
              description="wrong return value")
    return CampaignConfig(
        name="bench-remote",
        target_dir=project,
        fault_model=model,
        workload=WorkloadSpec(commands=["{python} run.py"],
                              command_timeout=30.0),
        injectable_files=["app.py"],
        coverage=False,
        parallelism=PARALLELISM,
        backend=backend,
        shards=SHARDS,
        workers=workers,
        seed=7,
        workspace=workspace,
    )


def projection(result):
    return sorted(
        (e.experiment_id, e.seed, e.mutated_snippet, e.status)
        for e in result.experiments
    )


def test_remote_dispatch_overhead(tmp_path):
    project = build_project(tmp_path)

    # -- process backend: a loopback worker spawned per shard -------------
    started = time.monotonic()
    process_result = Campaign(
        make_config(project, tmp_path / "ws-process", "process")
    ).run()
    process_s = time.monotonic() - started
    assert process_result.executed == FUNCTIONS

    # -- remote backend: two pre-started worker servers -------------------
    services = [ProFIPyService(tmp_path / f"worker-{index}")
                for index in range(2)]
    servers = [start_server(service)[0] for service in services]
    try:
        started = time.monotonic()
        remote_result = Campaign(make_config(
            project, tmp_path / "ws-remote", "remote",
            workers=[server.url for server in servers],
        )).run()
        remote_s = time.monotonic() - started
        assert remote_result.executed == FUNCTIONS
        assert projection(remote_result) == projection(process_result)

        # -- per-shard dispatch floor: one no-op shard round-trip ---------
        client = ProFIPyClient(servers[0].url)
        payload = {
            "shard": 0, "planned": [],
            "fault_model": make_config(project, tmp_path / "ws-floor",
                                       "process").fault_model.to_dict(),
            "workload": None,
            "image": {"source_dir": str(project),
                      "staging_dir": str(tmp_path / "ws-process" / "image"),
                      "env": {}},
            "trigger": True, "rounds": 2, "campaign_seed": 7,
            "artifacts_dir": None, "parallelism": 1,
        }
        floor_started = time.monotonic()
        view = client.submit_shard(payload)
        while client.shard_status(view["shard_id"])["state"] == "running":
            time.sleep(0.01)
        client.shard_stream(view["shard_id"])
        floor_s = time.monotonic() - floor_started
    finally:
        for server in servers:
            server.shutdown()
        for service in services:
            service.close()

    # Neither fleet may dominate: the campaign is experiment-bound, so
    # remote wall-clock stays within 2x of the process backend plus a
    # polling-grain allowance (very loose, CI-safe).
    assert remote_s < process_s * 2 + 10.0, (
        f"remote {remote_s:.2f}s vs process {process_s:.2f}s"
    )

    overhead = (remote_s - process_s) / max(process_s, 1e-9) * 100
    write_result(
        "remote_backend",
        f"Remote backend, spawned vs standing fleet ({FUNCTIONS} "
        f"experiments, {SHARDS} shards, parallelism {PARALLELISM}):\n"
        f"  process backend (loopback worker per shard): "
        f"{process_s:6.2f} s\n"
        f"  remote backend  (2 pre-started workers):     "
        f"{remote_s:6.2f} s ({overhead:+.0f}%)\n"
        f"  empty-shard HTTP round-trip floor (submit+poll+stream): "
        f"{floor_s * 1e3:.1f} ms\n"
        f"  canonical experiments byte-identical across backends: yes",
    )
