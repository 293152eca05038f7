"""Reusable chaos-test helpers for the execution stack.

Tooling for tests that deliberately hurt a running campaign and then
assert the determinism/resume oracle:

* launch a campaign (or a ``profipy worker``) in a killable subprocess
  and SIGKILL its whole process group mid-shard;
* truncate result streams at arbitrary byte offsets (simulating a crash
  mid-write);
* the canonical-stream byte-equality oracle: two runs of the same
  campaign agree on :func:`stream_projection` (canonical bytes minus the
  volatile timing/log fields) no matter which backend/shard count ran
  them or what was done to them in between.

Kept import-safe for pytest (no ``test_`` prefix): the chaos *matrix*
lives in ``test_chaos_backends.py``.
"""

from __future__ import annotations

import json
import os
import re
import signal
import subprocess
import sys
import textwrap
import time
from pathlib import Path

import repro
from repro.orchestrator.backends import leftover_shard_streams
from repro.orchestrator.campaign import CampaignConfig
from repro.orchestrator.stream import ExperimentStream

SRC_DIR = str(Path(repro.__file__).resolve().parent.parent)

#: Fields that legitimately differ between two runs of the same
#: experiment (wall-clock, captured output ordering inside logs).
VOLATILE_FIELDS = ("duration", "logs", "rounds")


def child_env() -> dict:
    """Subprocess environment with the repro package importable."""
    env = dict(os.environ)
    env["PYTHONPATH"] = SRC_DIR + os.pathsep + env.get("PYTHONPATH", "")
    return env


# -- chaos target project ----------------------------------------------------------


def build_chaos_project(project: Path, functions: int = 6,
                        startup_sleep: float = 0.25) -> Path:
    """A toy target with ``functions`` injection points and a workload
    slow enough (``startup_sleep``) that a kill lands mid-campaign."""
    project.mkdir(parents=True, exist_ok=True)
    chunks = []
    for index in range(functions):
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
        import time

        import app

        time.sleep({startup_sleep})
        for index in range({functions}):
            value = getattr(app, "compute_" + str(index))(3)
            if value != 6 + index:
                print("WORKLOAD FAILURE:", index, value, file=sys.stderr)
                sys.exit(1)
        print("WORKLOAD SUCCESS")
        """
    ).strip() + "\n")
    return project


def make_chaos_config(project: Path, spec_text: str, workspace: Path,
                      backend: str, shards: int,
                      workers: list[str] | None = None,
                      parallelism: int = 2,
                      registry_url: str | None = None) -> CampaignConfig:
    """The chaos campaign config — identical (name/seed/target/spec)
    across backends and resumes, so stream metas always match."""
    from repro.dsl.parser import parse_spec
    from repro.faultmodel.model import FaultModel
    from repro.workload.spec import WorkloadSpec

    model = FaultModel(name="toy")
    model.add(parse_spec(spec_text, name="WRR"),
              description="wrong return value")
    return CampaignConfig(
        name="chaos",
        target_dir=project,
        fault_model=model,
        workload=WorkloadSpec(commands=["{python} run.py"],
                              command_timeout=30.0),
        injectable_files=["app.py"],
        coverage=False,
        parallelism=parallelism,
        backend=backend,
        shards=shards,
        workers=workers,
        registry_url=registry_url,
        seed=7,
        workspace=workspace,
    )


# -- killable subprocesses ---------------------------------------------------------

_CAMPAIGN_SCRIPT = """
import json
import sys
from pathlib import Path

from repro.dsl.parser import parse_spec
from repro.faultmodel.model import FaultModel
from repro.orchestrator.campaign import Campaign, CampaignConfig
from repro.workload.spec import WorkloadSpec

params = json.loads(sys.argv[1])
model = FaultModel(name="toy")
model.add(parse_spec(params["spec_text"], name="WRR"),
          description="wrong return value")
config = CampaignConfig(
    name="chaos",
    target_dir=Path(params["target"]),
    fault_model=model,
    workload=WorkloadSpec(commands=["{python} run.py"],
                          command_timeout=30.0),
    injectable_files=["app.py"],
    coverage=False,
    parallelism=params["parallelism"],
    backend=params["backend"],
    shards=params["shards"],
    workers=params.get("workers"),
    registry_url=params.get("registry_url"),
    seed=7,
    workspace=Path(params["workspace"]),
)
Campaign(config).run()
"""


def launch_campaign(project: Path, spec_text: str, workspace: Path,
                    backend: str, shards: int,
                    workers: list[str] | None = None,
                    parallelism: int = 4,
                    registry_url: str | None = None) -> subprocess.Popen:
    """Run the chaos campaign in its own session (killable as a group)."""
    params = {
        "target": str(project),
        "spec_text": spec_text,
        "workspace": str(workspace),
        "backend": backend,
        "shards": shards,
        "workers": workers,
        "registry_url": registry_url,
        "parallelism": parallelism,
    }
    return subprocess.Popen(
        [sys.executable, "-c", _CAMPAIGN_SCRIPT, json.dumps(params)],
        env=child_env(), start_new_session=True,
        stdout=subprocess.DEVNULL, stderr=subprocess.DEVNULL,
    )


def kill_group(proc: subprocess.Popen, timeout: float = 30.0) -> None:
    """SIGKILL the subprocess and everything in its session (shard
    workers, sandboxes) — the no-cleanup crash the resume path owes a
    byte-identical recovery for."""
    try:
        os.killpg(proc.pid, signal.SIGKILL)
    except ProcessLookupError:
        pass
    proc.wait(timeout=timeout)


_URL_RE = re.compile(r"on (http://[\w.:\[\]-]+)")


class WorkerProcess:
    """A live ``profipy worker`` subprocess on an ephemeral port.

    ``join`` makes it register with a coordinator's worker registry and
    heartbeat its lease (``profipy worker --join URL``).
    """

    def __init__(self, workspace: Path, timeout: float = 30.0,
                 join: str | None = None) -> None:
        argv = [sys.executable, "-u", "-m", "repro.cli",
                "--workspace", str(workspace),
                "worker", "--host", "127.0.0.1", "--port", "0"]
        if join:
            argv += ["--join", join]
        self.proc = subprocess.Popen(
            argv,
            env=child_env(), start_new_session=True,
            stdout=subprocess.PIPE, stderr=subprocess.STDOUT, text=True,
        )
        self.url = self._await_url(timeout)

    def _await_url(self, timeout: float) -> str:
        deadline = time.monotonic() + timeout
        assert self.proc.stdout is not None
        while time.monotonic() < deadline:
            line = self.proc.stdout.readline()
            if not line:
                raise RuntimeError(
                    f"worker exited during startup "
                    f"(rc={self.proc.poll()})"
                )
            match = _URL_RE.search(line)
            if match:
                return match.group(1)
        raise RuntimeError("worker did not announce its URL in time")

    def kill(self) -> None:
        """SIGKILL the worker and its whole session (mid-shard death)."""
        kill_group(self.proc)

    def sigstop(self) -> None:
        """Freeze the worker's whole session (SIGSTOP): the process
        stays alive but stops heartbeating and answering requests — the
        hung-host failure mode only lease expiry can detect."""
        os.killpg(self.proc.pid, signal.SIGSTOP)

    def sigcont(self) -> None:
        """Thaw a frozen worker (SIGCONT)."""
        try:
            os.killpg(self.proc.pid, signal.SIGCONT)
        except ProcessLookupError:
            pass

    def stop(self) -> None:
        if self.proc.poll() is None:
            # SIGKILL lands on stopped processes too, so a frozen
            # worker still dies; SIGCONT first keeps the wait prompt.
            self.sigcont()
            self.kill()


# -- stream damage -----------------------------------------------------------------


def truncate_file(path: Path, size: int) -> None:
    """Cut ``path`` to ``size`` bytes (a crash mid-write, byte-exact)."""
    with open(path, "rb+") as handle:
        handle.truncate(size)


def truncate_mid_record(path: Path) -> int:
    """Truncate the stream inside its last record (not on a line
    boundary) and return the new size — the worst-case partial write a
    reader must tolerate."""
    data = path.read_bytes()
    body = data[:-1] if data.endswith(b"\n") else data
    cut_from = body.rfind(b"\n") + 1  # start of the last record
    size = cut_from + max(1, (len(body) - cut_from) // 2)
    truncate_file(path, size)
    return size


# -- observation + the byte-equality oracle ----------------------------------------


def recorded_total(workspace: Path) -> int:
    """Results recorded anywhere in the workspace: the canonical stream
    plus any shard streams (local mirrors included)."""
    canonical = workspace / "experiments.jsonl"
    total = len(ExperimentStream(canonical)._latest_entries())
    for path in leftover_shard_streams(canonical):
        total += len(ExperimentStream(path)._latest_entries())
    return total


def descendants(root: int | None = None) -> set[int]:
    """Pids of every live or unreaped process below ``root`` (default:
    this process), read from ``/proc``."""
    root = os.getpid() if root is None else root
    children: dict[int, list[int]] = {}
    for entry in os.listdir("/proc"):
        if not entry.isdigit():
            continue
        try:
            with open(f"/proc/{entry}/stat", "rb") as handle:
                stat = handle.read()
        except OSError:
            continue  # ended meanwhile
        # The command name may hold spaces and parentheses: the fields
        # after the last ")" are state, ppid, ...
        ppid = int(stat[stat.rfind(b")") + 2:].split()[1])
        children.setdefault(ppid, []).append(int(entry))
    found, frontier = set(), [root]
    while frontier:
        frontier = [child for pid in frontier
                    for child in children.get(pid, [])]
        found.update(frontier)
    return found


def wait_until(predicate, timeout: float = 120.0,
               interval: float = 0.05) -> bool:
    deadline = time.monotonic() + timeout
    while time.monotonic() < deadline:
        if predicate():
            return True
        time.sleep(interval)
    return False


def worker_shard_streams(workspace: Path) -> list[Path]:
    """The worker-side shard streams of a process-backend run in
    ``workspace``, one per placement (kept by the ``kept_workers``
    fixture)."""
    return sorted(workspace.glob(
        "experiments.workers/worker-*/shards/*/experiments.jsonl"))


def stream_projection(path: Path) -> bytes:
    """Canonical stream bytes minus the volatile timing/log fields —
    two *different runs* of the same campaign agree on exactly this,
    whatever backend/shard count ran them and whatever chaos happened
    in between (the crash-recovery byte-equality oracle)."""
    entries = []
    for _id, entry in sorted(ExperimentStream(path)._latest_entries().items()):
        entries.append({key: value for key, value in entry.items()
                       if key not in VOLATILE_FIELDS})
    return ("\n".join(json.dumps(entry, sort_keys=True)
                      for entry in entries) + "\n").encode("utf-8")


def assert_streams_equivalent(actual: Path, reference: Path) -> None:
    """The oracle assertion, with a readable diff on failure."""
    actual_bytes = stream_projection(actual)
    reference_bytes = stream_projection(reference)
    assert actual_bytes == reference_bytes, (
        "canonical streams diverged:\n"
        f"--- {actual}\n{actual_bytes.decode('utf-8')}\n"
        f"--- {reference}\n{reference_bytes.decode('utf-8')}"
    )
