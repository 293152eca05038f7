"""Process execution helpers used by the sandbox and workload runner.

Commands run in their own *process group* so that a timeout can reliably
kill the whole tree (servers fork helpers; ``proc.kill()`` alone leaks
them — the paper's container teardown is what guarantees cleanup, and the
process group is our equivalent).
"""

from __future__ import annotations

import os
import signal
import subprocess
import time
from dataclasses import dataclass, field


@dataclass
class CommandResult:
    """Outcome of one command run inside a sandbox."""

    command: str
    returncode: int | None
    stdout: str
    stderr: str
    duration: float
    timed_out: bool = False

    @property
    def ok(self) -> bool:
        """True when the command exited zero without timing out."""
        return not self.timed_out and self.returncode == 0


@dataclass
class BackgroundProcess:
    """A long-running service command (e.g. the etcd server under test)."""

    command: str
    popen: subprocess.Popen
    stdout_path: str
    stderr_path: str
    started_at: float = field(default_factory=time.monotonic)

    def alive(self) -> bool:
        return self.popen.poll() is None

    def terminate(self, grace: float = 2.0) -> None:
        """SIGTERM the process group, then SIGKILL after ``grace`` seconds."""
        kill_process_group(self.popen, grace=grace)


def run_command(
    command: str,
    cwd: str,
    env: dict[str, str],
    timeout: float,
    stdin_text: str | None = None,
) -> CommandResult:
    """Run a shell command, capturing output, with group-wide timeout kill."""
    start = time.monotonic()
    proc = subprocess.Popen(
        command,
        shell=True,
        cwd=cwd,
        env=env,
        stdout=subprocess.PIPE,
        stderr=subprocess.PIPE,
        stdin=subprocess.PIPE if stdin_text is not None else subprocess.DEVNULL,
        start_new_session=True,
        text=True,
    )
    try:
        stdout, stderr = proc.communicate(input=stdin_text, timeout=timeout)
        timed_out = False
    except subprocess.TimeoutExpired:
        kill_process_group(proc)
        stdout, stderr = proc.communicate()
        timed_out = True
    duration = time.monotonic() - start
    return CommandResult(
        command=command,
        returncode=proc.returncode,
        stdout=stdout or "",
        stderr=stderr or "",
        duration=duration,
        timed_out=timed_out,
    )


def spawn_background(
    command: str,
    cwd: str,
    env: dict[str, str],
    stdout_path: str,
    stderr_path: str,
) -> BackgroundProcess:
    """Start a service command detached into its own process group."""
    out = open(stdout_path, "w", encoding="utf-8")
    err = open(stderr_path, "w", encoding="utf-8")
    popen = subprocess.Popen(
        command,
        shell=True,
        cwd=cwd,
        env=env,
        stdout=out,
        stderr=err,
        stdin=subprocess.DEVNULL,
        start_new_session=True,
    )
    # The Popen holds the fds; close our copies so teardown can unlink.
    out.close()
    err.close()
    return BackgroundProcess(
        command=command, popen=popen, stdout_path=stdout_path, stderr_path=stderr_path
    )


def kill_process_group(proc: subprocess.Popen, grace: float = 2.0) -> None:
    """Kill ``proc``'s whole process group: SIGTERM, up to ``grace``
    seconds for the leader to exit, then SIGKILL for whatever is left.

    The SIGKILL is unconditional: a member that ignores SIGTERM outlives
    its leader, and teardown must not leak it.  ``proc`` was started in
    its own session, so its pid is the group id (which stays valid
    while any member lives, even after the leader is reaped).
    """
    if proc.poll() is None:
        try:
            os.killpg(proc.pid, signal.SIGTERM)
        except (ProcessLookupError, PermissionError):
            pass
        try:
            proc.wait(timeout=grace)
        except subprocess.TimeoutExpired:
            pass
    try:
        os.killpg(proc.pid, signal.SIGKILL)
    except (ProcessLookupError, PermissionError):
        pass
    proc.wait()


def wait_for(predicate, timeout: float, interval: float = 0.05) -> bool:
    """Poll ``predicate`` until it returns True or ``timeout`` elapses."""
    deadline = time.monotonic() + timeout
    while time.monotonic() < deadline:
        if predicate():
            return True
        time.sleep(interval)
    return bool(predicate())
