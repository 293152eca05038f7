"""Every process a run starts ends before the run does.

The program leaves processes behind that outlive their parents for a
moment: a service started through ``sh -c`` is killed by process group,
and its teardown returns once the shell is gone while the interpreter
under it is still exiting, re-parented to init; the process backend
starts multiprocessing's resource tracker, which only exits after its
parent has.  The benchmark makes itself the child subreaper, so such
orphans are re-parented to it instead of init, and :func:`stop_all`
ends and reaps every descendant before the run exits.
"""

from __future__ import annotations

import ctypes
import os
import signal
import time

#: ``prctl`` option that makes orphaned descendants this process's children.
PR_SET_CHILD_SUBREAPER = 36

#: SIGTERM first; descendants still alive after this get SIGKILL.
GRACE_S = 2.0
#: No run waits longer than this for its descendants to end.
DEADLINE_S = 30.0


def adopt_orphans() -> None:
    """Become the child subreaper (Linux); elsewhere a no-op."""
    try:
        libc = ctypes.CDLL(None, use_errno=True)
        libc.prctl(PR_SET_CHILD_SUBREAPER, 1, 0, 0, 0)
    except (OSError, AttributeError):
        pass


def _parents() -> dict[int, int]:
    """pid -> ppid of every process, from ``/proc``."""
    parents = {}
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
        fields = stat[stat.rfind(b")") + 2:].split()
        parents[int(entry)] = int(fields[1])
    return parents


def descendants(root: int) -> list[int]:
    """Every process below ``root``, parents before children."""
    children: dict[int, list[int]] = {}
    for pid, ppid in _parents().items():
        children.setdefault(ppid, []).append(pid)
    found, frontier = [], [root]
    while frontier:
        frontier = [child for pid in frontier
                    for child in children.get(pid, [])]
        found += frontier
    return found


def _stop_resource_tracker() -> None:
    """Let multiprocessing's resource tracker see EOF and exit, and
    wait for it (its ``_stop`` does both, when it has one)."""
    from multiprocessing import resource_tracker

    stop = getattr(resource_tracker._resource_tracker, "_stop", None)
    if stop is not None:
        stop()


def _reap() -> None:
    """Collect every child of this process that has ended."""
    while True:
        try:
            pid, _status = os.waitpid(-1, os.WNOHANG)
        except ChildProcessError:
            return
        if pid == 0:
            return


def stop_all() -> list[int]:
    """End and reap every descendant of this process; returns those
    still there at the deadline (none unless a process is stuck in the
    kernel)."""
    _stop_resource_tracker()
    me = os.getpid()
    started = time.monotonic()
    signalled: dict[int, int] = {}
    while True:
        _reap()
        left = descendants(me)
        now = time.monotonic()
        if not left or now - started > DEADLINE_S:
            return left
        sig = signal.SIGKILL if now - started > GRACE_S else signal.SIGTERM
        for pid in left:
            if signalled.get(pid) != sig:
                try:
                    os.kill(pid, sig)
                except ProcessLookupError:
                    pass
                signalled[pid] = sig
        time.sleep(0.02)
