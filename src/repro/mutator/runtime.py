"""The ProFIPy runtime support module shipped next to mutated sources.

Mutated programs import ``profipy_runtime`` (paper §IV-B): it implements the
EDFI-style *trigger* that enables/disables the faulty branch while the
target runs, the coverage probes used by the fault-free pre-run (§IV-D),
and the run-time actions behind ``$CORRUPT``, ``$HOG`` and ``$TIMEOUT``.

The paper toggles the trigger through a shared-memory word; we substitute a
small file re-read by the runtime (see DESIGN.md) so the tool can flip the
fault between workload rounds without restarting the target.  The module is
generated as *source text* (not imported from this package) because it must
be self-contained inside the sandbox.
"""

from __future__ import annotations

from pathlib import Path

#: Module name mutated files import.
RUNTIME_MODULE_NAME = "profipy_runtime"

#: Alias used inside mutated code (not name-mangled: two trailing underscores).
RUNTIME_ALIAS = "__pfp_rt__"

#: Environment variables understood by the runtime.
TRIGGER_ENV = "PROFIPY_TRIGGER_FILE"
COVERAGE_ENV = "PROFIPY_COVERAGE_FILE"
SEED_ENV = "PROFIPY_RNG_SEED"

RUNTIME_SOURCE = '''\
"""ProFIPy runtime support (auto-generated; do not edit).

Provides the fault trigger, coverage probes, and runtime fault actions for
mutated sources.  Every entry point is defensive: a broken runtime must
never add failures beyond the injected one.
"""

import os
import random
import threading
import time

TRIGGER_ENV = "PROFIPY_TRIGGER_FILE"
COVERAGE_ENV = "PROFIPY_COVERAGE_FILE"
SEED_ENV = "PROFIPY_RNG_SEED"

_rng = random.Random(int(os.environ.get(SEED_ENV, "0") or "0"))
_cover_seen = set()
_lock = threading.Lock()
_trigger_cache = {"path": None, "mtime": None, "value": True}
_hogs = []


def enabled(fault_id):
    """True when the injected fault identified by ``fault_id`` is active.

    The trigger file contains ``1``/``on`` (all faults active), ``0``/``off``
    (all inactive), or a comma-separated list of active fault ids.  Without
    a trigger file the fault is permanently active.
    """
    path = os.environ.get(TRIGGER_ENV)
    if not path:
        return True
    try:
        mtime = os.stat(path).st_mtime_ns
    except OSError:
        return True
    cache = _trigger_cache
    if cache["path"] != path or cache["mtime"] != mtime:
        try:
            with open(path, "r") as handle:
                content = handle.read().strip()
        except OSError:
            return True
        cache["path"] = path
        cache["mtime"] = mtime
        cache["value"] = content
    content = cache["value"]
    if content is True or content == "":
        return True
    if content in ("1", "on", "all", "true"):
        return True
    if content in ("0", "off", "none", "false"):
        return False
    return fault_id in [part.strip() for part in content.split(",")]


def cover(point_id):
    """Record that execution reached an injection point (coverage pre-run).

    Appends ``point_id<TAB>time.time()`` once per point per process; the
    pre-run keeps each point's earliest time as its reach time.
    """
    path = os.environ.get(COVERAGE_ENV)
    if not path:
        return
    reached = time.time()
    with _lock:
        if point_id in _cover_seen:
            return
        _cover_seen.add(point_id)
        try:
            with open(path, "a") as handle:
                handle.write("%s\\t%r\\n" % (point_id, reached))
        except OSError:
            pass


def corrupt(value, mode="auto"):
    """Type-aware value corruption backing the ``$CORRUPT`` directive."""
    try:
        if mode == "none":
            return None
        if mode == "negate":
            if isinstance(value, bool):
                return not value
            if isinstance(value, (int, float)):
                return -value
            return None
        if mode == "string" or (mode == "auto" and isinstance(value, str)):
            return _corrupt_string(value if isinstance(value, str) else str(value))
        if mode == "int" or (
            mode == "auto"
            and isinstance(value, int)
            and not isinstance(value, bool)
        ):
            return _corrupt_int(int(value))
        if mode == "auto":
            if value is None:
                return "\\x00corrupted"
            if isinstance(value, bool):
                return not value
            if isinstance(value, float):
                return -value if value else 1e308
            if isinstance(value, (list, tuple)):
                items = list(value)
                if items:
                    items.pop(_rng.randrange(len(items)))
                result = type(value)(items) if not isinstance(value, list) else items
                return result
            if isinstance(value, dict):
                items = dict(value)
                if items:
                    items.pop(_rng.choice(sorted(items, key=repr)))
                return items
            return None
    except Exception:
        return None
    return None


def _corrupt_string(value):
    if not value:
        return "\\x00"
    chars = list(value)
    count = max(1, len(chars) // 2)
    alphabet = "abcdefghijklmnopqrstuvwxyz0123456789#@!?~"
    for index in _rng.sample(range(len(chars)), min(count, len(chars))):
        original = chars[index]
        replacement = _rng.choice(alphabet)
        while replacement == original:
            replacement = _rng.choice(alphabet)
        chars[index] = replacement
    return "".join(chars)


def _corrupt_int(value):
    candidates = [c for c in (-value, 0, value + 1, value - 1, -1, 2 ** 31 - 1)
                  if c != value]
    return _rng.choice(candidates or [value - 1])


def hog(resource="cpu", seconds=2.0, threads=2, mb=64):
    """Spawn a resource hog (``$HOG``): stale CPU threads, memory, or disk.

    CPU hogs are daemon threads so they die with the process; ``seconds <= 0``
    means "until process exit" (a truly stale thread, as in paper §V-C).
    """
    try:
        seconds = float(seconds)
        if resource == "cpu":
            deadline = None if seconds <= 0 else time.monotonic() + seconds
            for _ in range(max(1, int(threads))):
                thread = threading.Thread(
                    target=_burn_cpu, args=(deadline,), daemon=True
                )
                thread.start()
                _hogs.append(thread)
        elif resource == "memory":
            _hogs.append(bytearray(int(mb) * 1024 * 1024))
            if seconds > 0:
                timer = threading.Timer(seconds, _release_memory)
                timer.daemon = True
                timer.start()
        elif resource == "disk":
            path = os.path.join(os.getcwd(), ".pfp_hog_%d" % _rng.randrange(10 ** 9))
            with open(path, "wb") as handle:
                handle.write(b"\\0" * int(mb) * 1024 * 1024)
            _hogs.append(path)
    except Exception:
        pass


def _burn_cpu(deadline):
    value = 1.0
    while deadline is None or time.monotonic() < deadline:
        value = value * 1.0000001 + 1.0
        if value > 1e12:
            value = 1.0


def _release_memory():
    _hogs[:] = [h for h in _hogs if not isinstance(h, bytearray)]


def delay(seconds=1.0):
    """Inject an artificial time delay (``$TIMEOUT``)."""
    try:
        time.sleep(float(seconds))
    except Exception:
        pass
'''


def write_runtime(directory: str | Path) -> Path:
    """Write ``profipy_runtime.py`` into ``directory`` and return its path."""
    directory = Path(directory)
    directory.mkdir(parents=True, exist_ok=True)
    path = directory / f"{RUNTIME_MODULE_NAME}.py"
    path.write_text(RUNTIME_SOURCE, encoding="utf-8")
    return path
