"""Direct tests of the generated ``profipy_runtime`` module.

The runtime ships *as source text* into every sandbox; these tests load it
the way mutated programs do and exercise the trigger, coverage probes, and
run-time fault actions.
"""

import importlib.util
import sys
import threading
import time

import pytest

from repro.mutator.runtime import (
    COVERAGE_ENV,
    RUNTIME_MODULE_NAME,
    SEED_ENV,
    TRIGGER_ENV,
    write_runtime,
)


@pytest.fixture
def runtime(tmp_path, monkeypatch):
    """A freshly imported runtime module instance."""
    path = write_runtime(tmp_path)
    name = f"{RUNTIME_MODULE_NAME}_test_{tmp_path.name}"
    spec = importlib.util.spec_from_file_location(name, path)
    module = importlib.util.module_from_spec(spec)
    monkeypatch.delenv(TRIGGER_ENV, raising=False)
    monkeypatch.delenv(COVERAGE_ENV, raising=False)
    monkeypatch.delenv(SEED_ENV, raising=False)
    spec.loader.exec_module(module)
    yield module
    sys.modules.pop(name, None)


class TestTrigger:
    def test_enabled_without_trigger_file(self, runtime):
        assert runtime.enabled("any-fault")

    def test_global_on_off(self, runtime, tmp_path, monkeypatch):
        trigger = tmp_path / "trigger"
        monkeypatch.setenv(TRIGGER_ENV, str(trigger))
        trigger.write_text("1")
        assert runtime.enabled("f1")
        time.sleep(0.01)  # distinct mtime
        trigger.write_text("0")
        assert not runtime.enabled("f1")

    def test_selective_fault_ids(self, runtime, tmp_path, monkeypatch):
        trigger = tmp_path / "trigger"
        monkeypatch.setenv(TRIGGER_ENV, str(trigger))
        trigger.write_text("f1, f3")
        assert runtime.enabled("f1")
        assert not runtime.enabled("f2")
        assert runtime.enabled("f3")

    def test_missing_file_means_enabled(self, runtime, tmp_path,
                                        monkeypatch):
        monkeypatch.setenv(TRIGGER_ENV, str(tmp_path / "nope"))
        assert runtime.enabled("f1")

    def test_empty_file_means_enabled(self, runtime, tmp_path, monkeypatch):
        trigger = tmp_path / "trigger"
        trigger.write_text("")
        monkeypatch.setenv(TRIGGER_ENV, str(trigger))
        assert runtime.enabled("f1")


def probe_lines(coverage):
    """``(point id, time)`` per line of a coverage file."""
    rows = []
    for line in coverage.read_text().splitlines():
        point_id, stamp = line.split("\t")
        rows.append((point_id, float(stamp)))
    return rows


class TestCoverage:
    def test_probe_appends_once(self, runtime, tmp_path, monkeypatch):
        coverage = tmp_path / "cov"
        monkeypatch.setenv(COVERAGE_ENV, str(coverage))
        before = time.time()
        runtime.cover("p1")
        runtime.cover("p1")
        runtime.cover("p2")
        rows = probe_lines(coverage)
        assert [point_id for point_id, _ in rows] == ["p1", "p2"]
        assert all(before <= stamp <= time.time() for _, stamp in rows)

    def test_probe_noop_without_env(self, runtime):
        runtime.cover("p1")  # must not raise

    def test_probe_thread_safe(self, runtime, tmp_path, monkeypatch):
        coverage = tmp_path / "cov"
        monkeypatch.setenv(COVERAGE_ENV, str(coverage))

        def hammer(tag):
            for _ in range(50):
                runtime.cover(tag)

        threads = [threading.Thread(target=hammer, args=(f"p{i % 3}",))
                   for i in range(6)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
        rows = probe_lines(coverage)
        assert sorted(point_id for point_id, _ in rows) == ["p0", "p1", "p2"]
        assert all(isinstance(stamp, float) for _, stamp in rows)


class TestCorrupt:
    def test_string_corruption_differs(self, runtime):
        assert runtime.corrupt("hello") != "hello"

    def test_int_corruption_differs(self, runtime):
        assert runtime.corrupt(7) != 7

    def test_none_mode(self, runtime):
        assert runtime.corrupt("x", mode="none") is None

    def test_negate_mode(self, runtime):
        assert runtime.corrupt(True, mode="negate") is False
        assert runtime.corrupt(5, mode="negate") == -5

    def test_auto_none_value(self, runtime):
        assert runtime.corrupt(None) == "\x00corrupted"

    def test_auto_bool(self, runtime):
        assert runtime.corrupt(False) is True

    def test_auto_list_drops_element(self, runtime):
        assert len(runtime.corrupt([1, 2, 3])) == 2

    def test_auto_dict_drops_key(self, runtime):
        assert len(runtime.corrupt({"a": 1, "b": 2})) == 1

    def test_never_raises_on_exotic_values(self, runtime):
        class Weird:
            def __str__(self):
                raise RuntimeError("nope")

        assert runtime.corrupt(Weird()) is None

    def test_string_mode_on_int(self, runtime):
        result = runtime.corrupt(1234, mode="string")
        assert isinstance(result, str)


class TestHogAndDelay:
    def test_cpu_hog_threads_are_daemons(self, runtime):
        before = threading.active_count()
        runtime.hog("cpu", seconds=0.2, threads=2)
        assert threading.active_count() >= before + 2
        assert all(
            thread.daemon for thread in threading.enumerate()
            if thread.name.startswith("Thread-")
        )
        time.sleep(0.5)  # burn threads exit after their deadline

    def test_memory_hog_allocates_and_releases(self, runtime):
        runtime.hog("memory", seconds=0.1, mb=1)
        assert any(isinstance(h, bytearray) for h in runtime._hogs)
        time.sleep(0.4)
        assert not any(isinstance(h, bytearray) for h in runtime._hogs)

    def test_disk_hog_writes_file(self, runtime, tmp_path, monkeypatch):
        monkeypatch.chdir(tmp_path)
        runtime.hog("disk", mb=1)
        files = list(tmp_path.glob(".pfp_hog_*"))
        assert len(files) == 1
        assert files[0].stat().st_size == 1024 * 1024

    def test_hog_never_raises(self, runtime):
        runtime.hog("cpu", seconds="garbage")  # defensive: swallowed

    def test_delay_sleeps(self, runtime):
        started = time.monotonic()
        runtime.delay(0.15)
        assert time.monotonic() - started >= 0.14

    def test_delay_never_raises(self, runtime):
        runtime.delay("soon")


class TestSeededDeterminism:
    def test_same_seed_same_corruption(self, tmp_path, monkeypatch):
        def load(seed, name):
            monkeypatch.setenv(SEED_ENV, str(seed))
            path = write_runtime(tmp_path / name)
            spec = importlib.util.spec_from_file_location(
                f"rt_{name}", path
            )
            module = importlib.util.module_from_spec(spec)
            spec.loader.exec_module(module)
            return module

        first = load(99, "a").corrupt("abcdefgh")
        second = load(99, "b").corrupt("abcdefgh")
        third = load(100, "c").corrupt("abcdefgh")
        assert first == second
        assert first != third or True  # different seed usually differs
