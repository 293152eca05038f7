"""Tests for the sandbox substrate: images, sandboxes, limits, pool."""

import os
import signal
import threading
import time

import pytest

from repro.sandbox import (
    ExperimentPool,
    ImageBuildError,
    ResourceMonitor,
    Sandbox,
    SandboxImage,
    default_parallelism,
    memory_available_fraction,
)


@pytest.fixture
def project(tmp_path):
    source = tmp_path / "project"
    source.mkdir()
    (source / "app.py").write_text("VALUE = 1\n")
    (source / "data.txt").write_text("payload\n")
    return source


@pytest.fixture
def image(project, tmp_path):
    return SandboxImage.build(project, tmp_path / "image")


class TestImage:
    def test_build_copies_tree_and_runtime(self, image):
        assert image.read_file("app.py") == "VALUE = 1\n"
        assert "def enabled" in image.read_file("profipy_runtime.py")

    def test_env_directive(self, project, tmp_path):
        image = SandboxImage.build(
            project, tmp_path / "img2",
            containerfile="ENV APP_MODE=test\n# comment\n",
        )
        assert image.env == {"APP_MODE": "test"}

    def test_copy_directive(self, project, tmp_path):
        extra = tmp_path / "extra.cfg"
        extra.write_text("cfg\n")
        image = SandboxImage.build(
            project, tmp_path / "img3",
            containerfile="COPY extra.cfg conf/extra.cfg\n",
            context_dir=tmp_path,
        )
        assert image.read_file("conf/extra.cfg") == "cfg\n"

    def test_run_directive(self, project, tmp_path):
        image = SandboxImage.build(
            project, tmp_path / "img4",
            containerfile="RUN echo generated > gen.txt\n",
        )
        assert image.read_file("gen.txt").strip() == "generated"

    def test_bad_directive_rejected(self, project, tmp_path):
        with pytest.raises(ImageBuildError, match="unsupported"):
            SandboxImage.build(project, tmp_path / "img5",
                               containerfile="VOLUME /data\n")

    def test_failing_run_rejected(self, project, tmp_path):
        with pytest.raises(ImageBuildError, match="RUN"):
            SandboxImage.build(project, tmp_path / "img6",
                               containerfile="RUN exit 9\n")

    def test_copy_missing_source(self, project, tmp_path):
        with pytest.raises(ImageBuildError, match="does not exist"):
            SandboxImage.build(project, tmp_path / "img7",
                               containerfile="COPY nope.txt x\n")

    def test_instantiate_is_fresh_copy(self, image, tmp_path):
        first = image.instantiate(tmp_path / "inst1")
        (first / "app.py").write_text("VALUE = 99\n")
        second = image.instantiate(tmp_path / "inst2")
        assert (second / "app.py").read_text() == "VALUE = 1\n"


class TestSandbox:
    def test_isolated_env(self, image, tmp_path):
        with Sandbox.create(image, tmp_path / "boxes", "exp-1") as sandbox:
            result = sandbox.run("echo $HOME && echo $PROFIPY_SANDBOX",
                                 timeout=10)
            home, name = result.stdout.strip().splitlines()
            assert home.startswith(str(sandbox.root))
            assert name == "exp-1"

    def test_python_placeholder(self, image, tmp_path):
        with Sandbox.create(image, tmp_path / "boxes", "exp-2") as sandbox:
            result = sandbox.run("{python} -c 'import app; print(app.VALUE)'",
                                 timeout=30)
            assert result.stdout.strip() == "1"

    def test_write_read_file(self, image, tmp_path):
        with Sandbox.create(image, tmp_path / "boxes", "exp-3") as sandbox:
            sandbox.write_file("sub/dir/file.txt", "content")
            assert sandbox.read_file("sub/dir/file.txt") == "content"

    def test_service_lifecycle_and_cleanup(self, image, tmp_path):
        sandbox = Sandbox.create(image, tmp_path / "boxes", "exp-4")
        service = sandbox.start_service("sleep 60")
        assert service.alive()
        assert sandbox.services_alive()
        sandbox.destroy()
        assert not service.alive()
        assert not sandbox.root.exists()

    def test_destroy_kills_group_member_that_ignores_sigterm(
            self, image, tmp_path):
        # The shell leader dies on SIGTERM; its child ignores SIGTERM and
        # must still not outlive the sandbox.
        sandbox = Sandbox.create(image, tmp_path / "boxes", "exp-4b")
        sandbox.start_service(
            "{python} -c 'import os, signal, time; "
            "signal.signal(signal.SIGTERM, signal.SIG_IGN); "
            "open(\"member.pid\", \"w\").write(str(os.getpid())); "
            "time.sleep(30)' & wait"
        )
        assert sandbox.wait_for_file("member.pid")
        pid = int(sandbox.read_file("member.pid"))
        try:
            sandbox.destroy()
            deadline = time.monotonic() + 1.0
            while _process_state(pid) not in (None, "Z"):
                assert time.monotonic() < deadline, \
                    f"group member {pid} survived teardown"
                time.sleep(0.01)
        finally:
            try:
                os.kill(pid, signal.SIGKILL)
            except ProcessLookupError:
                pass

    def test_service_logs_collected(self, image, tmp_path):
        with Sandbox.create(image, tmp_path / "boxes", "exp-5") as sandbox:
            sandbox.start_service("echo serving; echo oops >&2")
            time.sleep(0.3)
            logs = sandbox.service_logs()
            assert any("serving" in text for text in logs.values())
            assert any("oops" in text for text in logs.values())

    def test_collect_logs_glob(self, image, tmp_path):
        with Sandbox.create(image, tmp_path / "boxes", "exp-6") as sandbox:
            sandbox.write_file("out/app.log", "ERROR boom")
            logs = sandbox.collect_logs(["out/*.log"])
            assert logs == {"out/app.log": "ERROR boom"}

    def test_wait_for_file(self, image, tmp_path):
        with Sandbox.create(image, tmp_path / "boxes", "exp-7") as sandbox:
            sandbox.start_service("sleep 0.2; echo 1234 > ready.txt")
            assert sandbox.wait_for_file("ready.txt", timeout=5)

    def test_wait_for_file_timeout(self, image, tmp_path):
        with Sandbox.create(image, tmp_path / "boxes", "exp-8") as sandbox:
            assert not sandbox.wait_for_file("never.txt", timeout=0.2)

    def test_destroyed_sandbox_rejects_commands(self, image, tmp_path):
        sandbox = Sandbox.create(image, tmp_path / "boxes", "exp-9")
        sandbox.destroy()
        with pytest.raises(RuntimeError, match="destroyed"):
            sandbox.run("true")

    def test_destroy_idempotent(self, image, tmp_path):
        sandbox = Sandbox.create(image, tmp_path / "boxes", "exp-10")
        sandbox.destroy()
        sandbox.destroy()


def _process_state(pid):
    """The state letter from ``/proc/<pid>/stat``, or None when gone."""
    try:
        with open(f"/proc/{pid}/stat", encoding="utf-8") as handle:
            stat = handle.read()
    except FileNotFoundError:
        return None
    return stat.rsplit(")", 1)[1].split()[0]


class TestLimits:
    def test_default_parallelism_is_n_minus_one(self):
        import os

        cores = os.cpu_count() or 1
        assert default_parallelism() == max(1, cores - 1)

    def test_memory_fraction_sane(self):
        fraction = memory_available_fraction()
        assert 0.0 <= fraction <= 1.0

    def test_monitor_caps_at_max(self):
        monitor = ResourceMonitor(max_parallelism=4,
                                  memory_threshold=0.0,
                                  load_threshold=10**9)
        assert monitor.current_parallelism() == 4

    def test_monitor_halves_under_pressure(self):
        monitor = ResourceMonitor(max_parallelism=8,
                                  memory_threshold=1.1,   # always "low"
                                  load_threshold=10**9)
        assert monitor.current_parallelism() == 4


class TestPool:
    def test_results_in_submission_order(self):
        pool = ExperimentPool(parallelism=4)
        outcomes = pool.run([lambda i=i: i * 10 for i in range(8)])
        assert [o.result for o in outcomes] == [i * 10 for i in range(8)]

    def test_errors_captured_per_job(self):
        def boom():
            raise ValueError("nope")

        pool = ExperimentPool(parallelism=2)
        outcomes = pool.run([boom, lambda: "ok"])
        assert not outcomes[0].ok
        assert "ValueError" in outcomes[0].error
        assert outcomes[1].result == "ok"

    def test_parallelism_bounded(self):
        active = []
        peak = []
        lock = threading.Lock()

        def job():
            with lock:
                active.append(1)
                peak.append(len(active))
            time.sleep(0.05)
            with lock:
                active.pop()
            return True

        pool = ExperimentPool(parallelism=3)
        pool.run([job for _ in range(12)])
        assert max(peak) <= 3

    def test_on_result_callback(self):
        seen = []
        pool = ExperimentPool(parallelism=2)
        pool.run([lambda: 1, lambda: 2], on_result=lambda o: seen.append(o))
        assert len(seen) == 2

    def test_on_result_exception_captured_and_pool_drains(self):
        # Regression: an exception raised by the on_result callback
        # (e.g. a failed stream append) escaped run_job, was re-raised
        # by future.result(), and killed the whole campaign mid-flight.
        calls = []

        def flaky_sink(outcome):
            calls.append(outcome.index)
            if outcome.result == 1:
                raise OSError("disk full")

        pool = ExperimentPool(parallelism=2)
        outcomes = pool.run([lambda: 0, lambda: 1, lambda: 2, lambda: 3],
                            on_result=flaky_sink)
        assert len(outcomes) == 4  # the pool drained every job
        assert sorted(calls) == [0, 1, 2, 3]
        failed = [o for o in outcomes if not o.ok]
        assert len(failed) == 1
        assert failed[0].index == 1
        # The sink failure is structured: the job's own error stays
        # untouched (it succeeded), the callback traceback rides
        # sink_error.
        assert failed[0].error is None
        assert "disk full" in failed[0].sink_error
        assert failed[0].result is None
        assert all(o.ok for o in outcomes if o.index != 1)

    def test_empty_jobs(self):
        assert ExperimentPool().run([]) == []
