"""Timing wrappers around the public entry points of each layer.

The traced run installs these wrappers from outside the program: each
name is patched where its callers look it up.  ``executor.py`` binds
``run_round``, ``start_services`` and ``generate_mutants`` with ``from``
imports, ``campaign.py`` binds ``scan_files`` and ``run_coverage``, and
``mutate.py`` binds ``patch_mutant``, so those are patched in the
importing module; class methods are patched once on the class.
Spawned shard workers of the process backend are out of reach: their
layers are taken from the records the program writes instead.
"""

from __future__ import annotations

import os
import threading
import time
from collections import defaultdict
from contextlib import contextmanager

from repro.analysis.report import CampaignReport
from repro.faultmodel.model import FaultModel
from repro.mutator.mutate import Mutator
from repro.orchestrator.backends import ProcessBackend, ThreadBackend
from repro.orchestrator.executor import ExperimentExecutor
from repro.orchestrator.stream import ExperimentStream
from repro.sandbox.image import SandboxImage
from repro.sandbox.sandbox import Sandbox


def _tree_bytes(root) -> int:
    total = 0
    for directory, _dirs, files in os.walk(root):
        for name in files:
            try:
                total += os.lstat(os.path.join(directory, name)).st_size
            except OSError:
                pass
    return total


class Tracer:
    """Collects per-layer samples while installed.

    ``samples[name]`` holds one value per call (seconds, or a count);
    ``phase`` tags scan samples as ``cold`` or ``rescan`` — the closed
    loop has a single outstanding campaign, so one field is enough.
    """

    def __init__(self) -> None:
        self.samples: dict[str, list[float]] = defaultdict(list)
        self.phase = "cold"
        self._lock = threading.Lock()
        self._local = threading.local()
        self._undo: list = []

    def add(self, name: str, value: float) -> None:
        with self._lock:
            self.samples[name].append(value)

    def in_experiment(self) -> bool:
        """Whether this thread is inside ``ExperimentExecutor.run``."""
        return getattr(self._local, "experiment", False)

    # -- installation ----------------------------------------------------------

    def _set(self, owner, attr: str, value) -> None:
        original = owner.__dict__[attr]
        self._undo.append((owner, attr, original))
        setattr(owner, attr, value)

    def _timed(self, name: str, func):
        tracer = self

        def wrapper(*args, **kwargs):
            started = time.perf_counter()
            try:
                return func(*args, **kwargs)
            finally:
                tracer.add(name, time.perf_counter() - started)
        return wrapper

    def install(self) -> None:
        import repro.mutator.mutate as mutate_module
        import repro.orchestrator.backends as backends_module
        import repro.orchestrator.campaign as campaign_module
        import repro.orchestrator.executor as executor_module

        tracer = self
        timed = self._timed

        self._set(FaultModel, "compile",
                  timed("faultmodel.compile", FaultModel.compile))
        self._set(Mutator, "instrument_source",
                  timed("mutator.instrument", Mutator.instrument_source))
        self._set(ExperimentStream, "append",
                  timed("stream.append", ExperimentStream.append))
        self._set(ThreadBackend, "execute",
                  timed("backends.execute", ThreadBackend.execute))
        self._set(ProcessBackend, "execute",
                  timed("backends.execute", ProcessBackend.execute))
        self._set(CampaignReport, "render",
                  timed("analysis.report", CampaignReport.render))
        self._set(CampaignReport, "__post_init__",
                  timed("analysis.report", CampaignReport.__post_init__))
        self._set(SandboxImage, "build", classmethod(timed(
            "sandbox.build", SandboxImage.__dict__["build"].__func__)))
        self._set(campaign_module, "run_coverage",
                  timed("coverage.run", campaign_module.run_coverage))
        self._set(backends_module, "merge_and_backfill",
                  timed("backends.merge", backends_module.merge_and_backfill))
        self._set(executor_module, "run_round",
                  timed("workload.round", executor_module.run_round))
        self._set(executor_module, "start_services",
                  timed("workload.start_services",
                        executor_module.start_services))

        # Sandbox layers count inside experiments only: the coverage
        # pre-run's sandbox belongs to ``coverage.run``.
        create = Sandbox.__dict__["create"].__func__

        def sandbox_create(cls, *args, **kwargs):
            started = time.perf_counter()
            sandbox = create(cls, *args, **kwargs)
            if tracer.in_experiment():
                tracer.add("sandbox.instantiate",
                           time.perf_counter() - started)
                tracer.add("sandbox.instantiate_bytes",
                           _tree_bytes(sandbox.root))
            return sandbox

        self._set(Sandbox, "create", classmethod(sandbox_create))

        destroy = Sandbox.destroy

        def sandbox_destroy(sandbox):
            started = time.perf_counter()
            destroy(sandbox)
            if tracer.in_experiment():
                tracer.add("sandbox.destroy", time.perf_counter() - started)

        self._set(Sandbox, "destroy", sandbox_destroy)

        def counting(func):
            def wrapper(sandbox, *args, **kwargs):
                if tracer.in_experiment():
                    tracer.add("workload.spawns", 1)
                return func(sandbox, *args, **kwargs)
            return wrapper

        self._set(Sandbox, "run", counting(Sandbox.run))
        self._set(Sandbox, "start_service", counting(Sandbox.start_service))

        executor_run = ExperimentExecutor.run

        def run_experiment(executor, *args, **kwargs):
            tracer._local.experiment = True
            started = time.perf_counter()
            try:
                return executor_run(executor, *args, **kwargs)
            finally:
                tracer.add("pool.busy", time.perf_counter() - started)
                tracer._local.experiment = False

        self._set(ExperimentExecutor, "run", run_experiment)

        generate = executor_module.generate_mutants

        def generate_mutants(requests, *args, **kwargs):
            started = time.perf_counter()
            mutants = generate(requests, *args, **kwargs)
            tracer.add("mutator.generate", time.perf_counter() - started)
            tracer.add("mutator.mutants", len(mutants))
            return mutants

        self._set(executor_module, "generate_mutants", generate_mutants)

        patch = mutate_module.patch_mutant

        def patch_mutant(*args, **kwargs):
            patched = patch(*args, **kwargs)
            tracer.add("mutator.patch_calls", 1)
            if patched is None:
                tracer.add("mutator.patch_declines", 1)
            return patched

        self._set(mutate_module, "patch_mutant", patch_mutant)

        scan = campaign_module.scan_files

        def scan_files(paths, *args, **kwargs):
            started = time.perf_counter()
            result = scan(paths, *args, **kwargs)
            elapsed = time.perf_counter() - started
            phase = tracer.phase
            tracer.add(f"scanner.{phase}_scan", elapsed)
            if phase == "cold":
                lines = 0
                for path in paths:
                    try:
                        with open(path, "rb") as handle:
                            lines += handle.read().count(b"\n")
                    except OSError:
                        pass
                tracer.add("scanner.cold_lines", lines)
            cache = kwargs.get("cache")
            if phase == "rescan" and cache is not None:
                tracer.add("scanner.files_read", cache.stats()["files_read"])
            return result

        self._set(campaign_module, "scan_files", scan_files)

    def uninstall(self) -> None:
        while self._undo:
            owner, attr, original = self._undo.pop()
            setattr(owner, attr, original)


@contextmanager
def traced(tracer: Tracer):
    tracer.install()
    try:
        yield tracer
    finally:
        tracer.uninstall()
