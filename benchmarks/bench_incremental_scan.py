"""Incremental tree scan: a k-file change re-scans k files, not N.

A re-campaign over a tree the tool has already scanned should cost work
proportional to what actually changed.  The stat manifest lets unchanged
files skip read+hash entirely, and the tree manifest serves a fully
unchanged tree from one cache entry.  The bench asserts the bookkeeping
(reads == k, stat trusts == N - k) and that the warm re-scan beats the
cold scan wall-clock.
"""

import os
import time

from conftest import write_result

from repro.faultmodel.library import extended_model, gswfit_model
from repro.scanner.cache import ScanCache
from repro.scanner.scan import scan_tree
from repro.synth import SynthConfig, generate_codebase

CHANGED = 3


def touch(path):
    stat = path.stat()
    path.write_text(path.read_text(encoding="utf-8") + "\n# touched\n",
                    encoding="utf-8")
    os.utime(path, ns=(stat.st_atime_ns + 1_000_000_000,
                       stat.st_mtime_ns + 1_000_000_000))


def test_incremental_rescan_cost(benchmark, tmp_path):
    project = tmp_path / "project"
    generate_codebase(project, SynthConfig(files=40, seed=31))
    specs = (gswfit_model().enabled_specs()
             + extended_model().enabled_specs())
    files = sorted(project.rglob("*.py"))
    cache = ScanCache(tmp_path / "cache")

    started = time.monotonic()
    cold = scan_tree(project, specs, cache=cache)
    cold_time = time.monotonic() - started
    assert cache.stats()["files_read"] == len(files)

    started = time.monotonic()
    unchanged = scan_tree(project, specs, cache=cache)
    unchanged_time = time.monotonic() - started
    stats = cache.stats()
    assert unchanged.points == cold.points
    assert stats["files_read"] == len(files)  # no new reads at all
    assert stats["tree_hits"] == 1

    for path in files[:CHANGED]:
        touch(path)
    before = cache.stats()
    started = time.monotonic()
    scan_tree(project, specs, cache=cache)
    changed_time = time.monotonic() - started
    after = cache.stats()
    assert after["files_read"] - before["files_read"] == CHANGED
    assert (after["stat_hits"] - before["stat_hits"]
            == len(files) - CHANGED)

    benchmark(scan_tree, project, specs, cache=cache)

    # Loose wall-clock sanity: a warm re-scan must not cost a cold scan.
    assert unchanged_time < cold_time

    write_result(
        "incremental_scan",
        "Re-campaign scan cost over a cached tree "
        f"({len(files)} files):\n"
        f"  cold scan:           {cold_time * 1000:.0f} ms "
        f"({len(files)} files read)\n"
        f"  unchanged re-scan:   {unchanged_time * 1000:.0f} ms "
        "(0 files read, 1 tree-manifest hit)\n"
        f"  {CHANGED}-file re-scan:      {changed_time * 1000:.0f} ms "
        f"({CHANGED} files read, {len(files) - CHANGED} stat trusts)",
        metrics={
            "cold_scan_s": (cold_time, "s"),
            "unchanged_rescan_s": (unchanged_time, "s"),
            f"changed_{CHANGED}_rescan_s": (changed_time, "s"),
            "cold_files_read": (len(files), "count"),
            "unchanged_files_read": (stats["files_read"] - len(files),
                                     "count"),
            f"changed_{CHANGED}_files_read": (
                after["files_read"] - before["files_read"], "count"),
        },
    )
