"""Campaign benchmark: one command, every workload, over the ``/v1`` API.

Run from the repository root::

    python3 campaignbench/run.py --workload scan-openstack --seed 1 \\
        --seconds 15 --trace 0

It starts the service in-process behind its loopback HTTP server and
drives it with one client as a closed loop with a single outstanding
campaign.  ``--trace 0`` prints the end-to-end metrics; ``--trace 1``
runs the same loop untraced and then traced, and prints the per-layer
metrics and the tracing overhead.  The last line of standard output is
one JSON object: ``{"correct", "attempted", "failed", "metrics"}``.
See ``README.md`` next to this file.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import signal
import statistics
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent

#: Set-ups per run; ``setup_s`` is their median.
SETUP_REPEATS = 3

END_TO_END_UNITS = {
    "setup_s": "s",
    "cold_turnaround_p50_s": "s",
    "rescan_turnaround_p50_s": "s",
    "experiments_per_s": "1/s",
    "experiment_p50_ms": "ms",
    "cpu_ms_per_experiment": "ms",
    "peak_rss_mb": "MB",
}


def tail_percentile(values: list[float]) -> tuple[int, float] | None:
    """The highest percentile with at least ten samples beyond it."""
    percentile = int(100 * (1 - 10 / max(len(values), 1)))
    if percentile <= 50:
        return None
    return percentile, statistics.quantiles(values, n=100)[percentile - 1]


def describe(name: str, values: list[float], unit: str,
             scale: float = 1.0) -> str:
    values = [value * scale for value in values]
    if not values:
        return f"  {name}: no samples"
    text = (f"  {name}: p50 {statistics.median(values):.4g} {unit}"
            f" (n={len(values)}")
    tail = tail_percentile(values)
    if tail is not None:
        text += f", p{tail[0]} {tail[1]:.4g} {unit}"
    return text + ")"


def git_sha() -> str:
    head = ROOT / ".git" / "HEAD"
    try:
        ref = head.read_text().strip()
        if ref.startswith("ref: "):
            return (ROOT / ".git" / ref[5:]).read_text().strip()
        return ref
    except OSError:
        return "unknown (not a git checkout)"


def cpu_ticks() -> tuple[int, int]:
    """(steal, total) jiffies of the host's CPUs, from ``/proc/stat``."""
    try:
        with open("/proc/stat") as handle:
            fields = [int(value) for value in handle.readline().split()[1:]]
    except (OSError, ValueError):
        return 0, 0
    return (fields[7] if len(fields) > 7 else 0), sum(fields)


def diagnostics() -> str:
    load = ", ".join(f"{value:.2f}" for value in os.getloadavg())
    return (f"host: nproc {os.cpu_count()}, load average {load}, "
            f"python {platform.python_version()}, git {git_sha()}")


def end_to_end(bench, runs: list) -> dict[str, float]:
    experiments = [e for run in runs for e in run.experiments]
    cold = [run.turnaround for run in runs if run.kind == "cold"]
    rescan = [run.turnaround for run in runs if run.kind == "rescan"]
    durations = [e.duration for e in experiments]
    print("end-to-end (untraced):")
    for line in (
        describe("setup", bench.setup_times, "s"),
        describe("cold turnaround", cold, "s"),
        describe("rescan turnaround", rescan, "s"),
        describe("experiment duration", durations, "ms", 1000),
    ):
        print(line)
    return {
        "setup_s": statistics.median(bench.setup_times),
        "cold_turnaround_p50_s": statistics.median(cold),
        "rescan_turnaround_p50_s": statistics.median(rescan),
        "experiments_per_s": (len(experiments)
                              / sum(run.turnaround for run in runs)),
        "experiment_p50_ms": 1000 * statistics.median(durations),
        "cpu_ms_per_experiment": (1000 * sum(run.cpu for run in runs)
                                  / len(experiments)),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
                        / 1024),
    }


def per_layer(bench, runs: list, untraced: list) -> dict:
    """Per-layer metrics of the traced ``runs`` (name → (value, unit))."""
    from workloads import PARALLELISM

    samples = bench.tracer.samples
    campaigns = len(runs)
    experiments = [e for run in runs for e in run.experiments]
    execute_s = sum(samples["backends.execute"])

    def per_campaign_ms(name):
        return 1000 * sum(samples[name]) / campaigns

    def median(values, scale=1.0):
        return scale * statistics.median(values) if values else 0.0

    if bench.workload.backend == "process":
        # Spawned shard workers are out of reach of the wrappers: take
        # their layers from the records the program writes.
        rounds = [r.duration for e in experiments for r in e.rounds]
        spawns = sum(len(r.commands) for e in experiments for r in e.rounds)
        spawns += sum(1 for e in experiments for log in e.logs
                      if log.startswith(".service-") and log.endswith(".out"))
        busy = sum(e.duration for e in experiments)
    else:
        rounds = samples["workload.round"]
        spawns = len(samples["workload.spawns"])
        busy = sum(samples["pool.busy"])
    cold_scan = sum(samples["scanner.cold_scan"])
    patch_calls = len(samples["mutator.patch_calls"])
    mutants = sum(samples["mutator.mutants"])
    recorded = sum(e.duration for e in experiments)
    slots_s = PARALLELISM * execute_s
    traced_cost = sum(r.turnaround for r in runs) / len(experiments)
    untraced_cost = (sum(r.turnaround for r in untraced)
                     / sum(len(r.experiments) for r in untraced))
    metrics = {
        "faultmodel.compile_ms": (per_campaign_ms("faultmodel.compile"),
                                  "ms"),
        "scanner.cold_scan_ms": (median(samples["scanner.cold_scan"], 1000),
                                 "ms"),
        "scanner.kloc_per_s": (sum(samples["scanner.cold_lines"]) / 1000
                               / cold_scan if cold_scan else 0.0, "kloc/s"),
        "scanner.rescan_ms": (median(samples["scanner.rescan_scan"], 1000),
                              "ms"),
        "scanner.files_read": (median(samples["scanner.files_read"]),
                               "count"),
        "coverage.run_ms": (per_campaign_ms("coverage.run"), "ms"),
        "mutator.instrument_ms": (per_campaign_ms("mutator.instrument"),
                                  "ms"),
        "mutator.generate_ms_per_mutant": (
            1000 * sum(samples["mutator.generate"]) / mutants
            if mutants else 0.0, "ms"),
        "mutator.span_decline_share": (
            len(samples["mutator.patch_declines"]) / patch_calls
            if patch_calls else 0.0, "share"),
        "sandbox.build_ms": (per_campaign_ms("sandbox.build"), "ms"),
        "sandbox.instantiate_ms": (median(samples["sandbox.instantiate"],
                                          1000), "ms"),
        "sandbox.instantiate_bytes": (
            median(samples["sandbox.instantiate_bytes"]), "count"),
        "sandbox.destroy_ms": (median(samples["sandbox.destroy"], 1000),
                               "ms"),
        "workload.start_services_ms": (
            median(samples["workload.start_services"], 1000), "ms"),
        "workload.round_ms": (median(rounds, 1000), "ms"),
        "workload.spawns_per_experiment": (spawns / len(experiments),
                                           "count"),
        "pool.busy_share": (busy / slots_s if slots_s else 0.0, "share"),
        "stream.append_ms": (median(samples["stream.append"], 1000), "ms"),
        "backends.execute_ms": (per_campaign_ms("backends.execute"), "ms"),
        "backends.merge_ms": (per_campaign_ms("backends.merge"), "ms"),
        "backends.idle_share": (1 - recorded / slots_s if slots_s else 0.0,
                                "share"),
        "service.queue_wait_ms": (median([r.queue_wait for r in runs],
                                         1000), "ms"),
        "service.wait_return_ms": (median([r.wait_return for r in runs],
                                          1000), "ms"),
        "service.fetch_ms": (median([r.fetch for r in runs], 1000), "ms"),
        "analysis.report_ms": (per_campaign_ms("analysis.report"), "ms"),
        "trace.overhead_pct": (100 * (traced_cost / untraced_cost - 1),
                               "%"),
    }
    print("per-layer (traced):")
    for name, (value, unit) in metrics.items():
        print(f"  {name}: {value:.4g} {unit}")
    print(f"tracing overhead: {traced_cost * 1000:.1f} ms vs "
          f"{untraced_cost * 1000:.1f} ms of turnaround per experiment "
          f"traced vs untraced "
          f"({metrics['trace.overhead_pct'][0]:+.1f}%)")
    return metrics


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--tiny", action="store_true",
                        help="small inputs (self-test only)")
    args = parser.parse_args(argv)

    if not (ROOT / "src" / "repro").is_dir():
        print(f"error: {ROOT / 'src' / 'repro'} not found; run from a "
              "checkout of the repository", file=sys.stderr)
        return 2
    sys.path.insert(0, str(ROOT / "src"))
    from children import adopt_orphans, stop_all
    from harness import Bench, remove
    from layertrace import Tracer, traced
    from workloads import make_workload

    workload = make_workload(args.workload, tiny=args.tiny)
    work = ROOT / ".bench_work" / f"{args.workload}-{os.getpid()}"
    (work / "tmp").mkdir(parents=True, exist_ok=True)
    # Everything the run writes stays inside the checkout.
    os.environ["TMPDIR"] = str(work / "tmp")
    tempfile.tempdir = None
    print(diagnostics())
    adopt_orphans()
    # A terminated run still ends its processes (the ``finally`` below).
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(128 + signal.SIGTERM))
    bench = Bench(workload, args.seed, work)
    try:
        bench.setup(1 if args.tiny else SETUP_REPEATS)
        bench.build_references()
        steal_before = cpu_ticks()
        runs = bench.measure(args.seconds, "untraced")
        steal, total = (after - before for after, before
                        in zip(cpu_ticks(), steal_before))
        print(f"host: CPU steal during the measured loop "
              f"{100 * steal / max(total, 1):.1f}%")
        if args.trace:
            bench.tracer = Tracer()
            with traced(bench.tracer):
                traced_runs = bench.measure(args.seconds, "traced")
            metrics = per_layer(bench, traced_runs, runs)
            runs += traced_runs
        else:
            metrics = {name: (value, END_TO_END_UNITS[name])
                       for name, value in end_to_end(bench, runs).items()}
    finally:
        try:
            bench.close()
        finally:
            left = stop_all()
        remove(work)
        try:
            work.parent.rmdir()
        except OSError:
            pass  # another run still uses it
    if left:
        print(f"error: processes {left} did not end", file=sys.stderr)
        return 1
    correct = all(run.correct for run in runs)
    attempted = sum(max(run.planned, 1) for run in runs)
    failed = sum(run.failed for run in runs)
    print(f"campaigns: {len(runs)}, experiments attempted {attempted}, "
          f"failed {failed}, correct {correct}")
    print(json.dumps({
        "correct": correct,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in metrics.items()},
    }))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
