"""VD3 — prefilter effectiveness: indexed scan engine vs. naive matcher.

The §V-D scalability story hinges on the scan being cheap per (spec, file)
pair.  This bench measures, on the same seeded synthetic corpus and the
same 120-pattern faultload as ``bench_perf_scan_large``:

* the **prefilter hit-rate** — the fraction of spec x file matcher runs the
  compile-time fingerprint requirements eliminate outright, and the
  fraction of window starts the statement-level anchor index skips inside
  the files that remain;
* the **speedup** of the indexed engine (prefilter + anchor index + one
  shared AST walk per file) over an unfiltered reference that walks the
  file per spec and tries a window at every statement;
* **equivalence** — both engines must produce identical injection points.
"""

import ast
import time

from conftest import write_result

from repro.faultmodel.library import expand_api_faults
from repro.scanner.matcher import Match, Matcher
from repro.scanner.scan import ScanEngine
from repro.synth import SynthConfig, generate_codebase, scan_pattern_apis


def every_start_matches(model, tree):
    """Unfiltered matcher: a window at every start of every statement list,
    with the engine's anchor dedup and sort order."""
    matcher = Matcher(model)
    matches = []
    seen = set()
    for node in ast.walk(tree):
        for fname, value in ast.iter_fields(node):
            if not (isinstance(value, list) and value
                    and all(isinstance(item, ast.stmt) for item in value)):
                continue
            for start in range(len(value)):
                match = matcher.match_at(node, fname, value, start)
                if match is not None and match.anchor_key not in seen:
                    seen.add(match.anchor_key)
                    matches.append(match)
    matches.sort(key=Match.sort_key)
    return matches


def naive_point_keys(sources, models):
    """The unfiltered scan shape: one full walk + every-start matcher run
    per (file, spec)."""
    keys = []
    for name, source in sources:
        tree = ast.parse(source)
        for model in models:
            for ordinal, match in enumerate(every_start_matches(model, tree)):
                keys.append((name, model.name, ordinal,
                             match.lineno, match.end_lineno))
    return keys


def indexed_point_keys(sources, engine):
    keys = []
    for name, source in sources:
        for row in engine.scan_rows(source):
            keys.append((name, row["spec_name"], row["ordinal"],
                         row["lineno"], row["end_lineno"]))
    return keys


def test_prefilter_hit_rate_and_speedup(benchmark, tmp_path_factory):
    dest = tmp_path_factory.mktemp("synth-prefilter")
    generate_codebase(dest, SynthConfig(files=12, seed=42))
    sources = [
        (path.name, path.read_text(encoding="utf-8"))
        for path in sorted(dest.rglob("*.py"))
    ]

    model = expand_api_faults(scan_pattern_apis(), kinds=None,
                              model_name="vd3")
    models = model.compile()
    assert len(models) == 120

    started = time.monotonic()
    naive_keys = naive_point_keys(sources, models)
    naive_seconds = time.monotonic() - started

    engine = ScanEngine(models)

    def indexed():
        return indexed_point_keys(sources, engine)

    started = time.monotonic()
    indexed_keys = benchmark.pedantic(indexed, rounds=1, iterations=1)
    indexed_seconds = time.monotonic() - started

    # Equivalence first: the fast path must not change the faultload.
    assert indexed_keys == naive_keys
    assert len(indexed_keys) > 100

    stats = engine.prefilter_stats()
    # Speedup is recorded, not asserted: single-shot wall-clock ratios are
    # scheduler-noise-prone on shared CI runners.  Equivalence above is the
    # functional gate; the JSON/extra_info trail tracks the trajectory.
    speedup = naive_seconds / max(indexed_seconds, 1e-9)

    benchmark.extra_info["naive_seconds"] = round(naive_seconds, 3)
    benchmark.extra_info["indexed_seconds"] = round(indexed_seconds, 3)
    benchmark.extra_info["speedup"] = round(speedup, 2)
    benchmark.extra_info["prefilter_skip_rate"] = round(
        stats["skip_rate"], 4)
    benchmark.extra_info["start_skip_rate"] = round(
        stats["start_skip_rate"], 4)

    write_result(
        "perf_prefilter",
        "VD3 indexed scan engine vs naive matcher (same host, 1 process):\n"
        f"  corpus:    {len(sources)} files, {len(models)} DSL patterns, "
        f"{len(indexed_keys)} injection points\n"
        f"  naive:     {naive_seconds:.2f} s "
        "(full AST walk per spec per file, every window start)\n"
        f"  indexed:   {indexed_seconds:.2f} s "
        "(file prefilter + anchor index + one shared walk per file)\n"
        f"  prefilter: {stats['pairs_skipped']}/{stats['pairs_total']} "
        f"spec x file matcher runs skipped "
        f"({100.0 * stats['skip_rate']:.1f}%)\n"
        f"  anchors:   {stats['starts_total'] - stats['starts_tried']}/"
        f"{stats['starts_total']} window starts skipped in the runs left "
        f"({100.0 * stats['start_skip_rate']:.1f}%)\n"
        f"  speedup:   {speedup:.1f}x (equivalence verified: "
        "identical point lists)",
    )
