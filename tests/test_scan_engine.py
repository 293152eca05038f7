"""Indexed scan engine: equivalence, caching, parallelism, match memo.

The property at the heart of this module: the indexed engine (prefilter +
shared AST walk + warm workers + cache) must return **identical**
``InjectionPoint`` lists — same points, same order, same ordinals — as the
naive per-spec reference matcher, across the synthetic §V-D codebase and
every ``expand_api_faults`` pattern.
"""

import ast
from pathlib import Path

import pytest
from oracle import every_start_matches

from repro.common.textutil import truncate
from repro.faultmodel.library import (
    expand_api_faults,
    extended_model,
    gswfit_model,
)
from repro.mutator.mutate import Mutator
from repro.orchestrator.campaign import Campaign, CampaignConfig
from repro.scanner.cache import MatchMemo, ScanCache, faultload_digest
from repro.scanner.points import InjectionPoint, component_of
from repro.scanner.scan import (
    ScanEngine,
    match_source,
    scan_file,
    scan_files,
    scan_source,
    scan_tree,
)
from repro.synth import SynthConfig, generate_codebase, scan_pattern_apis


def naive_scan_source(source, models, file="<string>"):
    """The reference scan: a window at every start, per spec, no prefilter."""
    tree = ast.parse(source)
    points = []
    component = component_of(file)
    for model in models:
        matches = every_start_matches(model, tree)
        for ordinal, match in enumerate(matches):
            snippet = "; ".join(
                ast.unparse(stmt).splitlines()[0] for stmt in match.stmts[:3]
            )
            points.append(InjectionPoint(
                spec_name=model.name,
                file=file,
                ordinal=ordinal,
                lineno=match.lineno,
                end_lineno=match.end_lineno,
                snippet=truncate(snippet, 120),
                component=component,
            ))
    return points


@pytest.fixture(scope="module")
def synth_tree(tmp_path_factory):
    dest = tmp_path_factory.mktemp("synth-engine")
    generate_codebase(dest, SynthConfig(files=4, seed=13))
    return dest


@pytest.fixture(scope="module")
def api_model():
    model = expand_api_faults(scan_pattern_apis(), kinds=None,
                              model_name="engine_eq")
    assert len(model.enabled_specs()) == 120
    return model


class TestEquivalence:
    def test_indexed_equals_naive_on_synth_corpus(self, synth_tree, api_model):
        """All 120 expanded patterns + both predefined models, every file."""
        models = (api_model.compile() + gswfit_model().compile()
                  + extended_model().compile())
        engine = ScanEngine(models)
        for path in sorted(synth_tree.rglob("*.py")):
            source = path.read_text(encoding="utf-8")
            naive = naive_scan_source(source, models, file=path.name)
            indexed = engine.scan_source(source, file=path.name)
            assert indexed == naive
        stats = engine.prefilter_stats()
        assert stats["pairs_skipped"] > 0  # the prefilter actually fires
        # ... and so does the anchor index, inside the files it keeps.
        assert 0 < stats["starts_tried"] < stats["starts_total"]

    def test_scan_tree_parallel_matches_serial(self, synth_tree, api_model):
        specs = api_model.enabled_specs()
        serial = scan_tree(synth_tree, specs, jobs=1)
        parallel = scan_tree(synth_tree, specs, jobs=2)
        assert parallel.points == serial.points
        assert parallel.files_scanned == serial.files_scanned
        assert parallel.parse_errors == serial.parse_errors

    def test_scan_source_prefilter_skips_are_sound(self):
        source = "def f():\n    return compute(1)\n"
        models = gswfit_model().compile()
        assert scan_source(source, models) == naive_scan_source(source, models)

    def test_bracket_class_glob_still_matches(self):
        # Regression: `[.]` matches a literal dot; the prefilter must not
        # fabricate segment requirements from bracket-class globs.
        from repro.dsl.compiler import compile_text

        model = compile_text(
            "change {\n$CALL{name=a[.]b}(...)\n} into {\npass\n}",
            name="bracket",
        )
        source = "def f():\n    a.b()\n"
        assert len(match_source(source, model)) == 1


class TestScanCache:
    def test_memory_cache_round_trip(self, synth_tree, api_model):
        specs = api_model.enabled_specs()
        cache = ScanCache()
        first = scan_tree(synth_tree, specs, cache=cache)
        assert cache.misses > 0
        assert cache.misses + cache.hits == first.files_scanned
        hits_after_first = cache.hits
        second = scan_tree(synth_tree, specs, cache=cache)
        assert second.points == first.points
        # The whole second scan is served from the cache.
        assert cache.hits == hits_after_first + first.files_scanned

    def test_disk_cache_survives_instances(self, tmp_path, api_model):
        project = tmp_path / "proj"
        project.mkdir()
        (project / "a.py").write_text(
            "def f(ctx):\n    base.client.delete_port(ctx)\n")
        specs = api_model.enabled_specs()
        cache_dir = tmp_path / "cache"
        first = scan_tree(project, specs, cache=ScanCache(cache_dir))
        warm = ScanCache(cache_dir)
        second = scan_tree(project, specs, cache=warm)
        assert warm.hits == 1 and warm.misses == 0
        assert second.points == first.points

    def test_identical_content_shares_entry_across_paths(self, tmp_path,
                                                         api_model):
        project = tmp_path / "proj"
        (project / "pkg").mkdir(parents=True)
        body = "def f(ctx):\n    base.client.delete_port(ctx)\n"
        (project / "a.py").write_text(body)
        (project / "pkg" / "b.py").write_text(body)
        cache = ScanCache()
        result = scan_tree(project, api_model.enabled_specs(), cache=cache)
        assert cache.hits == 1  # second file hits the first file's entry
        files = {point.file for point in result.points}
        assert files == {"a.py", str(Path("pkg") / "b.py")}

    def test_syntax_error_is_cached(self, tmp_path):
        project = tmp_path / "proj"
        project.mkdir()
        (project / "bad.py").write_text("def broken(:\n")
        specs = gswfit_model().enabled_specs()
        cache = ScanCache()
        first = scan_tree(project, specs, cache=cache)
        second = scan_tree(project, specs, cache=cache)
        assert "bad.py" in first.parse_errors
        assert second.parse_errors == first.parse_errors
        assert cache.hits == 1

    def test_malformed_disk_entry_degrades_to_miss(self, tmp_path):
        project = tmp_path / "proj"
        project.mkdir()
        (project / "a.py").write_text("def f():\n    x = 1\n    return x\n")
        specs = gswfit_model().enabled_specs()
        cache_dir = tmp_path / "cache"
        first = scan_tree(project, specs, cache=ScanCache(cache_dir))

        def drop_manifests():
            # Remove the whole-tree fast-path entries so the rescan must
            # consult (and survive) the corrupted per-file entry.
            for path in list(cache_dir.glob("tree-*.json")):
                path.unlink()
            for path in list(cache_dir.glob("statmanifest-*.json")):
                path.unlink()

        # Corrupt every per-file entry in ways that still parse as JSON.
        drop_manifests()
        entries = sorted(cache_dir.glob("*.json"))
        assert entries
        entries[0].write_text('{"matches": [{}], "version": 1}\n')
        rescanned = scan_tree(project, specs, cache=ScanCache(cache_dir))
        assert rescanned.points == first.points  # re-derived, no KeyError
        drop_manifests()
        entries[0].write_text('{"matches": [], "error": null, "version": 0}\n')
        stale = ScanCache(cache_dir)
        assert scan_tree(project, specs, cache=stale).points == first.points
        assert stale.misses >= 1  # version mismatch is a miss, not a crash

    def test_malformed_tree_entry_degrades_to_per_file(self, tmp_path):
        project = tmp_path / "proj"
        project.mkdir()
        (project / "a.py").write_text("def f():\n    x = 1\n    return x\n")
        specs = gswfit_model().enabled_specs()
        cache_dir = tmp_path / "cache"
        first = scan_tree(project, specs, cache=ScanCache(cache_dir))
        for path in cache_dir.glob("tree-*.json"):
            path.write_text('{"version": 1, "files": {"a.py": {}}}\n')
        stale = ScanCache(cache_dir)
        rescan = scan_tree(project, specs, cache=stale)
        assert rescan.points == first.points
        assert stale.tree_misses >= 1  # malformed tree entry, not a crash
        assert stale.hits >= 1  # served by the per-file layer instead

    def test_disk_cache_is_pruned_to_cap(self, tmp_path):
        cache_dir = tmp_path / "cache"
        cache = ScanCache(cache_dir)
        for index in range(6):
            cache.store(f"{index:064d}", "d" * 16,
                        {"matches": [], "error": None})
        assert len(list(cache_dir.glob("*.json"))) == 6
        pruned = ScanCache(cache_dir, max_disk_entries=2)
        assert len(list(cache_dir.glob("*.json"))) == 2
        assert pruned.max_disk_entries == 2

    def test_disk_prune_is_lru_not_fifo(self, tmp_path):
        import os
        import time

        cache_dir = tmp_path / "cache"
        cache = ScanCache(cache_dir)
        old_sha, new_sha = "a" * 64, "b" * 64
        cache.store(old_sha, "d" * 16, {"matches": [], "error": None})
        cache.store(new_sha, "d" * 16, {"matches": [], "error": None})
        # Backdate both, then hit the *older* entry from a fresh instance:
        # the hit must refresh its recency so pruning keeps it.
        stale = time.time() - 1000
        for path in cache_dir.glob("*.json"):
            os.utime(path, (stale, stale))
        reader = ScanCache(cache_dir)
        assert reader.lookup(old_sha, "d" * 16) is not None
        ScanCache(cache_dir, max_disk_entries=1)
        survivor = ScanCache(cache_dir)
        assert survivor.lookup(old_sha, "d" * 16) is not None
        assert survivor.lookup(new_sha, "d" * 16) is None

    def test_digest_depends_on_spec_order(self, api_model):
        specs = api_model.enabled_specs()
        assert (faultload_digest(specs)
                != faultload_digest(list(reversed(specs))))


class TestMissingFiles:
    def test_scan_file_records_missing_file(self, tmp_path):
        models = gswfit_model().compile()
        result = scan_file(tmp_path / "nope.py", models, root=tmp_path)
        assert result.points == []
        assert "nope.py" in result.parse_errors
        assert "unreadable" in result.parse_errors["nope.py"]

    def test_scan_files_continues_past_missing(self, tmp_path):
        (tmp_path / "ok.py").write_text("def f():\n    x = 1\n    return x\n")
        specs = gswfit_model().enabled_specs()
        result = scan_files(
            [tmp_path / "missing.py", tmp_path / "ok.py"],
            specs, root=tmp_path,
        )
        assert "missing.py" in result.parse_errors
        assert any(point.file == "ok.py" for point in result.points)

    def test_campaign_scan_records_missing_injectables(
        self, toy_project, toy_model, toy_workload
    ):
        config = CampaignConfig(
            name="missing",
            target_dir=toy_project,
            fault_model=toy_model,
            workload=toy_workload,
            injectable_files=["app.py", "gone.py"],
        )
        result = Campaign(config).scan()  # must not raise FileNotFoundError
        assert "gone.py" in result.parse_errors
        assert any(point.file == "app.py" for point in result.points)

    def test_campaign_scan_jobs_matches_serial(
        self, toy_project, toy_model, toy_workload
    ):
        serial = Campaign(CampaignConfig(
            name="serial", target_dir=toy_project, fault_model=toy_model,
            workload=toy_workload,
        )).scan()
        parallel = Campaign(CampaignConfig(
            name="parallel", target_dir=toy_project, fault_model=toy_model,
            workload=toy_workload, scan_jobs=2,
        )).scan()
        assert parallel.points == serial.points


class TestMatchMemo:
    SOURCE = (
        "def handler(ctx, client):\n"
        "    log = []\n"
        "    log.append('start')\n"
        "    result = client.delete_port(ctx, 5)\n"
        "    if result:\n"
        "        state = client.refresh(result)\n"
        "        log.append('mid')\n"
        "    value = compute(result, 1 + 2)\n"
        "    return value\n"
    )

    def all_models(self):
        return gswfit_model().compile() + extended_model().compile()

    @pytest.mark.parametrize("trigger", [False, True])
    def test_memoized_mutation_equals_plain(self, trigger):
        memo = MatchMemo()
        for model in self.all_models():
            plain_mutator = Mutator(trigger=trigger)
            memo_mutator = Mutator(trigger=trigger, match_memo=memo)
            count = memo.count(self.SOURCE, model)
            for ordinal in range(count):
                plain = plain_mutator.mutate_source(
                    self.SOURCE, model, ordinal)
                memoized = memo_mutator.mutate_source(
                    self.SOURCE, model, ordinal)
                assert memoized.source == plain.source
                assert memoized.original_snippet == plain.original_snippet
                assert memoized.mutated_snippet == plain.mutated_snippet

    def test_memo_take_is_isolated_per_call(self):
        model = gswfit_model().compile()[0]
        memo = MatchMemo()
        mutator = Mutator(trigger=True, match_memo=memo)
        first = mutator.mutate_source(self.SOURCE, model, 0)
        second = mutator.mutate_source(self.SOURCE, model, 0)
        assert first.source == second.source  # pristine tree never mutated

    def test_memo_out_of_range_matches_plain_error(self):
        model = gswfit_model().compile()[0]
        memo = MatchMemo()
        with pytest.raises(IndexError, match="ordinal 999 requested"):
            Mutator(match_memo=memo).mutate_source(self.SOURCE, model, 999)

    def test_memo_distinguishes_same_name_different_pattern(self):
        from repro.dsl.compiler import compile_text

        returner = compile_text(
            "change {\n$BLOCK{tag=pre; stmts=1,*}\nreturn $EXPR#v\n} "
            "into {\n$BLOCK{tag=pre}\nreturn -1\n}",
            name="twin",
        )
        deleter = compile_text(
            "change {\n$CALL{name=delete_*}(...)\n} into {\npass\n}",
            name="twin",  # same name, different pattern
        )
        memo = MatchMemo()
        first = memo.count(self.SOURCE, returner)
        second = memo.count(self.SOURCE, deleter)
        assert first == len(match_source(self.SOURCE, returner))
        assert second == len(match_source(self.SOURCE, deleter))
        assert first != second  # the cache must not conflate the twins

    def test_memo_eviction_keeps_working(self):
        memo = MatchMemo(max_entries=2)
        models = self.all_models()[:4]
        counts = [memo.count(self.SOURCE, model) for model in models]
        assert len(memo._entries) <= 2
        # Evicted entries are re-derived transparently and identically.
        assert [memo.count(self.SOURCE, model)
                for model in models] == counts
