"""On-disk format of ``ScanCache`` entries.

Entries are written as compact JSON (sorted keys, no whitespace).  Caches
written by earlier releases hold the same objects indented; those must
stay hits, and a torn compact entry must read as a miss, never a crash.
"""

import json

import pytest

from repro.scanner.cache import ScanCache

SHA = "ab" * 32
DIGEST = "cd" * 32
ENTRY = {"matches": [{"spec_name": "MFC", "ordinal": 0, "lineno": 3,
                      "end_lineno": 4, "snippet": "f(x)"}],
         "error": None}


def store_all(cache):
    cache.store(SHA, DIGEST, ENTRY)
    cache.store_tree("ef" * 32, DIGEST, {"pkg/mod.py": ENTRY})
    cache.store_coverage("12" * 32, {"p:0", "p:1"}, {"p:0": 0.25, "p:1": 1.5},
                         2.0)


def entry_files(cache_dir):
    """The per-file, tree and coverage entry files, by kind."""
    files = {path.name.split("-")[0]: path for path in cache_dir.iterdir()}
    return {"file": files[DIGEST[:16]], "tree": files["tree"],
            "coverage": files["coverage"]}


def lookups(cache):
    return {
        "file": cache.lookup(SHA, DIGEST),
        "tree": cache.lookup_tree("ef" * 32, DIGEST),
        "coverage": cache.lookup_coverage("12" * 32),
    }


def test_entries_are_written_compact(tmp_path):
    store_all(ScanCache(tmp_path))
    for path in entry_files(tmp_path).values():
        text = path.read_text(encoding="utf-8")
        assert text == json.dumps(json.loads(text), sort_keys=True,
                                  separators=(",", ":"))


def test_indented_entries_of_earlier_releases_are_hits(tmp_path):
    store_all(ScanCache(tmp_path))
    for path in entry_files(tmp_path).values():
        entry = json.loads(path.read_text(encoding="utf-8"))
        path.write_text(json.dumps(entry, indent=2, sort_keys=True) + "\n",
                        encoding="utf-8")
    cache = ScanCache(tmp_path)
    found = lookups(cache)
    assert found["file"]["matches"] == ENTRY["matches"]
    assert found["tree"]["files"]["pkg/mod.py"]["matches"] == ENTRY["matches"]
    assert found["coverage"]["covered"] == ["p:0", "p:1"]
    stats = cache.stats()
    assert (stats["hits"], stats["tree_hits"], stats["coverage_hits"]) == (
        1, 1, 1)


@pytest.mark.parametrize("kind", ["file", "tree", "coverage"])
def test_truncated_compact_entry_is_a_miss(tmp_path, kind):
    store_all(ScanCache(tmp_path))
    path = entry_files(tmp_path)[kind]
    data = path.read_bytes()
    path.write_bytes(data[:len(data) // 2])
    cache = ScanCache(tmp_path)
    assert lookups(cache)[kind] is None
    misses = {"file": "misses", "tree": "tree_misses",
              "coverage": "coverage_misses"}[kind]
    assert cache.stats()[misses] == 1
