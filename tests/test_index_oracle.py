"""``build_index`` against the ``ast.walk`` reference (``oracle.walk_index``).

The index walk is hand-rolled for speed; these tests pin that it still
builds exactly the statement lists, call maps, fingerprint and segment
map a plain ``ast.walk`` derivation gives, on synth modules, on the
etcdsim target, and on the random programs of ``test_property``.
"""

import ast
from pathlib import Path

import pytest
from hypothesis import given
from oracle import walk_index
from test_property import SETTINGS, programs

from repro.etcdsim.target import materialize_target
from repro.scanner.index import build_index
from repro.synth import SynthConfig, generate_codebase


def assert_index_matches_oracle(source):
    tree = ast.parse(source)
    index = build_index(tree)
    lists, fingerprint, segment_lists = walk_index(tree)
    assert [(listed.owner, listed.field, listed.stmts, listed.calls)
            for listed in index.stmt_lists] == lists
    assert all(listed.stmts is stmts for listed, (_, _, stmts, _)
               in zip(index.stmt_lists, lists))
    assert (index.fingerprint.node_types, index.fingerprint.call_segments,
            index.fingerprint.constants) == fingerprint
    assert index.segment_lists == segment_lists


@pytest.fixture(scope="module")
def tree_sources(tmp_path_factory):
    root = tmp_path_factory.mktemp("index-oracle")
    generate_codebase(root / "synth", SynthConfig(files=3, seed=7))
    materialize_target(root / "etcdsim")
    return {str(path.relative_to(root)): path.read_text(encoding="utf-8")
            for path in sorted(Path(root).rglob("*.py"))}


def test_synth_and_etcdsim_trees(tree_sources):
    assert any(rel.startswith("synth/") for rel in tree_sources)
    assert any(rel.startswith("etcdsim/pyetcd/") for rel in tree_sources)
    for source in tree_sources.values():
        assert_index_matches_oracle(source)


@SETTINGS
@given(source=programs())
def test_random_programs(source):
    assert_index_matches_oracle(source)
