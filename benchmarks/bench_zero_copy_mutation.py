"""Zero-copy mutant materialization: span patching vs whole-tree unparse.

The whole-tree path (inlined below as the baseline, the way mutants were
made before the splicer) deep-copies the whole module AST and re-unparses
every line of the file per mutant; span patching splices only the
mutated window (plus the runtime import) into the pristine source.  On a
large module the per-mutant cost must drop by at least 3x — that gap is
what makes statistical campaigns with thousands of mutants affordable.
"""

import ast
import copy
import time

from conftest import write_result

from repro.common.rng import SeededRandom
from repro.faultmodel.library import extended_model, gswfit_model
from repro.mutator.mutate import Mutator
from repro.mutator.runtime import RUNTIME_ALIAS, RUNTIME_MODULE_NAME
from repro.mutator.substitute import ReplacementBuilder, runtime_call
from repro.scanner.cache import MatchMemo
from repro.synth import SynthConfig, generate_codebase

MIN_SPEEDUP = 3.0


def build_large_module(tmp_path) -> str:
    """One big module: the whole synthetic corpus concatenated."""
    dest = tmp_path / "corpus"
    generate_codebase(dest, SynthConfig(files=16, seed=23))
    parts = []
    for path in sorted(dest.rglob("*.py")):
        if path.name == "__init__.py":
            continue
        parts.append(path.read_text(encoding="utf-8"))
    return "\n\n".join(parts)


def collect_targets(source, models, memo, limit=60):
    targets = []
    for model in models:
        for ordinal in range(memo.count(source, model)):
            targets.append((model, ordinal))
            if len(targets) >= limit:
                return targets
    return targets


def materialize_all(mutator, source, targets):
    for model, ordinal in targets:
        mutator.mutate_source(source, model, ordinal, file="big.py")


def whole_tree_mutant(memo, rng, source, model, ordinal):
    """A trigger mutant the whole-tree way: the same snippets and RNG
    draws as ``Mutator.mutate_source``, then a deepcopy of the module,
    the guard spliced into the copy, and a whole-file ``ast.unparse``."""
    fault_id = f"{model.name}:big.py:{ordinal}"
    _lines, tree, match = memo.peek(source, model, ordinal)
    original_snippet = "\n".join(ast.unparse(stmt) for stmt in match.stmts)
    faulty = ReplacementBuilder(model, match,
                                rng=rng.derive(fault_id)).build()
    mutated_snippet = "\n".join(ast.unparse(ast.fix_missing_locations(stmt))
                                for stmt in faulty)
    node_map = {}
    fresh = copy.deepcopy(tree, node_map)
    body = getattr(node_map[id(match.owner)], match.field)
    body[match.start:match.end] = [ast.If(
        test=runtime_call("enabled", [ast.Constant(fault_id)]),
        body=faulty or [ast.Pass()],
        orelse=body[match.start:match.end],
    )]
    head = fresh.body[0]
    index = int(isinstance(head, ast.Expr)
                and isinstance(head.value, ast.Constant)
                and isinstance(head.value.value, str))
    while index < len(fresh.body) and isinstance(
        fresh.body[index], ast.ImportFrom
    ) and fresh.body[index].module == "__future__":
        index += 1
    fresh.body.insert(index, ast.Import(names=[
        ast.alias(name=RUNTIME_MODULE_NAME, asname=RUNTIME_ALIAS)
    ]))
    ast.fix_missing_locations(fresh)
    return ast.unparse(fresh) + "\n", original_snippet, mutated_snippet


def whole_tree_all(memo, source, targets):
    rng = SeededRandom(5)
    for model, ordinal in targets:
        whole_tree_mutant(memo, rng, source, model, ordinal)


def test_span_patching_speedup(benchmark, tmp_path):
    source = build_large_module(tmp_path)
    models = gswfit_model().compile() + extended_model().compile()
    memo = MatchMemo()
    targets = collect_targets(source, models, memo)
    assert len(targets) >= 30  # the corpus must exercise the patcher

    span = Mutator(trigger=True, rng=SeededRandom(5), match_memo=memo)

    # Warm the memo so both paths pay zero matching cost in the timed
    # region: the measured difference is pure materialization.
    materialize_all(span, source, targets)
    whole_tree_all(memo, source, targets)

    def best_of(run, rounds=3):
        best = float("inf")
        for _ in range(rounds):
            started = time.monotonic()
            run()
            best = min(best, time.monotonic() - started)
        return best

    legacy_time = best_of(lambda: whole_tree_all(memo, source, targets))
    span_time = best_of(lambda: materialize_all(span, source, targets))

    benchmark(materialize_all, span, source, targets)

    speedup = legacy_time / max(span_time, 1e-9)
    assert speedup >= MIN_SPEEDUP, (
        f"span patching is only {speedup:.1f}x faster than whole-tree "
        f"unparse (need >= {MIN_SPEEDUP}x)"
    )

    lines = source.count("\n")
    write_result(
        "zero_copy_mutation",
        "Per-mutant materialization — whole-tree unparse vs span patch:\n"
        f"  module:   {lines} lines, {len(targets)} mutants\n"
        f"  legacy:   {legacy_time * 1000 / len(targets):.2f} ms/mutant "
        f"(deepcopy + full ast.unparse)\n"
        f"  span:     {span_time * 1000 / len(targets):.2f} ms/mutant "
        f"(two-splice source patch)\n"
        f"  speedup:  {speedup:.1f}x (threshold {MIN_SPEEDUP:.0f}x)",
    )
