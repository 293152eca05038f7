"""Zero-copy materialization: the splicer against the whole-file oracle.

The property at the heart of this module: every mutant and every
instrumented source the splicer makes must be **AST-equivalent** to the
oracle's (``tests/oracle.py``: a fresh tree, edited in place, the whole
file unparsed) — same program, same fault, same trigger guard — while
every byte outside the re-rendered statements is kept.  Layouts where the
window does not hold whole lines (same-line compound statements,
``;``-joined lines, ``elif`` arms, decorated definitions, a runtime-import
slot shared with another statement) widen the splice instead.  The sweep
runs the full 120-pattern §V-D faultload over the synthetic codebase.
"""

import ast

import pytest
from oracle import (
    ast_equivalent,
    every_start_matches,
    legacy_instrumented_source,
    legacy_mutant_source,
)

from repro.common.rng import SeededRandom
from repro.common.textutil import SourceLines
from repro.dsl.compiler import compile_text
from repro.faultmodel.library import (
    expand_api_faults,
    extended_model,
    gswfit_model,
)
from repro.mutator.mutate import Mutator
from repro.mutator.patch import SpliceError, patch_mutant
from repro.scanner.bindings import Bindings
from repro.scanner.cache import MatchMemo
from repro.scanner.matcher import Match
from repro.scanner.scan import match_source
from repro.synth import SynthConfig, generate_codebase, scan_pattern_apis

DELETER = ("change {\n$CALL#c{name=delete_*}(...)\n} into {\npass\n}",
           "deleter")
#: Windows every single statement, wherever it sits.
EACH_STMT = ("change {\n$BLOCK{tag=b; stmts=1,1}\n} into {\npass\n}",
             "each_stmt")
RETURNER = ("change { return $EXPR#v } into { return -1 }", "returner")


def model_of(spec):
    return compile_text(spec[0], name=spec[1])


def mutate_and_oracle(source, model, ordinal, trigger, seed=7,
                      file="<string>"):
    """One mutant from the mutator and the oracle's, same RNG stream."""
    mutation = Mutator(trigger=trigger, rng=SeededRandom(seed)).mutate_source(
        source, model, ordinal, file=file)
    reference = legacy_mutant_source(
        source, model, ordinal, trigger=trigger, rng=SeededRandom(seed),
        fault_id=mutation.fault_id,
    )
    return mutation, reference


def assert_every_mutant_matches_oracle(source, model):
    count = len(match_source(source, model))
    assert count, model.name
    for ordinal in range(count):
        for trigger in (False, True):
            mutation, reference = mutate_and_oracle(source, model, ordinal,
                                                    trigger)
            assert ast_equivalent(mutation.source, reference), (
                model.name, ordinal, trigger, mutation.source)


def assert_probes_match_oracle(source, model):
    targets = [(model, ordinal, f"p{ordinal}")
               for ordinal in range(len(match_source(source, model)))]
    instrumented = Mutator().instrument_source(source, targets)
    assert ast_equivalent(instrumented,
                          legacy_instrumented_source(source, targets))
    assert instrumented.count("__pfp_rt__.cover") == len(targets)


@pytest.fixture(scope="module")
def synth_sources(tmp_path_factory):
    dest = tmp_path_factory.mktemp("synth-zero-copy")
    generate_codebase(dest, SynthConfig(files=4, seed=29))
    return {
        str(path.relative_to(dest)): path.read_text(encoding="utf-8")
        for path in sorted(dest.rglob("*.py"))
        if path.name != "__init__.py"
    }


@pytest.fixture(scope="module")
def corpus_models():
    model = expand_api_faults(scan_pattern_apis(), kinds=None,
                              model_name="zero_copy_eq")
    compiled = (model.compile() + gswfit_model().compile()
                + extended_model().compile())
    assert len(model.enabled_specs()) == 120
    return compiled


class TestCorpusEquivalence:
    @pytest.mark.parametrize("trigger", [False, True])
    def test_span_equals_legacy_across_corpus(self, synth_sources,
                                              corpus_models, trigger):
        # Every mutant of the sweep, against the oracle's whole-file
        # rendering of the same fault.
        memo = MatchMemo()
        mutator = Mutator(trigger=trigger, rng=SeededRandom(3),
                          match_memo=memo)
        compared = 0
        for rel, source in synth_sources.items():
            for model in corpus_models:
                for ordinal in range(memo.count(source, model)):
                    mutation = mutator.mutate_source(source, model, ordinal,
                                                     file=rel)
                    reference = legacy_mutant_source(
                        source, model, ordinal, trigger=trigger,
                        rng=SeededRandom(3), fault_id=mutation.fault_id,
                    )
                    assert ast_equivalent(mutation.source, reference), (
                        rel, model.name, ordinal)
                    compared += 1
        assert compared > 2000  # the corpus actually exercises the splicer

    @pytest.mark.parametrize("trigger", [False, True])
    def test_span_mutation_fields_equal_legacy(self, synth_sources,
                                               corpus_models, trigger):
        # Every Mutation field (not just the program text) must agree
        # with what the oracle's fresh tree says about the window.
        rel, source = next(iter(synth_sources.items()))
        mutator = Mutator(trigger=trigger, rng=SeededRandom(3),
                          match_memo=MatchMemo())
        for model in corpus_models[:40]:
            windows = every_start_matches(model, ast.parse(source))
            for ordinal, window in enumerate(windows):
                mutation, reference = mutate_and_oracle(
                    source, model, ordinal, trigger, seed=3, file=rel)
                assert ast_equivalent(mutation.source, reference)
                assert mutation.lineno == window.lineno
                assert mutation.original_snippet == "\n".join(
                    ast.unparse(stmt) for stmt in window.stmts)
                assert mutation.fault_id == f"{model.name}:{rel}:{ordinal}"
                again = mutator.mutate_source(source, model, ordinal,
                                              file=rel)
                assert again.mutated_snippet == mutation.mutated_snippet

    def test_corpus_probes_equal_legacy(self, synth_sources, corpus_models):
        for source in synth_sources.values():
            memo = MatchMemo()
            targets = [
                (model, ordinal, f"{model.name}:{ordinal}")
                for model in corpus_models
                for ordinal in range(memo.count(source, model))
            ]
            instrumented = Mutator(match_memo=memo).instrument_source(
                source, targets)
            assert ast_equivalent(
                instrumented, legacy_instrumented_source(source, targets))


class TestBytePreservation:
    SOURCE = (
        '"""Module doc."""\n'
        "from __future__ import annotations\n"
        "import os  # keep me\n"
        "\n"
        "WEIRD = 'quotes \"stay\" as-is'\n"
        "\n"
        "\n"
        "def handler(ctx, client):  # comment on def\n"
        "    log = []       # alignment preserved\n"
        "    log.append('start')\n"
        "    result = client.delete_port(ctx, 5)\n"
        "    if result:\n"
        "        return result\n"
        "    return None\n"
    )

    def model(self):
        return compile_text(
            "change {\n$VAR#v = $CALL#c{name=delete_*}(...)\n} "
            "into {\n$VAR#v = None\n}",
            name="nuller",
        )

    @pytest.mark.parametrize("trigger", [False, True])
    def test_outside_window_is_byte_identical(self, trigger):
        mutation = Mutator(trigger=trigger).mutate_source(
            self.SOURCE, self.model(), 0)
        lines = mutation.source.splitlines(keepends=True)
        original = self.SOURCE.splitlines(keepends=True)
        # Everything before the import splice is untouched bytes.
        assert lines[:2] == original[:2]
        if trigger:
            # The runtime import lands as its own whole line right after
            # the docstring + __future__ block.
            assert lines[2] == "import profipy_runtime as __pfp_rt__\n"
            offset = 1
        else:
            # Permanent mode with no runtime directive: no import splice.
            assert "profipy_runtime" not in mutation.source
            offset = 0
        # Everything between the splices keeps comments, quoting,
        # alignment, and blank lines byte-for-byte.
        assert lines[2 + offset:9 + offset] == original[2:9]
        assert "# keep me" in mutation.source
        assert "# alignment preserved" in mutation.source
        assert "'quotes \"stay\" as-is'" in mutation.source
        # The tail after the window is untouched bytes too.
        assert lines[-3:] == original[-3:]

    def test_patched_source_parses_and_is_equivalent(self):
        mutation, reference = mutate_and_oracle(self.SOURCE, self.model(), 0,
                                                trigger=True)
        assert ast_equivalent(mutation.source, reference)


class TestFallbackCases:
    """Layouts whose window does not hold whole lines: the splice widens
    to the statements that do, and stays equal to the oracle."""

    CASES = {
        "same_line_compound": (
            "def f(ctx):\n"
            "    if ctx: delete_port(1)\n"
        ),
        "semicolon_joined": (
            "def f(ctx):\n"
            "    a = 1; delete_port(ctx)\n"
        ),
        "elif_window": (
            "def f(ctx):\n"
            "    if ctx == 1:\n"
            "        return 1\n"
            "    elif ctx == 2:\n"
            "        delete_port(ctx)\n"
            "        return 2\n"
            "    return 0\n"
        ),
    }

    def model(self):
        return model_of(DELETER)

    @pytest.mark.parametrize("trigger", [False, True])
    @pytest.mark.parametrize("case", sorted(CASES))
    def test_declined_layouts_fall_back_equivalently(self, case, trigger):
        source = self.CASES[case]
        model = self.model()
        matches = match_source(source, model)
        assert matches, case
        for ordinal in range(len(matches)):
            mutation, reference = mutate_and_oracle(source, model, ordinal,
                                                    trigger=trigger)
            assert ast_equivalent(mutation.source, reference), (case, ordinal)

    def test_same_line_compound_widens_to_owner(self):
        # The window shares its line with the `if` header: the whole `if`
        # is re-rendered, and the `def` line above stays as written.
        source = "def f(ctx):  # keep\n    if ctx: delete_port(1)\n"
        mutation = Mutator(trigger=False).mutate_source(
            source, self.model(), 0)
        assert mutation.source == (
            "def f(ctx):  # keep\n    if ctx:\n        pass\n")

    def test_semicolon_run_widens_to_siblings_only(self):
        source = (
            "def f(ctx):\n"
            "    a = 1; delete_port(ctx); b = 2  # tail\n"
            "    return  a\n"
        )
        mutation = Mutator(trigger=False).mutate_source(
            source, self.model(), 0)
        assert mutation.source == (
            "def f(ctx):\n"
            "    a = 1\n    pass\n    b = 2  # tail\n"
            "    return  a\n"
        )

    def test_elif_window_widens_to_if_chain(self):
        # A window that *is* an elif arm widens to the `if` owning the
        # chain; a window inside an arm's body splices in place.  Either
        # way the chain stays attached.
        source = self.CASES["elif_window"] + "\n\nX = 1  # after\n"
        model = compile_text(
            "change {\nif $EXPR#e:\n    ...\n} into {\npass\n}",
            name="if_killer",
        )
        assert_every_mutant_matches_oracle(source, model)
        for ordinal in range(len(match_source(source, model))):
            mutation = Mutator(trigger=True).mutate_source(source, model,
                                                           ordinal)
            assert mutation.source.startswith(
                "import profipy_runtime as __pfp_rt__\ndef f(ctx):\n")
            assert mutation.source.endswith("\n\nX = 1  # after\n")

    @pytest.mark.parametrize("trigger", [False, True])
    def test_decorated_def_window_starts_at_decorator(self, trigger):
        source = (
            "import functools\n"
            "\n"
            "@functools.cache  # memo\n"
            "@other\n"
            "def compute(x):\n"
            "    return x + 1\n"
            "# end\n"
        )
        model = model_of(EACH_STMT)
        windows = match_source(source, model)
        ordinal = next(index for index, window in enumerate(windows)
                       if isinstance(window.stmts[0], ast.FunctionDef))
        mutation, reference = mutate_and_oracle(source, model, ordinal,
                                                trigger)
        assert ast_equivalent(mutation.source, reference)
        text = mutation.source
        if trigger:
            # The decorators move into the guard's else arm with the def.
            assert "@" not in text.split("else:")[0]
            text = text.split("\n", 1)[1]
        assert text.startswith("import functools\n\n")
        assert text.endswith("\n# end\n")

    @pytest.mark.parametrize("case", [
        "def f(): return g()\n",
        "class C: x = delete_port(1)\n",
        "for i in x: a(); b()\nelse: c()\n",
        "while x:\n    a()\nelse: b(); c()\n",
        "try: a()\nexcept E: b()\nelse: c()\nfinally: d()\n",
        "with m: a(); b()\n",
        "if a: b()\nelif c: d()\nelif e: f()\nelse: g()\n",
        "if a:\n    b()\nelif c: d()\n",
        "x = 1; \\\ny = 2\n",
        "if x: \\\n    y()\n",
        "x = 1;\n",
        "def f():\n    a(); b();\n",
        "@d\nclass C:\n    @e\n    def m(self): return 1\n",
        '"""doc"""; x = 1\n',
        "from __future__ import annotations; x = 1\n",
        "x = 1",
        "match v:\n    case 1: a()\n    case _:\n        b(); c()\n",
    ])
    def test_every_statement_of_awkward_layouts(self, case):
        model = model_of(EACH_STMT)
        assert_every_mutant_matches_oracle(case, model)
        assert_probes_match_oracle(case, model)

    def test_outside_widened_statement_is_byte_identical(self):
        head = "import os  # head\n\n\ndef g():\n    return 1  # g\n\n\n"
        tail = "\n\n# trailing comment\nY = [1,2]\n"
        body = "def f(ctx):\n    if ctx: delete_port(1)\n"
        for trigger in (False, True):
            mutation = Mutator(trigger=trigger).mutate_source(
                head + body + tail, self.model(), 0)
            text = mutation.source
            if trigger:
                assert text.startswith(
                    "import profipy_runtime as __pfp_rt__\n")
                text = text.split("\n", 1)[1]
            assert text.startswith(head + "def f(ctx):\n    if ctx:\n")
            assert text.endswith(tail)


class TestImportPlacement:
    @pytest.mark.parametrize("header", [
        "",
        '"""Doc."""\n',
        '"""Doc."""\nfrom __future__ import annotations\n',
    ])
    def test_runtime_import_lands_after_docstring_and_future(self, header):
        source = header + "def f(ctx):\n    delete_port(ctx)\n"
        mutation = Mutator(trigger=True).mutate_source(
            source, model_of(DELETER), 0)
        assert mutation.source.startswith(
            header + "import profipy_runtime as __pfp_rt__\n")
        tree = ast.parse(mutation.source)
        kinds = [type(stmt).__name__ for stmt in tree.body]
        expected = []
        if '"""Doc."""' in header:
            expected.append("Expr")
        if "__future__" in header:
            expected.append("ImportFrom")
        expected.append("Import")
        assert kinds[:len(expected)] == expected
        imported = tree.body[len(expected) - 1]
        assert imported.names[0].name == "profipy_runtime"

    def test_existing_runtime_import_is_not_duplicated(self):
        source = (
            "import profipy_runtime as __pfp_rt__\n"
            "def f(ctx):\n"
            "    delete_port(ctx)\n"
        )
        mutation = Mutator(trigger=True).mutate_source(
            source, model_of(DELETER), 0)
        assert mutation.source.count("import profipy_runtime") == 1

    @pytest.mark.parametrize("source", [
        # The slot shares its line with the docstring or a future import.
        '"""Doc."""; import os\ndef f(ctx):\n    delete_port(ctx)\n',
        "from __future__ import annotations; import os\n"
        "delete_port(1)\n",
        # The window is the statement at the slot, or precedes it.
        "delete_port(1)\nx = 2\n",
        '"""Doc."""\ndelete_port(1)\n',
        "from __future__ import annotations\ndelete_port(1)\n",
        # Only header statements: the import goes at the end.
        '"""Doc."""\nfrom __future__ import annotations\n',
        '"""Doc."""\nfrom __future__ import annotations',
        # Decorated and form-feed-indented slots.
        "@d\ndef f(ctx):\n    delete_port(ctx)\n",
        "\x0cdelete_port(1)\n",
    ])
    def test_import_slot_layouts_match_oracle(self, source):
        for spec in (DELETER, EACH_STMT):
            if match_source(source, model_of(spec)):
                assert_every_mutant_matches_oracle(source, model_of(spec))
                assert_probes_match_oracle(source, model_of(spec))


class TestLineModel:
    """Lines split where ``ast`` counts them (``\\n``, ``\\r\\n``,
    ``\\r``), not where ``str.splitlines`` does."""

    def test_form_feed_comment_keeps_the_right_lines(self):
        # splitlines breaks at the \f, so every later window was read one
        # line too early: `return 2` was kept and `x = 1` deleted.
        source = ("def f():  # \x0c\n    x = 1   # zz\n    return 2\n"
                  "    return 3\n")
        mutation = Mutator(trigger=False).mutate_source(
            source, model_of(RETURNER), 0)
        assert mutation.source == (
            "def f():  # \x0c\n    x = 1   # zz\n    return -1\n"
            "    return 3\n")

    @pytest.mark.parametrize("where, odd", [
        (where, odd)
        for where in ("comment", "string")
        for odd in ("\x0c", "\x85", "\u2028", "\x0b", "\x1c", "\u2029")
    ] + [("blank", "\x0c")])  # only a form feed may stand alone on a line
    def test_odd_line_breaks_match_oracle(self, where, odd):
        line = {"comment": f"    x = 1   # a{odd}b\n",
                "string": f"    x = 'a{odd}b'\n",
                "blank": f"    x = 1\n{odd}\n"}[where]
        source = ("def f():  # head" + odd + "\n" + line
                  + "    return 2\n    return 3\n")
        for spec in (RETURNER, EACH_STMT):
            assert_every_mutant_matches_oracle(source, model_of(spec))
            assert_probes_match_oracle(source, model_of(spec))

    @pytest.mark.parametrize("newline", ["\r\n", "\r"])
    def test_carriage_return_line_ends(self, newline):
        source = newline.join(["def f(ctx):", "    x = 1  # \x0c",
                               "    delete_port(ctx)", "    return x", ""])
        assert_every_mutant_matches_oracle(source, model_of(DELETER))
        assert_every_mutant_matches_oracle(source, model_of(EACH_STMT))
        mutation = Mutator(trigger=False).mutate_source(
            source, model_of(DELETER), 0)
        assert mutation.source.startswith(
            newline.join(["def f(ctx):", "    x = 1  # \x0c", ""]))

    def test_line_table_counts_like_ast(self):
        source = "a = 1 # \x0c\x85\u2028\rb = 2\r\nc = 'é'; d = 3\n"
        tree = ast.parse(source)
        lines = SourceLines(source)
        for stmt in tree.body:
            start = lines.offset(stmt.lineno, stmt.col_offset)
            end = lines.offset(stmt.end_lineno, stmt.end_col_offset)
            assert source[start:end] == ast.get_source_segment(source, stmt)


class TestPureDeletion:
    def test_permanent_deletion_drops_window_lines(self):
        source = (
            "def f(ctx):\n"
            "    keep = 1\n"
            "    delete_port(ctx)\n"
            "    return keep\n"
        )
        model = compile_text(
            "change {\n$CALL#c{name=delete_*}(...)\n} into {\n}",
            name="pure_delete",
        )
        mutation, reference = mutate_and_oracle(source, model, 0,
                                                trigger=False)
        assert ast_equivalent(mutation.source, reference)
        assert mutation.source == (
            "def f(ctx):\n    keep = 1\n    return keep\n")

    def test_emptied_suite_gets_pass(self):
        source = "def f(ctx):\n    delete_port(ctx)\n"
        model = compile_text(
            "change {\n$CALL#c{name=delete_*}(...)\n} into {\n}",
            name="pure_delete",
        )
        mutation, reference = mutate_and_oracle(source, model, 0,
                                                trigger=False)
        assert ast_equivalent(mutation.source, reference)
        body = ast.parse(mutation.source).body[-1].body
        assert len(body) == 1 and isinstance(body[0], ast.Pass)


class TestProbes:
    def test_probes_splice_before_windows(self):
        source = (
            "def f(ctx):  # keep\n"
            "    x = 1\n"
            "    delete_port(ctx)\n"
            "    return x\n"
        )
        model = model_of(DELETER)
        instrumented = Mutator().instrument_source(source, [(model, 0, "p")])
        assert instrumented == (
            "import profipy_runtime as __pfp_rt__\n"
            "def f(ctx):  # keep\n"
            "    x = 1\n"
            "    __pfp_rt__.cover('p')\n"
            "    delete_port(ctx)\n"
            "    return x\n"
        )

    def test_overlapping_widened_probes_merge(self):
        # Both windows widen to the same `if`: one re-rendering holds
        # both probes, each before its own window.
        source = "if x: delete_a(); delete_b()\nz = 1  # kept\n"
        model = model_of(DELETER)
        targets = [(model, 0, "a"), (model, 1, "b")]
        instrumented = Mutator().instrument_source(source, targets)
        assert ast_equivalent(instrumented,
                              legacy_instrumented_source(source, targets))
        assert instrumented.endswith("z = 1  # kept\n")

    def test_probes_at_one_window_run_in_point_order(self):
        source = "def f():\n    delete_port(1)\n"
        model = model_of(DELETER)
        targets = [(model, 0, "z"), (model, 0, "a")]
        instrumented = Mutator().instrument_source(source, targets)
        assert instrumented.index("'a'") < instrumented.index("'z'")
        assert ast_equivalent(instrumented,
                              legacy_instrumented_source(source, targets))


class TestPatchMutantContract:
    def _window(self, source, model):
        tree = ast.parse(source)
        return SourceLines(source), tree, every_start_matches(model, tree)[0]

    def test_shared_line_layouts_widen(self):
        # Direct contract check: windows sharing their line with other
        # code get a spliced source back, never None.
        model = model_of(DELETER)
        for case in ("same_line_compound", "semicolon_joined"):
            source = TestFallbackCases.CASES[case]
            lines, tree, match = self._window(source, model)
            patched = patch_mutant(
                lines, tree, match, [ast.Pass()],
                trigger=False, fault_id="x", needs_runtime=False,
            )
            assert ast_equivalent(patched, legacy_mutant_source(
                source, model, 0, trigger=False, rng=SeededRandom(0),
                fault_id="x"))

    def test_elif_arm_window_widens(self):
        # A window that *is* the elif clause (the nested ast.If in the
        # outer If's orelse): re-rendering the outer If keeps the chain.
        source = TestFallbackCases.CASES["elif_window"]
        tree = ast.parse(source)
        outer_if = tree.body[0].body[0]
        assert outer_if.orelse and isinstance(outer_if.orelse[0], ast.If)
        match = Match(owner=outer_if, field="orelse", start=0, end=1,
                      bindings=Bindings(), spec_name="elif_case")
        patched = patch_mutant(
            SourceLines(source), tree, match, [ast.Pass()],
            trigger=False, fault_id="x", needs_runtime=False,
        )
        assert patched == (
            "def f(ctx):\n"
            "    if ctx == 1:\n"
            "        return 1\n"
            "    else:\n"
            "        pass\n"
            "    return 0\n"
        )
        assert ast.dump(tree) == ast.dump(ast.parse(source))  # untouched

    def test_unparsable_splice_raises(self):
        source = "def f(ctx):\n    delete_port(ctx)\n"
        lines, tree, match = self._window(source, model_of(DELETER))
        broken = ast.Expr(value=ast.Name(id="a b", ctx=ast.Load()))
        with pytest.raises(SpliceError):
            patch_mutant(lines, tree, match, [broken], trigger=False,
                         fault_id="x", needs_runtime=False)

    def test_mutation_is_deterministic_across_paths(self):
        # The oracle draws from the same derived stream, so a $PICK
        # fault produces the same value in both.
        source = "def f(ctx):\n    timeout = 30\n"
        model = compile_text(
            "change {\n$VAR#v = $NUM#n\n} into {\n"
            "$VAR#v = $PICK{choices=1|2|3|4|5|6|7|8|9}\n}",
            name="picker",
        )
        mutation = Mutator(trigger=False, rng=SeededRandom(11)).mutate_source(
            source, model, 0, fault_id="fixed")
        reference = legacy_mutant_source(
            source, model, 0, trigger=False, rng=SeededRandom(11),
            fault_id="fixed")
        assert ast_equivalent(mutation.source, reference)
        assert mutation.mutated_snippet in reference
