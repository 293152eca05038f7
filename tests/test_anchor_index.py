"""Statement-level anchor index: derivation, index contents, soundness.

The matcher tries a window only at the starts where the pattern's anchor
(its first concrete top-level statement) can land on a statement whose
subtree calls every anchor segment.  The property checked here: on random
patterns and programs, and on synth sources, the indexed engine returns
exactly the matches of a matcher that tries every start
(:func:`oracle.every_start_matches`).
"""

import ast
from pathlib import Path

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st
from oracle import every_start_matches

from repro.dsl.compiler import compile_text
from repro.dsl.params import UNBOUNDED
from repro.faultmodel.library import expand_api_faults
from repro.scanner.index import build_index
from repro.scanner.matcher import Matcher
from repro.scanner.scan import ScanEngine
from repro.synth import SynthConfig, generate_codebase, scan_pattern_apis


def spec(change: str, into: str = "pass") -> str:
    return "change {\n%s\n} into {\n%s\n}" % (change, into)


def window_keys(matches):
    return [(id(m.owner), m.field, m.start, m.end) for m in matches]


class TestDeriveAnchor:
    def test_single_call_statement(self):
        anchor = compile_text(spec("$CALL{name=utils.execute}(...)")).anchor
        assert anchor.call_segments == {"utils", "execute"}
        assert (anchor.lead_min, anchor.lead_max) == (0, 0)

    def test_leading_blocks_add_up(self):
        model = compile_text(spec(
            "$BLOCK{tag=a; stmts=1,2}\n$BLOCK{tag=b; stmts=0,3}\n"
            "x = delete_port(y)\nreturn x",
        ))
        anchor = model.anchor
        assert anchor.call_segments == {"delete_port"}
        assert (anchor.lead_min, anchor.lead_max) == (1, 5)

    def test_ellipsis_lead_is_unbounded(self):
        anchor = compile_text(spec("...\n$CALL#c{name=close; ctx=any}")).anchor
        assert anchor.call_segments == {"close"}
        assert (anchor.lead_min, anchor.lead_max) == (0, UNBOUNDED)

    def test_anchor_is_first_concrete_statement_only(self):
        # The later `cleanup()` is not part of the anchor requirement.
        anchor = compile_text(spec("setup()\ncleanup()")).anchor
        assert anchor.call_segments == {"setup"}

    def test_wildcard_anchor_has_no_anchor(self):
        assert compile_text(spec("$CALL{name=delete_*}(...)")).anchor is None
        assert compile_text(spec("return $EXPR#v")).anchor is None

    def test_block_only_pattern_has_no_anchor(self):
        model = compile_text(spec("$BLOCK{tag=b; stmts=1,2}", "$BLOCK{tag=b}"))
        assert model.anchor is None

    def test_nested_suite_call_is_required(self):
        anchor = compile_text(spec(
            "if $EXPR#c :\n    ...\n    refresh()\n    ...",
        )).anchor
        assert anchor.call_segments == {"refresh"}


class TestIndexContents:
    SOURCE = (
        "import os\n"
        "@register(name='x')\n"
        "def handler(ctx, cb=make_default()):\n"
        "    run = lambda: os.path.join('a')\n"
        "    if ctx:\n"
        "        try:\n"
        "            client.delete_port(ctx)\n"
        "        except ValueError:\n"
        "            log.warn()\n"
        "    a()()\n"
        "    return run\n"
    )

    def index(self):
        return build_index(ast.parse(self.SOURCE))

    def calls_of(self, listed):
        return {segment: sorted(positions)
                for segment, positions in listed.calls.items()}

    def test_lists_in_walk_order(self):
        index = self.index()
        walked = [
            (id(node), fname)
            for node in ast.walk(index.tree)
            for fname, value in ast.iter_fields(node)
            if isinstance(value, list) and value
            and all(isinstance(item, ast.stmt) for item in value)
        ]
        assert [(id(listed.owner), listed.field)
                for listed in index.stmt_lists] == walked

    def test_module_statement_summarises_whole_subtree(self):
        module = self.index().stmt_lists[0]
        assert self.calls_of(module) == {
            # decorator, default argument, lambda, nested suites, a()()
            "register": [1], "make_default": [1], "os": [1], "path": [1],
            "join": [1], "client": [1], "delete_port": [1], "log": [1],
            "warn": [1], "a": [1],
        }

    def test_function_body_positions(self):
        body = self.index().stmt_lists[1]
        assert body.field == "body"
        assert self.calls_of(body) == {
            "os": [0], "path": [0], "join": [0],
            "client": [1], "delete_port": [1], "log": [1], "warn": [1],
            "a": [2],
        }

    def test_segment_lists_and_lists_calling(self):
        index = self.index()
        holders = index.lists_calling(frozenset({"delete_port"}))
        assert [listed.field for listed in holders] == [
            "body", "body", "body", "body",
        ]
        assert index.lists_calling(frozenset({"delete_port", "warn"})) \
            == holders[:3]
        assert index.lists_calling(frozenset({"missing"})) == []

    def test_window_starts(self):
        # Lists of 2 (module), 4 (def), 1 (if), 1 (try), 1 (except).
        index = self.index()
        assert [len(listed.stmts) for listed in index.stmt_lists] \
            == [2, 4, 1, 1, 1]
        assert index.window_starts(1) == 9
        assert index.window_starts(2) == 4
        assert index.window_starts(5) == 0


class TestCounters:
    def test_starts_counted(self):
        model = compile_text(spec("$CALL{name=delete_port}(...)"))
        engine = ScanEngine([model])
        engine.scan_rows(TestIndexContents.SOURCE)
        stats = engine.prefilter_stats()
        assert stats["pairs_total"] == 1 and stats["pairs_skipped"] == 0
        assert stats["starts_total"] == 9
        # Module statement 1 and the def/if/try bodies holding the call.
        assert stats["starts_tried"] == 4
        assert stats["start_skip_rate"] == pytest.approx(5 / 9)


# -- the soundness property ---------------------------------------------------

GLOBS = (
    "delete_port", "utils.execute", "os.path.join", "delete_*",
    "*.delete_port", "client.*", "/del.*port/", "delete_[pq]ort",
    "a[.]b", "a", "*", "join",
    # names the synth sources call
    "base.client.*", "base.refresh", "log.debug", "*_volume",
)

LEADS = (
    "", "...\n", "$BLOCK{tag=lead; stmts=0,1}\n",
    "$BLOCK{tag=lead; stmts=1,2}\n", "$BLOCK{tag=lead; stmts=1,*}\n",
    "$BLOCK{tag=lead; stmts=0,2}\n...\n",
)

ANCHORS = (
    "$CALL#c{{name={glob}; ctx=any}}",
    "$CALL{{name={glob}}}(...)",
    "$VAR#v = $CALL{{name={glob}}}(..., $EXPR#arg, ...)",
    "if $EXPR#cond :\n    ...\n    $CALL{{name={glob}}}(...)\n    ...",
    "try:\n    ...\n    $CALL#c{{name={glob}; ctx=any}}\n    ...\n"
    "except $EXPR#exc :\n    ...",
    "{glob_call}(...)",
)

TAILS = ("", "$BLOCK{tag=tail; stmts=0,1}", "return $EXPR#r", "...")


@st.composite
def patterns(draw):
    glob = draw(st.sampled_from(GLOBS))
    template = draw(st.sampled_from(ANCHORS))
    # A concrete call anchor needs a plain dotted name.
    glob_call = glob if not set("*?[/").intersection(glob) else "helper"
    anchor = template.format(glob=glob, glob_call=glob_call)
    text = draw(st.sampled_from(LEADS)) + anchor + "\n" + draw(
        st.sampled_from(TAILS))
    return compile_text(spec(text), name="prop")


CALLEES = ("delete_port", "client.delete_port", "utils.execute",
           "os.path.join", "a.b", "a", "helper", "delete_qort", "other")


def _callee(name):
    node = None
    for part in name.split("."):
        node = (ast.Name(id=part, ctx=ast.Load()) if node is None
                else ast.Attribute(value=node, attr=part, ctx=ast.Load()))
    return node


@st.composite
def calls(draw, depth=0):
    kind = draw(st.integers(0, 3 if depth < 2 else 1))
    args = draw(st.lists(expressions(depth=depth + 1), max_size=2))
    if kind == 2:  # a()(...): the outer call has no name
        func = ast.Call(func=_callee(draw(st.sampled_from(CALLEES))),
                        args=[], keywords=[])
    elif kind == 3:  # call on a computed object: get().delete_port(...)
        func = ast.Attribute(value=draw(calls(depth=depth + 1)),
                             attr=draw(st.sampled_from(("delete_port", "b"))),
                             ctx=ast.Load())
    else:
        func = _callee(draw(st.sampled_from(CALLEES)))
    return ast.Call(func=func, args=args, keywords=[])


@st.composite
def expressions(draw, depth=0):
    # Calls dominate, so most random programs hold some match.
    kind = draw(st.integers(0, 5 if depth < 2 else 1))
    if kind == 0:
        return ast.Name(id=draw(st.sampled_from(("x", "y"))), ctx=ast.Load())
    if kind == 1:
        return ast.Constant(value=draw(st.integers(0, 3)))
    if kind == 2:
        return ast.Lambda(
            args=ast.arguments(posonlyargs=[], args=[], kwonlyargs=[],
                               kw_defaults=[], defaults=[]),
            body=draw(calls(depth=depth + 1)),
        )
    return draw(calls(depth=depth))


def _suite(draw, depth):
    return draw(st.lists(statements(depth=depth + 1), min_size=1, max_size=3))


@st.composite
def statements(draw, depth=0):
    kind = draw(st.integers(-1, 6 if depth < 2 else 2))
    if kind <= 0:
        return ast.Expr(value=draw(calls(depth=depth)))
    if kind == 1:
        return ast.Assign(targets=[ast.Name(id="x", ctx=ast.Store())],
                          value=draw(expressions(depth=depth)))
    if kind == 2:
        return ast.Return(value=draw(expressions(depth=depth)))
    if kind == 3:
        return ast.If(test=draw(expressions(depth=depth + 1)),
                      body=_suite(draw, depth), orelse=[])
    if kind == 4:
        return ast.Try(
            body=_suite(draw, depth),
            handlers=[ast.ExceptHandler(
                type=ast.Name(id="ValueError", ctx=ast.Load()), name=None,
                body=_suite(draw, depth))],
            orelse=[], finalbody=[],
        )
    if kind == 5:
        return ast.With(
            items=[ast.withitem(context_expr=draw(calls(depth=depth + 1)),
                                optional_vars=None)],
            body=_suite(draw, depth),
        )
    defaults = draw(st.lists(calls(depth=depth + 1), max_size=1))
    return ast.FunctionDef(
        name="f",
        args=ast.arguments(
            posonlyargs=[], kwonlyargs=[], kw_defaults=[],
            args=[ast.arg(arg=f"p{i}") for i in range(len(defaults))],
            defaults=defaults,
        ),
        body=_suite(draw, depth),
        decorator_list=draw(st.lists(calls(depth=depth + 1), max_size=1)),
        returns=None,
    )


@st.composite
def programs(draw):
    module = ast.Module(
        body=draw(st.lists(statements(), min_size=1, max_size=8)),
        type_ignores=[],
    )
    ast.fix_missing_locations(module)
    return ast.unparse(module) + "\n"


EDGE_SOURCES = (
    "def f():\n    if x:\n        try:\n            delete_port(x)\n"
    "        except ValueError:\n            a.b()\n    return x\n",
    "@utils.execute(1)\ndef f(p=os.path.join('a')):\n    x = 1\n",
    "x = lambda: delete_port(y)\nhelper(x)\nreturn_value = a()()\n",
    "get().delete_port(1)\nclient.delete_port(x, 2)\nx = delete_qort(3, y)\n",
)


@pytest.fixture(scope="module")
def synth_sources(tmp_path_factory):
    dest = tmp_path_factory.mktemp("synth-anchor")
    generate_codebase(dest, SynthConfig(files=2, seed=5))
    return [path.read_text(encoding="utf-8")
            for path in sorted(Path(dest).rglob("*.py"))]


def assert_indexed_equals_oracle(model, source):
    tree = ast.parse(source)
    assert (window_keys(Matcher(model).find_matches(tree))
            == window_keys(every_start_matches(model, tree))), source


PROPERTY = settings(max_examples=60, deadline=None,
                    suppress_health_check=[HealthCheck.too_slow,
                                           HealthCheck.function_scoped_fixture])


class TestSoundness:
    @PROPERTY
    @given(model=patterns(), source=programs())
    def test_random_patterns_on_random_programs(self, model, source):
        assert_indexed_equals_oracle(model, source)

    @PROPERTY
    @given(model=patterns())
    def test_random_patterns_on_edge_and_synth_sources(self, model,
                                                       synth_sources):
        for source in EDGE_SOURCES + tuple(synth_sources):
            assert_indexed_equals_oracle(model, source)

    def test_api_faultload_on_synth_sources(self, synth_sources):
        models = expand_api_faults(scan_pattern_apis()).compile()
        for source in synth_sources:
            for model in models:
                assert_indexed_equals_oracle(model, source)
