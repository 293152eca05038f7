"""Prefilter requirement extraction and fingerprint soundness."""

import ast

import pytest
from oracle import every_start_matches

from repro.dsl.compiler import compile_text
from repro.faultmodel.library import extended_model, gswfit_model
from repro.scanner.prefilter import (
    FileFingerprint,
    derive_requirements,
    literal_glob_segments,
)


def spec(change: str, into: str = "pass") -> str:
    return "change {\n%s\n} into {\n%s\n}" % (change, into)


class TestLiteralGlobSegments:
    def test_dotted_literal(self):
        assert literal_glob_segments("utils.execute") == {"utils", "execute"}

    def test_single_literal(self):
        assert literal_glob_segments("delete_port") == {"delete_port"}

    def test_wildcard_segments_dropped(self):
        assert literal_glob_segments("delete_*") == frozenset()
        assert literal_glob_segments("nova.*.delete") == {"nova", "delete"}
        assert literal_glob_segments("base.client.*") == {"base", "client"}

    def test_question_and_class_dropped(self):
        assert literal_glob_segments("delete_?") == frozenset()
        assert literal_glob_segments("delete_[ab]") == frozenset()

    def test_regex_has_no_requirements(self):
        assert literal_glob_segments("/delete_.*/") == frozenset()

    def test_bracket_class_disables_all_segments(self):
        # `[.]` matches a literal dot, so splitting on "." would fabricate
        # bogus segments like "]b" — any bracket glob yields no requirement.
        assert literal_glob_segments("a[.]b") == frozenset()
        assert literal_glob_segments("pkg.del[ae]te") == frozenset()

    def test_star_alone(self):
        assert literal_glob_segments("*") == frozenset()


class TestDeriveRequirements:
    def test_call_glob_requirements(self):
        model = compile_text(spec("$CALL{name=utils.execute}(...)"))
        req = model.requirements
        assert {"utils", "execute"} <= set(req.call_segments)
        assert "Call" in req.node_types

    def test_call_wildcard_has_no_segments(self):
        model = compile_text(spec("$CALL{name=delete_*}(...)"))
        assert model.requirements.call_segments == frozenset()
        assert "Call" in model.requirements.node_types

    def test_call_ctx_any_requires_only_a_call(self):
        model = compile_text(spec("$CALL#c{name=close; ctx=any}"))
        req = model.requirements
        assert "Call" in req.node_types
        assert "Expr" not in req.node_types
        assert "close" in req.call_segments

    def test_bare_call_stmt_requires_expr(self):
        model = compile_text(spec("$CALL#c{name=close}"))
        req = model.requirements
        assert {"Call", "Expr"} <= set(req.node_types)

    def test_block_imposes_nothing(self):
        model = compile_text(spec(
            "$BLOCK{tag=b1; stmts=1,*}\n$CALL{name=*}(...)\n"
            "$BLOCK{tag=b2; stmts=1,*}",
            "$BLOCK{tag=b1}\n$BLOCK{tag=b2}",
        ))
        req = model.requirements
        assert req.call_segments == frozenset()
        assert req.node_types == frozenset({"Call", "Expr"})

    def test_string_literal_value_required(self):
        model = compile_text(spec("$VAR#v = $STRING{val=start}"))
        req = model.requirements
        assert "start" in req.constants
        assert {"Constant", "Name"} <= set(req.node_types)

    def test_string_wildcard_value_not_required(self):
        model = compile_text(spec("$VAR#v = $STRING#s"))
        req = model.requirements
        assert req.constants == frozenset()
        assert "Constant" in req.node_types

    def test_num_requires_constant(self):
        model = compile_text(spec("$VAR#v = $NUM#n"))
        assert "Constant" in model.requirements.node_types

    def test_concrete_constants_and_calls(self):
        model = compile_text(spec("steps.append('start')"))
        req = model.requirements
        assert "start" in req.constants
        assert {"steps", "append"} <= set(req.call_segments)

    def test_assignment_from_dotted_call(self):
        model = compile_text(spec(
            "$VAR#v = $CALL{name=base.refresh}(...)", "$VAR#v = None"
        ))
        req = model.requirements
        assert {"base", "refresh"} <= set(req.call_segments)
        assert {"Assign", "Name", "Call"} <= set(req.node_types)

    def test_placeholder_attribute_base_not_required(self):
        # `$EXPR#e.append(x)`: the base may match any object, only the
        # attribute chain is forced onto the target call name.
        model = compile_text(spec("$EXPR#e.append(x)"))
        req = model.requirements
        assert "append" in req.call_segments
        assert not any(seg.startswith("_PFP_PH_")
                       for seg in req.call_segments)

    def test_if_pattern_requires_if(self):
        model = compile_text(spec(
            "if $EXPR#cond :\n    $BLOCK{tag=body; stmts=1,4}",
            "$BLOCK{tag=body}",
        ))
        assert "If" in model.requirements.node_types


class TestFingerprint:
    SOURCE = (
        "def f(ctx):\n"
        "    steps = []\n"
        "    steps.append('start')\n"
        "    result = utils.execute(ctx, 2)\n"
        "    return result\n"
    )

    def fingerprint(self):
        return FileFingerprint.from_tree(ast.parse(self.SOURCE))

    def test_collects_node_types(self):
        fp = self.fingerprint()
        assert {"FunctionDef", "Call", "Assign", "Return"} <= fp.node_types

    def test_collects_call_segments(self):
        fp = self.fingerprint()
        assert {"steps", "append", "utils", "execute"} <= fp.call_segments

    def test_collects_constants(self):
        fp = self.fingerprint()
        assert "start" in fp.constants
        assert 2 in fp.constants

    def test_satisfied_and_unsatisfied(self):
        fp = self.fingerprint()
        hit = compile_text(spec("$CALL{name=utils.execute}(...)"))
        miss = compile_text(spec("$CALL{name=os.remove}(...)"))
        assert hit.requirements.satisfied_by(fp)
        assert not miss.requirements.satisfied_by(fp)

    def test_missing_constant_rejects(self):
        fp = self.fingerprint()
        miss = compile_text(spec("$VAR#v = $STRING{val=shutdown}"))
        assert not miss.requirements.satisfied_by(fp)


SOUNDNESS_SOURCES = [
    # Call statements, assignments, returns.
    "def f(ctx, client):\n"
    "    log = []\n"
    "    log.append('start')\n"
    "    result = client.delete_port(ctx, 5)\n"
    "    state = 'ok'\n"
    "    value = compute(result, 1 + 2)\n"
    "    return value\n",
    # Conditionals with and/or, else branches.
    "def g(a, b):\n"
    "    if a and b:\n"
    "        cleanup(a)\n"
    "    if a or b:\n"
    "        refresh(b)\n"
    "    if a:\n"
    "        notify('x')\n"
    "    else:\n"
    "        fallback()\n"
    "    x = 3\n"
    "    return x\n",
]


@pytest.mark.parametrize("source", SOUNDNESS_SOURCES)
def test_prefilter_never_skips_a_matching_spec(source):
    """Soundness: whenever the matcher finds matches, the prefilter accepts."""
    tree = ast.parse(source)
    fingerprint = FileFingerprint.from_tree(tree)
    for model_set in (gswfit_model(), extended_model()):
        for model in model_set.compile():
            matches = every_start_matches(model, tree)
            requirements = derive_requirements(model)
            if matches:
                assert requirements.satisfied_by(fingerprint), (
                    f"prefilter would wrongly skip {model.name} "
                    f"({len(matches)} matches)"
                )
