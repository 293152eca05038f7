"""Unit tests for the AST pattern-matching engine."""

import ast
import textwrap

from repro.dsl import compile_text
from repro.scanner.bindings import CallCapture
from repro.scanner.matcher import Matcher, call_name, name_matches


def matches_of(spec_text, target, name="spec"):
    model = compile_text(spec_text, name=name)
    tree = ast.parse(textwrap.dedent(target))
    return Matcher(model).find_matches(tree), model


class TestCallName:
    def test_simple_name(self):
        node = ast.parse("foo()").body[0].value
        assert call_name(node.func) == "foo"

    def test_dotted_name(self):
        node = ast.parse("utils.execute()").body[0].value
        assert call_name(node.func) == "utils.execute"

    def test_deep_attribute(self):
        node = ast.parse("self.client.delete_port()").body[0].value
        assert call_name(node.func) == "self.client.delete_port"

    def test_computed_base(self):
        node = ast.parse("get_client().delete_port()").body[0].value
        assert call_name(node.func) == "*.delete_port"

    def test_non_name_callable(self):
        node = ast.parse("(lambda: 1)()").body[0].value
        assert call_name(node.func) is None


class TestNameMatches:
    def test_exact(self):
        assert name_matches("foo", "foo")

    def test_glob_prefix(self):
        assert name_matches("delete_*", "delete_port")

    def test_last_segment_for_undotted_glob(self):
        assert name_matches("delete_*", "self.client.delete_port")

    def test_dotted_glob_requires_dotted_match(self):
        assert name_matches("utils.execute", "utils.execute")
        assert not name_matches("utils.execute", "other.execute")
        assert not name_matches("utils.execute", "execute")

    def test_star_matches_unnamed(self):
        assert name_matches("*", None)
        assert not name_matches("foo", None)

    def test_regex_pattern(self):
        assert name_matches("/^(get|set)_/", "set_key")
        assert not name_matches("/^(get|set)_/", "reset_key")


class TestStatementWindows:
    def test_single_call_statement(self):
        found, _ = matches_of(
            "change { $CALL{name=foo}(...) } into { pass }",
            "foo()\nbar()\nfoo(1)\n",
        )
        assert len(found) == 2
        assert [m.lineno for m in found] == [1, 3]

    def test_call_must_be_outermost(self):
        found, _ = matches_of(
            "change { $CALL{name=foo}(...) } into { pass }",
            "x = foo()\n",
        )
        assert found == []

    def test_ctx_any_matches_nested_calls(self):
        found, _ = matches_of(
            "change { $CALL#c{name=foo; ctx=any} } into { pass }",
            "x = foo()\nreturn_value = [foo(i) for i in y]\n",
        )
        assert len(found) == 2
        capture = found[0].bindings.get("c")
        assert isinstance(capture, CallCapture)
        assert capture.containing_stmt is found[0].stmts[0]

    def test_block_context_requirements(self):
        spec = """
        change {
            $BLOCK{tag=b1; stmts=1,*}
            $CALL{name=delete_*}(...)
            $BLOCK{tag=b2; stmts=1,*}
        } into { pass }
        """
        # delete at the start of the body: no preceding statement -> no match.
        found, _ = matches_of(spec, "def f():\n    delete_x()\n    after()\n")
        assert found == []
        found, _ = matches_of(
            spec, "def f():\n    before()\n    delete_x()\n    after()\n"
        )
        assert len(found) == 1
        assert [len(found[0].bindings.get(t)) for t in ("b1", "b2")] == [1, 1]

    def test_one_match_per_deletable_call(self):
        spec = """
        change {
            $BLOCK{tag=b1; stmts=1,*}
            $CALL{name=delete_*}(...)
            $BLOCK{tag=b2; stmts=1,*}
        } into { pass }
        """
        target = """
        def f():
            a()
            delete_one()
            b()
            delete_two()
            c()
        """
        found, _ = matches_of(spec, target)
        assert len(found) == 2

    def test_block_bounds_respected(self):
        spec = """
        change {
            if $EXPR{var=node} :
                $BLOCK{stmts=1,2}
                continue
        } into { }
        """
        ok, _ = matches_of(
            spec,
            "for node in it:\n    if node:\n        a()\n        b()\n"
            "        continue\n",
        )
        assert len(ok) == 1
        too_big, _ = matches_of(
            spec,
            "for node in it:\n    if node:\n        a()\n        b()\n"
            "        c()\n        continue\n",
        )
        assert too_big == []

    def test_nested_body_anchored_fully(self):
        # The pattern if-body must match the whole target if-body.
        spec = """
        change {
            if $EXPR :
                foo()
        } into { }
        """
        found, _ = matches_of(spec, "if x:\n    foo()\n    bar()\n")
        assert found == []
        found, _ = matches_of(spec, "if x:\n    foo()\n")
        assert len(found) == 1

    def test_if_with_else_not_matched_by_plain_if(self):
        spec = """
        change {
            if $EXPR :
                foo()
        } into { }
        """
        found, _ = matches_of(spec, "if x:\n    foo()\nelse:\n    bar()\n")
        assert found == []

    def test_else_matched_via_block(self):
        spec = """
        change {
            if $EXPR :
                foo()
            else :
                $BLOCK{stmts=0,*}
        } into { }
        """
        found, _ = matches_of(spec, "if x:\n    foo()\nelse:\n    bar()\n")
        assert len(found) == 1

    def test_ellipsis_statement_wildcard(self):
        spec = """
        change {
            try :
                ...
            except :
                $BLOCK{tag=h; stmts=1,*}
        } into { pass }
        """
        found, _ = matches_of(
            spec,
            "try:\n    a()\n    b()\nexcept:\n    handle()\n",
        )
        assert len(found) == 1
        assert len(found[0].bindings.get("h")) == 1

    def test_matches_inside_class_methods(self):
        found, _ = matches_of(
            "change { $CALL{name=close}(...) } into { pass }",
            """
            class C:
                def f(self):
                    close()
            """,
        )
        assert len(found) == 1


class TestExpressionMatching:
    def test_expr_var_constraint(self):
        found, _ = matches_of(
            "change { if $EXPR{var=node} :\n    continue } into { }",
            "while True:\n    if node:\n        continue\n",
        )
        assert len(found) == 1
        found, _ = matches_of(
            "change { if $EXPR{var=node} :\n    continue } into { }",
            "while True:\n    if other:\n        continue\n",
        )
        assert found == []

    def test_expr_matches_any_expression(self):
        found, _ = matches_of(
            "change { return $EXPR } into { return None }",
            "def f():\n    return a + b\n",
        )
        assert len(found) == 1

    def test_string_glob(self):
        found, _ = matches_of(
            "change { f($STRING{val=*-*}) } into { pass }",
            "f('-x')\nf('plain')\n",
        )
        assert len(found) == 1
        assert found[0].lineno == 1

    def test_num_bounds(self):
        found, _ = matches_of(
            "change { g($NUM{min=0; max=10}) } into { pass }",
            "g(5)\ng(50)\ng(-1)\ng(True)\n",
        )
        assert len(found) == 1

    def test_var_name_glob(self):
        found, _ = matches_of(
            "change { x = $VAR{name=cfg_*} } into { x = None }",
            "x = cfg_timeout\nx = other\n",
        )
        assert len(found) == 1

    def test_assignment_with_call_value(self):
        found, _ = matches_of(
            "change { $VAR#v = $CALL#c{name=urlopen}(...) } into { $VAR#v = None }",
            "resp = urlopen(url)\n",
        )
        assert len(found) == 1

    def test_boolop_clause_pattern(self):
        # MLOC-style: if with an 'or' clause.
        found, _ = matches_of(
            "change { if $EXPR#a or $EXPR#b :\n    $BLOCK{tag=body; stmts=1,*} }"
            " into { }",
            "if x or y:\n    go()\n",
        )
        assert len(found) == 1

    def test_structural_mismatch_rejected(self):
        found, _ = matches_of(
            "change { if $EXPR :\n    $BLOCK{stmts=1,*} } into { }",
            "while x:\n    go()\n",
        )
        assert found == []

    def test_constants_compare_by_type(self):
        # 1 == True == 1.0 in Python; the pattern constant pins the type.
        found, _ = matches_of(
            "change { retries = 1 } into { retries = 0 }",
            "retries = True\nretries = 1.0\nretries = 1\nretries = 2\n",
        )
        assert [match.lineno for match in found] == [3]


class TestCallArguments:
    def test_wildcard_absorbs_positional(self):
        found, _ = matches_of(
            "change { $CALL#c{name=f}(..., $STRING#s{val=-*}, ...) } into { pass }",
            "f(1, 2, '-v', 3)\n",
        )
        capture = found[0].bindings.get("c")
        assert [len(w) for w in capture.wildcards] == [2, 1]

    def test_no_wildcard_requires_exact_args(self):
        found, _ = matches_of(
            "change { $CALL{name=f}($EXPR) } into { pass }",
            "f(1)\nf(1, 2)\nf()\n",
        )
        assert len(found) == 1
        assert found[0].lineno == 1

    def test_keywords_absorbed_with_wildcard(self):
        found, _ = matches_of(
            "change { $CALL#c{name=f}(...) } into { pass }",
            "f(1, timeout=3)\n",
        )
        capture = found[0].bindings.get("c")
        assert [k.arg for k in capture.absorbed_keywords] == ["timeout"]

    def test_keywords_rejected_without_wildcard(self):
        found, _ = matches_of(
            "change { $CALL{name=f}($EXPR) } into { pass }",
            "f(1, timeout=3)\n",
        )
        assert found == []

    def test_explicit_keyword_pattern(self):
        found, _ = matches_of(
            "change { $CALL{name=f}(..., timeout=$NUM) } into { pass }",
            "f(1, timeout=3)\nf(1)\n",
        )
        assert len(found) == 1
        assert found[0].lineno == 1

    def test_empty_call_pattern(self):
        found, _ = matches_of(
            "change { $CALL{name=f}() } into { pass }",
            "f()\nf(1)\n",
        )
        assert len(found) == 1

    def test_zero_args_matches_bare_wildcard(self):
        found, _ = matches_of(
            "change { $CALL{name=f}(...) } into { pass }",
            "f()\n",
        )
        assert len(found) == 1


class TestMatchOrdering:
    def test_matches_sorted_by_position(self):
        found, _ = matches_of(
            "change { $CALL{name=t*}(...) } into { pass }",
            "t1()\n\ndef f():\n    t2()\n\nt3()\n",
        )
        assert [m.lineno for m in found] == [1, 4, 6]
