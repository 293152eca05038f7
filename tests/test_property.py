"""Property-based tests (hypothesis) for core invariants.

The headline property, on randomly generated programs: for every match of
every pre-defined fault operator, the mutated source still parses — both
in permanent and trigger mode — and coverage instrumentation never breaks
the program either; both equal the oracle's whole-file rendering
(``tests/oracle.py``).  The programs are printed with awkward layouts:
same-line suites, ``;`` joins, ``elif`` chains, decorators, and form
feeds and other odd line-break characters in comments and blank lines.
Further properties cover the DSL parameter splitter, corruption
primitives, and the etcd store's index/consistency invariants.
"""

import ast

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st
from oracle import (
    ast_equivalent,
    legacy_instrumented_source,
    legacy_mutant_source,
)

from repro.common.rng import SeededRandom
from repro.dsl.params import split_top_level
from repro.etcdsim.errors import EtcdError
from repro.etcdsim.store import EtcdStore
from repro.faultmodel.library import extended_model, gswfit_model
from repro.mutator.mutate import Mutator
from repro.scanner.matcher import Matcher

SETTINGS = settings(
    max_examples=40,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)

# -- a tiny random-program generator (builds ASTs, so always valid) ----------

NAMES = ("a", "b", "node", "value", "delete_x", "helper")
FUNC_NAMES = ("foo", "delete_port", "utils.execute", "os.path.join")
DECORATORS = ("cache", "functools.wraps", "app.route")
#: Trailing comments, some with characters ``str.splitlines`` breaks at.
COMMENTS = ("", "", "  # c", "  # \x0c", "  # a\x85b", "  #\u2028",
            "  # \u2029\x0b\x1c")
#: Lines between statements: none, empty, or whitespace-only.
SPACERS = (None, None, "", "\x0c", "   ", "\x0c    ")


def _name_node(name):
    node = None
    for part in name.split("."):
        if node is None:
            node = ast.Name(id=part, ctx=ast.Load())
        else:
            node = ast.Attribute(value=node, attr=part, ctx=ast.Load())
    return node


@st.composite
def expressions(draw, depth=0):
    choice = draw(st.integers(0, 5 if depth < 2 else 3))
    if choice == 0:
        return ast.Name(id=draw(st.sampled_from(NAMES)), ctx=ast.Load())
    if choice == 1:
        return ast.Constant(value=draw(st.integers(-50, 50)))
    if choice == 2:
        return ast.Constant(value=draw(st.sampled_from(
            ("x", "-f", "name-1", "plain")
        )))
    if choice == 3:
        return ast.BinOp(
            left=draw(expressions(depth=depth + 1)),
            op=draw(st.sampled_from((ast.Add(), ast.Sub(), ast.Mult()))),
            right=draw(expressions(depth=depth + 1)),
        )
    return ast.Call(
        func=_name_node(draw(st.sampled_from(FUNC_NAMES))),
        args=draw(st.lists(expressions(depth=depth + 1), max_size=3)),
        keywords=[],
    )


@st.composite
def statements(draw, depth=0):
    choice = draw(st.integers(0, 5 if depth < 2 else 2))
    if choice == 0:
        return ast.Expr(value=draw(expressions(depth=depth)))
    if choice == 1:
        return ast.Assign(
            targets=[ast.Name(id=draw(st.sampled_from(NAMES)),
                              ctx=ast.Store())],
            value=draw(expressions(depth=depth)),
        )
    if choice == 2:
        return ast.Return(value=draw(expressions(depth=depth)))
    if choice == 3:
        if draw(st.booleans()):  # an elif arm
            orelse = [draw(statements(depth=depth + 1).filter(
                lambda stmt: isinstance(stmt, ast.If)))]
        else:
            orelse = draw(st.lists(statements(depth=depth + 1), max_size=2))
        return ast.If(
            test=draw(expressions(depth=depth + 1)),
            body=draw(st.lists(statements(depth=depth + 1), min_size=1,
                               max_size=3)),
            orelse=orelse,
        )
    if choice == 4:
        return ast.For(
            target=ast.Name(id=draw(st.sampled_from(NAMES)),
                            ctx=ast.Store()),
            iter=draw(expressions(depth=depth + 1)),
            body=draw(st.lists(statements(depth=depth + 1), min_size=1,
                               max_size=3)),
            orelse=[],
        )
    return ast.FunctionDef(
        name=draw(st.sampled_from(("f", "g", "handler"))),
        args=ast.arguments(posonlyargs=[], args=[], kwonlyargs=[],
                           kw_defaults=[], defaults=[]),
        body=draw(st.lists(statements(depth=depth + 1), min_size=1,
                           max_size=4)),
        decorator_list=[_name_node(name) for name in draw(
            st.lists(st.sampled_from(DECORATORS), max_size=2))],
    )


@st.composite
def programs(draw):
    module = ast.Module(
        body=draw(st.lists(statements(), min_size=1, max_size=6)),
        type_ignores=[],
    )
    ast.fix_missing_locations(module)
    out: list[str] = []
    _print_body(draw, module.body, "", out)
    return "".join(out)


def _is_simple(stmt):
    return isinstance(stmt, (ast.Expr, ast.Assign, ast.Return))


def _print_body(draw, stmts, indent, out):
    """Print a statement list, drawing a layout for every line."""
    index = 0
    while index < len(stmts):
        spacer = draw(st.sampled_from(SPACERS))
        if spacer is not None:
            out.append(spacer + "\n")
        stmt = stmts[index]
        if _is_simple(stmt):
            run = [stmt]
            while (index + len(run) < len(stmts)
                   and _is_simple(stmts[index + len(run)])
                   and draw(st.booleans())):
                run.append(stmts[index + len(run)])
            out.append(indent + "; ".join(ast.unparse(s) for s in run)
                       + draw(st.sampled_from(COMMENTS)) + "\n")
            index += len(run)
            continue
        if isinstance(stmt, ast.If):
            _print_if(draw, stmt, "if", indent, out)
        elif isinstance(stmt, ast.For):
            _print_suite(draw, f"for {ast.unparse(stmt.target)} in "
                         f"{ast.unparse(stmt.iter)}:", stmt.body, indent, out)
        else:
            for decorator in stmt.decorator_list:
                out.append(f"{indent}@{ast.unparse(decorator)}"
                           + draw(st.sampled_from(COMMENTS)) + "\n")
            _print_suite(draw, f"def {stmt.name}():", stmt.body, indent, out)
        index += 1


def _print_if(draw, stmt, keyword, indent, out):
    _print_suite(draw, f"{keyword} {ast.unparse(stmt.test)}:", stmt.body,
                 indent, out)
    orelse = stmt.orelse
    if not orelse:
        return
    if (len(orelse) == 1 and isinstance(orelse[0], ast.If)
            and draw(st.booleans())):
        _print_if(draw, orelse[0], "elif", indent, out)
    else:
        _print_suite(draw, "else:", orelse, indent, out)


def _print_suite(draw, header, body, indent, out):
    """A compound header with its suite on the same line or below it."""
    if all(_is_simple(stmt) for stmt in body) and draw(st.booleans()):
        out.append(f"{indent}{header} "
                   + "; ".join(ast.unparse(stmt) for stmt in body)
                   + draw(st.sampled_from(COMMENTS)) + "\n")
        return
    out.append(indent + header + draw(st.sampled_from(COMMENTS)) + "\n")
    _print_body(draw, body, indent + "    ", out)


ALL_MODELS = gswfit_model().compile() + extended_model().compile()


class TestMutantsAlwaysParse:
    @SETTINGS
    @given(source=programs(), seed=st.integers(0, 10**6))
    def test_permanent_mutants_parse(self, source, seed):
        tree = ast.parse(source)
        for model in ALL_MODELS:
            matches = Matcher(model).find_matches(tree)
            mutator = Mutator(trigger=False, rng=SeededRandom(seed))
            for ordinal in range(min(len(matches), 3)):
                mutation = mutator.mutate_source(source, model, ordinal)
                assert ast_equivalent(mutation.source, legacy_mutant_source(
                    source, model, ordinal, trigger=False,
                    rng=SeededRandom(seed), fault_id=mutation.fault_id,
                ))

    @SETTINGS
    @given(source=programs())
    def test_trigger_mutants_parse_and_keep_original(self, source):
        tree = ast.parse(source)
        for model in ALL_MODELS:
            matches = Matcher(model).find_matches(tree)
            mutator = Mutator(trigger=True)
            for ordinal in range(min(len(matches), 2)):
                mutation = mutator.mutate_source(source, model, ordinal)
                # The trigger keeps the original statements in an else arm.
                assert "__pfp_rt__.enabled" in mutation.source
                assert ast_equivalent(mutation.source, legacy_mutant_source(
                    source, model, ordinal, trigger=True,
                    rng=SeededRandom(0), fault_id=mutation.fault_id,
                ))

    @SETTINGS
    @given(source=programs())
    def test_instrumentation_parses(self, source):
        for model in ALL_MODELS[:4]:
            tree = ast.parse(source)
            matches = Matcher(model).find_matches(tree)
            targets = [
                (model, ordinal, f"{model.name}:{ordinal}")
                for ordinal in range(min(len(matches), 3))
            ]
            instrumented = Mutator().instrument_source(source, targets)
            assert ast_equivalent(
                instrumented, legacy_instrumented_source(source, targets))
            assert instrumented.count("__pfp_rt__.cover") == len(targets)

    @SETTINGS
    @given(source=programs())
    def test_match_windows_in_bounds(self, source):
        tree = ast.parse(source)
        for model in ALL_MODELS:
            for match in Matcher(model).find_matches(tree):
                body = getattr(match.owner, match.field)
                assert 0 <= match.start < match.end <= len(body)


class TestSplitTopLevel:
    @SETTINGS
    @given(st.lists(st.text(
        alphabet=st.characters(
            whitelist_categories=("Ll", "Lu", "Nd"),
            whitelist_characters="_*.- ",
        ),
        min_size=1, max_size=10,
    ), min_size=1, max_size=5))
    def test_join_split_round_trip(self, parts):
        joined = ";".join(parts)
        assert split_top_level(joined, ";") == parts

    @SETTINGS
    @given(st.text(alphabet="ab{};|'", max_size=30))
    def test_never_raises(self, text):
        split_top_level(text, ";")


class TestCorruption:
    @SETTINGS
    @given(st.text(min_size=1, max_size=64), st.integers(0, 10**6))
    def test_corrupt_string_always_differs(self, value, seed):
        assert SeededRandom(seed).corrupt_string(value) != value

    @SETTINGS
    @given(st.text(max_size=64), st.integers(0, 10**6))
    def test_corrupt_string_deterministic(self, value, seed):
        first = SeededRandom(seed).corrupt_string(value)
        second = SeededRandom(seed).corrupt_string(value)
        assert first == second

    @SETTINGS
    @given(st.integers(-10**9, 10**9), st.integers(0, 10**6))
    def test_corrupt_int_always_differs(self, value, seed):
        assert SeededRandom(seed).corrupt_int(value) != value


# -- etcd store invariants ------------------------------------------------------

op_strategy = st.sampled_from(["set", "delete", "cas", "mkdir", "ttl"])
key_strategy = st.sampled_from(["/a", "/b", "/dir/x", "/dir/y", "/deep/p/q"])


class TestStoreInvariants:
    @SETTINGS
    @given(st.lists(st.tuples(op_strategy, key_strategy,
                              st.text(alphabet="xyz09", max_size=5)),
                    max_size=30))
    def test_indices_strictly_monotonic(self, ops):
        store = EtcdStore()
        last_index = 0
        for op, key, value in ops:
            try:
                if op == "set":
                    event = store.set(key, value)
                elif op == "delete":
                    event = store.delete(key, recursive=True)
                elif op == "cas":
                    event = store.compare_and_swap(key, value,
                                                   prev_value="x")
                elif op == "mkdir":
                    event = store.set(key, dir=True)
                else:
                    event = store.set(key, value, ttl=100)
            except EtcdError:
                continue
            assert event.index > last_index or event.action == "get"
            last_index = max(last_index, event.index)

    @SETTINGS
    @given(st.lists(st.tuples(key_strategy,
                              st.text(alphabet="xyz09", max_size=5)),
                    min_size=1, max_size=20))
    def test_get_after_set_reads_back(self, writes):
        store = EtcdStore()
        expected = {}
        for key, value in writes:
            try:
                store.set(key, value)
                expected[key] = value
            except EtcdError:
                # e.g. key is now a directory parent; skip.
                expected.pop(key, None)
        for key, value in expected.items():
            assert store.get(key).node["value"] == value

    @SETTINGS
    @given(st.lists(key_strategy, min_size=1, max_size=10, unique=True))
    def test_delete_removes_exactly_the_key(self, keys):
        store = EtcdStore()
        written = []
        for key in keys:
            try:
                store.set(key, "v")
                written.append(key)
            except EtcdError:
                pass
        if not written:
            return
        victim = written[0]
        store.delete(victim, recursive=True)
        for key in written[1:]:
            if key.startswith(victim + "/"):
                continue
            store.get(key)  # must not raise
        with pytest.raises(EtcdError):
            store.get(victim)
