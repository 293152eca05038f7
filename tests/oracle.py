"""Reference implementations the engine's equivalence tests compare to.

:func:`every_start_matches` tries the pattern at every start of every
statement list (``ast.walk`` order) with neither the file-level prefilter
nor the statement-level anchor index, then applies the engine's anchor
dedup and sort order.  The indexed engine must return exactly its matches.

:func:`legacy_mutant_source` and :func:`legacy_instrumented_source` are
the whole-file renderings the splicer must agree with: they parse a
fresh tree, take the windows :func:`every_start_matches` finds, edit the
tree in place and ``ast.unparse`` all of it.  :func:`ast_equivalent` is
the comparison.

:func:`walk_index` is the per-file index ``build_index`` must build,
derived with ``ast.walk`` alone: the statement lists in walk order, each
listed statement's call segments from a walk over that statement, and
the file fingerprint from one more walk over the tree.
"""

import ast

from repro.mutator.runtime import RUNTIME_ALIAS, RUNTIME_MODULE_NAME
from repro.mutator.substitute import ReplacementBuilder, runtime_call
from repro.scanner.index import call_name
from repro.scanner.matcher import Match, Matcher


def _call_segments(node):
    """The dotted-name segments of a call node (empty for anything else)."""
    if isinstance(node, ast.Call):
        dotted = call_name(node.func)
        if dotted is not None:
            return dotted.split(".")
    return []


def walk_index(tree):
    """``(lists, fingerprint, segment_lists)`` of ``tree``, the slow way.

    ``lists`` holds one ``(owner, field, stmts, {segment: positions})``
    per statement list in ``ast.walk`` order; ``fingerprint`` is the
    ``(node types, call segments, constants)`` triple; ``segment_lists``
    maps each segment to the indices of the lists that call it.
    """
    lists = []
    for node in ast.walk(tree):
        for fname, value in ast.iter_fields(node):
            if not (isinstance(value, list) and value
                    and all(isinstance(item, ast.stmt) for item in value)):
                continue
            calls = {}
            for position, stmt in enumerate(value):
                for inner in ast.walk(stmt):
                    for segment in _call_segments(inner):
                        calls.setdefault(segment, set()).add(position)
            lists.append((node, fname, value, calls))
    nodes = list(ast.walk(tree))
    fingerprint = (
        {type(node).__name__ for node in nodes},
        {segment for node in nodes for segment in _call_segments(node)},
        {node.value for node in nodes if isinstance(node, ast.Constant)},
    )
    segment_lists = {}
    for list_index, (_, _, _, calls) in enumerate(lists):
        for segment in calls:
            segment_lists.setdefault(segment, set()).add(list_index)
    return lists, fingerprint, segment_lists


def every_start_matches(model, tree):
    """All matches of ``model`` in ``tree``, trying every window start."""
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


def ast_equivalent(source_a, source_b):
    """True iff the two sources parse to structurally identical trees.

    ``ast.dump`` drops positions, so formatting is ignored: two sources
    compare equal exactly when they are the same program.
    """
    return ast.dump(ast.parse(source_a)) == ast.dump(ast.parse(source_b))


#: ``(source, spec name, raw spec) -> window sites`` of every_start_matches.
_SITES = {}


def _fresh_window(source, model, ordinal):
    """A fresh parse of ``source`` and its ``ordinal``-th window.

    :func:`every_start_matches` runs once per ``(source, model)``; each
    call re-parses, walks to the window's recorded site and matches there
    again, so the window and its bindings are nodes of the fresh tree.
    """
    key = (source, model.name, model.spec.raw)
    if key not in _SITES:
        if len(_SITES) > 256:
            _SITES.clear()
        tree = ast.parse(source)
        paths = {id(tree): ()}
        for node in ast.walk(tree):
            for fname, value in ast.iter_fields(node):
                children = value if isinstance(value, list) else [value]
                for index, child in enumerate(children):
                    if isinstance(child, ast.AST):
                        paths[id(child)] = paths[id(node)] + ((fname, index),)
        _SITES[key] = [(paths[id(match.owner)], match.field, match.start)
                       for match in every_start_matches(model, tree)]
    path, fname, start = _SITES[key][ordinal]
    tree = ast.parse(source)
    owner = tree
    for step, index in path:
        value = getattr(owner, step)
        owner = value[index] if isinstance(value, list) else value
    match = Matcher(model).match_at(owner, fname, getattr(owner, fname),
                                    start)
    assert match is not None
    return tree, match


def legacy_mutant_source(source, model, ordinal, *, trigger, rng, fault_id):
    """The mutant ``Mutator(trigger, rng).mutate_source`` must equal.

    ``rng`` is the mutator's own stream: the faulty statements draw from
    ``rng.derive(fault_id)``, as the mutator's do.
    """
    tree, match = _fresh_window(source, model, ordinal)
    builder = ReplacementBuilder(model, match, rng=rng.derive(fault_id))
    faulty = builder.build()
    body = getattr(match.owner, match.field)
    if trigger:
        body[match.start:match.end] = [ast.If(
            test=runtime_call("enabled", [ast.Constant(fault_id)]),
            body=faulty or [ast.Pass()],
            orelse=body[match.start:match.end],
        )]
    else:
        body[match.start:match.end] = faulty
        if not body:
            body.append(ast.Pass())
    if builder.needs_runtime or trigger:
        _insert_runtime_import(tree)
    ast.fix_missing_locations(tree)
    return ast.unparse(tree) + "\n"


def legacy_instrumented_source(source, targets):
    """The source ``Mutator.instrument_source(source, targets)`` must
    equal: a ``__pfp_rt__.cover(point_id)`` statement before each
    ``(model, ordinal, point_id)`` window."""
    tree = ast.parse(source)
    matches = {}
    inserts = []
    for model, ordinal, point_id in targets:
        key = (model.name, model.spec.raw)
        if key not in matches:
            matches[key] = every_start_matches(model, tree)
        window = matches[key][ordinal]
        inserts.append((window.owner, window.field, window.start, point_id))
    # Deepest index first per list, so earlier indices stay valid; equal
    # indices end up in point_id order.
    for owner, fname, start, point_id in sorted(
        inserts, key=lambda item: (item[2], item[3]), reverse=True,
    ):
        getattr(owner, fname).insert(start, ast.Expr(
            value=runtime_call("cover", [ast.Constant(point_id)])
        ))
    if inserts:
        _insert_runtime_import(tree)
    ast.fix_missing_locations(tree)
    return ast.unparse(tree) + "\n"


def _insert_runtime_import(tree):
    """``import profipy_runtime as __pfp_rt__`` after any docstring and
    ``__future__`` imports, unless the module already has it."""
    body = tree.body
    for stmt in body:
        if isinstance(stmt, ast.Import) and any(
            alias.name == RUNTIME_MODULE_NAME and alias.asname == RUNTIME_ALIAS
            for alias in stmt.names
        ):
            return
    index = 0
    if body and isinstance(body[0], ast.Expr) and isinstance(
        body[0].value, ast.Constant
    ) and isinstance(body[0].value.value, str):
        index = 1
    while index < len(body) and (
        isinstance(body[index], ast.ImportFrom)
        and body[index].module == "__future__"
    ):
        index += 1
    body.insert(index, ast.Import(names=[
        ast.alias(name=RUNTIME_MODULE_NAME, asname=RUNTIME_ALIAS)
    ]))
