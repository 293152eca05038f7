"""Span-based materialization: splice text, don't re-emit files.

Every mutant and every coverage-instrumented source is made here, by one
splicer.  A change is an *edit* of one statement list of the pristine
parse tree: replace ``body[start:end]`` with new statements (a mutant's
trigger guard or faulty code), or insert before ``body[start]`` (a
coverage probe, the runtime import).  The pristine tree's positions
(1-based lines, UTF-8 byte columns, mapped to offsets by the source's
:class:`~repro.common.textutil.SourceLines`) give the edit's text span;
only the statements in that span are unparsed, re-indented to their
original indentation, and spliced in.  Everything outside the spans —
comments, blank lines, string quoting, formatting — stays byte-for-byte.

An edit whose span does not hold whole lines is *widened* until it does:

* to the run of sibling statements sharing its lines (``a = 1; f()``,
  or a statement continued from the line before with a backslash);
* then to the enclosing statement, when the run shares a line with its
  compound header (``if x: f()``) or is an ``elif`` arm (whose ``If``
  node unparses as ``if``);
* a decorated definition's span starts at its first decorator;
* at the outermost level, to the whole module.

Widened statements are deep-copied (only their subtree) before the edits
are applied, so the shared pristine tree is never mutated.  Overlapping
spans merge.  Every spliced source is re-parsed; a failure raises
:class:`SpliceError`, which the executor records as that experiment's
``harness_error``.
"""

from __future__ import annotations

import ast
import copy
import io
import tokenize
from dataclasses import dataclass

from repro.common.textutil import SourceLines
from repro.mutator.runtime import RUNTIME_ALIAS, RUNTIME_MODULE_NAME
from repro.mutator.substitute import runtime_call
from repro.scanner.matcher import Match

_BLANK = " \t\f"  # the tokenizer's whitespace between tokens


class SpliceError(ValueError):
    """A spliced source failed to parse."""


def patch_mutant(
    lines: SourceLines,
    tree: ast.Module,
    match: Match,
    faulty: list[ast.stmt],
    *,
    trigger: bool,
    fault_id: str,
    needs_runtime: bool,
) -> str:
    """The source of the mutant that puts ``faulty`` at ``match``.

    ``lines`` and ``tree`` are the pristine source and its parse tree,
    ``match`` a window in that tree; none of them is mutated, so
    memoized trees may be shared freely.  ``faulty`` is the
    already-built replacement (the RNG draws happened in the caller).
    In trigger mode the window becomes ``if __pfp_rt__.enabled(fault_id):
    <faulty> else: <original>``.
    """
    if trigger:
        stmts: list[ast.stmt] = [ast.If(
            test=runtime_call("enabled", [ast.Constant(fault_id)]),
            body=list(faulty) or [ast.Pass()],
            orelse=list(match.stmts),
        )]
    else:
        stmts = list(faulty)
        body = getattr(match.owner, match.field)
        if not stmts and match.start == 0 and match.end >= len(body):
            stmts = [ast.Pass()]  # an emptied suite still needs a body
    edit = _Edit(match.owner, match.field, match.start, match.end, stmts)
    return _Splicer(lines, tree).run([edit], needs_runtime)


def insert_probes(lines: SourceLines, tree: ast.Module,
                  windows: "list[tuple[Match, str]]") -> str:
    """The source with a ``__pfp_rt__.cover(point_id)`` statement before
    each ``(window, point_id)``; probes at one position run in
    ``point_id`` order."""
    slots: dict[tuple[int, str, int], tuple[Match, list[str]]] = {}
    for match, point_id in windows:
        key = (id(match.owner), match.field, match.start)
        slots.setdefault(key, (match, []))[1].append(point_id)
    edits = [
        _Edit(match.owner, match.field, match.start, match.start, [
            ast.Expr(value=runtime_call("cover", [ast.Constant(point_id)]))
            for point_id in sorted(point_ids)
        ])
        for match, point_ids in slots.values()
    ]
    return _Splicer(lines, tree).run(edits, runtime=True)


@dataclass(eq=False)
class _Edit:
    """``getattr(owner, field)[start:end] = stmts`` on the pristine tree."""

    owner: ast.AST
    field: str
    start: int
    end: int
    stmts: list[ast.stmt]


@dataclass(eq=False)
class _Region:
    """The text span ``[start, end)`` that statements ``body[i:j]`` of
    ``owner.field`` occupy, and the edits rendered into it.  ``i == j``
    is an insertion before ``body[i]`` (or at the end of the module)."""

    start: int
    end: int
    owner: ast.AST
    field: str
    i: int
    j: int
    edits: list[_Edit]
    #: Re-render the whole module: no narrower span holds whole lines.
    whole: bool = False


class _Splicer:
    def __init__(self, lines: SourceLines, tree: ast.Module) -> None:
        self.lines = lines
        self.source = lines.source
        self.tree = tree
        self._parents: dict[int, tuple[ast.AST, str, int]] | None = None

    def run(self, edits: list[_Edit], runtime: bool) -> str:
        if runtime:
            self._add_runtime_import(edits)
        regions = sorted((self._region(edit) for edit in edits),
                         key=lambda region: (region.start, region.end))
        pieces: list[str] = []
        position = 0
        for region in _merge(regions):
            start, end, text = self._render(region)
            pieces += (self.source[position:start], text)
            position = end
        pieces.append(self.source[position:])
        patched = "".join(pieces)
        del pieces  # only the patched source is live during the check
        try:
            ast.parse(patched)
        except (SyntaxError, ValueError) as error:
            raise SpliceError(f"spliced source does not parse: {error}") \
                from error
        return patched

    # -- positions -------------------------------------------------------------

    def _start(self, stmt: ast.stmt) -> int:
        decorators = getattr(stmt, "decorator_list", None)
        if decorators:
            first = decorators[0]
            return self.source.rfind(
                "@", 0, self.lines.offset(first.lineno, first.col_offset))
        return self.lines.offset(stmt.lineno, stmt.col_offset)

    def _first_line(self, stmt: ast.stmt) -> int:
        decorators = getattr(stmt, "decorator_list", None)
        return decorators[0].lineno if decorators else stmt.lineno

    def _end(self, stmt: ast.stmt) -> int:
        return self.lines.offset(stmt.end_lineno, stmt.end_col_offset)

    def _indent(self, stmt: ast.stmt) -> str:
        return self.source[
            self.lines.starts[self._first_line(stmt) - 1]:self._start(stmt)]

    def _starts_line(self, stmt: ast.stmt) -> bool:
        """Nothing but indentation precedes ``stmt`` on its logical line."""
        return (not self._indent(stmt).strip(_BLANK)
                and not self.lines.continues_previous(self._first_line(stmt)))

    def _tail(self, stmt: ast.stmt) -> str:
        """What follows ``stmt`` on its last line, line break excluded."""
        return self.source[
            self._end(stmt):self.lines.next_line(stmt.end_lineno)
        ].rstrip("\r\n")

    def _ends_line(self, stmt: ast.stmt) -> bool:
        """Nothing but a comment follows ``stmt`` on its line."""
        tail = self._tail(stmt).strip(_BLANK)
        return not tail or tail.startswith("#")

    def _is_elif(self, owner: ast.AST, field_name: str, index: int) -> bool:
        return (isinstance(owner, ast.If) and field_name == "orelse"
                and index == 0 and isinstance(owner.orelse[0], ast.If)
                and self.source.startswith("elif",
                                           self._start(owner.orelse[0])))

    # -- widening --------------------------------------------------------------

    def _region(self, edit: _Edit) -> _Region:
        owner, field_name, i, j = edit.owner, edit.field, edit.start, edit.end
        while True:
            body = getattr(owner, field_name)
            if i == j == len(body) and owner is self.tree:
                end = len(self.source)
                return _Region(end, end, owner, field_name, i, j, [edit])
            if i == j < len(body):
                if (self._starts_line(body[i])
                        and not self._is_elif(owner, field_name, i)):
                    start = self._start(body[i])
                    return _Region(start, start, owner, field_name, i, j,
                                   [edit])
                j += 1
            if i < j:
                # The run of siblings sharing the window's logical lines.
                while i > 0 and not self._starts_line(body[i]):
                    i -= 1
                while j < len(body) and not self._ends_line(body[j - 1]):
                    j += 1
                if (self._starts_line(body[i])
                        and self._ends_line(body[j - 1])
                        and not self._is_elif(owner, field_name, i)):
                    return _Region(self._start(body[i]),
                                   self._end(body[j - 1]),
                                   owner, field_name, i, j, [edit])
            if owner is self.tree:
                return _Region(0, len(self.source), owner, field_name,
                               0, len(body), [edit], whole=True)
            owner, field_name, i = self._enclosing(owner)
            j = i + 1

    def _enclosing(self, owner: ast.AST) -> tuple[ast.AST, str, int]:
        """Where the statement owning ``owner``'s lists sits in its parent."""
        if self._parents is None:
            self._parents = {
                id(child): (node, name, index)
                for node in ast.walk(self.tree)
                for name, value in ast.iter_fields(node)
                if isinstance(value, list)
                for index, child in enumerate(value)
                if isinstance(child, ast.AST)
            }
        node = owner
        while not isinstance(node, ast.stmt):  # handlers, match cases
            node = self._parents[id(node)][0]
        return self._parents[id(node)]

    # -- rendering -------------------------------------------------------------

    def _render(self, region: _Region) -> tuple[int, int, str]:
        """``(start, end, text)``: the splice that realizes ``region``."""
        stmts = getattr(region.owner, region.field)[region.i:region.j]
        copies: dict[int, ast.AST] = {}
        if any(edit.owner is not region.owner or edit.field != region.field
               for edit in region.edits):
            # Widened past the edited list: edit a copy of the subtree.
            stmts = copy.deepcopy(stmts, copies)
        for edit in sorted(region.edits, key=lambda e: e.start,
                           reverse=True):
            if edit.owner is region.owner and edit.field == region.field:
                stmts[edit.start - region.i:edit.end - region.i] = edit.stmts
            else:
                body = getattr(copies[id(edit.owner)], edit.field)
                body[edit.start:edit.end] = edit.stmts

        start, end = region.start, region.end
        if region.whole:
            return start, end, _render(stmts, "") + "\n"
        body = getattr(region.owner, region.field)
        if region.i == len(body):  # append at the end of the module
            newline = "\n" if self.source[-1:] not in ("", "\n", "\r") else ""
            return start, end, newline + _render(stmts, "") + "\n"
        first, last = body[region.i], body[region.j - 1]
        indent = self._indent(first)
        if region.i == region.j:
            return start, end, _render(stmts, indent) + "\n" + indent
        if stmts:
            return start, end, _render(stmts, indent)
        if not self._tail(last).strip(_BLANK):
            # Pure deletion of whole lines: drop them, line breaks too.
            return (self.lines.starts[self._first_line(first) - 1],
                    self.lines.next_line(last.end_lineno), "")
        return start, end, ""  # keep the indentation and trailing comment

    # -- runtime import --------------------------------------------------------

    def _add_runtime_import(self, edits: list[_Edit]) -> None:
        """Insert ``import profipy_runtime as __pfp_rt__`` after the
        docstring and ``__future__`` imports of the module as edited,
        unless it is already imported there."""
        slot = None
        after = (None, len(self.tree.body))  # at the end of the module
        for position, (stmt, edit, index) in enumerate(
            self._edited_module(edits)
        ):
            if _is_runtime_import(stmt):
                return
            if slot is None and not _is_future(stmt) and not (
                position == 0 and _is_docstring(stmt)
            ):
                slot = (edit, index)
            after = (edit, index + 1)
        edit, index = slot or after
        runtime_import = ast.Import(names=[
            ast.alias(name=RUNTIME_MODULE_NAME, asname=RUNTIME_ALIAS)
        ])
        if edit is None:
            edits.append(
                _Edit(self.tree, "body", index, index, [runtime_import]))
        else:
            edit.stmts.insert(index, runtime_import)

    def _edited_module(self, edits: list[_Edit]):
        """``(stmt, edit, index)`` for each statement of the edited module
        body: ``edit.stmts[index]``, or pristine ``body[index]`` when
        ``edit`` is None."""
        body = self.tree.body
        position = 0
        for edit in sorted((edit for edit in edits if edit.owner is self.tree),
                           key=lambda edit: edit.start):
            for index in range(position, edit.start):
                yield body[index], None, index
            for index, stmt in enumerate(edit.stmts):
                yield stmt, edit, index
            position = edit.end
        for index in range(position, len(body)):
            yield body[index], None, index


def _merge(regions: list[_Region]) -> list[_Region]:
    """Merge overlapping regions (sorted by span).  Two overlapping
    regions either hold statements of one list — their union is taken —
    or one holds the other's statements whole, and absorbs it."""
    merged: list[_Region] = []
    for region in regions:
        if not merged or region.start >= merged[-1].end:
            merged.append(region)
            continue
        outer = merged[-1]
        if region.owner is outer.owner and region.field == outer.field:
            outer.i, outer.j = min(outer.i, region.i), max(outer.j, region.j)
            outer.end = max(outer.end, region.end)
            outer.whole = outer.whole or region.whole
        elif region.end > outer.end:  # equal starts: region holds outer
            region.edits += outer.edits
            merged[-1] = region
            continue
        outer.edits += region.edits
    return merged


def _render(stmts: list[ast.stmt], indent: str) -> str:
    """``stmts`` unparsed; every line after the first is indented by
    ``indent`` (the first lands after the original indentation)."""
    # unparse needs location attributes on 3.11 (type-comment lookup);
    # synthetic nodes have none, pristine nodes keep theirs.
    text = "\n".join(ast.unparse(ast.fix_missing_locations(stmt))
                     for stmt in stmts)
    if not indent or "\n" not in text:
        return text
    verbatim = _string_continuations(text)
    first, *rest = text.split("\n")
    return "\n".join([first] + [
        line if not line or number in verbatim else indent + line
        for number, line in enumerate(rest, 2)
    ])


def _string_continuations(text: str) -> set[int]:
    """Line numbers inside a multi-line string of ``text``: re-indenting
    them would change the string.  Only docstrings unparse that way,
    always triple-quoted."""
    if '"""' not in text and "'''" not in text:
        return set()
    lines: set[int] = set()
    for token in tokenize.generate_tokens(io.StringIO(text).readline):
        if token.type == tokenize.STRING and token.end[0] > token.start[0]:
            lines.update(range(token.start[0] + 1, token.end[0] + 1))
    return lines


def _is_docstring(stmt: ast.stmt) -> bool:
    return (isinstance(stmt, ast.Expr) and isinstance(stmt.value, ast.Constant)
            and isinstance(stmt.value.value, str))


def _is_future(stmt: ast.stmt) -> bool:
    return isinstance(stmt, ast.ImportFrom) and stmt.module == "__future__"


def _is_runtime_import(stmt: ast.stmt) -> bool:
    return isinstance(stmt, ast.Import) and any(
        alias.name == RUNTIME_MODULE_NAME and alias.asname == RUNTIME_ALIAS
        for alias in stmt.names
    )


__all__ = ["SpliceError", "insert_probes", "patch_mutant"]
