"""The per-file index every matcher runs against (§V-D scalability).

One breadth-first walk over a parsed file collects:

* every statement list the matcher windows over, in ``ast.walk`` order;
* per statement list, an inverted ``call segment -> positions`` map: the
  positions of the statements whose subtree (nested suites, decorators,
  lambdas and default arguments included) contains a call with that
  dotted-name segment;
* the file's :class:`FileFingerprint` (node types, call-name segments,
  constants) for the file-level prefilter.

The matcher uses the inverted maps to try a window only where the
pattern's anchor statement can land (see
:class:`repro.scanner.prefilter.Anchor`).
"""

from __future__ import annotations

import ast
from collections import deque
from dataclasses import dataclass, field


def call_name(func: ast.expr) -> str | None:
    """Dotted name of a call target (``utils.execute``), or None."""
    parts: list[str] = []
    node = func
    while isinstance(node, ast.Attribute):
        parts.append(node.attr)
        node = node.value
    if isinstance(node, ast.Name):
        parts.append(node.id)
    elif parts:
        # Call on a computed object, e.g. get_client().delete_port(...):
        # the dotted suffix is still meaningful for matching.
        parts.append("*")
    else:
        return None
    return ".".join(reversed(parts))


def is_stmt_list(value) -> bool:
    """True for a non-empty field value holding only statements."""
    return (
        isinstance(value, list)
        and bool(value)
        and all(isinstance(item, ast.stmt) for item in value)
    )


@dataclass
class FileFingerprint:
    """Cheap per-file summary checked against ``SpecRequirements``."""

    node_types: set[str] = field(default_factory=set)
    call_segments: set[str] = field(default_factory=set)
    constants: set = field(default_factory=set)

    def add_node(self, node: ast.AST) -> list[str]:
        """Record one AST node; returns its call-name segments, if a call."""
        self.node_types.add(type(node).__name__)
        if isinstance(node, ast.Call):
            # Same dotted-name rules as the matcher: segment requirements
            # stay sound against whatever names the matcher would see.
            dotted = call_name(node.func)
            if dotted is not None:
                segments = dotted.split(".")
                self.call_segments.update(segments)
                return segments
        elif isinstance(node, ast.Constant):
            self.constants.add(node.value)
        return []

    @classmethod
    def from_tree(cls, tree: ast.AST) -> "FileFingerprint":
        return build_index(tree).fingerprint


@dataclass
class StmtList:
    """One statement list of the file plus its call-segment positions."""

    owner: ast.AST
    field: str
    stmts: list[ast.stmt]
    #: ``segment -> positions`` of the statements whose subtree calls a
    #: name with that dotted-name segment.
    calls: dict[str, set[int]]

    def positions_calling(self, segments: frozenset[str]) -> set[int]:
        """Positions whose subtree calls every segment of ``segments``."""
        return _holding_all(self.calls, segments)


@dataclass
class FileIndex:
    """Everything the matchers need from one file, built in one walk."""

    tree: ast.AST
    stmt_lists: list[StmtList]
    fingerprint: FileFingerprint
    #: ``segment -> indices`` into :attr:`stmt_lists` of the lists whose
    #: call maps hold that segment.
    segment_lists: dict[str, set[int]] = field(default_factory=dict)
    _window_starts: dict[int, int] = field(default_factory=dict,
                                           init=False, repr=False)

    def lists_calling(self, segments: frozenset[str]) -> list[StmtList]:
        """Statement lists, in walk order, whose statements call every
        segment of ``segments``."""
        return [self.stmt_lists[i]
                for i in sorted(_holding_all(self.segment_lists, segments))]

    def window_starts(self, min_len: int) -> int:
        """How many windows of ``min_len`` or more statements start in
        the file's statement lists (memoized per length)."""
        total = self._window_starts.get(min_len)
        if total is None:
            total = sum(max(len(listed.stmts) - min_len + 1, 0)
                        for listed in self.stmt_lists)
            self._window_starts[min_len] = total
        return total


def _holding_all(index: dict[str, set[int]],
                 segments: frozenset[str]) -> set[int]:
    """The members ``index`` lists under every segment (a non-empty set)."""
    found = None
    for segment in segments:
        members = index.get(segment)
        if not members:
            return set()
        found = members if found is None else found & members
    return found


def build_index(tree: ast.AST) -> FileIndex:
    """Collect statement lists, their call maps and the fingerprint.

    The walk is breadth-first like ``ast.walk`` (so statement lists come
    out in the same order); each queued node carries the ``(call map,
    position)`` pairs of its enclosing listed statements, and every call
    name is recorded at each of them.
    """
    fingerprint = FileFingerprint()
    stmt_lists: list[StmtList] = []
    todo: deque = deque([(tree, ())])
    while todo:
        node, enclosing = todo.popleft()
        segments = fingerprint.add_node(node)
        if segments:
            for calls, position in enclosing:
                for segment in segments:
                    positions = calls.get(segment)
                    if positions is None:
                        calls[segment] = {position}
                    else:
                        positions.add(position)
        for fname, value in ast.iter_fields(node):
            if isinstance(value, ast.AST):
                todo.append((value, enclosing))
            elif isinstance(value, list):
                if is_stmt_list(value):
                    listed = StmtList(node, fname, value, {})
                    stmt_lists.append(listed)
                    todo.extend(
                        (stmt, enclosing + ((listed.calls, position),))
                        for position, stmt in enumerate(value)
                    )
                else:
                    todo.extend(
                        (item, enclosing) for item in value
                        if isinstance(item, ast.AST)
                    )
    segment_lists: dict[str, set[int]] = {}
    for list_index, listed in enumerate(stmt_lists):
        for segment in listed.calls:
            segment_lists.setdefault(segment, set()).add(list_index)
    return FileIndex(tree=tree, stmt_lists=stmt_lists,
                     fingerprint=fingerprint, segment_lists=segment_lists)
