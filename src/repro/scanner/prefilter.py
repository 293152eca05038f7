"""Compile-time prefilters for the scan engine (§V-D scalability).

Scanning is ``O(specs x files)``: with the paper's 120-pattern faultloads
most (spec, file) pairs can never match — a spec targeting
``utils.execute`` is irrelevant to a file that never calls anything named
``execute``.  This module derives, at spec-compile time, a cheap
:class:`SpecRequirements` *fingerprint requirement* from the code pattern:

* the AST node types any matching file must contain;
* the literal (non-wildcard) dotted-name segments of ``$CALL{name=glob}``
  globs and of concrete calls in the pattern;
* the string/number constants the pattern pins exactly.

At scan time one :class:`FileFingerprint` is computed per file in a single
AST walk, and every spec whose requirements the fingerprint cannot satisfy
is skipped without running the matcher.

The same derivation, run over the pattern's *anchor* (its first concrete
top-level statement), gives an :class:`Anchor`: the call segments that
statement needs plus the offset bounds of the ``$BLOCK``/``...`` runs
before it.  The matcher then tries a window only at starts where a
statement holding those segments lies within the offset bounds (see
:mod:`repro.scanner.index`).

Both filters are *sound*: they only skip work that provably yields no
match, so the indexed engine returns byte-identical results to a matcher
that tries every window start of every file.
"""

from __future__ import annotations

import ast
from dataclasses import dataclass

from repro.dsl.directives import DirectiveKind
from repro.dsl.metamodel import (
    MetaModel,
    is_ellipsis_expr,
    is_ellipsis_stmt,
)
from repro.dsl.params import UNBOUNDED
from repro.scanner.index import FileFingerprint
from repro.scanner.matcher import _IGNORED_FIELDS

#: Characters that make a glob segment non-literal.
_GLOB_CHARS = set("*?[")


def literal_glob_segments(pattern: str) -> frozenset[str]:
    """The dotted-name segments of a name glob that are fully literal.

    ``utils.execute`` -> {utils, execute}; ``delete_*`` -> {} (wildcard);
    ``nova.*.delete`` -> {nova, delete}.  Regex patterns (``/…/``) yield no
    requirements, and so does any glob containing a bracket class — a
    ``[.]`` can match a literal dot, so splitting such a pattern on ``.``
    would fabricate bogus segments.  Any call whose dotted name matches the
    glob must contain each literal segment as a complete segment, because
    ``fnmatch`` can only satisfy a literal, dot-delimited chunk of the
    pattern with that exact text (``*`` may absorb dots, but the literal
    segment stays delimited).
    """
    if pattern.startswith("/") and pattern.endswith("/") and len(pattern) > 1:
        return frozenset()
    if "[" in pattern:
        return frozenset()
    return frozenset(
        segment
        for segment in pattern.split(".")
        if segment and not _GLOB_CHARS.intersection(segment)
    )


@dataclass(frozen=True)
class SpecRequirements:
    """What any file matched by one spec must minimally contain."""

    node_types: frozenset[str] = frozenset()
    call_segments: frozenset[str] = frozenset()
    constants: frozenset = frozenset()

    def satisfied_by(self, fingerprint: "FileFingerprint") -> bool:
        """True when ``fingerprint``'s file could possibly match."""
        return (
            self.node_types <= fingerprint.node_types
            and self.call_segments <= fingerprint.call_segments
            and self.constants <= fingerprint.constants
        )


class _RequirementCollector:
    """Walk a compiled pattern, mirroring the matcher's dispatch rules."""

    def __init__(self, model: MetaModel) -> None:
        self.model = model
        self.node_types: set[str] = set()
        self.call_segments: set[str] = set()
        self.constants: set = set()

    def collect(self, stmts: list[ast.stmt]) -> SpecRequirements:
        self._stmt_list(stmts)
        return SpecRequirements(
            node_types=frozenset(self.node_types),
            call_segments=frozenset(self.call_segments),
            constants=frozenset(self.constants),
        )

    # -- statement level -----------------------------------------------------

    def _stmt_list(self, stmts: list[ast.stmt]) -> None:
        for stmt in stmts:
            directive = self.model.directive_of_stmt(stmt)
            if directive is not None:
                if directive.kind is DirectiveKind.CALL:
                    # A bare $CALL statement needs a matching call; in
                    # ctx=stmt form the call is the whole Expr statement.
                    self.node_types.add("Call")
                    if directive.call_context != "any":
                        self.node_types.add("Expr")
                    self.call_segments |= literal_glob_segments(
                        directive.name_pattern
                    )
                # $BLOCK matches any run of statements: no requirement.
                continue
            if is_ellipsis_stmt(stmt):
                continue
            self._node(stmt)

    # -- expression / node level ---------------------------------------------

    def _node(self, node: ast.AST) -> None:
        directive = self.model.directive_of_name(node)
        if directive is not None:
            self._directive(directive)
            return
        if isinstance(node, ast.Call):
            directive = self.model.directive_of_call(node)
            if directive is not None:
                # $CALL{name=glob}(args...): a Call with a matching name
                # whose concrete argument patterns must also match.
                self.node_types.add("Call")
                self.call_segments |= literal_glob_segments(
                    directive.name_pattern
                )
                for arg in node.args:
                    if not is_ellipsis_expr(arg):
                        self._node(arg)
                for keyword in node.keywords:
                    self._node(keyword.value)
                return
        if is_ellipsis_expr(node):
            return
        self.node_types.add(type(node).__name__)
        if isinstance(node, ast.Constant):
            self.constants.add(node.value)
            return
        if isinstance(node, ast.Call):
            self.call_segments |= self._concrete_call_segments(node.func)
        for fname, value in ast.iter_fields(node):
            if fname in _IGNORED_FIELDS:
                continue
            if isinstance(value, list):
                if value and all(isinstance(item, ast.stmt) for item in value):
                    self._stmt_list(value)
                else:
                    for item in value:
                        if isinstance(item, ast.AST):
                            if not is_ellipsis_expr(item):
                                self._node(item)
            elif isinstance(value, ast.AST):
                self._node(value)

    def _directive(self, directive) -> None:
        kind = directive.kind
        if kind is DirectiveKind.CALL:
            self.node_types.add("Call")
            self.call_segments |= literal_glob_segments(directive.name_pattern)
        elif kind is DirectiveKind.VAR:
            self.node_types.add("Name")
        elif kind is DirectiveKind.EXPR:
            if directive.var_pattern is not None:
                self.node_types.add("Name")
        elif kind is DirectiveKind.STRING:
            self.node_types.add("Constant")
            value = directive.value_pattern
            literal = (
                not _GLOB_CHARS.intersection(value)
                and not (value.startswith("/") and value.endswith("/")
                         and len(value) > 1)
            )
            if literal:
                self.constants.add(value)
        elif kind is DirectiveKind.NUM:
            self.node_types.add("Constant")
        # $EXPR and $BLOCK impose nothing the file could lack.

    def _concrete_call_segments(self, func: ast.expr) -> set[str]:
        """Required segments of a concrete (non-directive) call target.

        The attribute chain attrs are always forced onto the target's
        dotted name; the base name counts only when it is a concrete
        ``Name`` (a placeholder base can match any object).
        """
        segments: set[str] = set()
        node = func
        while isinstance(node, ast.Attribute):
            segments.add(node.attr)
            node = node.value
        if (
            isinstance(node, ast.Name)
            and self.model.directive_of_name(node) is None
        ):
            segments.add(node.id)
        return segments


def derive_requirements(model: MetaModel) -> SpecRequirements:
    """Derive the fingerprint requirement of one compiled spec."""
    return _RequirementCollector(model).collect(model.pattern_stmts)


@dataclass(frozen=True)
class Anchor:
    """Where a match window's anchor statement must land.

    The anchor is the pattern's first concrete top-level statement.  A
    window starting at statement ``i`` puts it at ``i + lead`` with
    ``lead_min <= lead <= lead_max`` (the leading ``$BLOCK``/``...``
    runs; ``lead_max`` is ``UNBOUNDED`` after an open-ended one), and any
    statement it matches has every one of ``call_segments`` in a call
    name of its subtree.
    """

    call_segments: frozenset[str]
    lead_min: int
    lead_max: int


def derive_anchor(model: MetaModel) -> Anchor | None:
    """The anchor of one compiled spec.

    None when the pattern has no concrete top-level statement or its
    anchor pins no call segment: then every window start stays viable.
    """
    lead_min = lead_max = 0
    for stmt in model.pattern_stmts:
        directive = model.directive_of_stmt(stmt)
        if directive is not None and directive.kind is DirectiveKind.BLOCK:
            low, high = directive.stmt_range
        elif is_ellipsis_stmt(stmt):
            low, high = 0, UNBOUNDED
        else:
            segments = _RequirementCollector(model).collect([stmt]).call_segments
            if not segments:
                return None
            return Anchor(segments, lead_min, lead_max)
        lead_min += low
        if UNBOUNDED in (lead_max, high):
            lead_max = UNBOUNDED
        else:
            lead_max += high
    return None
