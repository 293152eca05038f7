"""The meta-model: compiled form of a bug specification (paper §IV-A).

The DSL compiler produces a :class:`MetaModel` — "a small AST that reflects
the structure of the code in the code pattern".  Concretely, both the
pattern and the replacement are held as real :mod:`ast` trees in which each
directive occurrence appears as a placeholder ``Name`` node; a side table
maps placeholders back to :class:`~repro.dsl.directives.Directive` objects.

Keeping genuine ``ast`` nodes means the source-code scanner can walk the
pattern and the target program with one uniform recursion, and the mutator
can emit code with :func:`ast.unparse`.
"""

from __future__ import annotations

import ast
from dataclasses import dataclass, field
from typing import TYPE_CHECKING

from repro.dsl.directives import Directive
from repro.dsl.lexer import is_placeholder
from repro.dsl.parser import BugSpec

if TYPE_CHECKING:  # pragma: no cover - import cycle broken at runtime
    from repro.scanner.prefilter import Anchor, SpecRequirements


@dataclass
class MetaModel:
    """Compiled bug specification ready for scanning and mutation."""

    spec: BugSpec
    pattern_module: ast.Module
    replacement_module: ast.Module
    directives: dict[str, Directive] = field(default_factory=dict)
    #: Tags bound on the pattern side, mapped to their binding directive.
    bound_tags: dict[str, Directive] = field(default_factory=dict)
    #: Fingerprint requirement derived by the compiler; the scan engine
    #: skips files that cannot satisfy it (None = never prefilter).
    requirements: "SpecRequirements | None" = None
    #: Where the anchor statement of a match window can land; the matcher
    #: tries only the window starts it allows (None = every start).
    anchor: "Anchor | None" = None

    @property
    def name(self) -> str:
        return self.spec.name

    @property
    def pattern_stmts(self) -> list[ast.stmt]:
        return self.pattern_module.body

    @property
    def replacement_stmts(self) -> list[ast.stmt]:
        return self.replacement_module.body

    # -- placeholder resolution used by the matcher and mutator -------------

    def directive_of_name(self, node: ast.AST) -> Directive | None:
        """Directive for a bare placeholder ``Name`` node, else None."""
        if isinstance(node, ast.Name) and is_placeholder(node.id):
            return self.directives.get(node.id)
        return None

    def directive_of_call(self, node: ast.AST) -> Directive | None:
        """Directive when ``node`` is ``placeholder(...)``, else None."""
        if isinstance(node, ast.Call):
            return self.directive_of_name(node.func)
        return None

    def directive_of_stmt(self, stmt: ast.stmt) -> Directive | None:
        """Directive when ``stmt`` is a bare placeholder statement."""
        if isinstance(stmt, ast.Expr):
            return self.directive_of_name(stmt.value)
        return None

    def describe(self) -> str:
        parts = [d.describe() for d in self.directives.values()]
        return f"MetaModel({self.name}; directives: {', '.join(parts) or 'none'})"


def is_ellipsis_expr(node: ast.AST) -> bool:
    """True for a literal ``...`` expression (the arg/statement wildcard)."""
    return isinstance(node, ast.Constant) and node.value is Ellipsis


def is_ellipsis_stmt(stmt: ast.stmt) -> bool:
    """True for a bare ``...`` statement (sugar for ``$BLOCK{stmts=0,*}``)."""
    return isinstance(stmt, ast.Expr) and is_ellipsis_expr(stmt.value)
