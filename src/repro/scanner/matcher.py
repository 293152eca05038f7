"""The pattern-matching engine: meta-model AST vs. program AST (paper §IV-A).

The matcher walks every statement list of the target program and tries to
match the compiled code pattern as a contiguous *window* of statements,
at every window start where the pattern's anchor statement can land (see
:mod:`repro.scanner.index`).  Matching is structural: plain Python nodes
in the pattern must equal the target node-for-node (ignoring positions and
expression contexts; constants compare by type and value), while
directive placeholders match families of nodes:

* ``$BLOCK{stmts=min,max}`` — a run of ``min..max`` statements (lazy, with
  backtracking);  a bare ``...`` statement is sugar for ``$BLOCK{stmts=0,*}``;
* ``$CALL{name=glob}(...)`` — a call whose (dotted) name matches the glob;
  ``...`` inside the argument list absorbs any run of arguments;
* ``$EXPR`` / ``$STRING`` / ``$NUM`` / ``$VAR`` — expression-level wildcards.

Nested statement lists inside a pattern construct (e.g. an ``if`` body)
must match the target list *entirely*; only the outermost pattern matches a
window, mirroring the paper's examples.
"""

from __future__ import annotations

import ast
from dataclasses import dataclass, field
from typing import TYPE_CHECKING

from repro.common.textutil import glob_match
from repro.dsl.directives import Directive, DirectiveKind
from repro.dsl.metamodel import (
    MetaModel,
    is_ellipsis_expr,
    is_ellipsis_stmt,
)
from repro.dsl.params import UNBOUNDED
from repro.scanner.bindings import Bindings, CallCapture
from repro.scanner.index import FileIndex, StmtList, build_index, call_name

if TYPE_CHECKING:  # pragma: no cover - prefilter imports this module
    from repro.scanner.prefilter import Anchor

#: AST fields irrelevant for structural equality.
_IGNORED_FIELDS = {"ctx", "type_comment", "type_ignores", "type_params"}

#: Internal binding key collecting the identities of concretely-matched
#: statements, used to deduplicate overlapping windows.
_ANCHORS_TAG = "__anchors__"


@dataclass
class Match:
    """A matched window of statements, ready for mutation."""

    owner: ast.AST
    field: str
    start: int
    end: int
    bindings: Bindings
    spec_name: str = ""

    @property
    def stmts(self) -> list[ast.stmt]:
        return getattr(self.owner, self.field)[self.start:self.end]

    @property
    def lineno(self) -> int:
        stmts = self.stmts
        return stmts[0].lineno if stmts else 0

    @property
    def end_lineno(self) -> int:
        stmts = self.stmts
        if not stmts:
            return 0
        return getattr(stmts[-1], "end_lineno", stmts[-1].lineno)

    def sort_key(self) -> tuple:
        stmts = self.stmts
        col = stmts[0].col_offset if stmts else 0
        return (self.lineno, col, self.end_lineno)

    @property
    def anchor_key(self) -> tuple:
        """Identity of the concretely matched statements (dedup key)."""
        return self.bindings.get(_ANCHORS_TAG) or (
            id(self.owner), self.field, self.start, self.end,
        )


def name_matches(pattern: str, dotted: str | None) -> bool:
    """Match a name glob against a dotted call name.

    The glob matches if it matches the full dotted name or, when the glob
    itself is undotted, the final segment (so ``delete_*`` matches
    ``self.client.delete_port``).
    """
    if dotted is None:
        return pattern == "*"
    if glob_match(pattern, dotted):
        return True
    if "." not in pattern:
        return glob_match(pattern, dotted.rsplit(".", 1)[-1])
    return False


def _is_compound_stmt(stmt: ast.stmt) -> bool:
    """True for statements that own nested statement suites."""
    return any(
        isinstance(value, list) and value
        and all(isinstance(item, (ast.stmt, ast.excepthandler))
                for item in value)
        for _name, value in ast.iter_fields(stmt)
    )


def pick_match(matches: "list[Match]", spec_name: str, ordinal: int) -> "Match":
    """The ``ordinal``-th match, with the shared out-of-range diagnostic."""
    if ordinal >= len(matches):
        raise IndexError(
            f"spec {spec_name!r} has {len(matches)} matches, "
            f"ordinal {ordinal} requested"
        )
    return matches[ordinal]


class Matcher:
    """Find every match of one meta-model inside a target AST.

    Counters (summed by :meth:`repro.scanner.scan.ScanEngine.prefilter_stats`):
    ``runs`` / ``runs_skipped`` count files searched and files the
    file-level prefilter rejected; ``starts_total`` / ``starts_tried``
    count, over the files searched, the window starts of every statement
    list and those the anchor left viable.
    """

    def __init__(self, model: MetaModel) -> None:
        self.model = model
        self._pattern = model.pattern_stmts
        self._min_len = self._pattern_min_len(self._pattern)
        self.runs = 0
        self.runs_skipped = 0
        self.starts_total = 0
        self.starts_tried = 0

    # -- public API ----------------------------------------------------------

    def find_matches(self, tree: ast.AST) -> list[Match]:
        """All matches of the pattern in ``tree``, in source order."""
        return self.find_matches_in(build_index(tree))

    def find_matches_in(self, index: FileIndex) -> list[Match]:
        """All matches in an indexed file, in source order.

        The scan engine indexes a file once (one AST walk) and runs every
        matcher against it.  A file that cannot satisfy the spec's
        requirements is skipped outright; otherwise a window is tried only
        at the starts the pattern's anchor allows.

        Overlapping matches that pin the same *anchor* statements (the
        concrete, non-wildcard pattern elements) are duplicates — variable
        ``$BLOCK`` context can slide around the same injected statement —
        and only the first is kept, so the faultload contains one mutant
        per genuinely distinct injection.
        """
        self.runs += 1
        requirements = self.model.requirements
        if (requirements is not None
                and not requirements.satisfied_by(index.fingerprint)):
            self.runs_skipped += 1
            return []
        anchor = self.model.anchor
        stmt_lists = (index.stmt_lists if anchor is None
                      else index.lists_calling(anchor.call_segments))
        self.starts_total += index.window_starts(self._min_len)
        matches: list[Match] = []
        seen_anchors: set[tuple] = set()
        for listed in stmt_lists:
            last = len(listed.stmts) - self._min_len
            if last < 0:
                continue
            starts = (range(last + 1) if anchor is None
                      else self._viable_starts(anchor, listed, last))
            self.starts_tried += len(starts)
            for start in starts:
                match = self.match_at(listed.owner, listed.field,
                                      listed.stmts, start)
                if match is not None and match.anchor_key not in seen_anchors:
                    seen_anchors.add(match.anchor_key)
                    matches.append(match)
        matches.sort(key=Match.sort_key)
        return matches

    def match_at(self, owner: ast.AST, fname: str, stmts: list[ast.stmt],
                 start: int) -> Match | None:
        """The match window starting at ``stmts[start]``, if any."""
        bindings = Bindings()
        end = self._match_seq(
            self._pattern, 0, stmts, start, bindings, anchored_end=False
        )
        if end is None:
            return None
        return Match(owner=owner, field=fname, start=start, end=end,
                     bindings=bindings, spec_name=self.model.name)

    @staticmethod
    def _viable_starts(anchor: Anchor, listed: StmtList, last: int):
        """Window starts in ``0..last`` from which the anchor can land on
        a statement calling every anchor segment, in increasing order."""
        landings = listed.positions_calling(anchor.call_segments)
        if not landings:
            return ()
        lead_min, lead_max = anchor.lead_min, anchor.lead_max
        if lead_max == UNBOUNDED:
            return range(min(max(landings) - lead_min, last) + 1)
        starts: set[int] = set()
        for landing in landings:
            starts.update(range(max(landing - lead_max, 0),
                                min(landing - lead_min, last) + 1))
        return sorted(starts)

    # -- statement-sequence matching -----------------------------------------

    def _pattern_min_len(self, pattern: list[ast.stmt]) -> int:
        total = 0
        for stmt in pattern:
            directive = self.model.directive_of_stmt(stmt)
            if directive is not None and directive.kind is DirectiveKind.BLOCK:
                total += directive.stmt_range[0]
            elif is_ellipsis_stmt(stmt):
                total += 0
            else:
                total += 1
        return total

    def _match_seq(
        self,
        pattern: list[ast.stmt],
        p_index: int,
        stmts: list[ast.stmt],
        t_index: int,
        bindings: Bindings,
        anchored_end: bool,
    ) -> int | None:
        """Match ``pattern[p_index:]`` against ``stmts[t_index:]``.

        Returns the exclusive end index in ``stmts`` on success.  With
        ``anchored_end`` the pattern must consume the entire list.
        """
        if p_index == len(pattern):
            if anchored_end and t_index != len(stmts):
                return None
            return t_index

        p_stmt = pattern[p_index]
        directive = self.model.directive_of_stmt(p_stmt)

        if directive is not None and directive.kind is DirectiveKind.BLOCK:
            low, high = directive.stmt_range
            return self._match_block(
                pattern, p_index, stmts, t_index, bindings, anchored_end,
                low, high, directive.tag,
            )
        if is_ellipsis_stmt(p_stmt):
            return self._match_block(
                pattern, p_index, stmts, t_index, bindings, anchored_end,
                0, UNBOUNDED, None,
            )

        if t_index >= len(stmts):
            return None
        # No snapshot here: every caller that retries alternatives works on
        # its own trial copy (the $BLOCK take-loop, the expression-sequence
        # wildcards, the per-window bindings), so a failed concrete match
        # may safely leave partial bindings behind — they are discarded
        # with the enclosing trial.  This keeps the common anchor-miss path
        # allocation-free.
        if not self._match_stmt(p_stmt, stmts[t_index], bindings):
            return None
        anchors = bindings.get(_ANCHORS_TAG) or ()
        bindings.bind(_ANCHORS_TAG, anchors + (id(stmts[t_index]),))
        return self._match_seq(
            pattern, p_index + 1, stmts, t_index + 1, bindings, anchored_end
        )

    def _match_block(
        self,
        pattern: list[ast.stmt],
        p_index: int,
        stmts: list[ast.stmt],
        t_index: int,
        bindings: Bindings,
        anchored_end: bool,
        low: int,
        high: int,
        tag: str | None,
    ) -> int | None:
        available = len(stmts) - t_index
        max_take = available if high == UNBOUNDED else min(high, available)
        if low > max_take:
            return None
        # Lazy expansion keeps matched windows tight, so e.g. the MFC
        # pattern produces one mutant per deletable call instead of one
        # giant window swallowing the rest of the function.
        for take in range(low, max_take + 1):
            trial = bindings.snapshot()
            trial.bind(tag, stmts[t_index:t_index + take])
            result = self._match_seq(
                pattern, p_index + 1, stmts, t_index + take, trial, anchored_end
            )
            if result is not None:
                bindings.adopt(trial)
                return result
        return None

    # -- single statement / node matching --------------------------------------

    def _match_stmt(self, p_stmt: ast.stmt, t_stmt: ast.stmt,
                    bindings: Bindings) -> bool:
        directive = self.model.directive_of_stmt(p_stmt)
        if directive is not None and directive.kind is DirectiveKind.CALL:
            if directive.call_context == "any":
                return self._match_call_anywhere(directive, t_stmt, bindings)
            # Bare $CALL as a statement: the call must be the outermost
            # expression of an expression statement (paper §III).
            if not isinstance(t_stmt, ast.Expr):
                return False
            return self._match_call_node(directive, None, t_stmt.value, bindings)
        return self._match_node(p_stmt, t_stmt, bindings)

    def _match_call_anywhere(self, directive: Directive, t_stmt: ast.stmt,
                             bindings: Bindings) -> bool:
        """``ctx=any``: match a *simple* statement containing a matching call.

        Compound statements (``def``, ``if``, ``try``, ...) are excluded:
        they would otherwise match whenever any nested statement contains
        the call, and replacing them would discard whole suites.
        """
        if _is_compound_stmt(t_stmt):
            return False
        for node in ast.walk(t_stmt):
            if isinstance(node, ast.Call) and name_matches(
                directive.name_pattern, call_name(node.func)
            ):
                capture = CallCapture(
                    call=node,
                    wildcards=[list(node.args)],
                    absorbed_keywords=list(node.keywords),
                    containing_stmt=t_stmt,
                )
                bindings.bind(directive.tag, capture)
                return True
        return False

    def _match_node(self, p_node: ast.AST, t_node: ast.AST,
                    bindings: Bindings) -> bool:
        directive = self.model.directive_of_name(p_node)
        if directive is not None:
            return self._match_directive_expr(directive, t_node, bindings)
        if isinstance(p_node, ast.Call):
            directive = self.model.directive_of_call(p_node)
            if directive is not None:
                return self._match_call_node(directive, p_node, t_node, bindings)
        if is_ellipsis_expr(p_node):
            return isinstance(t_node, ast.expr)
        if type(p_node) is not type(t_node):
            return False
        for fname, p_value in ast.iter_fields(p_node):
            if fname in _IGNORED_FIELDS:
                continue
            t_value = getattr(t_node, fname, None)
            if isinstance(p_value, list):
                if not self._match_list(fname, p_value, t_value, bindings):
                    return False
            elif isinstance(p_value, ast.AST):
                if not isinstance(t_value, ast.AST):
                    return False
                if not self._match_node(p_value, t_value, bindings):
                    return False
            elif t_value != p_value or type(t_value) is not type(p_value):
                # Typed: the pattern constant ``1`` must not match ``True``
                # or ``1.0``, which compare equal to it.
                return False
        return True

    def _match_list(self, fname: str, p_list: list, t_list,
                    bindings: Bindings) -> bool:
        if not isinstance(t_list, list):
            return False
        if p_list and all(isinstance(item, ast.stmt) for item in p_list):
            # A nested statement list must match entirely (anchored).
            end = self._match_seq(p_list, 0, t_list, 0, bindings,
                                  anchored_end=True)
            return end is not None
        if not p_list:
            return not t_list
        if all(isinstance(item, ast.expr) for item in p_list):
            return self._match_expr_seq(p_list, t_list, bindings)
        # Heterogeneous lists (keywords, handlers, comprehensions, ...)
        # match element-wise.
        if len(p_list) != len(t_list):
            return False
        for p_item, t_item in zip(p_list, t_list):
            if isinstance(p_item, ast.AST):
                if not isinstance(t_item, ast.AST):
                    return False
                if not self._match_node(p_item, t_item, bindings):
                    return False
            elif p_item != t_item:
                return False
        return True

    def _match_expr_seq(self, p_list: list[ast.expr], t_list: list,
                        bindings: Bindings) -> bool:
        """Match expression lists with ``...`` acting as a 0+ wildcard."""

        def recurse(p_index: int, t_index: int, binds: Bindings) -> bool:
            if p_index == len(p_list):
                return t_index == len(t_list)
            p_item = p_list[p_index]
            if is_ellipsis_expr(p_item):
                for take in range(0, len(t_list) - t_index + 1):
                    trial = binds.snapshot()
                    if recurse(p_index + 1, t_index + take, trial):
                        binds.adopt(trial)
                        return True
                return False
            if t_index >= len(t_list):
                return False
            t_item = t_list[t_index]
            trial = binds.snapshot()
            if isinstance(p_item, ast.AST):
                if not isinstance(t_item, ast.AST):
                    return False
                if not self._match_node(p_item, t_item, trial):
                    return False
            elif p_item != t_item:
                return False
            if recurse(p_index + 1, t_index + 1, trial):
                binds.adopt(trial)
                return True
            return False

        return recurse(0, 0, bindings)

    # -- directive matching ------------------------------------------------------

    def _match_directive_expr(self, directive: Directive, t_node: ast.AST,
                              bindings: Bindings) -> bool:
        kind = directive.kind
        if kind is DirectiveKind.EXPR:
            if not isinstance(t_node, ast.expr):
                return False
            var = directive.var_pattern
            if var is not None:
                if not isinstance(t_node, ast.Name):
                    return False
                if not glob_match(var, t_node.id):
                    return False
            bindings.bind(directive.tag, t_node)
            return True
        if kind is DirectiveKind.STRING:
            if not (isinstance(t_node, ast.Constant)
                    and isinstance(t_node.value, str)):
                return False
            if not glob_match(directive.value_pattern, t_node.value):
                return False
            bindings.bind(directive.tag, t_node)
            return True
        if kind is DirectiveKind.NUM:
            if not (
                isinstance(t_node, ast.Constant)
                and isinstance(t_node.value, (int, float))
                and not isinstance(t_node.value, bool)
            ):
                return False
            low = directive.params.get_float("min", float("-inf"))
            high = directive.params.get_float("max", float("inf"))
            if not low <= t_node.value <= high:
                return False
            bindings.bind(directive.tag, t_node)
            return True
        if kind is DirectiveKind.VAR:
            if not isinstance(t_node, ast.Name):
                return False
            if not glob_match(directive.name_pattern, t_node.id):
                return False
            bindings.bind(directive.tag, t_node)
            return True
        if kind is DirectiveKind.CALL:
            # Bare $CALL in expression position: any matching call.
            return self._match_call_node(directive, None, t_node, bindings)
        return False

    def _match_call_node(
        self,
        directive: Directive,
        p_call: ast.Call | None,
        t_node: ast.AST,
        bindings: Bindings,
    ) -> bool:
        if not isinstance(t_node, ast.Call):
            return False
        if not name_matches(directive.name_pattern, call_name(t_node.func)):
            return False
        if p_call is None:
            capture = CallCapture(
                call=t_node,
                wildcards=[list(t_node.args)],
                absorbed_keywords=list(t_node.keywords),
            )
            bindings.bind(directive.tag, capture)
            return True
        return self._match_call_args(directive, p_call, t_node, bindings)

    def _match_call_args(
        self,
        directive: Directive,
        p_call: ast.Call,
        t_call: ast.Call,
        bindings: Bindings,
    ) -> bool:
        p_args = p_call.args
        t_args = t_call.args
        has_wildcard = any(is_ellipsis_expr(arg) for arg in p_args)

        def recurse(
            p_index: int, t_index: int, binds: Bindings,
            captured: list[list[ast.expr]],
        ) -> list[list[ast.expr]] | None:
            if p_index == len(p_args):
                if t_index != len(t_args):
                    return None
                return captured
            p_item = p_args[p_index]
            if is_ellipsis_expr(p_item):
                for take in range(0, len(t_args) - t_index + 1):
                    trial = binds.snapshot()
                    result = recurse(
                        p_index + 1, t_index + take, trial,
                        captured + [t_args[t_index:t_index + take]],
                    )
                    if result is not None:
                        binds.adopt(trial)
                        return result
                return None
            if t_index >= len(t_args):
                return None
            trial = binds.snapshot()
            if not self._match_node(p_item, t_args[t_index], trial):
                return None
            result = recurse(p_index + 1, t_index + 1, trial, captured)
            if result is not None:
                binds.adopt(trial)
            return result

        trial = bindings.snapshot()
        wildcards = recurse(0, 0, trial, [])
        if wildcards is None:
            return False
        # Keyword arguments: explicit keyword patterns must match by name;
        # the rest are absorbed when the pattern has any wildcard.
        absorbed = list(t_call.keywords)
        for p_keyword in p_call.keywords:
            found = None
            for t_keyword in absorbed:
                if t_keyword.arg == p_keyword.arg:
                    found = t_keyword
                    break
            if found is None:
                return False
            if not self._match_node(p_keyword.value, found.value, trial):
                return False
            absorbed.remove(found)
        if absorbed and not has_wildcard:
            return False
        bindings.adopt(trial)
        capture = CallCapture(
            call=t_call,
            wildcards=wildcards,
            absorbed_keywords=absorbed if has_wildcard else [],
        )
        bindings.bind(directive.tag, capture)
        return True
