"""Source-code mutator: generate fault-injected program versions (§IV-B).

Two modes:

* **trigger mode** (default, like the EDFI technique the paper adopts):
  the matched statements are wrapped in
  ``if __pfp_rt__.enabled(fault_id): <faulty> else: <original>`` so the
  fault can be switched on and off while the target runs (two-round
  execution, §IV-B);
* **permanent mode**: the faulty code simply replaces the original window
  (a classic mutant, useful for mutation-testing style campaigns).

Mutants are materialized by **span patching** by default
(:mod:`repro.mutator.patch`): only the matched window and the
runtime-import line are re-emitted, spliced into the original source
bytes, so per-mutant cost no longer scales with file size and everything
outside the window keeps its original formatting.  Windows that cannot be
patched soundly fall back transparently to the legacy deepcopy +
whole-file ``ast.unparse`` path; ``verify_patches`` (or the
``PROFIPY_VERIFY_PATCHES`` environment variable) cross-checks every
successful patch against that path with an AST-equivalence oracle.

The mutator also produces the *coverage-instrumented* version used by the
fault-free pre-run (§IV-D): every injection point gets a
``__pfp_rt__.cover(point_id)`` probe and no fault.
"""

from __future__ import annotations

import ast
import os
from dataclasses import dataclass

from repro.common.rng import SeededRandom
from repro.dsl.metamodel import MetaModel
from repro.mutator.patch import ast_equivalent, patch_mutant
from repro.mutator.runtime import RUNTIME_ALIAS, RUNTIME_MODULE_NAME
from repro.mutator.substitute import ReplacementBuilder, runtime_call
from repro.scanner.cache import MatchMemo
from repro.scanner.matcher import Match
from repro.scanner.scan import match_source, nth_match


@dataclass(frozen=True)
class MutantRequest:
    """One mutant to generate (see :func:`generate_mutants`).

    ``rng`` must be the experiment's own stream (derived from the campaign
    seed and the experiment id), never a stream shared across requests —
    sharing is what made mutant generation order-dependent.
    """

    key: str
    source: str
    model: MetaModel
    ordinal: int
    fault_id: str
    file: str
    rng: SeededRandom


def generate_mutants(
    requests: "list[MutantRequest]",
    trigger: bool = True,
) -> "dict[str, Mutation | Exception]":
    """Generate one mutant per request, keyed by ``request.key``.

    The requests are one ``(file, spec)`` group, as the executor's
    pipelined producer hands them over: they share one fresh
    :class:`MatchMemo`, so the source is parsed and matched exactly once,
    and the pristine tree is released with the group.

    Each mutant draws only from its request's own RNG stream, so the
    output does not depend on request order.  A request that cannot be
    mutated (stale ordinal, broken spec) maps to the exception it raised
    instead of sinking the group; the executor records it as that
    experiment's ``harness_error``.
    """
    memo = MatchMemo()
    mutants: dict[str, Mutation | Exception] = {}
    for request in requests:
        mutator = Mutator(trigger=trigger, rng=request.rng, match_memo=memo)
        try:
            mutants[request.key] = mutator.mutate_source(
                request.source, request.model, request.ordinal,
                fault_id=request.fault_id, file=request.file,
            )
        except Exception as error:  # noqa: BLE001 - recorded per experiment
            mutants[request.key] = error
    return mutants


@dataclass
class Mutation:
    """One generated mutated version of one source file."""

    fault_id: str
    spec_name: str
    file: str
    lineno: int
    source: str
    original_snippet: str
    mutated_snippet: str

    def describe(self) -> str:
        return (f"{self.fault_id} @ {self.file}:{self.lineno} "
                f"[{self.spec_name}]")


class Mutator:
    """Apply bug specifications to source code."""

    def __init__(self, trigger: bool = True,
                 rng: SeededRandom | None = None,
                 match_memo: MatchMemo | None = None,
                 span_patching: bool = True,
                 verify_patches: bool | None = None) -> None:
        self.trigger = trigger
        self.rng = rng or SeededRandom(0)
        #: Parsed trees and match lists, shared by every mutation and
        #: instrumentation of the same source: repeated mutations of one
        #: (file, spec) pair reuse one cached match list instead of
        #: re-running the backtracking matcher.  Private unless given.
        self.match_memo = (match_memo if match_memo is not None
                           else MatchMemo())
        #: Materialize mutants by splicing the window's byte span instead
        #: of re-unparsing the whole file (False forces the legacy path).
        self.span_patching = span_patching
        if verify_patches is None:
            verify_patches = bool(os.environ.get("PROFIPY_VERIFY_PATCHES"))
        #: Cross-check every successful span patch against the legacy
        #: path with the AST-equivalence oracle (belt-and-suspenders for
        #: campaigns that can afford it; the test suite runs with it on).
        self.verify_patches = verify_patches
        #: How mutants were materialized: span-``patched``, legacy
        #: ``fallback``, and oracle ``verify_mismatch`` counts.
        self.patch_stats = {"patched": 0, "fallback": 0,
                            "verify_mismatch": 0}

    # -- fault injection -------------------------------------------------------

    def mutate_source(
        self,
        source: str,
        model: MetaModel,
        ordinal: int,
        fault_id: str | None = None,
        file: str = "<string>",
    ) -> Mutation:
        """Mutate the ``ordinal``-th match of ``model`` in ``source``."""
        fault_id = fault_id or f"{model.name}:{file}:{ordinal}"
        # Shared pristine tree: read-only from here on.
        tree, match = self.match_memo.peek(source, model, ordinal)
        original_stmts = match.stmts
        original_snippet = "\n".join(
            ast.unparse(stmt) for stmt in original_stmts
        )
        # match.lineno is a live property over the owner's statement list;
        # capture the pristine window's line before any path mutates it.
        lineno = match.lineno

        # The RNG stream is consumed exactly once, before the path choice,
        # so span-patched and fallback mutants draw identical faults.
        builder = ReplacementBuilder(
            model, match, rng=self.rng.derive(fault_id)
        )
        faulty = builder.build()
        needs_runtime = builder.needs_runtime or self.trigger
        mutated_snippet = "\n".join(
            ast.unparse(ast.fix_missing_locations(stmt)) for stmt in faulty
        )

        patched = None
        if self.span_patching:
            patched = patch_mutant(
                source, tree, match, faulty,
                trigger=self.trigger, fault_id=fault_id,
                needs_runtime=needs_runtime,
            )
        if patched is None:
            self.patch_stats["fallback"] += 1
            mutated_source = self._legacy_mutant_source(
                source, model, ordinal, tree, match, faulty,
                fault_id, needs_runtime,
            )
        else:
            self.patch_stats["patched"] += 1
            mutated_source = patched
            if self.verify_patches:
                legacy = self._legacy_mutant_source(
                    source, model, ordinal, tree, match, faulty,
                    fault_id, needs_runtime,
                )
                if not ast_equivalent(patched, legacy):
                    self.patch_stats["verify_mismatch"] += 1
                    mutated_source = legacy
        return Mutation(
            fault_id=fault_id,
            spec_name=model.name,
            file=file,
            lineno=lineno,
            source=mutated_source,
            original_snippet=original_snippet,
            mutated_snippet=mutated_snippet or "pass",
        )

    def _legacy_mutant_source(
        self,
        source: str,
        model: MetaModel,
        ordinal: int,
        tree: ast.Module,
        match: Match,
        faulty: list[ast.stmt],
        fault_id: str,
        needs_runtime: bool,
    ) -> str:
        """Deepcopy + whole-file unparse (the pre-span-patching path).

        The memo's pristine tree is shared, so a private copy is taken
        first.  ``faulty`` statements are detached copies (the builder
        never aliases pristine nodes), so splicing them into the copy is
        safe.
        """
        tree, match = self.match_memo.take(source, model, ordinal)
        body = getattr(match.owner, match.field)
        if self.trigger:
            guard = ast.If(
                test=runtime_call("enabled", [ast.Constant(fault_id)]),
                body=list(faulty) or [ast.Pass()],
                orelse=list(match.stmts),
            )
            body[match.start:match.end] = [guard]
        else:
            body[match.start:match.end] = list(faulty)
            if not body:
                body.append(ast.Pass())
        if needs_runtime:
            _insert_runtime_import(tree)
        ast.fix_missing_locations(tree)
        return ast.unparse(tree) + "\n"

    # -- coverage instrumentation ----------------------------------------------

    def instrument_source(
        self,
        source: str,
        targets: list[tuple[MetaModel, int, str]],
        file: str = "<string>",
    ) -> str:
        """Insert coverage probes for each ``(model, ordinal, point_id)``.

        The returned source contains no faults: each probe records that the
        workload reached the corresponding injection point.  The
        backtracking matcher runs at most once per distinct spec, and its
        match lists are shared (through :attr:`match_memo`) with mutant
        generation.
        """
        tree, windows = self.match_memo.take_windows(
            source, [(model, ordinal) for model, ordinal, _ in targets]
        )
        inserts = [
            (window.owner, window.field, window.start, point_id)
            for window, (_, _, point_id) in zip(windows, targets)
        ]
        # Insert deepest-position first so earlier indices stay valid.
        grouped: dict[tuple[int, str], list[tuple[int, str]]] = {}
        owners: dict[tuple[int, str], ast.AST] = {}
        for owner, fname, start, point_id in inserts:
            key = (id(owner), fname)
            grouped.setdefault(key, []).append((start, point_id))
            owners[key] = owner
        for key, entries in grouped.items():
            owner = owners[key]
            body = getattr(owner, key[1])
            for start, point_id in sorted(entries, reverse=True):
                probe = ast.Expr(
                    value=runtime_call("cover", [ast.Constant(point_id)])
                )
                body.insert(start, probe)
        if inserts:
            _insert_runtime_import(tree)
        ast.fix_missing_locations(tree)
        return ast.unparse(tree) + "\n"


def _insert_runtime_import(tree: ast.Module) -> None:
    """Add ``import profipy_runtime as __pfp_rt__`` after any docstring
    and ``__future__`` imports (idempotent)."""
    for stmt in tree.body:
        if (
            isinstance(stmt, ast.Import)
            and any(alias.name == RUNTIME_MODULE_NAME
                    and alias.asname == RUNTIME_ALIAS
                    for alias in stmt.names)
        ):
            return
    index = 0
    body = tree.body
    if body and isinstance(body[0], ast.Expr) and isinstance(
        body[0].value, ast.Constant
    ) and isinstance(body[0].value.value, str):
        index = 1
    while index < len(body) and (
        isinstance(body[index], ast.ImportFrom)
        and body[index].module == "__future__"
    ):
        index += 1
    body.insert(
        index,
        ast.Import(names=[ast.alias(name=RUNTIME_MODULE_NAME,
                                    asname=RUNTIME_ALIAS)]),
    )


__all__ = ["MutantRequest", "Mutation", "Mutator", "generate_mutants",
           "match_source", "nth_match"]
