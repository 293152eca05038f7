"""Source-code mutator: generate fault-injected program versions (§IV-B).

Two modes:

* **trigger mode** (default, like the EDFI technique the paper adopts):
  the matched statements are wrapped in
  ``if __pfp_rt__.enabled(fault_id): <faulty> else: <original>`` so the
  fault can be switched on and off while the target runs (two-round
  execution, §IV-B);
* **permanent mode**: the faulty code simply replaces the original window
  (a classic mutant, useful for mutation-testing style campaigns).

Both kinds of version are made by one splicer
(:mod:`repro.mutator.patch`): only the statements around the matched
window and the runtime-import line are re-emitted and spliced into the
original source text, so everything else keeps its original formatting.

The mutator also produces the *coverage-instrumented* version used by the
fault-free pre-run (§IV-D): every injection point gets a
``__pfp_rt__.cover(point_id)`` probe and no fault.
"""

from __future__ import annotations

import ast
from dataclasses import dataclass

from repro.common.rng import SeededRandom
from repro.dsl.metamodel import MetaModel
from repro.mutator.patch import insert_probes, patch_mutant
from repro.mutator.substitute import ReplacementBuilder
from repro.scanner.cache import MatchMemo
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
                 match_memo: MatchMemo | None = None) -> None:
        self.trigger = trigger
        self.rng = rng or SeededRandom(0)
        #: Parsed trees, line tables and match lists, shared by every
        #: mutation and instrumentation of the same source: repeated
        #: mutations of one (file, spec) pair reuse one cached match list
        #: instead of re-running the backtracking matcher.  Private
        #: unless given.
        self.match_memo = (match_memo if match_memo is not None
                           else MatchMemo())

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
        # Shared pristine tree and line table: read-only from here on.
        lines, tree, match = self.match_memo.peek(source, model, ordinal)
        original_snippet = "\n".join(
            ast.unparse(stmt) for stmt in match.stmts
        )
        builder = ReplacementBuilder(
            model, match, rng=self.rng.derive(fault_id)
        )
        faulty = builder.build()
        mutated_snippet = "\n".join(
            ast.unparse(ast.fix_missing_locations(stmt)) for stmt in faulty
        )
        mutated_source = patch_mutant(
            lines, tree, match, faulty,
            trigger=self.trigger, fault_id=fault_id,
            needs_runtime=builder.needs_runtime or self.trigger,
        )
        return Mutation(
            fault_id=fault_id,
            spec_name=model.name,
            file=file,
            lineno=match.lineno,
            source=mutated_source,
            original_snippet=original_snippet,
            mutated_snippet=mutated_snippet or "pass",
        )

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
        if not targets:
            return source
        windows = []
        for model, ordinal, point_id in targets:
            lines, tree, match = self.match_memo.peek(source, model, ordinal)
            windows.append((match, point_id))
        return insert_probes(lines, tree, windows)


__all__ = ["MutantRequest", "Mutation", "Mutator", "generate_mutants",
           "match_source", "nth_match"]
