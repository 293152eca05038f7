"""DSL compiler: bug specification text → :class:`MetaModel` (paper §IV-A).

Pipeline: lex each side (directives → placeholders), parse the resulting
plain Python with :func:`ast.parse`, then validate directive placement and
tag binding.  Validation failures raise precise :mod:`repro.dsl.errors`
exceptions so users can fix their specs.
"""

from __future__ import annotations

import ast

from repro.dsl.directives import Directive, DirectiveKind
from repro.dsl.errors import (
    BindingError,
    DslDirectiveError,
    PatternCompileError,
)
from repro.dsl.lexer import lex_fragment
from repro.dsl.metamodel import MetaModel
from repro.dsl.parser import BugSpec, parse_spec, parse_specs

#: Pattern-side matcher directives that may appear on the replacement side
#: only as references to a tag bound in the pattern.
_MATCHER_KINDS = {
    DirectiveKind.CALL,
    DirectiveKind.BLOCK,
    DirectiveKind.EXPR,
    DirectiveKind.STRING,
    DirectiveKind.NUM,
    DirectiveKind.VAR,
}


def compile_spec(spec: BugSpec) -> MetaModel:
    """Compile one parsed bug specification into a meta-model."""
    pattern_lex = lex_fragment(spec.pattern)
    replacement_lex = lex_fragment(
        spec.replacement, start_index=len(pattern_lex.directives)
    )

    pattern_module = _parse_side(pattern_lex.text, spec, side="change")
    replacement_module = _parse_side(replacement_lex.text, spec, side="into")

    if not pattern_module.body:
        raise PatternCompileError(
            f"spec {spec.name!r}: the change pattern is empty"
        )

    directives: dict[str, Directive] = {}
    directives.update(pattern_lex.directives)
    directives.update(replacement_lex.directives)

    bound_tags: dict[str, Directive] = {}
    for directive in pattern_lex.directives.values():
        directive.in_replacement = False
        directive.require_pattern_side()
        if directive.tag is not None:
            if directive.tag in bound_tags:
                raise BindingError(
                    f"spec {spec.name!r}: tag #{directive.tag} bound twice "
                    "in the change pattern",
                    line=directive.line,
                )
            bound_tags[directive.tag] = directive

    for directive in replacement_lex.directives.values():
        directive.in_replacement = True
        if directive.kind in _MATCHER_KINDS:
            _validate_replacement_reference(spec, directive, bound_tags)

    model = MetaModel(
        spec=spec,
        pattern_module=pattern_module,
        replacement_module=replacement_module,
        directives=directives,
        bound_tags=bound_tags,
    )
    _validate_block_positions(model)
    # Imported late: the scanner package imports the DSL at module level.
    from repro.scanner.prefilter import derive_anchor, derive_requirements

    model.requirements = derive_requirements(model)
    model.anchor = derive_anchor(model)
    return model


def compile_text(text: str, name: str | None = None) -> MetaModel:
    """Parse and compile a single spec from raw DSL text."""
    return compile_spec(parse_spec(text, name=name))


def compile_all(text: str) -> list[MetaModel]:
    """Parse and compile every spec found in raw DSL text."""
    return [compile_spec(spec) for spec in parse_specs(text)]


def _parse_side(text: str, spec: BugSpec, side: str) -> ast.Module:
    if not text.strip():
        return ast.Module(body=[], type_ignores=[])
    try:
        return ast.parse(text)
    except SyntaxError as exc:
        raise PatternCompileError(
            f"spec {spec.name!r}: the {side} block is not valid "
            f"(extended) Python: {exc.msg}",
            line=exc.lineno,
            snippet=exc.text,
        ) from exc


def _validate_replacement_reference(
    spec: BugSpec, directive: Directive, bound_tags: dict[str, Directive]
) -> None:
    if directive.tag is None:
        raise BindingError(
            f"spec {spec.name!r}: ${directive.kind.value} in the into block "
            "must reference a tag bound in the change pattern "
            "(write e.g. $CALL#c or $BLOCK{tag=b1})",
            line=directive.line,
        )
    binder = bound_tags.get(directive.tag)
    if binder is None:
        raise BindingError(
            f"spec {spec.name!r}: tag #{directive.tag} is not bound in the "
            "change pattern",
            line=directive.line,
        )
    if binder.kind is not directive.kind:
        raise BindingError(
            f"spec {spec.name!r}: tag #{directive.tag} is bound by "
            f"${binder.kind.value} but referenced as ${directive.kind.value}",
            line=directive.line,
        )


def _validate_block_positions(model: MetaModel) -> None:
    """$BLOCK (and statement actions) must sit in statement position."""
    for module in (model.pattern_module, model.replacement_module):
        statement_names = set()
        for node in ast.walk(module):
            if isinstance(node, ast.Expr):
                directive = model.directive_of_name(node.value)
                if directive is not None:
                    statement_names.add(node.value.id)  # type: ignore[union-attr]
        for placeholder, directive in model.directives.items():
            if directive.kind is not DirectiveKind.BLOCK:
                continue
            for node in ast.walk(module):
                if isinstance(node, ast.Name) and node.id == placeholder:
                    if placeholder not in statement_names:
                        raise DslDirectiveError(
                            f"spec {model.name!r}: $BLOCK must appear on a "
                            "line of its own (statement position)",
                            line=directive.line,
                        )
