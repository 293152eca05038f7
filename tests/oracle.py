"""Unfiltered reference matcher for the scan engine's equivalence tests.

:func:`every_start_matches` tries the pattern at every start of every
statement list (``ast.walk`` order) with neither the file-level prefilter
nor the statement-level anchor index, then applies the engine's anchor
dedup and sort order.  The indexed engine must return exactly its matches.
"""

import ast

from repro.scanner.matcher import Match, Matcher


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
