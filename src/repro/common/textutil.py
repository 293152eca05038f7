"""Text helpers: glob matching for DSL name patterns, dedenting, truncation,
and the line table that maps ``ast`` positions to source offsets."""

from __future__ import annotations

import fnmatch
import re
import textwrap
from array import array


def glob_match(pattern: str, value: str) -> bool:
    """Match ``value`` against a DSL name pattern.

    Patterns follow ``fnmatch`` semantics (``*``, ``?``, ``[seq]``).  A
    pattern wrapped in slashes (``/regex/``) is treated as a regular
    expression, which the paper's DSL supports for "more complex fault
    types".  Matching is case-sensitive, as Python identifiers are.
    """
    if pattern.startswith("/") and pattern.endswith("/") and len(pattern) > 1:
        return re.search(pattern[1:-1], value) is not None
    # fnmatch.fnmatch lowercases on some platforms; fnmatchcase never does.
    return fnmatch.fnmatchcase(value, pattern)


def dedent_block(text: str) -> str:
    """Dedent a brace-delimited DSL block to column zero.

    Blank leading/trailing lines are dropped so that patterns written
    inline inside ``change { ... }`` parse as top-level Python.
    """
    head, newline, tail = text.partition("\n")
    if newline and head.strip():
        return _dedent_inline_start(head.strip(), tail)
    return _dedent_lines(text)


def _dedent_inline_start(first: str, tail: str) -> str:
    """Dedent a block whose content starts right after the opening brace.

    ``change { foo()`` puts the first statement at column zero; the
    remaining lines lose their common indentation — except that when the
    first line opens a suite (ends with ``:``), one indentation level is
    preserved so the suite stays nested under it.  Specs should use spaces
    for indentation.
    """
    lines = [line.rstrip() for line in tail.splitlines()]
    while lines and not lines[0]:
        lines.pop(0)
    while lines and not lines[-1]:
        lines.pop()
    if not lines:
        return first
    common = min(
        len(line) - len(line.lstrip(" ")) for line in lines if line.strip()
    )
    reduce_by = max(common - 4, 0) if first.endswith(":") else common
    rest = "\n".join(line[reduce_by:] if line.strip() else "" for line in lines)
    return first + "\n" + rest


def _dedent_lines(text: str) -> str:
    lines = [line.rstrip() for line in text.splitlines()]
    while lines and not lines[0]:
        lines.pop(0)
    while lines and not lines[-1]:
        lines.pop()
    return textwrap.dedent("\n".join(lines))


def truncate(text: str, limit: int = 200) -> str:
    """Shorten ``text`` to ``limit`` characters with an ellipsis marker."""
    if len(text) <= limit:
        return text
    return text[: limit - 3] + "..."


def indent_lines(text: str, prefix: str = "    ") -> str:
    """Indent every non-empty line of ``text`` by ``prefix``."""
    return textwrap.indent(text, prefix, lambda line: bool(line.strip()))


#: The line breaks the tokenizer counts, so the ones ``ast`` line numbers
#: count.  ``str.splitlines`` also breaks at ``\f``, ``\x85``,
#: ``\u2028`` and other characters that are legal inside comments,
#: strings and blank lines, and so miscounts lines.
_LINE_BREAK = re.compile(r"\r\n?|\n")


class SourceLines:
    """One source plus the offset where each of its lines starts.

    Maps ``ast`` positions (1-based lines, UTF-8 *byte* columns) to
    offsets into :attr:`source` without copying it line by line.
    """

    __slots__ = ("source", "starts", "_ascii")

    def __init__(self, source: str) -> None:
        self.source = source
        #: ``starts[n - 1]`` is the offset of line ``n``.
        self.starts = array("q", [0])
        self.starts.extend(match.end()
                           for match in _LINE_BREAK.finditer(source))
        self._ascii = source.isascii()

    def next_line(self, lineno: int) -> int:
        """Offset just past line ``lineno``'s line break."""
        return (self.starts[lineno] if lineno < len(self.starts)
                else len(self.source))

    def offset(self, lineno: int, col: int) -> int:
        """Offset of UTF-8 byte column ``col`` on line ``lineno``."""
        start = self.starts[lineno - 1]
        if self._ascii:
            return start + col
        line = self.source[start:self.next_line(lineno)]
        return start + len(line.encode("utf-8")[:col].decode("utf-8"))

    def continues_previous(self, lineno: int) -> bool:
        """True if the line before ``lineno`` ends in a backslash, so the
        two are one logical line."""
        if lineno < 2:
            return False
        end = self.starts[lineno - 1] - 1  # the line break before lineno
        if self.source[end] == "\n" and self.source[end - 1:end] == "\r":
            end -= 1
        return self.source[end - 1:end] == "\\"
