"""operator-name-lookup: no name lookups on the executor's per-tuple paths.

Lowering (src/engine/operators/lowering.cc) binds every column reference
once, to a (slot, ordinal) pair: operators then read values straight out
of the tuple. A Catalog::GetTable, Schema::FindColumn or ToLower call in a
body that runs per tuple or per probe takes the catalog lock, copies and
lowercases strings and hashes them for every row, which once cost more
than a query's index-sensitive work. Constructors (which run at lowering)
may look names up; the bodies named in PER_TUPLE_BODIES may not.

The rule applies to files in an engine/operators/ directory (the real one
under src/ and its mirror in the analyzer's corpus)."""

import bisect
import re

from .. import framework

_SCOPE_RE = re.compile(r"(?:^|/)engine/operators/")

# Operator entry points that run per tuple or per probe.
PER_TUPLE_BODIES = ("DoNext", "Rebind", "NextMatch",
                    "EnsureSorted", "EnsureAggregated", "Start", "BuildTable",
                    "NextHashedInner", "NextHashedOuter", "InnerKeyHash",
                    "OuterKeyHash", "Drain", "Eval", "EvalGeneric")

_BODY_NAME_RE = re.compile(r"\b(%s)\s*\(" % "|".join(PER_TUPLE_BODIES))
_LOOKUP_RE = re.compile(r"\b(GetTable|FindColumn|ToLower)\s*\(")
# What may sit between a definition's ')' and its '{'.
_QUALIFIERS_RE = re.compile(r"(?:\s|\bconst\b|\boverride\b|\bfinal\b"
                            r"|\bnoexcept\b)*")


def _matching(text, i, open_ch, close_ch):
    """Index just past the bracket that closes the one at text[i]."""
    depth = 0
    for j in range(i, len(text)):
        if text[j] == open_ch:
            depth += 1
        elif text[j] == close_ch:
            depth -= 1
            if depth == 0:
                return j + 1
    return len(text)


def _body_spans(text):
    """(start, end) offsets of every per-tuple function body in `text`."""
    pos = 0
    while True:
        m = _BODY_NAME_RE.search(text, pos)
        if not m:
            return
        params_end = _matching(text, m.end() - 1, "(", ")")
        q = _QUALIFIERS_RE.match(text, params_end)
        if q.end() < len(text) and text[q.end()] == "{":
            end = _matching(text, q.end(), "{", "}")
            yield q.end(), end
            pos = end
        else:
            pos = m.end()  # a call or a declaration, not a definition


@framework.register
class OperatorNameLookup(framework.Rule):
    name = "operator-name-lookup"
    description = "catalog/schema name lookup in a per-tuple operator body"

    def check(self, sf, ctx):
        if not _SCOPE_RE.search(sf.rel):
            return
        # One text with comments and literals blanked; offsets map back to
        # line numbers.
        text = "\n".join(code for _, code in sf.code_lines)
        linenos = [lineno for lineno, _ in sf.code_lines]
        starts = []
        offset = 0
        for _, code in sf.code_lines:
            starts.append(offset)
            offset += len(code) + 1
        for begin, end in _body_spans(text):
            for m in _LOOKUP_RE.finditer(text, begin, end):
                line = linenos[bisect.bisect_right(starts, m.start()) - 1]
                yield self.finding(
                    sf, line,
                    "%s( on a per-tuple path; bind the column once at "
                    "lowering (ColumnBinder) and read the tuple slot"
                    % m.group(1))

