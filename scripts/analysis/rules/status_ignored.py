"""status-ignored: a call to a Status-returning function used as a bare
statement silently drops the error. Such calls must be consumed:
returned, assigned, tested, or explicitly discarded with (void).
Function names are harvested from header declarations (see
framework.Context.function_returns), so the rule tracks the API
automatically.

A name some class declares with another return type (`BTree::Insert`
is void, `HeapTable::Insert` returns StatusOr) is ambiguous: its bare
call is reported only when the receiver's class resolves, through a
`Class::` qualifier or the receiver variable's declaration in the same
file, to one that declares the name with a Status return only."""

import re

from .. import framework


def _receiver_class(sf, chain):
    """The class a `recv.`/`recv->`/`Class::` call chain ends on, or None
    when it cannot be told from this file."""
    m = re.search(r"([A-Za-z_]\w*)(\.|->|::)$", chain)
    if not m:
        return None
    if m.group(2) == "::":
        return m.group(1)
    decl = re.compile(
        r"\b([A-Z]\w*)(?:\s*[*&]\s*|\s+)(?:const\s+)?%s\s*[({=;,)]" %
        re.escape(m.group(1)))
    for _, code in sf.code_lines:
        d = decl.search(code)
        if d:
            return d.group(1)
    return None


@framework.register
class StatusIgnored(framework.Rule):
    name = "status-ignored"
    description = "Status-returning call used as a bare statement"

    def check(self, sf, ctx):
        returns = ctx.function_returns()
        names = ctx.status_function_names()
        if not names:
            return
        call_re = re.compile(
            r"^\s*((?:[A-Za-z_]\w*(?:\.|->|::))*)(%s)\s*\(" %
            "|".join(sorted(names)))

        # Tail of the previous non-blank code line, used to spot
        # continuation lines: `StatusOr<T> x =\n    Foo(...)` is
        # consumed, not dropped.
        prev_tail = ""
        for lineno, code in sf.code_lines:
            m = call_re.match(code)
            if m:
                # A bare-statement call: the line starts with the call
                # itself AND the previous line completed a statement.
                # Consumed forms start with return/(void)/assignment/if
                # etc. (which the anchored pattern never matches) or
                # continue a line ending in '=', '(', ',', '&&', etc.
                # (which prev_tail rules out).
                statement_start = prev_tail in ("", ";", "{", "}", ":")
                kinds = returns[m.group(2)]
                if kinds["other"]:
                    cls = _receiver_class(sf, m.group(1))
                    status_call = (cls is not None and
                                   cls in kinds["status"] and
                                   cls not in kinds["other"])
                else:
                    status_call = True
                if (status_call and statement_start and
                        code.rstrip().endswith((";", "(", ","))):
                    yield self.finding(
                        sf, lineno,
                        "result of Status-returning %s() is dropped; "
                        "check it or cast to (void)" % m.group(2))
            stripped = code.strip()
            if stripped:
                prev_tail = stripped[-1]
