"""raw-trace-span: span bookkeeping outside the tracing module.

The two-phase span API (TraceContext::StartSpan / DetachSpan /
FinishSpan / SetSpanAttr, and hand-built SpanRecord/TraceContext
objects) is how src/obs/ maintains the span-tree invariants the
CheckTraces audits: dense ids, parent-before-child, intervals nested
inside the parent. A call site that drives it directly can detach out
of order or finish a span twice and corrupt the tree for every later
span in the trace. Instrumentation uses the RAII surface instead —
obs::ScopedTrace, obs::ScopedSpan, obs::OperatorSpan — which also
compiles out under AUTOINDEX_METRICS=OFF."""

import re

from .. import framework

# The tracing module owns the raw API (and its tests live with it).
ALLOW_PREFIX = "src/obs/"

# Raw span-lifecycle calls through any receiver, or *construction* of
# the recording types (SpanRecord rec; / TraceContext ctx; / brace
# init). Read-only uses — const references into a snapshot, the
# kMaxSpansPerTrace constant — stay legal (CheckTraces audits
# these structures), as do the RAII helpers (ScopedTrace / ScopedSpan /
# OperatorSpan and their Begin/Leave/End/SetAttr members).
_RAW_SPAN_RE = re.compile(
    r"(?:(?:\.|->|::)\s*(?:StartSpan|DetachSpan|FinishSpan|EndSpan"
    r"|SetSpanAttr)\s*\()"
    r"|(?:(?<!struct\s)(?<!class\s)\b(?:obs\s*::\s*)?"
    r"(?:SpanRecord|TraceContext)\s*(?:\{|\w+\s*[;=({]))")


@framework.register
class RawTraceSpan(framework.Rule):
    name = "raw-trace-span"
    description = "raw span API outside src/obs/; use the RAII helpers"

    def check(self, sf, ctx):
        if sf.rel.startswith(ALLOW_PREFIX):
            return
        for lineno, code in sf.code_lines:
            m = _RAW_SPAN_RE.search(code)
            if m:
                yield self.finding(
                    sf, lineno,
                    "%s manipulates spans directly; instrument through "
                    "obs::ScopedTrace / obs::ScopedSpan / obs::OperatorSpan "
                    "(src/obs/trace.h)" % m.group().rstrip("(").strip())
