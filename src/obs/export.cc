#include "obs/export.h"

#include <vector>

#include "util/string_util.h"

namespace autoindex {
namespace obs {

namespace {

// Span names are static literals under our control, but the escaper
// keeps the output well-formed JSON even if one ever grows a quote.
std::string JsonEscape(const char* s) {
  std::string out;
  for (; *s != '\0'; ++s) {
    const char c = *s;
    if (c == '"' || c == '\\') {
      out += '\\';
      out += c;
    } else if (static_cast<unsigned char>(c) < 0x20) {
      out += StrFormat("\\u%04x", c);
    } else {
      out += c;
    }
  }
  return out;
}

void AppendTraceEvents(const TraceData& trace, bool* first,
                       std::string* out) {
  for (const SpanRecord& span : trace.spans) {
    if (!*first) *out += ",\n";
    *first = false;
    *out += StrCat("{\"name\":\"", JsonEscape(span.name),
                   "\",\"cat\":\"autoindex\",\"ph\":\"X\",\"ts\":",
                   trace.start_offset_us + span.start_us,
                   ",\"dur\":", span.duration_us, ",\"pid\":1,\"tid\":",
                   trace.trace_id, ",\"args\":{\"span_id\":", span.id,
                   ",\"parent\":", span.parent);
    if (span.attr_name != nullptr) {
      *out += StrCat(",\"", JsonEscape(span.attr_name),
                     "\":", span.attr_value);
    }
    if (span.id == 1) {
      // Trace-level metadata rides on the root span.
      *out += StrCat(",\"trace_id\":", trace.trace_id,
                     ",\"client_trace_id\":", trace.client_trace_id,
                     ",\"spans_dropped\":", trace.spans_dropped,
                     ",\"sampled\":", trace.sampled ? "true" : "false");
    }
    *out += "}}";
  }
}

void AppendSubtree(const TraceData& trace,
                   const std::vector<std::vector<uint32_t>>& children,
                   uint32_t id, int depth, std::string* out) {
  const SpanRecord& span = trace.spans[id - 1];
  *out += StrFormat("%*s%-*s %8llu us", 2 * depth + 2, "",
                    32 - 2 * depth, span.name,
                    static_cast<unsigned long long>(span.duration_us));
  if (span.attr_name != nullptr) {
    *out += StrCat("  ", span.attr_name, "=", span.attr_value);
  }
  *out += '\n';
  for (uint32_t child : children[id]) {
    AppendSubtree(trace, children, child, depth + 1, out);
  }
}

}  // namespace

std::string TracesToChromeJson(const Tracer::Snapshot& snapshot) {
  std::string out = "{\"traceEvents\":[\n";
  bool first = true;
  for (const TraceData& trace : snapshot.traces) {
    AppendTraceEvents(trace, &first, &out);
  }
  out += StrCat("\n],\"displayTimeUnit\":\"ms\",\"otherData\":{"
                "\"traces_recorded\":",
                snapshot.stats.recorded,
                ",\"traces_sampled_out\":", snapshot.stats.sampled_out,
                ",\"ring_capacity\":", snapshot.capacity, "}}\n");
  return out;
}

std::string RenderTraceTree(const TraceData& trace) {
  std::string out = StrCat(
      "trace ", trace.trace_id, " (total ", trace.total_us, " us",
      trace.sampled ? ", sampled" : ", slow",
      trace.client_trace_id != 0
          ? StrCat(", client trace ", trace.client_trace_id)
          : std::string(),
      trace.spans_dropped != 0
          ? StrCat(", ", trace.spans_dropped, " spans dropped")
          : std::string(),
      ")\n");
  // children[id] = ids of the spans directly under `id` (index 0 = roots),
  // in start order because ids are assigned in start order.
  std::vector<std::vector<uint32_t>> children(trace.spans.size() + 1);
  for (const SpanRecord& span : trace.spans) {
    if (span.parent <= trace.spans.size()) {
      children[span.parent].push_back(span.id);
    }
  }
  for (uint32_t root : children[0]) {
    AppendSubtree(trace, children, root, 0, &out);
  }
  return out;
}

std::string RenderRecentTraces(const Tracer::Snapshot& snapshot, size_t n) {
  if (snapshot.traces.empty()) {
    return "no traces recorded (lower the tracer's slow threshold or raise "
           "its sample rate)\n";
  }
  std::string out;
  const size_t count = n < snapshot.traces.size() ? n : snapshot.traces.size();
  for (size_t i = 0; i < count; ++i) {
    // Newest first: snapshot order is oldest first.
    out += RenderTraceTree(
        snapshot.traces[snapshot.traces.size() - 1 - i]);
  }
  return out;
}

}  // namespace obs
}  // namespace autoindex
