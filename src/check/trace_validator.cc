#include "check/validator.h"

#include <algorithm>
#include <cstddef>

#include "util/string_util.h"

namespace autoindex {

namespace {

constexpr char kLabel[] = "trace";

void CheckTrace(const obs::TraceData& trace, CheckReport* report) {
  const auto& spans = trace.spans;
  if (spans.empty()) {
    report->AddIssue(kLabel, StrCat("trace ", trace.trace_id,
                                    ": recorded with no spans"));
    return;
  }
  if (spans.size() > obs::TraceContext::kMaxSpansPerTrace) {
    report->AddIssue(kLabel,
                     StrCat("trace ", trace.trace_id, ": ", spans.size(),
                            " spans exceed the per-trace cap ",
                            obs::TraceContext::kMaxSpansPerTrace));
  }
  if (trace.spans_dropped > 0 &&
      spans.size() != obs::TraceContext::kMaxSpansPerTrace) {
    report->AddIssue(
        kLabel,
        StrCat("trace ", trace.trace_id, ": reports ", trace.spans_dropped,
               " dropped spans but holds ", spans.size(),
               " (drops only happen at the cap)"));
  }
  for (size_t i = 0; i < spans.size(); ++i) {
    const obs::SpanRecord& span = spans[i];
    if (span.id != i + 1) {
      report->AddIssue(kLabel, StrCat("trace ", trace.trace_id, ": span #",
                                      i, " has id ", span.id,
                                      ", expected dense id ", i + 1));
      // Parent links are id-based; with the numbering broken the
      // remaining checks would only cascade.
      return;
    }
    if (span.id == 1) {
      if (span.parent != 0) {
        report->AddIssue(kLabel,
                         StrCat("trace ", trace.trace_id,
                                ": root span has parent ", span.parent));
      }
      continue;
    }
    if (span.parent == 0) {
      report->AddIssue(kLabel, StrCat("trace ", trace.trace_id, ": span ",
                                      span.id, " (", span.name,
                                      ") is a second root"));
      continue;
    }
    if (span.parent >= span.id) {
      report->AddIssue(
          kLabel,
          StrCat("trace ", trace.trace_id, ": span ", span.id, " (",
                 span.name, ") has parent ", span.parent,
                 " >= its own id (parents must start first)"));
      continue;
    }
    const obs::SpanRecord& parent = spans[span.parent - 1];
    if (span.start_us < parent.start_us ||
        span.start_us + span.duration_us >
            parent.start_us + parent.duration_us) {
      report->AddIssue(
          kLabel,
          StrCat("trace ", trace.trace_id, ": span ", span.id, " (",
                 span.name, ") [", span.start_us, ", ",
                 span.start_us + span.duration_us,
                 ") escapes its parent ", parent.id, " (", parent.name,
                 ") [", parent.start_us, ", ",
                 parent.start_us + parent.duration_us, ")"));
    }
  }
  if (trace.total_us != spans[0].duration_us) {
    report->AddIssue(kLabel,
                     StrCat("trace ", trace.trace_id, ": total_us ",
                            trace.total_us, " != root span duration ",
                            spans[0].duration_us));
  }
}

}  // namespace

void CheckTraces(const obs::Tracer::Snapshot& snap, CheckReport* report) {
  const obs::Tracer::Stats& stats = snap.stats;
  const uint64_t expected_occupancy =
      std::min<uint64_t>(stats.recorded, snap.capacity);
  if (snap.traces.size() != expected_occupancy) {
    report->AddIssue(kLabel,
                     StrCat("ring holds ", snap.traces.size(),
                            " traces but bookkeeping expects min(recorded ",
                            stats.recorded, ", capacity ", snap.capacity,
                            ") = ", expected_occupancy));
  }
  if (stats.finished != stats.recorded + stats.sampled_out) {
    report->AddIssue(
        kLabel,
        StrCat("finished ", stats.finished, " != recorded ", stats.recorded,
               " + sampled_out ", stats.sampled_out,
               " (a submitted trace is either kept or dropped)"));
  }
  // One-sided: `started` comes from the id-allocation atomic, so traces
  // still in flight keep it ahead of finished + cancelled — never behind.
  if (stats.started < stats.finished + stats.cancelled) {
    report->AddIssue(
        kLabel,
        StrCat("started ", stats.started, " < finished ", stats.finished,
               " + cancelled ", stats.cancelled));
  }
  for (const obs::TraceData& trace : snap.traces) {
    report->NoteStructureChecked();
    CheckTrace(trace, report);
  }
}

}  // namespace autoindex
