// raw-trace-span fixture: direct span bookkeeping outside src/obs/,
// next to the RAII spellings that must stay clean.

namespace corpus {

struct SpanRecord {
  unsigned id = 0;
  unsigned parent = 0;
};

struct TraceContext {
  unsigned StartSpan(const char* name);
  void DetachSpan(unsigned id);
  void FinishSpan(unsigned id);
  void EndSpan(unsigned id);
  void SetSpanAttr(unsigned id, const char* attr, long value);
};

struct ScopedSpan {
  explicit ScopedSpan(const char* name);
  void SetAttr(const char* name, long value);
};

struct OperatorSpan {
  void Begin(const char* name);
  void Leave();
  void End(const char* attr_name, long attr_value);
};

inline unsigned DrivesSpansDirectly() {
  TraceContext ctx;                          // lint:expect(raw-trace-span)
  unsigned id = ctx.StartSpan("scan");       // lint:expect(raw-trace-span)
  ctx.SetSpanAttr(id, "rows", 42);           // lint:expect(raw-trace-span)
  ctx.DetachSpan(id);                        // lint:expect(raw-trace-span)
  ctx.FinishSpan(id);                        // lint:expect(raw-trace-span)
  ctx.EndSpan(id);                           // lint:expect(raw-trace-span)
  SpanRecord forged{};                       // lint:expect(raw-trace-span)
  forged.parent = forged.id;
  return id + forged.parent;
}

inline long UsesRaiiHelpers(const SpanRecord& span) {
  // The RAII surface and read-only access to a recorded span are legal.
  ScopedSpan scope("scan");
  scope.SetAttr("rows", 42);
  OperatorSpan op;
  op.Begin("hash_join");
  op.Leave();
  op.End("rows_out", 7);
  return static_cast<long>(span.id) + span.parent;
}

}  // namespace corpus
