#include "scope/tracer.hpp"

#include <cstdio>

#include "common/json.hpp"

namespace cobra::scope {

const char*
traceKindName(TraceKind k)
{
    switch (k) {
      case TraceKind::Predict: return "predict";
      case TraceKind::Fire: return "fire";
      case TraceKind::Mispredict: return "mispredict";
      case TraceKind::Repair: return "repair";
      case TraceKind::Replay: return "replay";
      case TraceKind::Commit: return "commit";
    }
    return "?";
}

const std::string&
Tracer::componentName(std::uint8_t idx) const
{
    static const std::string none = "-";
    if (idx == kNoComponent || idx >= compNames_.size())
        return none;
    return compNames_[idx];
}

void
Tracer::writeChromeTrace(JsonWriter& w, unsigned pid,
                         const std::string& label) const
{
    constexpr auto kInline = JsonWriter::Inline;
    auto meta = [&](const char* what, std::size_t tid,
                    const std::string& name) {
        w.object(kInline).field("name", what).field("ph", "M");
        w.field("pid", pid).field("tid", tid);
        w.key("args").object(kInline).field("name", name).end().end();
    };
    // Process metadata: one sweep point = one trace "process", with
    // one "thread" per event kind so the kinds render as lanes.
    meta("process_name", 0, label);
    for (std::size_t k = 0; k < kNumTraceKinds; ++k)
        meta("thread_name", k, traceKindName(static_cast<TraceKind>(k)));
    for (const TraceRecord& r : records_) {
        char pc[24];
        std::snprintf(pc, sizeof pc, "0x%llx",
                      static_cast<unsigned long long>(r.pc));
        w.object(kInline).field("name", traceKindName(r.kind));
        w.field("ph", "i").field("s", "t").field("ts", r.cycle);
        w.field("pid", pid).field("tid", static_cast<std::size_t>(r.kind));
        w.key("args").object(kInline).field("pc", pc).field("ftq", r.ftq);
        if (r.comp != kNoComponent) {
            w.field("comp", componentName(r.comp));
            w.field("slot", unsigned(r.slot));
        }
        w.field("flag", r.flag).end().end();
    }
}

} // namespace cobra::scope
