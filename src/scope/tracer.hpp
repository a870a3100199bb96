/**
 * @file
 * CobraScope pipeline event tracer: structured per-event records for
 * the composition effects the paper argues are invisible in aggregate
 * counters (§VI) — predictions, fire events, mispredicts, repair
 * walks, ghist replays, and commits, each stamped with the cycle,
 * history-file position (ftqIdx), PC, and (where meaningful) the
 * predictor component attributed to the event.
 *
 * Records buffer in memory and render to Chrome trace-event JSON
 * lines after the run (`--trace-events`, loadable in Perfetto /
 * chrome://tracing; one simulated cycle = one microsecond of trace
 * time). A sampling window (`--trace-start` / `--trace-cycles`)
 * bounds the buffer; with no tracer attached the hot paths pay one
 * null-pointer test per site and nothing else.
 */

#ifndef COBRA_SCOPE_TRACER_HPP
#define COBRA_SCOPE_TRACER_HPP

#include <array>
#include <cstdint>
#include <string>
#include <vector>

#include "common/types.hpp"

namespace cobra {
class JsonWriter;
}

namespace cobra::scope {

/** The traced pipeline event kinds. */
enum class TraceKind : std::uint8_t
{
    Predict,    ///< Fetch packet finalized with a prediction (F3).
    Fire,       ///< Speculative commit of the prediction (§III-E).
    Mispredict, ///< Backend-resolved misprediction reached the BPU.
    Repair,     ///< Repair-walk event for one squashed entry (§IV-B2).
    Replay,     ///< Fetch replay forced by ghist repair (§VI-B).
    Commit,     ///< A control-flow instruction committed.
};

inline constexpr std::size_t kNumTraceKinds = 6;

const char* traceKindName(TraceKind k);

/** Component attribution marker for events no component caused. */
inline constexpr std::uint8_t kNoComponent = 0xFF;

/** One buffered pipeline event. */
struct TraceRecord
{
    std::uint64_t cycle = 0;
    Addr pc = kInvalidAddr;
    std::uint32_t ftq = 0;
    TraceKind kind = TraceKind::Predict;
    /** Attributed component index (kNoComponent when n/a). */
    std::uint8_t comp = kNoComponent;
    std::uint8_t slot = 0;
    /** Kind-specific bit: taken / mispredicted, see writer. */
    bool flag = false;
};

/** Sampling window in simulated cycles; cycles == 0 is unbounded. */
struct TraceWindow
{
    std::uint64_t startCycle = 0;
    std::uint64_t cycles = 0;
};

class Tracer
{
  public:
    explicit Tracer(TraceWindow window = {}) : window_(window) {}

    /**
     * Advance the tracer's notion of simulated time (the Simulator
     * calls this once per tick); recomputes whether the sampling
     * window is open.
     */
    void
    setCycle(std::uint64_t cycle)
    {
        cycle_ = cycle;
        active_ = cycle >= window_.startCycle &&
                  (window_.cycles == 0 ||
                   cycle < window_.startCycle + window_.cycles);
    }

    std::uint64_t cycle() const { return cycle_; }
    bool active() const { return active_; }
    const TraceWindow& window() const { return window_; }

    /** Record one event at the current cycle (no-op outside window). */
    void
    record(TraceKind kind, Addr pc, std::uint32_t ftq,
           std::uint8_t comp = kNoComponent, std::uint8_t slot = 0,
           bool flag = false)
    {
        if (!active_)
            return;
        records_.push_back(TraceRecord{cycle_, pc, ftq, kind, comp,
                                       slot, flag});
        ++counts_[static_cast<std::size_t>(kind)];
    }

    /** Events recorded (within the window) per kind. */
    std::uint64_t
    count(TraceKind k) const
    {
        return counts_[static_cast<std::size_t>(k)];
    }

    std::uint64_t totalRecords() const { return records_.size(); }
    const std::vector<TraceRecord>& records() const { return records_; }

    /** Names used for the "comp" attribution in rendered events. */
    void setComponentNames(std::vector<std::string> names)
    {
        compNames_ = std::move(names);
    }

    const std::string& componentName(std::uint8_t idx) const;

    /**
     * Append this point's records to the array @p w has open, as
     * Chrome trace events (one inline object each). @p pid labels the
     * sweep point so a multi-point sweep renders as one process per
     * point; metadata events naming the process/threads come first.
     */
    void writeChromeTrace(JsonWriter& w, unsigned pid,
                          const std::string& label) const;

  private:
    TraceWindow window_;
    std::uint64_t cycle_ = 0;
    bool active_ = false;
    std::vector<TraceRecord> records_;
    std::array<std::uint64_t, kNumTraceKinds> counts_{};
    std::vector<std::string> compNames_;
};

} // namespace cobra::scope

#endif // COBRA_SCOPE_TRACER_HPP
