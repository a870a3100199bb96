#include "trace/batch_eval.hpp"

#include "guard/errors.hpp"
#include "sim/sweep.hpp"
#include "trace/replay.hpp"

namespace cobra::trace {
namespace {

/** Fill a failed lane's error fields from the in-flight exception. */
void
captureLaneException(BatchLaneResult& out)
{
    out.exception = std::current_exception();
    try {
        throw;
    } catch (const std::exception& e) {
        out.error = e.what();
        out.errorClass = guard::errorClassOf(e);
    } catch (...) {
        // Same class SweepEngine gives a non-std exception.
        out.error = "unknown non-std exception";
        out.errorClass = "internal";
    }
}

} // namespace

BatchTraceEvaluator::BatchTraceEvaluator(unsigned jobs) : jobs_(jobs)
{
}

std::size_t
BatchTraceEvaluator::addLane(BatchLane lane)
{
    lanes_.push_back(std::move(lane));
    return lanes_.size() - 1;
}

template <typename Trace>
std::vector<BatchLaneResult>
BatchTraceEvaluator::run(const Trace& trace, std::size_t warmup)
{
    std::vector<BatchLane> lanes = std::move(lanes_);
    lanes_.clear();
    std::vector<BatchLaneResult> out(lanes.size());

    // One task per lane. A lane that throws — at construction or
    // mid-stream — is captured into its own result slot; the other
    // lanes never shared state with it.
    const sim::SweepEngine eng(jobs_);
    eng.runTasks(lanes.size(), [&](std::size_t k) {
        BatchLaneResult& o = out[k];
        o.label = lanes[k].label;
        try {
            TraceDrivenEvaluator ev(lanes[k].predictor(),
                                    lanes[k].ghistBits,
                                    lanes[k].lhistBits);
            if (specialize_)
                ev.specialize();
            // Lanes take the fused packet sweep: one composer call
            // per record instead of a bundle-returning walk per
            // stage. Bit-identical (the serial evaluator keeps the
            // per-stage reference walk; tests compare the two).
            ev.setFusedPredict(true);
            o.loop = ev.specialized() ? "specialized" : "generic";
            o.result = ev.evaluate(trace, warmup);
        } catch (...) {
            captureLaneException(o);
        }
    });
    return out;
}

std::vector<BatchLaneResult>
BatchTraceEvaluator::evaluate(const BranchTrace& trace,
                              std::size_t warmup)
{
    return run(trace, warmup);
}

std::vector<BatchLaneResult>
BatchTraceEvaluator::evaluate(const DecodedTrace& trace,
                              std::size_t warmup)
{
    return run(trace, warmup);
}

} // namespace cobra::trace
