/**
 * @file
 * Batch-evaluation harness. The search tiers' functional metric is a
 * §II-B trace walk per candidate; trace::BatchTraceEvaluator runs
 * each candidate lane as one task on the SweepEngine pool, on the
 * fused predict path. Three checks:
 *
 *  1. Bit identity: every lane's TraceResult must equal a solo
 *     serial TraceDrivenEvaluator run of the same design — the
 *     batch is only admissible as a search tier if it is a perfect
 *     stand-in (tests/test_batch_eval.cpp covers the full matrix;
 *     this re-checks at bench scale).
 *
 *  2. Single-worker ratio: batched kilo-branch-evals/s vs the serial
 *     per-candidate walk, measured in the same run on one worker.
 *     The per-lane table work is identical on both sides, so this
 *     ratio isolates the batch scheduling overhead (plus the small
 *     fused-sweep win) from host speed — the gate is host-independent
 *     and asserts batching is never a tax.
 *
 *  3. Pool scaling: the same candidate set batched on the SweepEngine
 *     pool at jobs = min(hardware, 16). Lanes are embarrassingly
 *     parallel, so this is where the wall-clock win lives; the >= 3x
 *     ISSUE target is gated where >= 16 hardware threads exist and
 *     reduced/SKIPped on smaller hosts (same policy as
 *     bench_host_throughput's parallel-scaling leg — a pool speedup
 *     measured without real cores is noise, not signal).
 *
 * JSON side-cars (for tools/check_perf_regression.py, unchanged;
 * "kilocycles_per_sec" carries kilo-branch-evals/s here):
 *   bench_results/bench_batch_eval.json    batched points + speedups
 *   bench_results/BASELINE_batch_eval.json serial points (the
 *                                          same-run denominator)
 *
 * Gate: python3 tools/check_perf_regression.py \
 *         --fresh bench_results/bench_batch_eval.json \
 *         --baseline bench_results/BASELINE_batch_eval.json \
 *         --committed <committed bench_batch_eval.json>
 *
 * Override the repetition count with COBRA_THROUGHPUT_REPS.
 */

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdlib>
#include <filesystem>
#include <iostream>
#include <thread>
#include <vector>

#include "bench_util.hpp"
#include "search/space.hpp"
#include "sim/presets.hpp"
#include "sim/sweep.hpp"
#include "trace/batch_eval.hpp"
#include "trace/trace.hpp"

using namespace cobra;

namespace {

struct Point
{
    const char* wl;
    unsigned lanes;
};

/** The tier-0 shape: one shared trace, many candidate designs. */
constexpr Point kPoints[] = {
    {"mcf", 16},
    {"leela", 16},
    {"mcf", 8},
};
constexpr unsigned kMaxLanes = 16;

/**
 * The candidate set the search driver would evaluate: the four
 * paper-preset anchors plus seeded SearchSpace samples — fixed seed,
 * so every run (and every host) measures the same designs.
 */
std::vector<sim::DesignSpec>
makeLaneSpecs()
{
    std::vector<sim::DesignSpec> specs;
    for (sim::Design d : {sim::Design::Tourney, sim::Design::B2,
                          sim::Design::TageL, sim::Design::RefBig})
        specs.push_back(sim::presetSpec(d));
    search::SearchSpace space(0xC0B7A);
    while (specs.size() < kMaxLanes)
        specs.push_back(space.sample());
    return specs;
}

std::vector<trace::TraceResult>
serialRun(const trace::BranchTrace& tr, std::size_t warmup,
          const std::vector<sim::DesignSpec>& specs, unsigned lanes)
{
    // Exactly the pre-batching search tier: a fresh generic
    // evaluator per candidate, one full trace walk each.
    std::vector<trace::TraceResult> res;
    for (unsigned k = 0; k < lanes; ++k) {
        const sim::DesignSpec& spec = specs[k];
        bpu::ComposedPredictor pred(sim::buildTopology(spec),
                                    spec.fetchWidth);
        trace::TraceDrivenEvaluator ev(std::move(pred),
                                       spec.bpu.ghistBits,
                                       spec.bpu.lhistBits);
        res.push_back(ev.evaluate(tr, warmup));
    }
    return res;
}

std::vector<trace::BatchLaneResult>
batchRun(const trace::BranchTrace& tr, std::size_t warmup,
         const std::vector<sim::DesignSpec>& specs, unsigned lanes,
         unsigned jobs)
{
    trace::BatchTraceEvaluator be(jobs);
    for (unsigned k = 0; k < lanes; ++k) {
        const sim::DesignSpec* spec = &specs[k];
        trace::BatchLane lane;
        lane.label = spec->name;
        lane.predictor = [spec] {
            return bpu::ComposedPredictor(sim::buildTopology(*spec),
                                          spec->fetchWidth);
        };
        lane.ghistBits = spec->bpu.ghistBits;
        lane.lhistBits = spec->bpu.lhistBits;
        be.addLane(std::move(lane));
    }
    return be.evaluate(tr, warmup);
}

} // namespace

int
main()
{
    bool ok = true;
    prog::WorkloadCache cache;

    const bool fast = [] {
        const char* f = std::getenv("COBRA_FAST");
        return f != nullptr && f[0] == '1';
    }();
    const std::size_t branches = fast ? 20'000 : 60'000;
    const std::size_t warmup = fast ? 5'000 : 15'000;
    unsigned reps = 3;
    if (const char* env = std::getenv("COBRA_THROUGHPUT_REPS"))
        reps = std::max(1u, static_cast<unsigned>(std::atoi(env)));

    const std::vector<sim::DesignSpec> specs = makeLaneSpecs();

    std::cout << "batched vs serial functional evaluation (one "
                 "worker, best of "
              << reps << ", " << branches << " branches, warmup "
              << warmup << ")\n\n";

    TextTable t;
    t.addRow({"point", "batched kbe/s", "serial kbe/s", "speedup"});
    double logSum = 0.0;
    bool identical = true;
    std::size_t specializedLanes = 0;
    JsonWriter pointsJson(2);
    JsonWriter baselineJson(2);
    for (std::size_t pi = 0; pi < std::size(kPoints); ++pi) {
        const Point& p = kPoints[pi];
        const trace::BranchTrace tr =
            trace::recordTrace(cache.get(p.wl), branches);

        double serialWall = 1e300;
        double batchWall = 1e300;
        std::vector<trace::TraceResult> sres;
        std::vector<trace::BatchLaneResult> bres;
        for (unsigned r = 0; r < reps; ++r) {
            auto t0 = std::chrono::steady_clock::now();
            sres = serialRun(tr, warmup, specs, p.lanes);
            auto t1 = std::chrono::steady_clock::now();
            serialWall = std::min(
                serialWall,
                std::chrono::duration<double>(t1 - t0).count());

            t0 = std::chrono::steady_clock::now();
            bres = batchRun(tr, warmup, specs, p.lanes, 1);
            t1 = std::chrono::steady_clock::now();
            batchWall = std::min(
                batchWall,
                std::chrono::duration<double>(t1 - t0).count());
        }

        for (unsigned k = 0; k < p.lanes; ++k) {
            if (!bres[k].ok()) {
                std::cerr << "lane " << bres[k].label
                          << " failed: " << bres[k].error << "\n";
                return 1;
            }
            identical &= bres[k].result.branches == sres[k].branches &&
                         bres[k].result.mispredicts ==
                             sres[k].mispredicts;
            if (pi == 0)
                specializedLanes += bres[k].loop == "specialized";
        }

        const double evals =
            static_cast<double>(p.lanes) *
            static_cast<double>(tr.size()) / 1000.0;
        const double serialRate = evals / serialWall;
        const double batchRate = evals / batchWall;
        const double speedup = serialWall / batchWall;
        logSum += std::log(speedup);

        const std::string label =
            std::string(p.wl) + "/lanes" + std::to_string(p.lanes);
        t.addRow({label, formatDouble(batchRate, 1),
                  formatDouble(serialRate, 1),
                  formatDouble(speedup, 2) + "x"});
        pointsJson.object(JsonWriter::Inline).field("label", label);
        pointsJson.field("lanes", p.lanes);
        pointsJson.field("kilocycles_per_sec", batchRate);
        pointsJson.field("baseline_kilocycles_per_sec", serialRate);
        pointsJson.field("speedup", speedup).end();
        baselineJson.object(JsonWriter::Inline).field("label", label);
        baselineJson.field("kilocycles_per_sec", serialRate).end();
    }
    t.print(std::cout);

    const double geomean = std::exp(
        logSum / static_cast<double>(std::size(kPoints)));
    std::cout << "\nbatched geomean vs serial (one worker): "
              << formatDouble(geomean, 2) << "x\n"
              << "specialized lanes: " << specializedLanes << "/"
              << kMaxLanes << "\n\n";

    ok &= bench::shapeCheck(
        "batched results bit-identical to serial on every lane",
        identical);
    ok &= bench::shapeCheck(
        "some lanes take the devirtualized fast path",
        specializedLanes > 0);
    // The per-lane table work is identical on both sides, so a
    // single worker can only win the fused-sweep margin. The gate
    // asserts batching never *costs* throughput; the wall-clock win
    // is the pool leg below.
    ok &= bench::shapeCheck(
        "one-worker batched geomean >= 0.9x serial (never a tax)",
        geomean >= 0.9);

    // ---- Pool scaling --------------------------------------------------
    const unsigned hw = std::thread::hardware_concurrency();
    const unsigned poolJobs = std::min(hw == 0 ? 1u : hw, 16u);
    double poolSpeedup = 0.0;
    if (hw < 2) {
        std::cout << "\n  [SHAPE SKIP] pool scaling: host reports "
                  << hw << " hardware thread(s); the lanes are "
                  << "independent, but a pool speedup measured "
                  << "without real cores is noise\n";
    } else {
        const trace::BranchTrace tr =
            trace::recordTrace(cache.get("mcf"), branches);
        double serialWall = 1e300;
        double poolWall = 1e300;
        for (unsigned r = 0; r < reps; ++r) {
            auto t0 = std::chrono::steady_clock::now();
            serialRun(tr, warmup, specs, kMaxLanes);
            auto t1 = std::chrono::steady_clock::now();
            serialWall = std::min(
                serialWall,
                std::chrono::duration<double>(t1 - t0).count());

            t0 = std::chrono::steady_clock::now();
            const auto outs =
                batchRun(tr, warmup, specs, kMaxLanes, poolJobs);
            t1 = std::chrono::steady_clock::now();
            poolWall = std::min(
                poolWall,
                std::chrono::duration<double>(t1 - t0).count());
            for (const auto& o : outs)
                identical &= o.ok();
        }
        poolSpeedup = serialWall / poolWall;
        std::cout << "\n16-lane batch: serial "
                  << formatDouble(serialWall, 2) << " s, jobs="
                  << poolJobs << " " << formatDouble(poolWall, 2)
                  << " s, speedup " << formatDouble(poolSpeedup, 2)
                  << "x\n";
        // The full >= 3x ISSUE target applies where a >= 16-worker
        // pool exists; smaller real-core hosts gate a scaled-down
        // floor.
        const double target = hw >= 16 ? 3.0 : hw >= 4 ? 2.0 : 1.2;
        ok &= bench::shapeCheck(
            "16-lane pool speedup >= " + formatDouble(target, 1) +
                "x at jobs=" + std::to_string(poolJobs),
            poolSpeedup >= target);
    }

    // ---- JSON report ---------------------------------------------------
    try {
        std::filesystem::create_directories("bench_results");
        JsonWriter j;
        j.object().field("bench", "batch_eval");
        j.field("note", "kilocycles_per_sec carries kilo-branch-evals/s "
                        "(lanes x trace records / wall), one worker; "
                        "pool_speedup is the jobs=" +
                            std::to_string(poolJobs) +
                            " wall-clock ratio (0 when the host has no "
                            "real cores)");
        j.field("shape_ok", ok).field("reps", reps);
        j.field("trace_branches", branches).field("trace_warmup", warmup);
        j.field("hardware_threads", hw).field("pool_jobs", poolJobs);
        j.field("pool_speedup", poolSpeedup);
        j.field("specialized_lanes", specializedLanes);
        j.field("geomean_speedup", geomean).key("points").array();
        j.splice(pointsJson.str()).end().end();
        writeJsonFile("bench_results/bench_batch_eval.json", j);
        JsonWriter b;
        b.object().field("bench", "batch_eval_baseline");
        b.field("note", "serial per-candidate kilo-branch-evals/s from the "
                        "same run as bench_batch_eval.json; the "
                        "denominator check_perf_regression.py divides by");
        b.key("points").array().splice(baselineJson.str()).end().end();
        writeJsonFile("bench_results/BASELINE_batch_eval.json", b);
    } catch (const std::exception& e) {
        std::cerr << "[bench] JSON emit failed: " << e.what() << "\n";
    }

    return ok ? 0 : 1;
}
