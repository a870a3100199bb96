/**
 * @file
 * The composition-search autopilot (docs/SEARCH.md): budgeted
 * successive halving over DesignSpec candidates.
 *
 *   pool  -> tier 0: functional seed evals + ridge surrogate prune
 *         -> tier 1: functional evals of the survivors
 *         -> tier 2: warp interval-sampled ranking
 *         -> tier 3: full detailed certification (SweepEngine)
 *         -> Pareto frontier over (accuracy, area, predict latency)
 *
 * The paper's preset designs ride along as always-certified anchors,
 * so the frontier always contains the paper's TAGE-L point or a
 * candidate that dominates it. Every step is deterministic under the
 * search seed: candidate generation is seeded, the surrogate is
 * closed-form, warp stitching and SweepEngine results are
 * deterministic, and ranking ties break on stable keys — the same
 * seed always reproduces the same frontier artifact.
 */

#ifndef COBRA_SEARCH_DRIVER_HPP
#define COBRA_SEARCH_DRIVER_HPP

#include <cstdint>
#include <string>
#include <vector>

#include "phys/area_model.hpp"
#include "program/workload.hpp"
#include "search/features.hpp"
#include "sim/design_spec.hpp"

namespace cobra::search {

/** Hard resource ceiling every candidate must respect; 0 = unlimited. */
struct SearchBudget
{
    /** Architectural storage ceiling in kilobytes (1 KB = 8192 bits). */
    std::uint64_t storageKb = 0;
    /** Predictor area ceiling in um^2 under the FinFET proxy model. */
    double areaUm2 = 0.0;
};

struct SearchConfig
{
    std::uint64_t seed = 0xC0B7A;
    /** Candidate pool size, anchors included. */
    unsigned pool = 32;
    SearchBudget budget;
    std::vector<std::string> workloads = {"mcf"};
    /** Include the paper presets as always-certified anchors. */
    bool anchors = true;
    /** Fraction of the sampled pool mutated from anchor sizings. */
    double mutateFrac = 0.25;

    // ---- Successive-halving tier sizes --------------------------------
    /** Functional evals used to fit the surrogate (>= 2). Setting
     *  this >= pool disables the surrogate prune (exhaustive tier 0),
     *  which is how bench_search measures the evals-saved win. */
    unsigned seedEvals = 10;
    /** Pool left after the surrogate prune (all functionally evaluated). */
    unsigned functionalSurvivors = 14;
    /** Survivors ranked by warp interval sampling. */
    unsigned warpSurvivors = 5;
    /** Non-anchor candidates certified by full detailed runs. */
    unsigned finalists = 2;

    // ---- Per-tier evaluation budgets ----------------------------------
    std::size_t traceBranches = 60'000; ///< Tier-0/1 trace length.
    std::size_t traceWarmup = 15'000;   ///< Unmeasured trace prefix.
    std::uint64_t warpInsts = 200'000;  ///< Tier-2 run length.
    unsigned warpIntervals = 4;
    std::uint64_t warpWarmupCycles = 10'000;
    /** Detailed insts per warp interval; 0 = whole interval. */
    std::uint64_t warpSampleInsts = 0;
    std::uint64_t detailInsts = 400'000; ///< Tier-3 run length.
    std::uint64_t detailWarmup = 120'000;

    double ridgeLambda = 1.0;
    unsigned jobs = 0; ///< Worker pool for all tiers.
    bool progress = false;
    /**
     * Evaluate tier-0/1 candidates through the batch trace
     * evaluator (trace/batch_eval.hpp): one pool task per candidate
     * lane, each on the fused predict path. Off falls back to the
     * serial per-candidate walk; the frontier artifact is
     * byte-identical either way.
     */
    bool batchEval = true;

    /** Throws guard::ConfigError naming the offending field. */
    void validate() const;
};

struct WarpMetrics
{
    double ipc = 0.0;
    double mpki = 0.0;
    double ipcCi95 = 0.0;
    double mpkiCi95 = 0.0;
};

struct DetailMetrics
{
    double ipc = 0.0;
    double mpki = 0.0;
    double accuracy = 0.0;
    std::uint64_t cycles = 0;
    std::uint64_t insts = 0;
};

/** One pool member with everything measured about it so far. */
struct Candidate
{
    sim::DesignSpec spec;
    std::string id; ///< "preset-tagel" | "cand-007" | "mut-002".
    bool anchor = false;

    // Static properties (always present).
    std::uint64_t storageBits = 0;
    double areaUm2 = 0.0;
    unsigned latency = 0;

    /** Deepest tier reached: pool|surrogate|functional|warp|detailed. */
    std::string tier = "pool";

    bool hasSurrogate = false;
    double surrogateScore = 0.0; ///< Predicted functional accuracy.
    bool hasFunctional = false;
    double functionalAccuracy = 0.0; ///< Workload-mean trace accuracy.
    bool hasWarp = false;
    WarpMetrics warp;
    bool hasDetail = false;
    DetailMetrics detail;
    /** Failure text when detailed certification errored. */
    std::string certifyError;

    bool onFrontier = false;
};

struct SearchResult
{
    SearchConfig cfg; ///< The exact configuration that ran (echo).
    std::vector<WorkloadFeatures> features; ///< One per workload.
    std::vector<Candidate> candidates;      ///< Deterministic order.
    /** Indices of the Pareto frontier, sorted by area ascending. */
    std::vector<std::size_t> frontier;

    unsigned functionalEvals = 0;
    unsigned warpEvals = 0;
    unsigned detailedEvals = 0;
    /** Pool members never functionally evaluated (surrogate win). */
    unsigned evalsSaved = 0;
    unsigned anchorsDropped = 0; ///< Anchors excluded by the budget.
    double surrogateRmse = 0.0;
    bool surrogateUsed = false;
};

/** True when @p spec fits @p budget under @p model. */
bool withinBudget(const sim::DesignSpec& spec,
                  const SearchBudget& budget,
                  const phys::AreaModel& model);

/**
 * Pareto frontier (maximize detailed accuracy, minimize area and
 * predict latency) over the certified candidates; returns indices
 * into @p cands sorted by area ascending then id.
 */
std::vector<std::size_t>
paretoFrontier(const std::vector<Candidate>& cands);

/**
 * Run the full autopilot. Throws guard::ConfigError on an invalid
 * configuration or a budget no candidate satisfies.
 */
SearchResult runSearch(const SearchConfig& cfg,
                       prog::WorkloadCache& cache);

/**
 * The reproducible frontier artifact: a JSON document carrying the
 * search provenance (seed, budget, tier sizes, per-tier eval
 * budgets), per-candidate records with their deepest tier and
 * metrics, and the frontier with full inline specs. Validated by
 * tools/check_stats_schema.py --kind search-frontier.
 */
std::string frontierJson(const SearchResult& r);

/** frontierJson's document as a value in @p w (cobra_serve embeds it
 *  in a search request's result). */
void writeFrontier(JsonWriter& w, const SearchResult& r);

} // namespace cobra::search

#endif // COBRA_SEARCH_DRIVER_HPP
