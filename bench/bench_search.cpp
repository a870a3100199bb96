/**
 * @file
 * Composition-search acceptance benchmark (docs/SEARCH.md): the
 * surrogate-pruning win record. The same budgeted pool is searched
 * twice under one seed — exhaustively (seed_evals >= pool, so every
 * member gets a functional evaluation) and with the ridge-surrogate
 * prune — and the harness records how many functional evaluations the
 * surrogate saved while reaching the same top-1 certified design.
 *
 * Shape checks (the reproduction criteria):
 *
 *   - the pruned search saves functional evals (> 0, and the saving
 *     matches pool - seed_evals - survivors accounting);
 *   - both searches certify the same top-1 design (equal id);
 *   - the frontier contains the paper's TAGE-L point or a candidate
 *     dominating it.
 *
 * COBRA_FAST=1 shrinks pool and tier budgets for CI smoke.
 */

#include <algorithm>
#include <cstdlib>
#include <filesystem>
#include <iostream>

#include "bench_util.hpp"
#include "search/driver.hpp"

using namespace cobra;

namespace {

/** Best certified candidate: accuracy desc, then area asc, then id. */
const search::Candidate*
top1(const search::SearchResult& r)
{
    const search::Candidate* best = nullptr;
    for (const search::Candidate& c : r.candidates) {
        if (!c.hasDetail)
            continue;
        if (best == nullptr ||
            c.detail.accuracy > best->detail.accuracy ||
            (c.detail.accuracy == best->detail.accuracy &&
             (c.areaUm2 < best->areaUm2 ||
              (c.areaUm2 == best->areaUm2 && c.id < best->id))))
            best = &c;
    }
    return best;
}

} // namespace

int
main()
{
    const bool fast = [] {
        const char* f = std::getenv("COBRA_FAST");
        return f != nullptr && f[0] == '1';
    }();

    prog::WorkloadCache cache;

    search::SearchConfig base;
    base.seed = 0xC0B7A;
    base.pool = fast ? 12 : 24;
    base.workloads = {"mcf"};
    base.functionalSurvivors = fast ? 6 : 10;
    base.warpSurvivors = fast ? 3 : 4;
    base.finalists = fast ? 1 : 2;
    base.traceBranches = fast ? 20'000 : 60'000;
    base.traceWarmup = fast ? 5'000 : 15'000;
    base.warpInsts = fast ? 60'000 : 200'000;
    base.warpIntervals = fast ? 2 : 4;
    base.detailInsts = fast ? 120'000 : 400'000;
    base.detailWarmup = fast ? 30'000 : 120'000;

    search::SearchConfig pruned = base;
    pruned.seedEvals = fast ? 6 : 10;

    search::SearchConfig exhaustive = base;
    exhaustive.seedEvals = base.pool; // Disables the surrogate.

    std::cout << "composition-search surrogate win: pool "
              << base.pool << ", seed 0x" << std::hex << base.seed
              << std::dec << ", workload mcf ("
              << (fast ? "FAST" : "full") << " scale)\n\n";

    const search::SearchResult ex =
        search::runSearch(exhaustive, cache);
    const search::SearchResult pr = search::runSearch(pruned, cache);

    TextTable t;
    t.addRow({"mode", "functional", "warp", "detailed", "saved",
              "top-1", "top-1 acc"});
    const search::Candidate* exTop = top1(ex);
    const search::Candidate* prTop = top1(pr);
    auto row = [&t](const char* mode, const search::SearchResult& r,
                    const search::Candidate* top) {
        t.addRow({mode, std::to_string(r.functionalEvals),
                  std::to_string(r.warpEvals),
                  std::to_string(r.detailedEvals),
                  std::to_string(r.evalsSaved),
                  top != nullptr ? top->id : "-",
                  top != nullptr
                      ? formatDouble(top->detail.accuracy, 4)
                      : "-"});
    };
    row("exhaustive", ex, exTop);
    row("surrogate", pr, prTop);
    t.print(std::cout);
    std::cout << "\n";

    bool ok = true;
    ok &= bench::shapeCheck(
        "surrogate prune saves functional evals",
        pr.evalsSaved > 0 && pr.surrogateUsed &&
            pr.functionalEvals < ex.functionalEvals);
    ok &= bench::shapeCheck(
        "exhaustive mode evaluates the whole pool",
        !ex.surrogateUsed &&
            ex.functionalEvals >=
                static_cast<unsigned>(ex.candidates.size()));
    ok &= bench::shapeCheck(
        "equal top-1 certified design",
        exTop != nullptr && prTop != nullptr &&
            exTop->id == prTop->id);
    const bool tagelOnFrontier = std::any_of(
        pr.frontier.begin(), pr.frontier.end(), [&pr](std::size_t i) {
            return pr.candidates[i].id == "preset-tagel";
        });
    const auto* tagel = [&pr]() -> const search::Candidate* {
        for (const search::Candidate& c : pr.candidates)
            if (c.id == "preset-tagel")
                return &c;
        return nullptr;
    }();
    const bool tagelDominated =
        tagel != nullptr && tagel->hasDetail &&
        std::any_of(pr.frontier.begin(), pr.frontier.end(),
                    [&pr, tagel](std::size_t i) {
                        const search::Candidate& c = pr.candidates[i];
                        return c.detail.accuracy >=
                                   tagel->detail.accuracy &&
                               c.areaUm2 <= tagel->areaUm2 &&
                               c.latency <= tagel->latency;
                    });
    ok &= bench::shapeCheck(
        "frontier contains TAGE-L or a dominator",
        tagelOnFrontier || tagelDominated);

    // Machine-readable win record (committed; see bench_results/README).
    {
        std::filesystem::create_directories("bench_results");
        JsonWriter j;
        j.object().field("bench", "bench_search").field("fast", fast);
        j.field("seed", base.seed).field("pool", base.pool);
        j.field("exhaustive_functional_evals", ex.functionalEvals);
        j.field("pruned_functional_evals", pr.functionalEvals);
        j.field("evals_saved", pr.evalsSaved);
        j.field("surrogate_rmse", pr.surrogateRmse);
        j.field("top1", prTop != nullptr ? prTop->id : "");
        j.field("top1_matches_exhaustive", exTop != nullptr &&
                                               prTop != nullptr &&
                                               exTop->id == prTop->id);
        j.field("frontier_size", pr.frontier.size()).end();
        writeJsonFile("bench_results/bench_search.json", j);
    }

    std::cout << (ok ? "\nSHAPE PASS\n" : "\nSHAPE FAIL\n");
    return ok ? 0 : 1;
}
