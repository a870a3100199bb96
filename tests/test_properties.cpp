/**
 * @file
 * Property-style parameterized suites: invariants swept across
 * designs, behaviour classes, counter widths, and index modes.
 */

#include <gtest/gtest.h>

#include "common/sat_counter.hpp"
#include "components/bim.hpp"
#include "program/workload.hpp"
#include "sim/presets.hpp"
#include "sim/simulator.hpp"
#include "test_util.hpp"

namespace cobra {
namespace {

// ---------------------------------------------------------------------
// Saturating counters: invariants over all widths.
// ---------------------------------------------------------------------

class SatCounterWidth : public ::testing::TestWithParam<unsigned>
{
};

TEST_P(SatCounterWidth, NeverLeavesRange)
{
    const unsigned w = GetParam();
    SatCounter c(w, 0);
    Rng rng(w);
    for (int i = 0; i < 2000; ++i) {
        c.train(rng.chance(0.5));
        ASSERT_LE(c.value(), c.maxValue());
    }
}

TEST_P(SatCounterWidth, ConvergesToBias)
{
    const unsigned w = GetParam();
    SatCounter c(w, 0);
    for (int i = 0; i < 200; ++i)
        c.train(true);
    EXPECT_TRUE(c.taken());
    for (int i = 0; i < 400; ++i)
        c.train(false);
    EXPECT_FALSE(c.taken());
}

INSTANTIATE_TEST_SUITE_P(Widths, SatCounterWidth,
                         ::testing::Values(1u, 2u, 3u, 4u, 6u, 8u));

// ---------------------------------------------------------------------
// HBIM index modes: each mode must learn what it is built for.
// ---------------------------------------------------------------------

struct IndexModeCase
{
    comps::IndexMode mode;
    const char* name;
};

/**
 * gtest prints a parameter by its mode name. Its default byte dump
 * would show the pointer and the padding bytes, which change from run
 * to run and so would change the discovered ctest names.
 */
void
PrintTo(const IndexModeCase& c, std::ostream* os)
{
    *os << c.name;
}

class HbimModes : public ::testing::TestWithParam<IndexModeCase>
{
};

TEST_P(HbimModes, LearnsStaticBias)
{
    comps::HbimParams p;
    p.sets = 128;
    p.mode = GetParam().mode;
    p.histBits = 6;
    p.latency = 2;
    p.fetchWidth = 4;
    comps::Hbim bim(GetParam().name, p);
    test::SingleBranchDriver drv(bim, 0x4000, 0);
    std::vector<bool> always(1500, true);
    EXPECT_GT(drv.accuracy(always), 0.98) << GetParam().name;
}

TEST_P(HbimModes, MetadataWithinDeclaredBits)
{
    comps::HbimParams p;
    p.sets = 128;
    p.mode = GetParam().mode;
    p.latency = 2;
    p.fetchWidth = 4;
    comps::Hbim bim(GetParam().name, p);
    HistoryRegister gh(64);
    bpu::PredictContext ctx;
    ctx.pc = 0x4000;
    ctx.validSlots = 4;
    ctx.ghist = &gh;
    bpu::PredictionBundle b;
    b.width = 4;
    bpu::Metadata meta{};
    bim.predict(ctx, b, meta);
    EXPECT_EQ(meta[0] & ~maskBits(bim.metaBits()), 0u)
        << "metadata must fit the declared bit budget";
}

INSTANTIATE_TEST_SUITE_P(
    Modes, HbimModes,
    ::testing::Values(
        IndexModeCase{comps::IndexMode::Pc, "pc"},
        IndexModeCase{comps::IndexMode::GlobalHist, "ghist"},
        IndexModeCase{comps::IndexMode::LocalHist, "lhist"},
        IndexModeCase{comps::IndexMode::GshareHash, "gshare"},
        IndexModeCase{comps::IndexMode::LshareHash, "lshare"}),
    [](const auto& info) { return std::string(info.param.name); });

// ---------------------------------------------------------------------
// End-to-end behaviour classes x designs: every design must beat a
// baseline on learnable behaviours, and the full system must stay
// deadlock-free.
// ---------------------------------------------------------------------

struct BehaviorCase
{
    const char* name;
    prog::BranchBehavior behavior;
    double minAccuracy; ///< Weakest design must reach this.
};

BehaviorCase
makeCase(const char* name, prog::BranchBehavior::Kind kind, double minAcc)
{
    BehaviorCase c;
    c.name = name;
    c.behavior.kind = kind;
    c.behavior.seed = 0xCAFE;
    c.minAccuracy = minAcc;
    switch (kind) {
      case prog::BranchBehavior::Kind::Biased:
        c.behavior.pTaken = 0.05;
        break;
      case prog::BranchBehavior::Kind::Loop:
        c.behavior.trip = 6;
        break;
      case prog::BranchBehavior::Kind::Periodic:
        c.behavior.pattern = 0b0011;
        c.behavior.patternLen = 4;
        break;
      case prog::BranchBehavior::Kind::GlobalCorrelated:
        c.behavior.depth = 5;
        c.behavior.noise = 0.0;
        break;
      case prog::BranchBehavior::Kind::LocalCorrelated:
        c.behavior.depth = 5;
        c.behavior.noise = 0.0;
        break;
    }
    return c;
}

using DesignBehavior = std::tuple<sim::Design, int>;

class DesignsLearnBehaviors
    : public ::testing::TestWithParam<DesignBehavior>
{
  public:
    static std::vector<BehaviorCase>
    cases()
    {
        using K = prog::BranchBehavior::Kind;
        return {
            makeCase("biased", K::Biased, 0.90),
            makeCase("loop", K::Loop, 0.90),
            makeCase("periodic", K::Periodic, 0.90),
            makeCase("gcorr", K::GlobalCorrelated, 0.90),
            makeCase("lcorr", K::LocalCorrelated, 0.80),
        };
    }
};

TEST_P(DesignsLearnBehaviors, AccuracyAboveFloor)
{
    const auto [design, caseIdx] = GetParam();
    const BehaviorCase c = cases()[static_cast<std::size_t>(caseIdx)];
    const prog::Program p = test::singleBranchProgram(c.behavior);
    sim::SimConfig cfg = sim::makeConfig(design);
    cfg.maxInsts = 40'000;
    cfg.warmupInsts = 40'000;
    sim::Simulator s(p, sim::buildTopology(design), cfg);
    const auto r = s.run();
    EXPECT_FALSE(r.deadlocked);
    EXPECT_GT(r.accuracy(), c.minAccuracy)
        << sim::designName(design) << " on " << c.name;
}

INSTANTIATE_TEST_SUITE_P(
    Sweep, DesignsLearnBehaviors,
    ::testing::Combine(::testing::Values(sim::Design::Tourney,
                                         sim::Design::B2,
                                         sim::Design::TageL),
                       ::testing::Range(0, 5)),
    [](const auto& info) {
        // Note: no commas outside parens inside this lambda — the
        // INSTANTIATE macro would split on them.
        const sim::Design d = std::get<0>(info.param);
        const int i = std::get<1>(info.param);
        std::string name = std::string(sim::designName(d)) + "_" +
                           DesignsLearnBehaviors::cases()
                               [static_cast<std::size_t>(i)].name;
        // gtest parameter names must be alphanumeric.
        std::erase_if(name, [](char c) { return !isalnum(c) && c != '_'; });
        return name;
    });

// ---------------------------------------------------------------------
// Workload-level properties across the full SPEC-proxy set.
// ---------------------------------------------------------------------

class WorkloadSweep : public ::testing::TestWithParam<std::string>
{
};

TEST_P(WorkloadSweep, TageLNeverWorseThanBackingBim)
{
    // The composed TAGE-L pipeline must never do materially worse
    // than its own backing bimodal table alone: the topology only
    // *adds* more powerful predictions on top.
    const prog::Program p = prog::buildWorkload(
        prog::WorkloadLibrary::profile(GetParam()));
    sim::SimConfig cfg = sim::makeConfig(sim::Design::TageL);
    cfg.maxInsts = 20'000;
    cfg.warmupInsts = 8'000;

    sim::Simulator full(p, sim::buildTopology(sim::Design::TageL),
                        cfg);
    const auto rFull = full.run();

    bpu::Topology bimOnly;
    comps::HbimParams ip;
    ip.sets = 4096;
    ip.mode = comps::IndexMode::Pc;
    ip.latency = 2;
    ip.fetchWidth = 4;
    bimOnly.setRoot(
        bimOnly.leaf(bimOnly.make<comps::Hbim>("BIM", ip)));
    sim::Simulator base(p, std::move(bimOnly), cfg);
    const auto rBase = base.run();

    EXPECT_GT(rFull.accuracy(), rBase.accuracy() - 0.02)
        << GetParam();
}

INSTANTIATE_TEST_SUITE_P(
    Spec, WorkloadSweep,
    ::testing::Values("perlbench", "gcc", "mcf", "omnetpp",
                      "xalancbmk", "x264", "deepsjeng", "leela",
                      "exchange2", "xz"),
    [](const auto& info) { return info.param; });

} // namespace
} // namespace cobra
