/**
 * @file
 * Tick-by-tick reference for the simulator's run loops. run(),
 * runInterval() and advanceTo() jump over quiescent cycles (cycles in
 * which every unit would change nothing but stall counters) and credit
 * those counters in bulk. This suite drives a second, identically
 * configured simulator one tickOnce() at a time to the same stop
 * conditions and requires the same final cycle, the same committed
 * counts and every stat-registry counter and histogram equal, so a
 * skip that lands one cycle late, misses a wake-up or credits the
 * wrong stall counter fails here.
 */

#include <algorithm>
#include <cstdint>
#include <iterator>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "components/bim.hpp"
#include "components/btb.hpp"
#include "program/workload.hpp"
#include "sim/presets.hpp"
#include "sim/simulator.hpp"

using namespace cobra;

namespace {

prog::WorkloadCache&
cache()
{
    static prog::WorkloadCache c;
    return c;
}

/**
 * The run-loop state machine of sim::Simulator, driven from outside
 * through tickOnce() only: no cycle is ever skipped.
 */
class Ticker
{
  public:
    explicit Ticker(sim::Simulator& s) : s_(s) { markProgress(); }

    /** run(): true when the watchdog fired. */
    bool
    run()
    {
        const sim::SimConfig& cfg = s_.config();
        if (tickWhile([&] { return committed() < cfg.warmupInsts; },
                      cfg.maxCycles))
            return true;
        return tickWhile(
            [&] { return committed() < cfg.warmupInsts + cfg.maxInsts; },
            cfg.maxCycles);
    }

    /** runInterval(): true when the watchdog fired. */
    bool
    runInterval(std::uint64_t warmup_cycles, std::uint64_t measure_insts)
    {
        const sim::SimConfig& cfg = s_.config();
        markProgress();
        const Cycle warmupEnd = s_.cycles() + warmup_cycles;
        if (tickWhile([] { return true; },
                      std::min<Cycle>(warmupEnd, cfg.maxCycles)))
            return true;
        const std::uint64_t target = committed() + measure_insts;
        return tickWhile([&] { return committed() < target; },
                         cfg.maxCycles);
    }

    /** advanceTo(): true while the run has work left. */
    bool
    advanceTo(Cycle stop)
    {
        const sim::SimConfig& cfg = s_.config();
        const Cycle limit = std::min<Cycle>(cfg.maxCycles, stop);
        const std::uint64_t target = cfg.warmupInsts + cfg.maxInsts;
        if (tickWhile([&] { return committed() < cfg.warmupInsts; },
                      limit))
            return false;
        if (committed() < cfg.warmupInsts && s_.cycles() < cfg.maxCycles)
            return true; // Paused inside the warmup.
        if (tickWhile([&] { return committed() < target; }, limit))
            return false;
        return committed() < target && s_.cycles() < cfg.maxCycles;
    }

    /** Cycles since the last commit, as the post-mortem reports it. */
    std::uint64_t
    sinceProgress() const
    {
        return s_.cycles() - lastProgressCycle_;
    }

  private:
    std::uint64_t committed() const
    {
        return s_.backend().committedInsts();
    }

    void
    markProgress()
    {
        lastProgress_ = committed();
        lastProgressCycle_ = s_.cycles();
    }

    /** The watchdog, checked after every tick. */
    bool
    stalled()
    {
        if (committed() != lastProgress_) {
            markProgress();
            return false;
        }
        return sinceProgress() > s_.config().deadlockCycles;
    }

    /** Tick while @p keep_going() and cycles() < @p limit; true when
     *  the watchdog fired. */
    template <typename F>
    bool
    tickWhile(F keep_going, Cycle limit)
    {
        while (keep_going() && s_.cycles() < limit) {
            s_.tickOnce();
            if (stalled())
                return true;
        }
        return false;
    }

    sim::Simulator& s_;
    std::uint64_t lastProgress_ = 0;
    Cycle lastProgressCycle_ = 0;
};

/** Same cycle, committed counts, and every registered stat. */
void
expectSameState(sim::Simulator& fast, sim::Simulator& ref)
{
    ASSERT_EQ(fast.cycles(), ref.cycles());
    const core::Backend& a = fast.backend();
    const core::Backend& b = ref.backend();
    EXPECT_EQ(a.committedInsts(), b.committedInsts());
    EXPECT_EQ(a.committedBranches(), b.committedBranches());
    EXPECT_EQ(a.committedCfis(), b.committedCfis());
    EXPECT_EQ(a.condMispredicts(), b.condMispredicts());
    EXPECT_EQ(a.jalrMispredicts(), b.jalrMispredicts());

    const auto& na = fast.statRegistry().nodes();
    const auto& nb = ref.statRegistry().nodes();
    ASSERT_EQ(na.size(), nb.size());
    for (std::size_t g = 0; g < na.size(); ++g) {
        ASSERT_EQ(na[g].path, nb[g].path);
        const auto& ea = na[g].group->entries();
        const auto& eb = nb[g].group->entries();
        ASSERT_EQ(ea.size(), eb.size());
        for (std::size_t i = 0; i < ea.size(); ++i) {
            const std::string name = na[g].path + "." + ea[i].name;
            if (ea[i].counter != nullptr) {
                EXPECT_EQ(ea[i].counter->value(), eb[i].counter->value())
                    << name;
                continue;
            }
            const Histogram& ha = *ea[i].histogram;
            const Histogram& hb = *eb[i].histogram;
            EXPECT_EQ(ha.samples(), hb.samples()) << name;
            EXPECT_EQ(ha.sum(), hb.sum()) << name;
            for (std::size_t k = 0; k < ha.numBuckets(); ++k)
                EXPECT_EQ(ha.bucket(k), hb.bucket(k)) << name << "[" << k
                                                      << "]";
        }
    }
}

enum class Variant
{
    Default,
    Sfb,
    GhistNone,
    Serialize,
};

struct TickCase
{
    const char* name;
    sim::Design design;
    const char* workload;
    Variant variant;
};

sim::SimConfig
configFor(const TickCase& c)
{
    sim::SimConfig cfg = sim::makeConfig(c.design);
    cfg.warmupInsts = 2000;
    cfg.maxInsts = 10000;
    switch (c.variant) {
      case Variant::Default:
        break;
      case Variant::Sfb:
        cfg.backend.sfbEnabled = true;
        break;
      case Variant::GhistNone:
        cfg.frontend.ghistMode = bpu::GhistRepairMode::None;
        cfg.backend.ghistMode = bpu::GhistRepairMode::None;
        break;
      case Variant::Serialize:
        cfg.frontend.serializeFetch = true;
        break;
    }
    return cfg;
}

std::vector<TickCase>
allCases()
{
    struct Tuple
    {
        const char* name;
        sim::Design design;
        const char* workload;
    };
    const Tuple tuples[] = {
        {"TageL_leela", sim::Design::TageL, "leela"},
        {"Tourney_x264", sim::Design::Tourney, "x264"},
        {"B2_gcc", sim::Design::B2, "gcc"},
        {"RefBig_mcf", sim::Design::RefBig, "mcf"},
    };
    struct Flavour
    {
        const char* suffix;
        Variant variant;
    };
    const Flavour flavours[] = {
        {"default", Variant::Default},
        {"sfb", Variant::Sfb},
        {"ghist_none", Variant::GhistNone},
        {"serialize", Variant::Serialize},
    };
    // Names live as long as the test binary (gtest keeps the params).
    static std::vector<std::string> names;
    names.reserve(std::size(tuples) * std::size(flavours));
    std::vector<TickCase> out;
    for (const Tuple& t : tuples) {
        for (const Flavour& f : flavours) {
            names.push_back(std::string(t.name) + "_" + f.suffix);
            out.push_back({names.back().c_str(), t.design, t.workload,
                           f.variant});
        }
    }
    return out;
}

class TickReference : public ::testing::TestWithParam<TickCase>
{
  protected:
    sim::Simulator
    make() const
    {
        const TickCase& c = GetParam();
        return sim::Simulator(cache().get(c.workload),
                              sim::buildTopology(c.design), configFor(c));
    }
};

void
PrintTo(const TickCase& c, std::ostream* os)
{
    *os << c.name;
}

} // namespace

TEST_P(TickReference, RunMatchesTicking)
{
    sim::Simulator fast = make();
    sim::Simulator ref = make();
    const sim::SimResult r = fast.run();
    const bool refDeadlocked = Ticker(ref).run();
    EXPECT_EQ(r.deadlocked, refDeadlocked);
    EXPECT_GT(r.insts, 0u);
    expectSameState(fast, ref);
}

TEST_P(TickReference, RunIntervalMatchesTicking)
{
    sim::Simulator fast = make();
    sim::Simulator ref = make();
    const sim::SimResult r = fast.runInterval(3000, 6000);
    const bool refDeadlocked = Ticker(ref).runInterval(3000, 6000);
    EXPECT_EQ(r.deadlocked, refDeadlocked);
    EXPECT_GT(r.insts, 0u);
    expectSameState(fast, ref);
}

TEST_P(TickReference, AdvanceToEvery97CyclesMatchesTicking)
{
    // 97 is prime and unrelated to every latency in the model, so the
    // stops land inside quiescent stretches as well as between them.
    sim::Simulator fast = make();
    sim::Simulator ref = make();
    Ticker ticker(ref);
    bool more = true;
    while (more) {
        const Cycle stop = fast.cycles() + 97;
        more = fast.advanceTo(stop);
        ASSERT_EQ(ticker.advanceTo(stop), more) << "stop " << stop;
        expectSameState(fast, ref);
        if (::testing::Test::HasFailure())
            return;
    }
    EXPECT_FALSE(fast.finishRun().deadlocked);
}

INSTANTIATE_TEST_SUITE_P(
    Matrix, TickReference, ::testing::ValuesIn(allCases()),
    [](const ::testing::TestParamInfo<TickCase>& info) {
        return std::string(info.param.name);
    });

TEST(TickReferenceEdge, WatchdogFiresInsideAQuiescentStretch)
{
    // Cold caches: the first fetch misses to memory, which takes far
    // longer than 40 cycles, so the watchdog trips while every unit
    // sits idle waiting for the icache.
    sim::SimConfig cfg = sim::makeConfig(sim::Design::TageL);
    cfg.warmupInsts = 0;
    cfg.maxInsts = 5000;
    cfg.deadlockCycles = 40;
    const prog::Program& p = cache().get("mcf");
    sim::Simulator fast(p, sim::buildTopology(sim::Design::TageL), cfg);
    sim::Simulator ref(p, sim::buildTopology(sim::Design::TageL), cfg);
    const sim::SimResult r = fast.run();
    Ticker ticker(ref);
    ASSERT_TRUE(ticker.run());
    ASSERT_TRUE(r.deadlocked);
    EXPECT_EQ(r.postMortem.cycle, ref.cycles());
    EXPECT_EQ(r.postMortem.noProgressCycles, ticker.sinceProgress());
    EXPECT_EQ(r.postMortem.noProgressCycles, cfg.deadlockCycles + 1);
    expectSameState(fast, ref);
}

TEST(TickReferenceEdge, LatencyOneTopologyFinalizesAfterCapture)
{
    // Deepest latency 1: a packet's stage-1 fold is also its final
    // fold. It captures histories at the end of Fetch-1 and finalizes
    // no earlier than the next cycle, so a packet takes at least two
    // cycles and the fetch rate is at most one packet per two cycles.
    auto topo = [] {
        bpu::Topology t;
        comps::BtbParams btb;
        btb.latency = 1;
        comps::HbimParams bim;
        bim.latency = 1; // History-indexed tables need latency >= 2.
        auto* b = t.make<comps::Btb>("BTB1", btb);
        auto* h = t.make<comps::Hbim>("BIM1", bim);
        t.setRoot(t.chainOf({b, h}));
        return t;
    };
    sim::SimConfig cfg;
    cfg.warmupInsts = 1000;
    cfg.maxInsts = 8000;
    const prog::Program& p = cache().get("gcc");
    sim::Simulator fast(p, topo(), cfg);
    sim::Simulator ref(p, topo(), cfg);
    ASSERT_EQ(fast.bpu().maxLatency(), 1u);
    const sim::SimResult r = fast.run();
    ASSERT_FALSE(Ticker(ref).run());
    ASSERT_FALSE(r.deadlocked);
    expectSameState(fast, ref);

    const std::uint64_t finalized =
        fast.statRegistry().get("frontend", "packets_finalized");
    EXPECT_GT(finalized, 0u);
    EXPECT_LE(2 * finalized, fast.cycles() + 1);
}
