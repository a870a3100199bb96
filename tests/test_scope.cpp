/**
 * @file
 * CobraScope tests: the stat registry (hierarchy, JSON rendering,
 * duplicate rejection), the pipeline event tracer (sampling window,
 * per-kind counts, Chrome trace rendering), the SimResult field
 * enumeration, and the end-to-end properties the observability layer
 * promises — stats/trace output is byte-identical across --jobs,
 * tracing never perturbs simulation results, and trace record counts
 * reconcile exactly with the aggregate counters.
 */

#include <fstream>
#include <sstream>
#include <string>
#include <type_traits>
#include <vector>

#include <gtest/gtest.h>

#include "common/json.hpp"
#include "guard/errors.hpp"
#include "program/workload.hpp"
#include "scope/stat_registry.hpp"
#include "scope/tracer.hpp"
#include "sim/presets.hpp"
#include "sim/simulator.hpp"
#include "sim/sweep.hpp"

using namespace cobra;

namespace {

prog::WorkloadCache&
cache()
{
    static prog::WorkloadCache c;
    return c;
}

sim::SimConfig
smallConfig(sim::Design d)
{
    sim::SimConfig cfg = sim::makeConfig(d);
    cfg.warmupInsts = 500;
    cfg.maxInsts = 3000;
    return cfg;
}

/**
 * String- and escape-aware structural check: every JSON document we
 * emit must balance its braces/brackets outside string literals and
 * close every string. (CI additionally validates against the schema
 * with a real parser; this keeps the invariant in the unit suite.)
 */
bool
jsonBalanced(const std::string& doc)
{
    std::vector<char> stack;
    bool inString = false;
    for (std::size_t i = 0; i < doc.size(); ++i) {
        const char c = doc[i];
        if (inString) {
            if (c == '\\')
                ++i; // skip the escaped character
            else if (c == '"')
                inString = false;
            continue;
        }
        switch (c) {
          case '"': inString = true; break;
          case '{': stack.push_back('}'); break;
          case '[': stack.push_back(']'); break;
          case '}':
          case ']':
            if (stack.empty() || stack.back() != c)
                return false;
            stack.pop_back();
            break;
          default: break;
        }
    }
    return !inString && stack.empty();
}

} // namespace

// ---- StatRegistry --------------------------------------------------------

TEST(StatRegistry, RegistersAndReadsGroups)
{
    StatGroup g("frontend");
    Stat<Counter> c{g, "fetches", "packets fetched"};
    c += 7;

    scope::StatRegistry reg;
    reg.add(g);
    reg.add("caches.l1i", g); // same group, second path is fine
    ASSERT_EQ(reg.nodes().size(), 2u);
    EXPECT_EQ(reg.find("frontend"), &g);
    EXPECT_EQ(reg.find("caches.l1i"), &g);
    EXPECT_EQ(reg.find("nope"), nullptr);
    EXPECT_EQ(reg.get("frontend", "fetches"), 7u);
    EXPECT_EQ(reg.get("frontend", "missing"), 0u);
    EXPECT_EQ(reg.get("missing", "fetches"), 0u);

    std::ostringstream oss;
    reg.dump(oss);
    EXPECT_NE(oss.str().find("caches.l1i.fetches = 7"),
              std::string::npos);
}

TEST(StatRegistry, RejectsDuplicateAndEmptyPaths)
{
    StatGroup g("grp");
    scope::StatRegistry reg;
    reg.add(g);
    EXPECT_THROW(reg.add(g), std::invalid_argument);
    EXPECT_THROW(reg.add("", g), std::invalid_argument);
}

TEST(StatRegistry, RendersNestedJson)
{
    StatGroup top("top");
    Stat<Counter> a{top, "a", "a counter"};
    ++a;
    StatGroup leaf("leaf");
    Stat<Counter> b{leaf, "b", "another counter"};
    Stat<Histogram> h{leaf, "h", "a histogram", 4};
    h.sample(1);
    h.sample(3);

    scope::StatRegistry reg;
    reg.add(top);
    reg.add("nest.leaf", leaf);

    JsonWriter w;
    w.object();
    reg.writeJson(w);
    const std::string doc = w.end().str();
    EXPECT_TRUE(jsonBalanced(doc)) << doc;
    EXPECT_NE(doc.find("\"top\": {"), std::string::npos);
    EXPECT_NE(doc.find("\"a\": 1"), std::string::npos);
    EXPECT_NE(doc.find("\"nest\": {"), std::string::npos);
    EXPECT_NE(doc.find("\"leaf\": {"), std::string::npos);
    EXPECT_NE(doc.find("\"histograms\": {"), std::string::npos);
    EXPECT_NE(doc.find("\"samples\": 2"), std::string::npos);
    EXPECT_NE(doc.find("\"buckets\": [0, 1, 0, 1]"),
              std::string::npos);
}

// ---- Tracer --------------------------------------------------------------

TEST(Tracer, SamplingWindowGatesRecords)
{
    scope::Tracer t(scope::TraceWindow{10, 5});
    EXPECT_FALSE(t.active());
    t.record(scope::TraceKind::Predict, 0x100, 0); // before setCycle
    t.setCycle(9);
    t.record(scope::TraceKind::Predict, 0x100, 0);
    EXPECT_EQ(t.totalRecords(), 0u);
    t.setCycle(10);
    EXPECT_TRUE(t.active());
    t.record(scope::TraceKind::Predict, 0x100, 1);
    t.setCycle(14);
    t.record(scope::TraceKind::Commit, 0x104, 1);
    t.setCycle(15);
    EXPECT_FALSE(t.active());
    t.record(scope::TraceKind::Commit, 0x108, 2);
    EXPECT_EQ(t.totalRecords(), 2u);
    EXPECT_EQ(t.count(scope::TraceKind::Predict), 1u);
    EXPECT_EQ(t.count(scope::TraceKind::Commit), 1u);
    EXPECT_EQ(t.count(scope::TraceKind::Mispredict), 0u);
}

TEST(Tracer, ComponentNamesWithFallback)
{
    scope::Tracer t;
    EXPECT_EQ(t.componentName(scope::kNoComponent), "-");
    EXPECT_EQ(t.componentName(0), "-");
    t.setComponentNames({"TAGE", "BIM"});
    EXPECT_EQ(t.componentName(0), "TAGE");
    EXPECT_EQ(t.componentName(1), "BIM");
    EXPECT_EQ(t.componentName(2), "-");
}

TEST(Tracer, WritesChromeTraceFragments)
{
    scope::Tracer t;
    t.setComponentNames({"TAGE"});
    t.setCycle(42);
    t.record(scope::TraceKind::Mispredict, 0x1a2b, 7, 0, 3, true);
    t.record(scope::TraceKind::Commit, 0x1a2c, 7);

    JsonWriter w;
    t.writeChromeTrace(w, 3, "tagel/leela");
    const std::string frag = w.str();
    // Fragment contract: the members of an open array, one event per
    // line, so the file writer can splice fragments point by point.
    // Process + six thread names + two records.
    EXPECT_EQ(Json::parse("[" + frag + "]").asArray().size(), 9u);
    EXPECT_NE(frag.find("\"process_name\""), std::string::npos);
    EXPECT_NE(frag.find("\"tagel/leela\""), std::string::npos);
    EXPECT_NE(frag.find("\"pid\": 3"), std::string::npos);
    EXPECT_NE(frag.find("\"ts\": 42"), std::string::npos);
    EXPECT_NE(frag.find("\"name\": \"mispredict\""),
              std::string::npos);
    EXPECT_NE(frag.find("\"pc\": \"0x1a2b\""), std::string::npos);
    EXPECT_NE(frag.find("\"comp\": \"TAGE\""), std::string::npos);
    // Commit carries no attribution, so no comp key on that line.
    EXPECT_TRUE(jsonBalanced("[" + frag + "]"));
}

// ---- SimResult field enumeration -----------------------------------------

TEST(SimResult, EveryEnumeratedFieldDrivesEquality)
{
    sim::SimResult base;
    std::size_t n = 0;
    base.forEachField([&](const char*, const auto&) { ++n; });
    EXPECT_GE(n, 14u);

    for (std::size_t target = 0; target < n; ++target) {
        sim::SimResult m = base;
        std::size_t i = 0;
        m.forEachField([&](const char*, auto& v) {
            if (i++ != target)
                return;
            using T = std::decay_t<decltype(v)>;
            if constexpr (std::is_same_v<T, bool>)
                v = !v;
            else if constexpr (std::is_same_v<T, std::string>)
                v += "x";
            else
                v += 1;
        });
        EXPECT_FALSE(m == base) << "field " << target
                                << " is not compared";
        const auto diff = sim::diffFields(m, base);
        ASSERT_EQ(diff.size(), 1u);
    }
    EXPECT_TRUE(sim::diffFields(base, base).empty());
}

// ---- OutputConfig validation ---------------------------------------------

TEST(OutputConfig, RejectsWindowWithoutTraceFile)
{
    sim::OutputConfig out;
    out.traceStartCycle = 100;
    EXPECT_THROW(out.validate(), guard::ConfigError);
    out.traceStartCycle = 0;
    out.traceCycles = 100;
    EXPECT_THROW(out.validate(), guard::ConfigError);
    out.traceEventsPath = "t.json";
    EXPECT_NO_THROW(out.validate());
}

TEST(OutputConfig, RejectsCollidingOutputPaths)
{
    sim::OutputConfig out;
    out.resultsJsonPath = "same.json";
    out.statsJsonPath = "same.json";
    EXPECT_THROW(out.validate(), guard::ConfigError);
    out.statsJsonPath = "other.json";
    EXPECT_NO_THROW(out.validate());
    out.traceEventsPath = "other.json";
    EXPECT_THROW(out.validate(), guard::ConfigError);
}

// ---- Simulator wiring ----------------------------------------------------

TEST(SimulatorScope, RegistryCoversTheWholeTree)
{
    const prog::Program& p = cache().get("dhrystone");
    sim::Simulator s(p, sim::buildTopology(sim::Design::TageL),
                     smallConfig(sim::Design::TageL));
    s.run();

    const scope::StatRegistry& reg = s.statRegistry();
    for (const char* path :
         {"frontend", "backend", "bpu", "caches.l1i", "caches.l1d",
          "caches.l2", "caches.l3", "guard"}) {
        EXPECT_NE(reg.find(path), nullptr) << path;
    }
    std::size_t compGroups = 0;
    std::uint64_t dirProvided = 0;
    for (const auto& n : reg.nodes()) {
        if (n.path.rfind("bpu.comp.", 0) == 0) {
            ++compGroups;
            dirProvided += reg.get(n.path, "dir_provided");
        }
    }
    EXPECT_GT(compGroups, 1u);
    EXPECT_GT(dirProvided, 0u)
        << "composer attribution never credited a provider";
    EXPECT_GT(reg.get("frontend", "packets_finalized"), 0u);
    EXPECT_GT(reg.get("backend", "committed"), 0u);
    EXPECT_GT(reg.get("caches.l1i", "accesses"), 0u);
}

TEST(SimulatorScope, ProviderCorrectnessIsCredited)
{
    const prog::Program& p = cache().get("leela");
    sim::Simulator s(p, sim::buildTopology(sim::Design::TageL),
                     smallConfig(sim::Design::TageL));
    s.run();

    std::uint64_t credited = 0;
    for (const auto& n : s.statRegistry().nodes()) {
        if (n.path.rfind("bpu.comp.", 0) == 0) {
            credited += s.statRegistry().get(n.path, "provider_correct");
            credited += s.statRegistry().get(n.path, "provider_wrong");
        }
    }
    EXPECT_GT(credited, 0u);
}

TEST(SimulatorScope, TracingDoesNotPerturbResults)
{
    const prog::Program& p = cache().get("dhrystone");
    const sim::SimConfig plain = smallConfig(sim::Design::B2);
    sim::SimConfig traced = plain;
    traced.output.traceEventsPath = "unused-path.json";

    sim::Simulator off(p, sim::buildTopology(sim::Design::B2), plain);
    sim::Simulator on(p, sim::buildTopology(sim::Design::B2), traced);
    const sim::SimResult a = off.run();
    const sim::SimResult b = on.run();
    EXPECT_EQ(off.tracer(), nullptr);
    ASSERT_NE(on.tracer(), nullptr);
    EXPECT_TRUE(a == b) << "tracing changed the simulation";
    EXPECT_GT(on.tracer()->totalRecords(), 0u);
}

TEST(SimulatorScope, TraceCountsReconcileWithAggregates)
{
    // warmup = 0 makes the measured-region deltas equal the full-run
    // counters the tracer sees, so the counts must match exactly.
    const prog::Program& p = cache().get("leela");
    sim::SimConfig cfg = smallConfig(sim::Design::TageL);
    cfg.warmupInsts = 0;
    cfg.output.traceEventsPath = "unused-path.json";

    sim::Simulator s(p, sim::buildTopology(sim::Design::TageL), cfg);
    const sim::SimResult r = s.run();
    ASSERT_NE(s.tracer(), nullptr);
    const scope::Tracer& t = *s.tracer();
    const scope::StatRegistry& reg = s.statRegistry();

    EXPECT_EQ(t.count(scope::TraceKind::Predict),
              reg.get("frontend", "packets_finalized"));
    EXPECT_EQ(t.count(scope::TraceKind::Fire),
              reg.get("bpu", "finalized"));
    EXPECT_EQ(t.count(scope::TraceKind::Mispredict),
              reg.get("bpu", "mispredicts"));
    EXPECT_EQ(t.count(scope::TraceKind::Repair),
              reg.get("bpu", "repair_events"));
    EXPECT_EQ(t.count(scope::TraceKind::Replay), r.ghistReplays);
    EXPECT_EQ(t.count(scope::TraceKind::Commit), r.cfis);
    EXPECT_GT(t.count(scope::TraceKind::Commit), 0u);
}

TEST(SimulatorScope, TraceWindowBoundsTheBuffer)
{
    const prog::Program& p = cache().get("dhrystone");
    sim::SimConfig cfg = smallConfig(sim::Design::B2);
    cfg.output.traceEventsPath = "unused-path.json";
    sim::Simulator whole(p, sim::buildTopology(sim::Design::B2), cfg);
    whole.run();

    cfg.output.traceStartCycle = 100;
    cfg.output.traceCycles = 200;
    sim::Simulator windowed(p, sim::buildTopology(sim::Design::B2),
                            cfg);
    windowed.run();

    ASSERT_NE(whole.tracer(), nullptr);
    ASSERT_NE(windowed.tracer(), nullptr);
    EXPECT_LT(windowed.tracer()->totalRecords(),
              whole.tracer()->totalRecords());
    for (const auto& rec : windowed.tracer()->records()) {
        EXPECT_GE(rec.cycle, 100u);
        EXPECT_LT(rec.cycle, 300u);
    }
}

// ---- Sweep integration ---------------------------------------------------

namespace {

std::vector<sim::SweepOutcome>
runScopedGrid(unsigned jobs)
{
    const sim::Design designs[] = {sim::Design::B2, sim::Design::TageL};
    const char* wls[] = {"dhrystone", "leela"};
    sim::SweepEngine engine(jobs);
    for (sim::Design d : designs) {
        for (const char* wl : wls) {
            sim::SweepPoint p =
                sim::SweepPoint::preset(d, cache().get(wl));
            p.cfg.warmupInsts = 500;
            p.cfg.maxInsts = 3000;
            // The paths only arm the renderers here; files are written
            // by the write* helpers, which these tests call directly.
            p.cfg.output.statsJsonPath = "stats.json";
            p.cfg.output.traceEventsPath = "trace.json";
            engine.add(std::move(p));
        }
    }
    return engine.run();
}

} // namespace

TEST(SweepScope, StatsAndTraceAreIdenticalAcrossJobs)
{
    const auto serial = runScopedGrid(1);
    const auto parallel = runScopedGrid(4);
    ASSERT_EQ(serial.size(), 4u);
    ASSERT_EQ(parallel.size(), serial.size());
    for (std::size_t i = 0; i < serial.size(); ++i) {
        ASSERT_TRUE(serial[i].ok()) << serial[i].error;
        EXPECT_FALSE(serial[i].statsJson.empty());
        EXPECT_FALSE(serial[i].traceEvents.empty());
        EXPECT_EQ(serial[i].statsJson, parallel[i].statsJson)
            << "stats for " << serial[i].label
            << " diverged between --jobs 1 and --jobs 4";
        EXPECT_EQ(serial[i].traceEvents, parallel[i].traceEvents)
            << "trace for " << serial[i].label << " diverged";
    }
}

TEST(SweepScope, WritesWellFormedStatsDocument)
{
    const auto outs = runScopedGrid(2);
    const std::string path =
        ::testing::TempDir() + "/cobra_scope_stats.json";
    sim::writeStatsJson(path, "unit", outs, 2);

    std::ifstream f(path);
    ASSERT_TRUE(f.good());
    std::stringstream ss;
    ss << f.rdbuf();
    const std::string doc = ss.str();
    EXPECT_TRUE(jsonBalanced(doc));
    EXPECT_NE(doc.find("\"tool\": \"unit\""), std::string::npos);
    EXPECT_NE(doc.find("\"version\": 1"), std::string::npos);
    EXPECT_NE(doc.find("\"result\": {"), std::string::npos);
    EXPECT_NE(doc.find("\"cond_mispredicts\""), std::string::npos);
    EXPECT_NE(doc.find("\"groups\": {"), std::string::npos);
    EXPECT_NE(doc.find("\"counters\": {"), std::string::npos);
    EXPECT_NE(doc.find("\"bpu\": {"), std::string::npos);
    EXPECT_NE(doc.find("\"comp\": {"), std::string::npos);
}

TEST(SweepScope, WritesWellFormedTraceFile)
{
    const auto outs = runScopedGrid(2);
    const std::string path =
        ::testing::TempDir() + "/cobra_scope_trace.json";
    sim::writeTraceEvents(path, outs);

    std::ifstream f(path);
    ASSERT_TRUE(f.good());
    std::stringstream ss;
    ss << f.rdbuf();
    const std::string doc = ss.str();
    EXPECT_TRUE(jsonBalanced(doc));
    EXPECT_EQ(doc.front(), '[');
    EXPECT_NE(doc.find("\"ph\": \"M\""), std::string::npos);
    EXPECT_NE(doc.find("\"ph\": \"i\""), std::string::npos);
    // One process per sweep point: pids 0..3 all present.
    for (int pid = 0; pid < 4; ++pid) {
        EXPECT_NE(doc.find("\"pid\": " + std::to_string(pid)),
                  std::string::npos)
            << "missing process for point " << pid;
    }
}

TEST(SweepScope, ErrorPointsBecomeStubs)
{
    sim::SweepEngine engine(1);
    sim::SweepPoint bad =
        sim::SweepPoint::preset(sim::Design::B2, cache().get("leela"));
    bad.label = "boom";
    bad.cfg.output.statsJsonPath = "stats.json";
    bad.topology = []() -> bpu::Topology {
        throw std::runtime_error("synthetic failure");
    };
    engine.add(std::move(bad));
    const auto outs = engine.run();

    const std::string path =
        ::testing::TempDir() + "/cobra_scope_err.json";
    sim::writeStatsJson(path, "unit", outs, 1);
    std::ifstream f(path);
    std::stringstream ss;
    ss << f.rdbuf();
    EXPECT_TRUE(jsonBalanced(ss.str()));
    EXPECT_NE(ss.str().find("\"error\": \"synthetic failure\""),
              std::string::npos);
}
