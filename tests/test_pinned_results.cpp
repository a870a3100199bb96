/**
 * @file
 * Pinned cycle-exact results: an independent reference for the core
 * model. The other exactness suites compare this code with itself
 * (generic with specialized, serial with batched, execute with
 * replay), so a change that moves every path the same way passes
 * them all. This suite pins every SimResult field plus every
 * backend.* and frontend.* stat to recorded values, over a matrix of
 * designs, workloads and core settings, including a narrow core whose
 * ROB size (96) is not a power of two and whose ports and issue
 * queues bind.
 *
 * A deliberate model change that moves these numbers must re-record
 * them: run the failing case, copy the "actual" line it prints into
 * the table, and say in the change description why the model moved.
 */

#include <cstdint>
#include <sstream>
#include <string>
#include <vector>

#include <gtest/gtest.h>

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

enum class Variant
{
    Default,
    Sfb,
    GhistNone,
    GhistRepair,
    Serialize,
    Narrow, ///< SFB on, 96-entry ROB, narrow ports and issue queues.
};

struct PinnedCase
{
    const char* name;
    sim::Design design;
    const char* workload;
    Variant variant;
    /** Space-separated key=value tokens, as render() prints them. */
    const char* expected;
};

sim::SimConfig
configFor(const PinnedCase& c)
{
    sim::SimConfig cfg = sim::makeConfig(c.design);
    cfg.warmupInsts = 2000;
    cfg.maxInsts = 20000;
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
      case Variant::GhistRepair:
        cfg.frontend.ghistMode = bpu::GhistRepairMode::RepairOnly;
        cfg.backend.ghistMode = bpu::GhistRepairMode::RepairOnly;
        break;
      case Variant::Serialize:
        cfg.frontend.serializeFetch = true;
        break;
      case Variant::Narrow:
        cfg.backend.sfbEnabled = true;
        cfg.backend.robEntries = 96;
        cfg.backend.aluPorts = 2;
        cfg.backend.memPorts = 1;
        cfg.backend.fpPorts = 1;
        cfg.backend.intIqEntries = 12;
        cfg.backend.memIqEntries = 8;
        cfg.backend.fpIqEntries = 4;
        cfg.backend.ldqEntries = 8;
        cfg.backend.stqEntries = 6;
        break;
    }
    return cfg;
}

/** FNV-1a over a string (pins the diagnostics text compactly). */
std::uint64_t
fnv1a(const std::string& s)
{
    std::uint64_t h = 0xcbf29ce484222325ull;
    for (unsigned char ch : s) {
        h ^= ch;
        h *= 0x100000001b3ull;
    }
    return h;
}

/** Every SimResult field, then every backend/frontend stat. */
std::string
render(const sim::SimResult& r, const sim::Simulator& s)
{
    std::ostringstream os;
    r.forEachField([&](const char* name, const auto& v) {
        using T = std::decay_t<decltype(v)>;
        os << name << "=";
        if constexpr (std::is_same_v<T, std::string>)
            os << fnv1a(v);
        else
            os << static_cast<std::uint64_t>(v);
        os << " ";
    });
    for (const char* group : {"backend", "frontend"}) {
        const StatGroup* g = s.statRegistry().find(group);
        if (g == nullptr) {
            ADD_FAILURE() << "no stat group " << group;
            continue;
        }
        for (const StatGroup::Entry& e : g->entries()) {
            os << group << "." << e.name << "=";
            if (e.counter != nullptr) {
                os << e.counter->value();
            } else {
                os << e.histogram->samples() << "/"
                   << e.histogram->sum();
            }
            os << " ";
        }
    }
    std::string out = os.str();
    if (!out.empty())
        out.pop_back();
    return out;
}

std::vector<std::string>
tokens(const std::string& s)
{
    std::vector<std::string> out;
    std::istringstream is(s);
    for (std::string t; is >> t;)
        out.push_back(t);
    return out;
}

// clang-format off
const PinnedCase kCases[] = {
#include "pinned_results.inc"
};
// clang-format on

class PinnedResults : public ::testing::TestWithParam<PinnedCase>
{
};

/** gtest prints a failing parameter by its case name. */
void
PrintTo(const PinnedCase& c, std::ostream* os)
{
    *os << c.name;
}

} // namespace

TEST_P(PinnedResults, MatchesRecordedValues)
{
    const PinnedCase& c = GetParam();
    sim::Simulator s(cache().get(c.workload), sim::buildTopology(c.design),
                     configFor(c));
    const sim::SimResult r = s.run();
    const std::string actual = render(r, s);

    const std::vector<std::string> want = tokens(c.expected);
    const std::vector<std::string> got = tokens(actual);
    std::string diffs;
    for (std::size_t i = 0; i < want.size() || i < got.size(); ++i) {
        const std::string w = i < want.size() ? want[i] : "<missing>";
        const std::string g = i < got.size() ? got[i] : "<missing>";
        if (w != g)
            diffs += "\n  expected " + w + "\n  actual   " + g;
    }
    EXPECT_TRUE(diffs.empty())
        << c.name << " moved:" << diffs << "\nactual line:\n\"" << actual
        << "\"";
}

INSTANTIATE_TEST_SUITE_P(
    Matrix, PinnedResults, ::testing::ValuesIn(kCases),
    [](const ::testing::TestParamInfo<PinnedCase>& info) {
        return std::string(info.param.name);
    });
