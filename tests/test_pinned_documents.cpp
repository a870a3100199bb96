/**
 * @file
 * Byte-exact pins of the documents COBRA writes: the cobra_sim
 * --stats-json, --json and --trace-events files (detailed and warp
 * points), the four preset DesignSpec documents, a fixed-seed search
 * frontier, cobra_serve result documents (ok, warp, failed, rejected,
 * too large, search), status.json, the journal's accept/point/done
 * lines, and the result a journal written by an earlier build
 * recovers into.
 *
 * The expected bytes live in tests/pinned/. Values read from a clock
 * (wall_seconds, kilocycles_per_sec, kips) are masked to 0 on both
 * sides. Every document must also parse under the strict JSON parser.
 *
 * When a document changes on purpose, the failure names a copy of the
 * new bytes; review the diff and copy it over the pinned file
 * (docs/EXTENDING.md, "Adding a field to an output document").
 */

#include <atomic>
#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <iterator>
#include <regex>
#include <sstream>
#include <string>
#include <string_view>
#include <vector>

#include <gtest/gtest.h>

#include "program/workload.hpp"
#include "search/driver.hpp"
#include "serve/daemon.hpp"
#include "serve/journal.hpp"
#include "serve/spool.hpp"
#include "sim/design_spec.hpp"

using namespace cobra;
using namespace cobra::serve;
namespace fs = std::filesystem;

namespace {

std::string
readText(const std::string& path)
{
    std::ifstream is(path, std::ios::binary);
    return std::string(std::istreambuf_iterator<char>(is), {});
}

void
writeText(const std::string& path, const std::string& text)
{
    std::ofstream os(path, std::ios::binary | std::ios::trunc);
    os << text;
}

/** A scratch directory under the system temp dir, wiped on entry. */
std::string
scratchDir(const std::string& leaf)
{
    const fs::path p = fs::temp_directory_path() / leaf;
    fs::remove_all(p);
    fs::create_directories(p);
    return p.string();
}

/**
 * Replace every clock-derived number with 0, also inside a journaled
 * fragment, where the key's quotes are escaped.
 */
std::string
maskClocks(std::string text)
{
    static const std::regex clock(
        R"re("(wall_seconds|kilocycles_per_sec|kips)\\?": )re");
    std::string out;
    std::smatch m;
    while (std::regex_search(text, m, clock)) {
        out += m.prefix().str() + m.str() + "0";
        std::size_t end = static_cast<std::size_t>(m.position() +
                                                   m.length());
        while (end < text.size() &&
               std::string_view("-+.0123456789eE").find(text[end]) !=
                   std::string_view::npos)
            ++end;
        text.erase(0, end);
    }
    return out + text;
}

/**
 * Compare @p actual with tests/pinned/@p name. On a mismatch the
 * actual bytes are written beside the scratch outputs so the change
 * can be reviewed (and, when intended, copied over the pin).
 */
void
expectPinned(const std::string& name, const std::string& actual)
{
    const std::string pinned =
        readText(std::string(COBRA_PINNED_DIR) + "/" + name);
    if (actual == pinned)
        return;
    const std::string dir = scratchDir("cobra_pinned_actual_" + name);
    writeText(dir + "/" + name, actual);
    ADD_FAILURE() << name << " differs from its pinned bytes; actual "
                  << "document written to " << dir << "/" << name;
}

/** Each document must be one strict-JSON value. */
void
expectParses(const std::string& name, const std::string& doc)
{
    EXPECT_NO_THROW((void)Json::parse(doc)) << name;
}

/** Run cobra_sim with @p args; stdout goes to @p dir/stdout.txt. */
void
runCobraSim(const std::string& dir, const std::string& args)
{
    const std::string cmd = std::string("\"") + COBRA_SIM_BIN + "\" " +
                            args + " > \"" + dir + "/stdout.txt\"";
    ASSERT_EQ(std::system(cmd.c_str()), 0) << cmd;
}

void
submit(const Spool& spool, const std::string& fname,
       const std::string& text)
{
    const std::string dst = spool.incomingDir() + "/" + fname;
    writeText(dst + ".tmp", text);
    fs::rename(dst + ".tmp", dst);
}

ServeConfig
onceConfig(const std::string& root)
{
    ServeConfig cfg;
    cfg.spoolRoot = root;
    cfg.jobs = 1;
    cfg.once = true;
    cfg.backoffBaseMs = 1;
    return cfg;
}

void
runOnce(const ServeConfig& cfg)
{
    std::atomic<bool> stop{false};
    Daemon daemon(cfg);
    daemon.run(stop);
}

} // namespace

TEST(PinnedDocuments, CobraSimDetailedPoints)
{
    const std::string dir = scratchDir("cobra_pinned_detailed");
    runCobraSim(dir, "--design tourney,tagel --workload leela "
                     "--insts 3000 --warmup 500 --jobs 1 "
                     "--json " + dir + "/sweep.json "
                     "--stats-json " + dir + "/stats.json "
                     "--trace-events " + dir + "/trace.json "
                     "--trace-start 1500 --trace-cycles 6");
    for (const char* f : {"sweep.json", "stats.json", "trace.json"})
        expectParses(f, readText(dir + "/" + f));
    expectPinned("detailed_sweep.json",
                 maskClocks(readText(dir + "/sweep.json")));
    expectPinned("detailed_stats.json", readText(dir + "/stats.json"));
    expectPinned("detailed_trace.json", readText(dir + "/trace.json"));
    expectPinned("detailed_stdout.txt", readText(dir + "/stdout.txt"));
}

TEST(PinnedDocuments, CobraSimWarpPoints)
{
    const std::string dir = scratchDir("cobra_pinned_warp");
    runCobraSim(dir, "--design tagel --workload leela,mcf --warp "
                     "--intervals 2 --insts 20000 --warmup 1000 "
                     "--jobs 1 "
                     "--json " + dir + "/sweep.json "
                     "--stats-json " + dir + "/stats.json");
    for (const char* f : {"sweep.json", "stats.json"})
        expectParses(f, readText(dir + "/" + f));
    expectPinned("warp_sweep.json",
                 maskClocks(readText(dir + "/sweep.json")));
    expectPinned("warp_stats.json", readText(dir + "/stats.json"));
}

TEST(PinnedDocuments, PresetDesignSpecs)
{
    const std::pair<sim::Design, const char*> presets[] = {
        {sim::Design::Tourney, "spec_tourney.json"},
        {sim::Design::B2, "spec_b2.json"},
        {sim::Design::TageL, "spec_tagel.json"},
        {sim::Design::RefBig, "spec_refbig.json"},
    };
    for (const auto& [d, name] : presets) {
        const std::string doc = sim::presetSpec(d).toJson();
        expectParses(name, doc);
        expectPinned(name, doc);
    }
}

TEST(PinnedDocuments, SearchFrontier)
{
    search::SearchConfig cfg;
    cfg.seed = 7;
    cfg.pool = 6;
    cfg.workloads = {"mcf"};
    cfg.seedEvals = 3;
    cfg.functionalSurvivors = 4;
    cfg.warpSurvivors = 2;
    cfg.finalists = 1;
    cfg.traceBranches = 4'000;
    cfg.traceWarmup = 1'000;
    cfg.warpInsts = 20'000;
    cfg.warpIntervals = 2;
    cfg.detailInsts = 20'000;
    cfg.detailWarmup = 5'000;
    cfg.jobs = 1;
    prog::WorkloadCache cache;
    const std::string doc =
        search::frontierJson(search::runSearch(cfg, cache));
    expectParses("frontier.json", doc);
    expectPinned("frontier.json", doc);
}

TEST(PinnedDocuments, ServeResultsAndStatus)
{
    const std::string root = scratchDir("cobra_pinned_serve");
    Spool spool(root);
    submit(spool, "a-ok.json",
           "{\"id\": \"ok\", \"client\": \"ci\", \"designs\": "
           "[\"tagel\", \"b2\"], \"workloads\": [\"leela\"], "
           "\"insts\": 4000, \"warmup\": 500}");
    submit(spool, "b-warp.json",
           "{\"id\": \"warp\", \"client\": \"ci\", \"designs\": "
           "[\"tagel\"], \"workloads\": [\"mcf\"], \"insts\": 20000, "
           "\"warmup\": 1000, \"warp\": {\"intervals\": 2}}");
    submit(spool, "c-failed.json",
           "{\"id\": \"failed\", \"client\": \"ci\", \"designs\": "
           "[\"tagel\"], \"workloads\": [\"leela\"], \"insts\": 4000, "
           "\"warmup\": 500, \"deadlock_cycles\": 2}");
    submit(spool, "d-rejected.json",
           "{\"id\": \"rejected\", \"client\": \"ci\", \"designs\": "
           "[\"warpcore\"], \"workloads\": [\"leela\"]}");
    submit(spool, "e-big.json",
           "{\"id\": \"big\", \"client\": \"ci \\\"q\\\"\", "
           "\"designs\": [\"tagel\", \"b2\"], "
           "\"workloads\": [\"leela\", \"mcf\"], \"insts\": 4000, "
           "\"warmup\": 500}");
    submit(spool, "f-search.json",
           "{\"id\": \"search\", \"client\": \"ci\", \"kind\": "
           "\"search\", \"workloads\": [\"mcf\"], \"search\": "
           "{\"seed\": 7, \"pool\": 5, \"seed_evals\": 3, "
           "\"survivors\": 3, \"warp_survivors\": 1, \"finalists\": 1, "
           "\"trace_branches\": 4000, \"trace_warmup\": 1000, "
           "\"warp_insts\": 20000, \"intervals\": 2, "
           "\"insts\": 20000, \"warmup\": 5000}}");
    ServeConfig cfg = onceConfig(root);
    cfg.maxPointsPerRequest = 3;
    runOnce(cfg);

    // Rejected requests publish under their spool stem.
    for (const char* id :
         {"ok", "warp", "failed", "d-rejected", "big", "search"}) {
        const std::string doc = readText(spool.resultPath(id));
        expectParses(id, doc);
        expectPinned(std::string("serve_") + id + ".json",
                     maskClocks(doc));
    }
    const std::string status = readText(spool.statusPath());
    expectParses("status.json", status);
    expectPinned("serve_status.json", status);

}

TEST(PinnedDocuments, JournalLines)
{
    const std::string fragment =
        "    {\n      \"label\": \"x/\\\"y\\\"\",\n      \"status\": "
        "\"ok\"\n    }";
    const std::string text =
        Journal::acceptLine("req \"1\"", "client\\a", 3, 4) + "\n" +
        Journal::pointLine("req \"1\"", 2, "failed", "deadlock",
                           "stuck\nat cycle 9\t(\x01)", 2, fragment) +
        "\n" + Journal::doneLine("req \"1\"", "failed") + "\n";
    std::istringstream lines(text);
    for (std::string line; std::getline(lines, line);)
        expectParses("journal line", line);
    expectPinned("journal_lines.log", text);
}

TEST(PinnedDocuments, EarlierJournalRecoversToTheSameResult)
{
    // journal_recover.log is the accept record and first point record
    // of a two-point request as an earlier build journaled them. The
    // daemon must republish that point verbatim and run the other.
    const std::string root = scratchDir("cobra_pinned_recover");
    Spool spool(root);
    writeText(spool.activeDir() + "/ok.json",
              "{\"id\": \"ok\", \"client\": \"ci\", \"designs\": "
              "[\"tagel\", \"b2\"], \"workloads\": [\"leela\"], "
              "\"insts\": 4000, \"warmup\": 500}");
    writeText(spool.journalPath(),
              readText(std::string(COBRA_PINNED_DIR) +
                       "/journal_recover.log"));
    runOnce(onceConfig(root));
    const std::string doc = readText(spool.resultPath("ok"));
    expectParses("recovered result", doc);
    expectPinned("serve_recovered.json", maskClocks(doc));
    const Json status = Json::parse(readText(spool.statusPath()));
    const Json* serveStats = status.find("stats")->find("serve");
    EXPECT_EQ(serveStats->find("counters")->getU64("recovered_points", 0),
              1u);
}
