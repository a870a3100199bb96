/**
 * @file
 * In-process half of the COBRA benchmark (perfbench/run.py drives it).
 * It times calls into the library's public API from outside: nothing
 * here reaches into src/ beyond what any client of the library could
 * call. Each subcommand prints one JSON object on stdout.
 *
 *   build-info                     optimisation/compiler record
 *   detailed    --seed S --seconds T [--setup-reps N]
 *               [--setup-between N] [--traced]
 *   trace_eval  (same options as detailed)
 *   search-setup --seed S [--setup-reps N]
 *   warp-probe  --seed S            tier-2 warp run on one anchor
 *   serve-probe --request F --spool D --work D [--reps N]
 *   host-probe                     one host-speed probe (see below)
 *
 * The --traced mode records spans (name, start, end, parent, op id) in
 * memory and prints them with the result; untraced runs record none.
 */

#include <sys/resource.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstdio>
#include <dirent.h>
#include <fstream>
#include <map>
#include <sstream>
#include <stdexcept>
#include <string>
#include <vector>

#include "exec/oracle.hpp"
#include "guard/errors.hpp"
#include "program/workload.hpp"
#include "search/space.hpp"
#include "serve/journal.hpp"
#include "serve/request.hpp"
#include "serve/spool.hpp"
#include "serve/warm_cache.hpp"
#include "sim/design_spec.hpp"
#include "sim/presets.hpp"
#include "sim/simulator.hpp"
#include "trace/batch_eval.hpp"
#include "trace/trace.hpp"
#include "warp/warp.hpp"

using namespace cobra;

namespace {

using Clock = std::chrono::steady_clock;
const Clock::time_point kOrigin = Clock::now();

double
secondsSince(Clock::time_point t0)
{
    return std::chrono::duration<double>(Clock::now() - t0).count();
}

double
nowS()
{
    return secondsSince(kOrigin);
}

/** SplitMix64: derive independent input seeds from the bench seed. */
std::uint64_t
mix(std::uint64_t x)
{
    x += 0x9E3779B97F4A7C15ULL;
    x = (x ^ (x >> 30)) * 0xBF58476D1CE4E5B9ULL;
    x = (x ^ (x >> 27)) * 0x94D049BB133111EBULL;
    return x ^ (x >> 31);
}

double
median(std::vector<double> v)
{
    if (v.empty())
        return 0.0;
    std::sort(v.begin(), v.end());
    const std::size_t n = v.size();
    return n % 2 ? v[n / 2] : 0.5 * (v[n / 2 - 1] + v[n / 2]);
}

/**
 * A pointer chase through @p lines cache lines, each on its own 4 KiB
 * page, the pages drawn at random from a region of @p regionPages
 * pages. The lines fit in L1; the pages overflow the first-level data
 * TLB. Returns the region; the chase starts at slot 0.
 */
std::vector<std::uint32_t>
pageChase(std::uint32_t lines, std::uint32_t regionPages, std::uint64_t seed)
{
    constexpr std::uint32_t kPageSlots = 1024; // 4 KiB of uint32_t
    constexpr std::uint32_t kLineSlots = 16;   // 64 bytes
    std::vector<std::uint32_t> pages(regionPages);
    for (std::uint32_t k = 0; k < regionPages; ++k)
        pages[k] = k;
    std::uint64_t r = seed;
    for (std::uint32_t k = regionPages - 1; k > 0; --k) {
        r = mix(r);
        std::swap(pages[k], pages[r % (k + 1)]);
    }
    std::swap(*std::find(pages.begin(), pages.end(), 0u), pages[0]);
    std::vector<std::uint32_t> slot(lines);
    for (std::uint32_t k = 0; k < lines; ++k) {
        r = mix(r);
        slot[k] = pages[k] * kPageSlots +
                  (k == 0 ? 0 : static_cast<std::uint32_t>(r % 64) * kLineSlots);
    }
    std::vector<std::uint32_t> region(
        static_cast<std::size_t>(regionPages) * kPageSlots);
    for (std::uint32_t k = 0; k < lines; ++k)
        region[slot[k]] = slot[(k + 1) % lines];
    return region;
}

double
timeChase(const std::vector<std::uint32_t>& region, int loads)
{
    static volatile std::uint32_t sink;
    const auto t0 = Clock::now();
    std::uint32_t at = 0;
    for (int k = 0; k < loads; ++k)
        at = region[at];
    sink = at;
    return secondsSince(t0);
}

/**
 * Host-speed probe: two fixed pointer chases that miss the data TLB,
 * 96 pages in a 1 MiB region and 512 pages in 2 MiB, 3M loads each.
 * A shared host's speed drifts by 25-40% over minutes as a sibling
 * hardware thread or a neighbour competes for the TLBs and caches; the
 * simulator and these chases slow together, while no change to the
 * program can move them. It takes about 25 ms.
 */
double
hostProbe()
{
    static const std::vector<std::uint32_t> small = pageChase(96, 256, 1);
    static const std::vector<std::uint32_t> large = pageChase(512, 512, 2);
    return timeChase(small, 3'000'000) + timeChase(large, 3'000'000);
}

double
peakRssMb()
{
    rusage ru{};
    getrusage(RUSAGE_SELF, &ru);
    return static_cast<double>(ru.ru_maxrss) / 1024.0; // KiB -> MiB
}

// ---- Minimal JSON emission ---------------------------------------------

std::string
quote(const std::string& s)
{
    std::string o = "\"";
    for (char c : s) {
        if (c == '"' || c == '\\')
            o += '\\', o += c;
        else if (static_cast<unsigned char>(c) < 0x20)
            o += ' ';
        else
            o += c;
    }
    return o + "\"";
}

std::string
num(double v)
{
    char b[40];
    std::snprintf(b, sizeof b, "%.17g", v);
    return b;
}

/** Flat-ish JSON object builder: values are pre-rendered JSON text. */
class Obj
{
  public:
    Obj& raw(const std::string& k, const std::string& v)
    {
        parts_.push_back(quote(k) + ": " + v);
        return *this;
    }
    Obj& n(const std::string& k, double v) { return raw(k, num(v)); }
    Obj& u(const std::string& k, std::uint64_t v)
    {
        return raw(k, std::to_string(v));
    }
    Obj& s(const std::string& k, const std::string& v)
    {
        return raw(k, quote(v));
    }
    Obj& b(const std::string& k, bool v)
    {
        return raw(k, v ? "true" : "false");
    }
    Obj& list(const std::string& k, const std::vector<double>& v)
    {
        std::string o = "[";
        for (std::size_t i = 0; i < v.size(); ++i)
            o += (i ? ", " : "") + num(v[i]);
        return raw(k, o + "]");
    }
    std::string str() const
    {
        std::string o = "{";
        for (std::size_t i = 0; i < parts_.size(); ++i)
            o += (i ? ", " : "") + parts_[i];
        return o + "}";
    }

  private:
    std::vector<std::string> parts_;
};

std::string
arr(const std::vector<std::string>& items)
{
    std::string o = "[";
    for (std::size_t i = 0; i < items.size(); ++i)
        o += (i ? ", " : "") + items[i];
    return o + "]";
}

// ---- Spans ---------------------------------------------------------------

/**
 * In-memory span log of the traced mode. A span is a timed call;
 * `count` > 1 marks an aggregate span that folds many calls of one
 * kind made inside its parent (the per-cycle ticks), so a traced run
 * keeps a few hundred spans rather than millions. Aggregate spans
 * carry their parent's start and their summed duration.
 */
class SpanLog
{
  public:
    explicit SpanLog(bool on) : on_(on) {}

    void setOp(int op) { op_ = op; }

    int begin(const std::string& name)
    {
        if (!on_)
            return -1;
        const int id = static_cast<int>(spans_.size());
        spans_.push_back({name, nowS(), 0.0, parent(), op_, 1});
        stack_.push_back(id);
        return id;
    }

    void end(int id)
    {
        if (!on_ || id < 0)
            return;
        spans_[id].end = nowS();
        if (!stack_.empty() && stack_.back() == id)
            stack_.pop_back();
    }

    /** Record @p count calls totalling @p seconds under the open span. */
    void aggregate(const std::string& name, double seconds,
                   std::uint64_t count)
    {
        if (!on_)
            return;
        const int p = parent();
        const double start = p >= 0 ? spans_[p].start : nowS();
        spans_.push_back({name, start, start + seconds, p, op_, count});
    }

    std::string json() const
    {
        std::vector<std::string> out;
        for (std::size_t i = 0; i < spans_.size(); ++i) {
            const Span& s = spans_[i];
            out.push_back(Obj()
                              .u("id", i)
                              .s("name", s.name)
                              .n("start", s.start)
                              .n("end", s.end)
                              .raw("parent", std::to_string(s.parent))
                              .raw("op", std::to_string(s.op))
                              .u("count", s.count)
                              .str());
        }
        return arr(out);
    }

  private:
    struct Span
    {
        std::string name;
        double start;
        double end;
        int parent;
        int op;
        std::uint64_t count;
    };

    int parent() const { return stack_.empty() ? -1 : stack_.back(); }

    bool on_;
    int op_ = -1;
    std::vector<Span> spans_;
    std::vector<int> stack_;
};

/** RAII span. */
struct Scoped
{
    SpanLog& log;
    int id;
    Scoped(SpanLog& l, const std::string& name)
        : log(l), id(l.begin(name))
    {
    }
    ~Scoped() { log.end(id); }
};

// ---- Arguments -------------------------------------------------------------

struct Args
{
    std::map<std::string, std::string> kv;
    bool has(const std::string& k) const { return kv.count(k) != 0; }
    std::string str(const std::string& k, const std::string& d = "") const
    {
        auto it = kv.find(k);
        return it == kv.end() ? d : it->second;
    }
    std::uint64_t u64(const std::string& k, std::uint64_t d) const
    {
        return has(k) ? std::stoull(str(k)) : d;
    }
    double dbl(const std::string& k, double d) const
    {
        return has(k) ? std::stod(str(k)) : d;
    }
};

Args
parseArgs(int argc, char** argv)
{
    Args a;
    for (int i = 2; i < argc; ++i) {
        std::string k = argv[i];
        if (k.rfind("--", 0) != 0)
            throw std::runtime_error("unexpected argument " + k);
        k = k.substr(2);
        if (i + 1 < argc && std::string(argv[i + 1]).rfind("--", 0) != 0)
            a.kv[k] = argv[++i];
        else
            a.kv[k] = "1";
    }
    return a;
}

std::string
readFile(const std::string& path)
{
    std::ifstream in(path, std::ios::binary);
    if (!in)
        throw std::runtime_error("cannot read " + path);
    std::ostringstream os;
    os << in.rdbuf();
    return os.str();
}

// ---- detailed ----------------------------------------------------------------

struct Tuple
{
    sim::Design design;
    const char* workload;
};

const Tuple kTuples[] = {
    {sim::Design::TageL, "leela"},
    {sim::Design::Tourney, "x264"},
    {sim::Design::B2, "gcc"},
};

sim::SimConfig
detailedConfig(sim::Design d, std::uint64_t seed)
{
    sim::SimConfig cfg = sim::makeConfig(d);
    cfg.maxInsts = 400'000; // cobra_sim defaults
    cfg.warmupInsts = 120'000;
    cfg.oracleSeed = mix(seed) & 0xFFFFFFFFULL;
    return cfg;
}

/**
 * Drive one run from outside: the same state machine as
 * Simulator::run(), ticking frontend(), backend() and bpu() in the
 * order tickOnce() does and timing each call. Returns the SimResult
 * run() would have produced (deadlock diagnostics excepted, which the
 * output check then flags as a mismatch).
 */
sim::SimResult
tickedRun(sim::Simulator& s, SpanLog& log)
{
    const sim::SimConfig& cfg = s.config();
    core::Frontend& fe = s.frontend();
    core::Backend& be = s.backend();
    bpu::BranchPredictorUnit& bp = s.bpu();

    Cycle now = s.cycles();
    std::uint64_t lastProgress = be.committedInsts();
    Cycle lastProgressCycle = now;
    auto stalled = [&] {
        if (be.committedInsts() != lastProgress) {
            lastProgress = be.committedInsts();
            lastProgressCycle = now;
            return false;
        }
        return now - lastProgressCycle > cfg.deadlockCycles;
    };

    Clock::duration tFe{}, tBe{}, tBp{};
    std::uint64_t ticks = 0;
    auto tick = [&] {
        const auto t0 = Clock::now();
        fe.tick(now);
        const auto t1 = Clock::now();
        be.tick(now);
        const auto t2 = Clock::now();
        bp.tick();
        const auto t3 = Clock::now();
        tFe += t1 - t0;
        tBe += t2 - t1;
        tBp += t3 - t2;
        ++now;
        ++ticks;
    };

    sim::SimResult r;
    bool deadlocked = false;
    while (be.committedInsts() < cfg.warmupInsts && now < cfg.maxCycles) {
        tick();
        if (stalled()) {
            deadlocked = true;
            break;
        }
    }
    const Cycle baseCycles = now;
    const std::uint64_t bInsts = be.committedInsts();
    const std::uint64_t bBr = be.committedBranches();
    const std::uint64_t bCfis = be.committedCfis();
    const std::uint64_t bCond = be.condMispredicts();
    const std::uint64_t bJalr = be.jalrMispredicts();
    const std::uint64_t target = cfg.warmupInsts + cfg.maxInsts;
    while (!deadlocked && be.committedInsts() < target &&
           now < cfg.maxCycles) {
        tick();
        if (stalled())
            deadlocked = true;
    }
    if (!deadlocked || baseCycles != now) {
        r.cycles = now - baseCycles;
        r.insts = be.committedInsts() - bInsts;
        r.condBranches = be.committedBranches() - bBr;
        r.cfis = be.committedCfis() - bCfis;
        r.condMispredicts = be.condMispredicts() - bCond;
        r.jalrMispredicts = be.jalrMispredicts() - bJalr;
        r.sfbConversions = be.sfbConversions();
        r.ghistReplays = fe.stats().get("ghist_replays");
        r.packetsKilled = fe.stats().get("packets_killed");
    }
    r.faultsInjected = s.faultEngine().faultsInjected();
    r.updatesDropped = s.faultEngine().droppedUpdates();
    r.deadlocked = deadlocked;

    auto secs = [](Clock::duration d) {
        return std::chrono::duration<double>(d).count();
    };
    log.aggregate("core.frontend.tick", secs(tFe), ticks);
    log.aggregate("core.backend.tick", secs(tBe), ticks);
    log.aggregate("bpu.tick", secs(tBp), ticks);
    return r;
}

std::string
resultJson(const sim::SimResult& r)
{
    Obj o;
    r.forEachField([&](const char* name, const auto& v) {
        using T = std::decay_t<decltype(v)>;
        if constexpr (std::is_same_v<T, std::string>)
            o.s(name, v);
        else if constexpr (std::is_same_v<T, bool>)
            o.b(name, v);
        else
            o.u(name, v);
    });
    return o.n("ipc", r.ipc())
        .n("mpki", r.mpki())
        .n("accuracy", r.accuracy())
        .str();
}

double
ratio(std::uint64_t a, std::uint64_t b)
{
    return b == 0 ? 0.0 : static_cast<double>(a) / static_cast<double>(b);
}

int
cmdDetailed(const Args& a)
{
    const std::uint64_t seed = a.u64("seed", 1);
    const double seconds = a.dbl("seconds", 10);
    const unsigned reps = static_cast<unsigned>(a.u64("setup-reps", 3));
    const unsigned between =
        static_cast<unsigned>(a.u64("setup-between", 0));
    const bool traced = a.has("traced");
    SpanLog log(traced);

    // Set-up: build the three workload programs into a fresh cache.
    // It runs --setup-reps times before the first operation and
    // --setup-between times after each one (outside the operation's
    // timing), so its median samples the same stretch of host time as
    // the operations do. The first cache is kept for the run.
    // A host-speed probe runs before the first operation, between the
    // tuples of each untraced one and after it; setupProbe names the
    // probe each set-up sample sits next to.
    std::vector<double> setup, probes;
    std::vector<double> setupProbe;
    auto setupOnce = [&] {
        auto c = std::make_unique<prog::WorkloadCache>();
        const auto t0 = Clock::now();
        Scoped sp(log, "program.build");
        for (const Tuple& t : kTuples)
            c->get(t.workload);
        setup.push_back(secondsSince(t0));
        setupProbe.push_back(probes.empty() ? 0.0 : probes.size() - 1.0);
        return c;
    };
    std::unique_ptr<prog::WorkloadCache> cache = setupOnce();
    for (unsigned i = 1; i < reps; ++i)
        setupOnce();

    // References, outside the timed region: the generic loop.
    std::vector<sim::SimResult> ref;
    std::vector<std::uint64_t> refInsts; // committed, warmup included
    std::uint64_t opInsts = 0, opBranches = 0, opCycles = 0;
    for (const Tuple& t : kTuples) {
        sim::SimConfig cfg = detailedConfig(t.design, seed);
        cfg.specialize = sim::SpecializeMode::Off;
        sim::Simulator s(cache->get(t.workload),
                         sim::buildTopology(t.design), cfg);
        ref.push_back(s.run());
        refInsts.push_back(s.backend().committedInsts());
        opInsts += s.backend().committedInsts();
        opBranches += s.backend().committedBranches();
        opCycles += s.cycles();
    }

    std::vector<double> opS, constructS;
    std::vector<std::string> stats;
    unsigned failed = 0;
    int opId = 0;
    // The host-speed probe also runs between the tuples of an untraced
    // op, outside their timing; tupleS holds each tuple's wall time and
    // the op time is their sum.
    std::vector<double> tupleS;
    auto untracedOp = [&] {
        bool ok = true;
        double op = 0;
        for (std::size_t k = 0; k < std::size(kTuples); ++k) {
            if (k > 0)
                probes.push_back(hostProbe());
            const Tuple& t = kTuples[k];
            const auto t0 = Clock::now();
            sim::Simulator s(cache->get(t.workload),
                             sim::buildTopology(t.design),
                             detailedConfig(t.design, seed));
            ok = ok && s.run() == ref[k];
            tupleS.push_back(secondsSince(t0));
            op += tupleS.back();
        }
        opS.push_back(op);
        failed += ok ? 0 : 1;
    };

    // Traced op: spans per tuple, ticks driven from outside.
    std::vector<double> loopTimes, oracleS;
    Obj counts;
    auto tracedOp = [&] {
        log.setOp(opId);
        bool ok = true;
        const auto t0 = Clock::now();
        int opSpan = log.begin("bench.detailed.op");
        std::uint64_t cyc = 0, insts = 0, killed = 0, replays = 0;
        std::uint64_t q = 0, upd = 0, walks = 0, misp = 0;
        std::uint64_t committed = 0, fetched = 0;
        std::uint64_t acc[3] = {0, 0, 0}, miss[3] = {0, 0, 0};
        double loopS = 0, cons = 0;
        for (std::size_t k = 0; k < std::size(kTuples); ++k) {
            const Tuple& t = kTuples[k];
            Scoped tup(log, std::string("sim.tuple.") + t.workload);
            const auto c0 = Clock::now();
            int cs = log.begin("sim.construct");
            sim::Simulator s(cache->get(t.workload),
                             sim::buildTopology(t.design),
                             detailedConfig(t.design, seed));
            log.end(cs);
            cons += secondsSince(c0);
            const auto l0 = Clock::now();
            int ls = log.begin("sim.loop");
            const sim::SimResult r = tickedRun(s, log);
            log.end(ls);
            loopS += secondsSince(l0);
            ok = ok && r == ref[k];
            cyc += r.cycles;
            insts += r.insts;
            killed += r.packetsKilled;
            replays += r.ghistReplays;
            const auto& reg = s.statRegistry();
            q += reg.get("bpu", "queries");
            upd += reg.get("bpu", "updates");
            walks += reg.get("bpu", "repair_walks");
            misp += reg.get("bpu", "mispredicts");
            committed += s.backend().committedInsts();
            fetched += reg.get("frontend", "insts_fetched");
            const char* lv[3] = {"caches.l1i", "caches.l1d", "caches.l2"};
            for (int c = 0; c < 3; ++c) {
                acc[c] += reg.get(lv[c], "accesses");
                miss[c] += reg.get(lv[c], "misses");
            }
        }
        log.end(opSpan);
        const double op = secondsSince(t0);
        failed += ok ? 0 : 1;
        constructS.push_back(cons);
        loopTimes.push_back(loopS);
        counts = Obj();
        counts.u("sim.cycles", cyc)
            .u("sim.insts", insts)
            .n("core.fetch_useful_ratio", ratio(committed, fetched))
            .u("core.packets_killed", killed)
            .u("core.ghist_replays", replays)
            .u("bpu.queries", q)
            .u("bpu.updates", upd)
            .u("bpu.repair_walks", walks)
            .u("bpu.mispredicts", misp)
            .n("caches.l1i.miss_ratio", ratio(miss[0], acc[0]))
            .n("caches.l1d.miss_ratio", ratio(miss[1], acc[1]))
            .n("caches.l2.miss_ratio", ratio(miss[2], acc[2]));
        return op;
    };

    std::vector<double> tracedS;
    probes.push_back(hostProbe());
    const auto start = Clock::now();
    do {
        if (traced) {
            // Alternate untraced and traced ops so the tracing
            // overhead is a same-run ratio.
            untracedOp();
            probes.push_back(hostProbe());
            tracedS.push_back(tracedOp());
        } else {
            untracedOp();
            probes.push_back(hostProbe());
        }
        ++opId;
        for (unsigned i = 0; i < between; ++i)
            setupOnce();
    } while (secondsSince(start) < seconds);

    // Per-tuple simulated statistics (exact-repeat record).
    for (std::size_t k = 0; k < std::size(kTuples); ++k)
        stats.push_back(
            Obj()
                .s("design", sim::designName(kTuples[k].design))
                .s("workload", kTuples[k].workload)
                .raw("result", resultJson(ref[k]))
                .str());

    Obj out;
    out.list("setup_s", setup)
        .list("setup_probe", setupProbe)
        .list("op_s", opS)
        .list("tuple_s", tupleS)
        .list("probe_s", probes)
        .u("failed", failed)
        .u("op_insts", opInsts)
        .u("op_branches", opBranches)
        .u("op_cycles", opCycles)
        .n("peak_rss_mb", peakRssMb())
        .raw("stats", arr(stats));
    if (traced) {
        // Oracle stream over the same correct-path lengths, alone.
        for (int rep = 0; rep < 3; ++rep) {
            log.setOp(opId + rep);
            const auto t0 = Clock::now();
            Scoped sp(log, "exec.oracle_stream");
            for (std::size_t k = 0; k < std::size(kTuples); ++k) {
                exec::Oracle o(
                    cache->get(kTuples[k].workload),
                    detailedConfig(kTuples[k].design, seed).oracleSeed);
                for (std::uint64_t i = 0; i < refInsts[k]; ++i)
                    o.retireUpTo(o.consume().seq);
            }
            oracleS.push_back(secondsSince(t0));
        }
        out.list("traced_op_s", tracedS)
            .list("sim.construct_s", constructS)
            .list("sim.loop_s", loopTimes)
            .list("exec.oracle_stream_s", oracleS)
            .raw("counts", counts.str())
            .raw("spans", log.json());
    }
    std::printf("%s\n", out.str().c_str());
    return 0;
}

// ---- trace_eval --------------------------------------------------------------

constexpr std::size_t kTraceBranches = 60'000;
constexpr std::size_t kTraceWarmup = 15'000;
const char* const kTraceWorkloads[] = {"mcf", "leela"};

/** Instructions the oracle executes to produce @p branches records. */
std::uint64_t
traceSpanInsts(const prog::Program& p, std::size_t branches,
               std::uint64_t seed)
{
    exec::Oracle o(p, seed);
    std::size_t seen = 0;
    std::uint64_t insts = 0;
    while (seen < branches) {
        const exec::DynInst& di = o.consume();
        ++insts;
        seen += di.isCondBranch() ? 1 : 0;
        o.retireUpTo(di.seq);
    }
    return insts;
}

/** The 16 lanes: four presets plus 12 seeded search-space samples. */
std::vector<sim::DesignSpec>
laneSpecs(std::uint64_t seed)
{
    std::vector<sim::DesignSpec> specs;
    for (sim::Design d : {sim::Design::Tourney, sim::Design::B2,
                          sim::Design::TageL, sim::Design::RefBig})
        specs.push_back(sim::presetSpec(d));
    search::SearchSpace space(mix(seed ^ 0x5A5A));
    unsigned tries = 0;
    while (specs.size() < 16 && tries++ < 1024) {
        try {
            sim::DesignSpec s = space.sample();
            s.name = "sample-" + std::to_string(specs.size() - 4);
            specs.push_back(std::move(s));
        } catch (const guard::ConfigError&) {
        }
    }
    return specs;
}

bpu::ComposedPredictor
lanePredictor(const sim::DesignSpec& s)
{
    return bpu::ComposedPredictor(sim::buildTopology(s), s.fetchWidth);
}

bool
sameResult(const trace::TraceResult& x, const trace::TraceResult& y)
{
    return x.branches == y.branches && x.mispredicts == y.mispredicts;
}

int
cmdTraceEval(const Args& a)
{
    const std::uint64_t seed = a.u64("seed", 1);
    const double seconds = a.dbl("seconds", 10);
    const unsigned reps = static_cast<unsigned>(a.u64("setup-reps", 3));
    const unsigned between =
        static_cast<unsigned>(a.u64("setup-between", 0));
    const bool traced = a.has("traced");
    const std::uint64_t traceSeed = mix(seed ^ 0x7EACE) & 0xFFFFFFFFULL;
    SpanLog log(traced);

    // Set-up: build both programs and record their traces, repeated
    // like the detailed set-up; the first result is kept for the run.
    std::vector<double> setup, buildS, recordS;
    auto setupOnce = [&] {
        auto c = std::make_unique<prog::WorkloadCache>();
        std::vector<trace::BranchTrace> ts;
        const auto t0 = Clock::now();
        double b = 0, r = 0;
        for (const char* w : kTraceWorkloads) {
            const auto b0 = Clock::now();
            int sb = log.begin("program.build");
            const prog::Program& p = c->get(w);
            log.end(sb);
            b += secondsSince(b0);
            const auto r0 = Clock::now();
            Scoped sr(log, "trace.record");
            ts.push_back(trace::recordTrace(p, kTraceBranches, traceSeed));
            r += secondsSince(r0);
        }
        setup.push_back(secondsSince(t0));
        buildS.push_back(b);
        recordS.push_back(r);
        return std::make_pair(std::move(c), std::move(ts));
    };
    auto [cache, traces] = setupOnce();
    for (unsigned i = 1; i < reps; ++i)
        setupOnce();

    const std::vector<sim::DesignSpec> specs = laneSpecs(seed);
    std::uint64_t spanInsts = 0;
    for (const char* w : kTraceWorkloads)
        spanInsts += traceSpanInsts(cache->get(w), kTraceBranches,
                                    traceSeed);

    // References: a solo serial evaluator per lane and trace.
    std::vector<std::vector<trace::TraceResult>> ref(traces.size());
    for (std::size_t ti = 0; ti < traces.size(); ++ti)
        for (const auto& s : specs) {
            trace::TraceDrivenEvaluator ev(lanePredictor(s),
                                           s.bpu.ghistBits,
                                           s.bpu.lhistBits);
            ref[ti].push_back(ev.evaluate(traces[ti], kTraceWarmup));
        }

    std::atomic<std::int64_t> buildNs{0};
    std::vector<double> opS, batchS, laneBuildS;
    unsigned failed = 0, specializedLanes = 0;
    std::uint64_t branchEvals = 0;
    int opId = 0;
    auto op = [&] {
        log.setOp(opId);
        buildNs = 0;
        bool ok = true;
        double batch = 0;
        unsigned specd = 0;
        std::uint64_t evals = 0;
        const auto t0 = Clock::now();
        int os = log.begin("bench.trace_eval.op");
        for (std::size_t ti = 0; ti < traces.size(); ++ti) {
            trace::BatchTraceEvaluator be(1);
            for (const auto& s : specs) {
                trace::BatchLane lane;
                lane.label = s.name;
                const sim::DesignSpec* sp = &s;
                lane.predictor = [sp, &buildNs] {
                    const auto b0 = Clock::now();
                    bpu::ComposedPredictor p = lanePredictor(*sp);
                    buildNs += std::chrono::duration_cast<
                                   std::chrono::nanoseconds>(
                                   Clock::now() - b0)
                                   .count();
                    return p;
                };
                lane.ghistBits = s.bpu.ghistBits;
                lane.lhistBits = s.bpu.lhistBits;
                be.addLane(std::move(lane));
            }
            const auto e0 = Clock::now();
            int es = log.begin("trace.batch_evaluate");
            const auto outs = be.evaluate(traces[ti], kTraceWarmup);
            log.end(es);
            batch += secondsSince(e0);
            for (std::size_t k = 0; k < outs.size(); ++k) {
                ok = ok && outs[k].ok() &&
                     sameResult(outs[k].result, ref[ti][k]);
                specd += outs[k].loop == "specialized" ? 1 : 0;
                evals += outs[k].result.branches;
            }
        }
        log.end(os);
        opS.push_back(secondsSince(t0));
        failed += ok ? 0 : 1;
        batchS.push_back(batch);
        laneBuildS.push_back(static_cast<double>(buildNs.load()) * 1e-9);
        specializedLanes = specd;
        branchEvals = evals;
        ++opId;
    };

    const auto start = Clock::now();
    do {
        op();
        for (unsigned i = 0; i < between; ++i)
            setupOnce();
    } while (secondsSince(start) < seconds);

    std::vector<std::string> stats;
    for (std::size_t ti = 0; ti < traces.size(); ++ti)
        for (std::size_t k = 0; k < specs.size(); ++k)
            stats.push_back(Obj()
                                .s("trace", kTraceWorkloads[ti])
                                .s("lane", specs[k].name)
                                .u("branches", ref[ti][k].branches)
                                .u("mispredicts", ref[ti][k].mispredicts)
                                .n("accuracy", ref[ti][k].accuracy())
                                .str());

    Obj out;
    out.list("setup_s", setup)
        .list("op_s", opS)
        .u("failed", failed)
        .u("lanes", specs.size())
        .u("op_branch_evals", branchEvals)
        .u("op_span_insts", spanInsts * specs.size())
        .n("peak_rss_mb", peakRssMb())
        .raw("stats", arr(stats));
    if (traced) {
        // Solo lanes on the batch lanes' own path (specialized where
        // registered, fused packet sweep), one after another.
        double solo = 0;
        log.setOp(opId);
        {
            Scoped ss(log, "trace.lane_serial");
            for (std::size_t ti = 0; ti < traces.size(); ++ti)
                for (const auto& s : specs) {
                    trace::TraceDrivenEvaluator ev(lanePredictor(s),
                                                   s.bpu.ghistBits,
                                                   s.bpu.lhistBits);
                    ev.specialize();
                    ev.setFusedPredict(true);
                    const auto l0 = Clock::now();
                    ev.evaluate(traces[ti], kTraceWarmup);
                    solo += secondsSince(l0);
                }
        }
        out.list("program.build_s", buildS)
            .list("trace.record_s", recordS)
            .list("trace.batch_evaluate_s", batchS)
            .list("bpu.build_lane_s", laneBuildS)
            .n("trace.lane_serial_s", solo)
            .u("trace.specialized_lanes", specializedLanes)
            .u("trace.branch_evals", branchEvals)
            .raw("spans", log.json());
    }
    std::printf("%s\n", out.str().c_str());
    return 0;
}

// ---- search set-up and warp probe --------------------------------------------

int
cmdSearchSetup(const Args& a)
{
    // What the search's tier 0 prepares before any candidate runs:
    // the mcf program and its recorded 60k-branch trace (recorded at
    // the trace default seed, as the driver does).
    const unsigned reps = static_cast<unsigned>(a.u64("setup-reps", 3));
    std::vector<double> setup;
    std::uint64_t span = 0;
    for (unsigned i = 0; i < reps; ++i) {
        prog::WorkloadCache cache;
        const auto t0 = Clock::now();
        const prog::Program& p = cache.get("mcf");
        const trace::BranchTrace t = trace::recordTrace(p, kTraceBranches);
        setup.push_back(secondsSince(t0));
        if (t.size() != kTraceBranches)
            throw std::runtime_error("short trace");
        if (i == 0)
            span = traceSpanInsts(p, kTraceBranches, 0xD15EA5E);
    }
    std::printf("%s\n", Obj()
                            .list("setup_s", setup)
                            .u("trace_span_insts", span)
                            .str()
                            .c_str());
    return 0;
}

int
cmdWarpProbe(const Args& a)
{
    // Tier-2 settings (search defaults) on the TAGE-L anchor, mcf.
    (void)a;
    prog::WorkloadCache cache;
    const sim::DesignSpec spec = sim::presetSpec(sim::Design::TageL);
    sim::SimConfig cfg = sim::makeConfig(spec);
    cfg.maxInsts = 200'000;
    warp::WarpConfig w;
    w.intervals = 4;
    w.warmupCycles = 10'000;
    w.sampleInsts = 0;
    w.jobs = 2;
    const prog::Program& p = cache.get("mcf");
    const auto t0 = Clock::now();
    const warp::WarpEstimate est = warp::runWarp(
        p, [&spec] { return sim::buildTopology(spec); }, cfg, w);
    const double s = secondsSince(t0);
    std::printf("%s\n", Obj()
                            .n("warp.run_s", s)
                            .u("warp.ff_insts", est.ffInsts)
                            .u("warp.detailed_insts", est.detailedInsts)
                            .n("ipc", est.ipc)
                            .n("mpki", est.mpki)
                            .str()
                            .c_str());
    return 0;
}

// ---- serve probe -------------------------------------------------------------

std::vector<std::string>
listDir(const std::string& dir, const std::string& suffix)
{
    std::vector<std::string> out;
    if (DIR* d = opendir(dir.c_str())) {
        while (dirent* e = readdir(d)) {
            const std::string n = e->d_name;
            if (n.size() > suffix.size() &&
                n.compare(n.size() - suffix.size(), suffix.size(),
                          suffix) == 0)
                out.push_back(dir + "/" + n);
        }
        closedir(d);
    }
    std::sort(out.begin(), out.end());
    return out;
}

int
cmdServeProbe(const Args& a)
{
    const std::string reqText = readFile(a.str("request"));
    const std::string spool = a.str("spool");
    const std::string work = a.str("work");
    const std::string doc = readFile(a.str("result"));
    const unsigned reps = static_cast<unsigned>(a.u64("reps", 20));

    std::vector<double> parseS, lookupS, appendS, writeS;
    serve::SweepRequest req;
    for (unsigned i = 0; i < reps; ++i) {
        const auto t0 = Clock::now();
        req = serve::SweepRequest::parse(reqText, "probe");
        parseS.push_back(secondsSince(t0));
    }

    // The daemon's warm entries for this request's one key.
    serve::WarmCache warm(spool + "/warm");
    const std::vector<std::string> snaps = listDir(spool + "/warm", ".snap");
    if (snaps.size() != req.intervals)
        throw std::runtime_error("warm cache holds " +
                                 std::to_string(snaps.size()) +
                                 " snapshots, expected " +
                                 std::to_string(req.intervals));
    for (unsigned i = 0; i < reps; ++i) {
        const auto t0 = Clock::now();
        for (const auto& p : snaps) {
            warp::Snapshot s;
            if (!warm.lookup(p, s))
                throw std::runtime_error("warm lookup missed " + p);
        }
        lookupS.push_back(secondsSince(t0));
    }

    {
        serve::Journal j(work + "/probe-journal.log");
        serve::Spool sp(work + "/probe-spool");
        for (unsigned i = 0; i < reps; ++i) {
            const auto t0 = Clock::now();
            j.append(serve::Journal::acceptLine(
                "probe-" + std::to_string(i), req.client, req.priority, 1));
            appendS.push_back(secondsSince(t0));
            const auto t1 = Clock::now();
            sp.writeResult("probe-" + std::to_string(i), doc);
            writeS.push_back(secondsSince(t1));
        }
    }

    // The served warp run restored from the warm snapshots, in-process.
    prog::WorkloadCache cache;
    const serve::PointSpec pt = req.points().at(0);
    sim::SimConfig cfg = req.makeConfig(pt.design);
    warp::WarpConfig w;
    w.intervals = req.intervals;
    w.warmupCycles = req.warmupCycles;
    w.sampleInsts = req.sampleInsts;
    w.jobs = 2;
    w.snapshotLookup = [&](unsigned idx, warp::Snapshot& out) {
        const std::string tag = "-i" + std::to_string(idx) + ".snap";
        for (const auto& p : snaps)
            if (p.size() > tag.size() &&
                p.compare(p.size() - tag.size(), tag.size(), tag) == 0)
                return warm.lookup(p, out);
        return false;
    };
    const prog::Program& prog = cache.get(pt.workload);
    std::vector<double> warmRun;
    warp::WarpEstimate est;
    for (int i = 0; i < 3; ++i) {
        const auto t0 = Clock::now();
        est = warp::runWarp(
            prog, [d = pt.design] { return sim::buildTopology(d); }, cfg,
            w);
        warmRun.push_back(secondsSince(t0));
    }
    std::printf("%s\n", Obj()
                            .n("serve.parse_s", median(parseS))
                            .n("serve.warm_lookup_s", median(lookupS))
                            .n("serve.journal_append_s", median(appendS))
                            .n("serve.write_result_s", median(writeS))
                            .n("warp.warm_run_s", median(warmRun))
                            .u("warm_hits", est.warmHits)
                            .n("ipc", est.ipc)
                            .n("mpki", est.mpki)
                            .str()
                            .c_str());
    return 0;
}

int
cmdBuildInfo()
{
#ifdef __OPTIMIZE__
    const bool optimized = true;
#else
    const bool optimized = false;
#endif
    std::printf("%s\n", Obj()
                            .b("optimized", optimized)
                            .s("compiler", __VERSION__)
                            .s("build_type", PERFBENCH_BUILD_TYPE)
                            .str()
                            .c_str());
    return 0;
}

} // namespace

int
main(int argc, char** argv)
{
    if (argc < 2) {
        std::fprintf(stderr, "usage: perfbench_harness <command> ...\n");
        return 2;
    }
    const std::string cmd = argv[1];
    try {
        const Args a = parseArgs(argc, argv);
        if (cmd == "build-info")
            return cmdBuildInfo();
        if (cmd == "detailed")
            return cmdDetailed(a);
        if (cmd == "trace_eval")
            return cmdTraceEval(a);
        if (cmd == "search-setup")
            return cmdSearchSetup(a);
        if (cmd == "warp-probe")
            return cmdWarpProbe(a);
        if (cmd == "serve-probe")
            return cmdServeProbe(a);
        if (cmd == "host-probe") {
            std::printf("%s\n",
                        Obj().n("probe_s", hostProbe()).str().c_str());
            return 0;
        }
        std::fprintf(stderr, "perfbench_harness: unknown command %s\n",
                     cmd.c_str());
        return 2;
    } catch (const std::exception& e) {
        std::fprintf(stderr, "perfbench_harness: %s\n", e.what());
        return 1;
    }
}
