#include "sim/sweep.hpp"

#include "guard/errors.hpp"

#include <atomic>
#include <cctype>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <deque>
#include <fstream>
#include <mutex>
#include <sstream>
#include <stdexcept>
#include <thread>

namespace cobra::sim {

SweepPoint
SweepPoint::preset(Design d, const prog::Program& program)
{
    SweepPoint p;
    p.label = std::string(designName(d)) + "/" + program.name();
    p.topology = [d] { return buildTopology(d); };
    p.program = &program;
    p.cfg = makeConfig(d);
    return p;
}

SweepEngine::SweepEngine(unsigned jobs)
    : jobs_(jobs == 0 ? defaultJobs() : jobs)
{
}

unsigned
SweepEngine::defaultJobs()
{
    if (const char* env = std::getenv("COBRA_JOBS")) {
        const long n = std::strtol(env, nullptr, 10);
        return n >= 1 ? static_cast<unsigned>(n) : 1u;
    }
    const unsigned hw = std::thread::hardware_concurrency();
    return hw >= 1 ? hw : 1u;
}

std::size_t
SweepEngine::add(SweepPoint p)
{
    if (!p.topology)
        throw std::invalid_argument("SweepPoint without a topology");
    if (p.program == nullptr)
        throw std::invalid_argument("SweepPoint without a program");
    points_.push_back(std::move(p));
    return points_.size() - 1;
}

SweepOutcome
SweepEngine::runPoint(std::size_t idx, const SweepPoint& pt,
                      const PostRun& postRun) const
{
    SweepOutcome out;
    out.label = pt.label;
    const auto t0 = std::chrono::steady_clock::now();
    try {
        Simulator s(*pt.program, pt.topology(), pt.cfg);
        out.result = pt.execute ? pt.execute(s) : s.run();
        out.loop = s.loopVariant();
        out.host.simCycles = s.cycles();
        out.host.simInsts = s.backend().committedInsts();
        if (postRun) {
            std::ostringstream oss;
            postRun(idx, s, out.result, pt, oss);
            out.postRunText = oss.str();
        }
        // CobraScope renders on the worker, while the Simulator is
        // alive; the writers later concatenate in submission order.
        if (!pt.cfg.output.statsJsonPath.empty())
            out.statsJson = renderPointStats(pt.label, s, out.result);
        if (s.tracer() != nullptr) {
            JsonWriter w;
            s.tracer()->writeChromeTrace(w, static_cast<unsigned>(idx),
                                         pt.label);
            out.traceEvents = std::move(w).str();
        }
    } catch (const guard::DeadlockError& e) {
        // Keep the watchdog's pipeline post-mortem attached so CLI
        // consumers can still print it.
        out.error = std::string(e.what()) + "\n" + e.postMortem();
        out.errorClass = guard::errorClassOf(e);
    } catch (const std::exception& e) {
        out.error = e.what();
        out.errorClass = guard::errorClassOf(e);
    } catch (...) {
        // A non-std exception from a user-supplied topology factory
        // or execute hook must not tear down the worker pool either.
        out.error = "unknown non-std exception";
        out.errorClass = "internal";
    }
    const auto t1 = std::chrono::steady_clock::now();
    out.host.wallSeconds =
        std::chrono::duration<double>(t1 - t0).count();
    return out;
}

std::vector<SweepOutcome>
SweepEngine::run(const PostRun& postRun)
{
    std::vector<SweepPoint> points = std::move(points_);
    points_.clear();
    std::vector<SweepOutcome> outcomes(points.size());

    // Progress goes to stderr only (stdout must stay byte-identical
    // with and without it). The counter is shared across workers; the
    // line itself is a single atomic-enough fprintf.
    std::atomic<std::size_t> completed{0};
    auto report = [&](std::size_t idx, const SweepOutcome& o) {
        if (onOutcome_)
            onOutcome_(idx, o);
        if (!progress_)
            return;
        const std::size_t k = completed.fetch_add(1) + 1;
        std::fprintf(stderr, "[%zu/%zu] %s: %.0f kcps%s\n", k,
                     points.size(), o.label.c_str(),
                     o.host.kiloCyclesPerSec(),
                     o.ok() ? "" : " (FAILED)");
    };
    auto cancel = [&](std::size_t idx) {
        outcomes[idx].label = points[idx].label;
        outcomes[idx].error = "interrupted before start";
        outcomes[idx].errorClass = "interrupted";
    };

    // One point per task; the stop flag is polled between points.
    runTasks(points.size(), [&](std::size_t idx) {
        if (stopped()) {
            cancel(idx);
            return;
        }
        outcomes[idx] = runPoint(idx, points[idx], postRun);
        report(idx, outcomes[idx]);
    });
    return outcomes;
}

void
SweepEngine::runTasks(std::size_t num_tasks,
                      const std::function<void(std::size_t)>& task) const
{
    const unsigned workers = static_cast<unsigned>(
        std::min<std::size_t>(jobs_, num_tasks));

    if (workers <= 1) {
        // Inline serial path: the deterministic reference, and the
        // zero-overhead path for single-point "sweeps" (cobra_sim).
        for (std::size_t i = 0; i < num_tasks; ++i)
            task(i);
        return;
    }

    // Work-stealing deques: tasks are dealt round-robin; a worker
    // pops its own queue from the back (LIFO keeps its cache warm)
    // and steals from other queues' fronts (FIFO takes the oldest,
    // largest-remaining work first). Each task writes only its own
    // result slots, so no synchronisation is needed on results.
    struct WorkerQueue
    {
        std::mutex m;
        std::deque<std::size_t> q;
    };
    std::vector<WorkerQueue> queues(workers);
    for (std::size_t i = 0; i < num_tasks; ++i)
        queues[i % workers].q.push_back(i);

    auto work = [&](unsigned self) {
        for (;;) {
            std::size_t t = SIZE_MAX;
            {
                std::lock_guard<std::mutex> lk(queues[self].m);
                if (!queues[self].q.empty()) {
                    t = queues[self].q.back();
                    queues[self].q.pop_back();
                }
            }
            if (t == SIZE_MAX) {
                for (unsigned v = 1; v < workers && t == SIZE_MAX;
                     ++v) {
                    WorkerQueue& victim = queues[(self + v) % workers];
                    std::lock_guard<std::mutex> lk(victim.m);
                    if (!victim.q.empty()) {
                        t = victim.q.front();
                        victim.q.pop_front();
                    }
                }
            }
            if (t == SIZE_MAX)
                return; // All queues drained.
            task(t);
        }
    };

    std::vector<std::thread> pool;
    pool.reserve(workers);
    for (unsigned w = 0; w < workers; ++w)
        pool.emplace_back(work, w);
    for (auto& t : pool)
        t.join();
}

void
writeResultFields(JsonWriter& w, const SimResult& r)
{
    r.forEachField([&](const char* name, const auto& v) {
        std::string key; // camelCase -> snake_case
        for (const char* c = name; *c != '\0'; ++c) {
            if (*c >= 'A' && *c <= 'Z')
                key += '_';
            key += static_cast<char>(
                std::tolower(static_cast<unsigned char>(*c)));
        }
        w.field(key, v);
    });
    w.field("ipc", r.ipc()).field("mpki", r.mpki());
    w.field("accuracy", r.accuracy());
}

void
writeSweepJson(const std::string& path, const std::string& name,
               const std::vector<SweepOutcome>& outcomes, unsigned jobs,
               const JsonMembers& extra)
{
    JsonWriter w;
    w.object().field("bench", name).field("jobs", jobs);
    if (extra)
        extra(w);
    w.key("points").array();
    for (const SweepOutcome& o : outcomes) {
        w.object().field("label", o.label);
        if (!o.ok()) {
            w.field("error_class",
                    o.errorClass.empty() ? "internal" : o.errorClass);
            w.field("error", o.error).end();
            continue;
        }
        writeResultFields(w, o.result);
        w.field("loop", o.loop.empty() ? "generic" : o.loop);
        w.key("host").object().field("wall_seconds", o.host.wallSeconds);
        w.field("sim_cycles", o.host.simCycles);
        w.field("sim_insts", o.host.simInsts);
        w.field("kilocycles_per_sec", o.host.kiloCyclesPerSec());
        w.field("kips", o.host.kips()).end().end();
    }
    writeJsonFile(path, w.end().end());
}

std::string
renderPointStats(const std::string& label, const Simulator& s,
                 const SimResult& r)
{
    return renderPointStats(label, r, [&s](JsonWriter& w) {
        s.statRegistry().writeJson(w);
    });
}

std::string
renderPointStats(const std::string& label, const SimResult& r,
                 const JsonMembers& groups)
{
    JsonWriter w(2);
    w.object().field("label", label).key("result").object();
    writeResultFields(w, r);
    w.end().key("groups").object();
    groups(w);
    w.end().end();
    return std::move(w).str();
}

// The stats and trace files can be large: their per-point fragments
// stream to the file as they are spliced, so the document is never
// held in memory a second time.

void
writeStatsJson(const std::string& path, const std::string& tool,
               const std::vector<SweepOutcome>& outcomes, unsigned jobs)
{
    std::ofstream f(path);
    JsonWriter w;
    w.object().field("tool", tool).field("version", 1).field("jobs", jobs);
    w.key("points").array();
    for (const SweepOutcome& o : outcomes) {
        if (!o.statsJson.empty()) {
            w.splice(o.statsJson).drain(f);
            continue;
        }
        w.object().field("label", o.label);
        w.field("error", o.ok() ? "stats not rendered" : o.error).end();
    }
    if (!(f << w.end().end().str() << '\n'))
        throw std::runtime_error("cannot write " + path);
}

void
writeTraceEvents(const std::string& path,
                 const std::vector<SweepOutcome>& outcomes)
{
    std::ofstream f(path);
    JsonWriter w(-1);
    w.array();
    for (const SweepOutcome& o : outcomes)
        w.splice(o.traceEvents).drain(f);
    // A final metadata event, so the array is never empty.
    w.object(JsonWriter::Inline).field("name", "cobra_trace");
    w.field("ph", "M").field("pid", 0).field("tid", 0);
    w.key("args").object(JsonWriter::Inline);
    w.field("points", outcomes.size()).end().end();
    if (!(f << w.end().str() << '\n'))
        throw std::runtime_error("cannot write " + path);
}

} // namespace cobra::sim
