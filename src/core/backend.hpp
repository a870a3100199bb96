/**
 * @file
 * The out-of-order backend: decode/dispatch (with the short-forwards-
 * branch predication pass of paper §VI-C), a wakeup/select dataflow
 * scheduler with issue-port and queue-capacity limits per Table II,
 * out-of-order branch resolution with squash/redirect, and in-order
 * commit driving the predictor's commit-time updates.
 */

#ifndef COBRA_CORE_BACKEND_HPP
#define COBRA_CORE_BACKEND_HPP

#include <cassert>
#include <cstddef>
#include <vector>

#include "bpu/bpu.hpp"
#include "core/cache.hpp"
#include "core/frontend.hpp"
#include "exec/oracle.hpp"

namespace cobra::core {

/** Backend configuration (Table II). */
struct BackendConfig
{
    unsigned coreWidth = 4;     ///< Decode/rename/commit width.
    unsigned robEntries = 128;
    unsigned intIqEntries = 32;
    unsigned memIqEntries = 32;
    unsigned fpIqEntries = 32;
    unsigned ldqEntries = 32;
    unsigned stqEntries = 32;
    unsigned aluPorts = 4;
    unsigned memPorts = 2;
    unsigned fpPorts = 2;
    /** Cycles from dispatch to earliest issue (decode/rename depth). */
    unsigned decodeDelay = 3;

    /** Short-forwards-branch predication (paper §VI-C). */
    bool sfbEnabled = false;
    unsigned sfbMaxShadowBytes = 32;

    /** Global-history repair policy at mispredicts (paper §VI-B). */
    bpu::GhistRepairMode ghistMode =
        bpu::GhistRepairMode::RepairAndReplay;
};

/**
 * The execution engine. Consumes FetchedInsts from the frontend's
 * fetch buffer; resolves branches against the oracle outcomes carried
 * by each instruction.
 */
class Backend
{
  public:
    Backend(exec::Oracle& oracle, bpu::BranchPredictorUnit& bpu,
            Frontend& frontend, CacheHierarchy& caches,
            const BackendConfig& cfg);

    /** Advance one cycle (execute-complete, issue, commit, dispatch). */
    void tick(Cycle now);

    /**
     * Quiescence probe for the simulator's cycle skip: @p now when a
     * tick at @p now could change state beyond the dispatch stall
     * counters; otherwise the first cycle at which an issued entry
     * may complete or a ready entry may issue (kNeverCycle when only
     * the frontend can unblock this unit).
     */
    Cycle idleUntil(Cycle now) const;

    /**
     * Account for the quiescent cycles [@p now, @p wake) that
     * idleUntil(@p now) reported: bump exactly the stall counter
     * dispatching in each of them would have.
     */
    void skipTo(Cycle now, Cycle wake);

    bool robEmpty() const { return robCount_ == 0; }
    std::size_t robSize() const { return robCount_; }

    /** Snapshot of the ROB head for the watchdog post-mortem. */
    struct RobHeadView
    {
        bool valid = false;
        Addr pc = kInvalidAddr;
        SeqNum seq = kInvalidSeq;
        std::uint64_t ftq = 0;
        const char* state = "empty"; ///< waiting / issued / done.
        bool wrongPath = false;
    };

    RobHeadView robHead() const;

    // ---- Metrics -------------------------------------------------------

    std::uint64_t committedInsts() const { return committedInsts_; }
    std::uint64_t committedBranches() const { return committedBranches_; }
    std::uint64_t committedCfis() const { return committedCfis_; }
    std::uint64_t condMispredicts() const { return condMispredicts_; }
    std::uint64_t jalrMispredicts() const { return jalrMispredicts_; }
    std::uint64_t allMispredicts() const
    {
        return condMispredicts_ + jalrMispredicts_;
    }
    std::uint64_t sfbConversions() const { return sfbConversions_; }

    StatGroup& stats() { return stats_; }
    const StatGroup& stats() const { return stats_; }

    /** Attach a CobraScope tracer (nullptr detaches; not owned). */
    void setTracer(scope::Tracer* t) { tracer_ = t; }

    const BackendConfig& config() const { return cfg_; }

    /**
     * Checkpoint the execution-engine state: the ROB (every in-flight
     * instruction with its scheduling state), the seq scoreboard, SFB
     * predication state, and the commit counters. Registered stat
     * handles ride the stat registry. Everything derivable from the
     * ROB (wakeup bitmaps, queue occupancies, the completion bound) is
     * not saved; restoreState rebuilds it and rejects a scoreboard
     * that disagrees with the ROB.
     */
    void saveState(warp::StateWriter& w) const;
    void restoreState(warp::StateReader& r);

  private:
    enum class IqClass : std::uint8_t { Int = 0, Mem = 1, Fp = 2 };

    struct RobEntry
    {
        FetchedInst fi;
        enum class St : std::uint8_t { Waiting, Issued, Done };
        St st = St::Waiting;
        IqClass iq = IqClass::Int;
        Cycle earliestIssue = 0;
        Cycle doneCycle = 0;
        bool wasMispredict = false;
        bool sfbConverted = false; ///< Branch turned into set-flag.
        bool sfbShadow = false;    ///< Predicated shadow instruction.
        std::uint64_t sfbGuard = 0; ///< dynId of the guarding branch.
    };

    /**
     * Direct-mapped scoreboard of in-flight oracle seq numbers with
     * the ROB slot holding each. Live seqs span at most robEntries
     * consecutive values, so a power-of-two table of >= 2x that can
     * never alias two live entries.
     */
    struct SeqSlot
    {
        SeqNum seq = kInvalidSeq;
        std::uint32_t robSlot = 0;
        std::uint8_t done = 0;
    };

    void
    seqInsert(SeqNum seq, std::size_t rob_slot)
    {
        SeqSlot& s = seqTable_[seq & seqMask_];
        assert(s.seq == kInvalidSeq);
        s.seq = seq;
        s.robSlot = static_cast<std::uint32_t>(rob_slot);
        s.done = 0;
    }

    void
    seqErase(SeqNum seq)
    {
        SeqSlot& s = seqTable_[seq & seqMask_];
        if (s.seq == seq)
            s.seq = kInvalidSeq;
    }

    void completeAndResolve(Cycle now);
    void issue(Cycle now);
    void commit(Cycle now);
    void dispatch(Cycle now);

    static IqClass iqClassOf(prog::OpClass op);

    /**
     * The stall counter dispatching @p fi would bump right now, or
     * nullptr when it can dispatch. The one stall classification for
     * dispatch and the quiescent-cycle skip.
     */
    Stat<Counter> Backend::*dispatchStall(const FetchedInst& fi) const;

    /** Resolve a CF instruction; true if it squashed the pipeline. */
    bool resolveCf(std::size_t idx, Cycle now);

    /** Squash ROB entries younger than index @p idx. */
    void squashYoungerThan(std::size_t idx);

    /** Execution latency for an instruction issued at @p now. */
    Cycle execLatency(const exec::DynInst& di);

    static bpu::CfiType cfiTypeOf(prog::OpClass op);

    exec::Oracle& oracle_;
    bpu::BranchPredictorUnit& bpu_;
    Frontend& frontend_;
    CacheHierarchy& caches_;
    BackendConfig cfg_;

    // ---- ROB ring buffer ------------------------------------------------
    // A power-of-two ring (not std::deque): ring slots are stable for an
    // entry's lifetime, so the scheduler bitmaps below index them.

    std::size_t slotOf(std::size_t i) const
    {
        return (robHeadIdx_ + i) & robMask_;
    }
    RobEntry& robAt(std::size_t i) { return robBuf_[slotOf(i)]; }
    const RobEntry& robAt(std::size_t i) const
    {
        return robBuf_[slotOf(i)];
    }

    void
    robPopFront()
    {
        robHeadIdx_ = (robHeadIdx_ + 1) & robMask_;
        --robCount_;
    }

    std::vector<RobEntry> robBuf_;
    std::size_t robHeadIdx_ = 0;
    std::size_t robCount_ = 0;
    std::size_t robMask_ = 0;

    /** Oracle seq -> in-flight state (dependence tracking). */
    std::vector<SeqSlot> seqTable_;
    std::size_t seqMask_ = 0;

    // ---- Wakeup/select scheduler -----------------------------------------
    // Bitmaps over ROB ring slots. A Waiting entry registers on each
    // in-flight producer it reads (register producers via the seq
    // scoreboard, plus its SFB guard) and counts them in pending_;
    // the producer's completion wakes it into readyBits_. issue() and
    // completeAndResolve() walk only set bits, oldest first. All of it
    // is derived from the ROB: restoreState rebuilds it.

    using Word = std::uint64_t;

    static void setBit(Word* bits, std::size_t slot)
    {
        bits[slot >> 6] |= Word{1} << (slot & 63);
    }
    static void clearBit(Word* bits, std::size_t slot)
    {
        bits[slot >> 6] &= ~(Word{1} << (slot & 63));
    }
    Word* consumersOf(std::size_t slot)
    {
        return &consumers_[slot * robWords_];
    }

    /**
     * Call @p visit(slot) for each set bit of @p bits in age order
     * (ring order from the ROB head) until it returns false. Bits the
     * visitor clears or sets in the word being walked are not seen.
     */
    template <typename F>
    void forEachOldestFirst(const std::vector<Word>& bits,
                            F&& visit) const;

    /** Make the entry in @p slot wait for the producer in @p producer. */
    void waitOn(std::size_t slot, std::size_t producer);

    /** Register a freshly placed Waiting entry on its producers. */
    void registerWaiting(std::size_t slot);

    /** ROB slot of SFB guard @p dyn_id while it is in flight, or -1. */
    std::ptrdiff_t inFlightGuardSlot(std::uint64_t dyn_id) const;

    /** Rebuild every derived scheduling structure from the ROB. */
    void rebuildFromRob();

    std::size_t robWords_ = 0;
    std::vector<Word> readyBits_;  ///< Waiting, every producer done.
    std::vector<Word> issuedBits_; ///< St::Issued.
    std::vector<Word> squashed_;   ///< Scratch for squashYoungerThan.
    /** Row per producer slot: the slots waiting on it. */
    std::vector<Word> consumers_;
    /** Per slot: producers a Waiting entry still waits for. */
    std::vector<std::uint8_t> pending_;

    /** Entries currently in St::Issued. */
    unsigned issuedCount_ = 0;
    /** Lower bound on the earliest doneCycle among issued entries. */
    Cycle nextDoneCycle_ = 0;

    unsigned iqCount_[3] = {0, 0, 0};
    unsigned ldqCount_ = 0;
    unsigned stqCount_ = 0;

    /** Active SFB region during dispatch. */
    bool sfbActive_ = false;
    std::uint64_t sfbActiveGuard_ = 0;
    Addr sfbActiveTarget_ = 0;

    bpu::FtqPos lastCommittedFtq_ = 0;
    bool anyCommitted_ = false;

    std::uint64_t committedInsts_ = 0;
    std::uint64_t committedBranches_ = 0;
    std::uint64_t committedCfis_ = 0;
    std::uint64_t condMispredicts_ = 0;
    std::uint64_t jalrMispredicts_ = 0;
    std::uint64_t sfbConversions_ = 0;

    scope::Tracer* tracer_ = nullptr;

    // Registered stat handles (stats_ must precede them): per-cycle
    // paths increment the members directly.
    StatGroup stats_{"backend"};
    Stat<Counter> resolvedMispredicts_{
        stats_, "resolved_mispredicts",
        "mispredicts resolved at execute (incl. wrong-path)"};
    Stat<Counter> issued_{stats_, "issued", "instructions issued"};
    Stat<Counter> committed_{stats_, "committed",
                             "instructions committed"};
    Stat<Counter> stallRob_{stats_, "stall_rob",
                            "dispatch stalls on a full ROB"};
    Stat<Counter> stallIq_{stats_, "stall_iq",
                           "dispatch stalls on a full issue queue"};
    Stat<Counter> stallLdq_{stats_, "stall_ldq",
                            "dispatch stalls on a full load queue"};
    Stat<Counter> stallStq_{stats_, "stall_stq",
                            "dispatch stalls on a full store queue"};
    Stat<Counter> dispatched_{stats_, "dispatched",
                              "instructions dispatched into the ROB"};
};

} // namespace cobra::core

#endif // COBRA_CORE_BACKEND_HPP
