#include "core/backend.hpp"

#include <algorithm>
#include <bit>
#include <cassert>
#include <string>

#include "warp/state_io.hpp"

namespace cobra::core {

using prog::OpClass;

Backend::Backend(exec::Oracle& oracle, bpu::BranchPredictorUnit& bpu,
                 Frontend& frontend, CacheHierarchy& caches,
                 const BackendConfig& cfg)
    : oracle_(oracle), bpu_(bpu), frontend_(frontend), caches_(caches),
      cfg_(cfg)
{
    // Power-of-two seq scoreboard sized so two live seqs (whose spread
    // is bounded by the ROB) can never map to the same slot.
    std::size_t cap = 64;
    while (cap < 2 * static_cast<std::size_t>(cfg_.robEntries))
        cap <<= 1;
    seqTable_.assign(cap, SeqSlot{});
    seqMask_ = cap - 1;
    nextDoneCycle_ = kNeverCycle;

    std::size_t robCap = 16;
    while (robCap < static_cast<std::size_t>(cfg_.robEntries))
        robCap <<= 1;
    robBuf_.resize(robCap);
    robMask_ = robCap - 1;

    robWords_ = (robCap + 63) / 64;
    readyBits_.assign(robWords_, 0);
    issuedBits_.assign(robWords_, 0);
    squashed_.assign(robWords_, 0);
    consumers_.assign(robCap * robWords_, 0);
    pending_.assign(robCap, 0);
}

Backend::RobHeadView
Backend::robHead() const
{
    RobHeadView v;
    if (robCount_ == 0)
        return v;
    const RobEntry& e = robAt(0);
    v.valid = true;
    v.pc = e.fi.di.pc;
    v.seq = e.fi.di.seq;
    v.ftq = e.fi.ftq;
    v.wrongPath = e.fi.di.wrongPath;
    switch (e.st) {
      case RobEntry::St::Waiting: v.state = "waiting"; break;
      case RobEntry::St::Issued: v.state = "issued"; break;
      case RobEntry::St::Done: v.state = "done"; break;
    }
    return v;
}

bpu::CfiType
Backend::cfiTypeOf(OpClass op)
{
    switch (op) {
      case OpClass::CondBranch:
        return bpu::CfiType::Br;
      case OpClass::Jump:
      case OpClass::Call:
        return bpu::CfiType::Jal;
      case OpClass::IndirectJump:
      case OpClass::IndirectCall:
      case OpClass::Return:
        return bpu::CfiType::Jalr;
      default:
        return bpu::CfiType::None;
    }
}

Cycle
Backend::execLatency(const exec::DynInst& di)
{
    switch (di.si->op) {
      case OpClass::IntMul:
        return 3;
      case OpClass::IntDiv:
        return 12;
      case OpClass::FpAlu:
        return 4;
      case OpClass::Load:
        return caches_.loadAccess(di.memAddr);
      case OpClass::Store:
        return caches_.storeAccess(di.memAddr);
      default:
        return 1;
    }
}

template <typename F>
void
Backend::forEachOldestFirst(const std::vector<Word>& bits, F&& visit) const
{
    // Walk the head's word from the head bit up, the other words in
    // ring order, then the head's word again below the head bit.
    const std::size_t headWord = robHeadIdx_ >> 6;
    const Word belowHead = (Word{1} << (robHeadIdx_ & 63)) - 1;
    for (std::size_t k = 0; k <= robWords_; ++k) {
        const std::size_t wi = (headWord + k) & (robWords_ - 1);
        Word w = bits[wi];
        if (k == 0)
            w &= ~belowHead;
        else if (k == robWords_)
            w &= belowHead;
        while (w != 0) {
            const std::size_t slot =
                (wi << 6) + static_cast<unsigned>(std::countr_zero(w));
            w &= w - 1;
            if (!visit(slot))
                return;
        }
    }
}

void
Backend::waitOn(std::size_t slot, std::size_t producer)
{
    Word& w = consumersOf(producer)[slot >> 6];
    const Word bit = Word{1} << (slot & 63);
    if ((w & bit) != 0)
        return; // Same producer twice (dep1 == dep2): count it once.
    w |= bit;
    ++pending_[slot];
}

std::ptrdiff_t
Backend::inFlightGuardSlot(std::uint64_t dyn_id) const
{
    for (std::size_t i = robCount_; i-- > 0;) {
        const RobEntry& g = robAt(i);
        if (g.sfbConverted && g.fi.dynId == dyn_id) {
            return g.st == RobEntry::St::Done
                       ? -1
                       : static_cast<std::ptrdiff_t>(slotOf(i));
        }
    }
    return -1; // Committed: its predicate is architectural.
}

void
Backend::registerWaiting(std::size_t slot)
{
    const RobEntry& e = robBuf_[slot];
    pending_[slot] = 0;
    for (SeqNum dep : {e.fi.di.dep1, e.fi.di.dep2}) {
        if (dep == kInvalidSeq)
            continue;
        const SeqSlot& s = seqTable_[dep & seqMask_];
        if (s.seq == dep && s.done == 0)
            waitOn(slot, s.robSlot);
    }
    if (e.sfbShadow) {
        // A predicated shadow reads its SFB guard's predicate bit.
        const std::ptrdiff_t g = inFlightGuardSlot(e.sfbGuard);
        if (g >= 0)
            waitOn(slot, static_cast<std::size_t>(g));
    }
    if (pending_[slot] == 0)
        setBit(readyBits_.data(), slot);
}

void
Backend::squashYoungerThan(std::size_t idx)
{
    bool orphans = false;
    while (robCount_ > idx + 1) {
        const std::size_t slot = slotOf(robCount_ - 1);
        RobEntry& e = robBuf_[slot];
        if (e.st == RobEntry::St::Waiting) {
            --iqCount_[static_cast<unsigned>(e.iq)];
            if (pending_[slot] != 0) {
                setBit(squashed_.data(), slot);
                orphans = true;
            }
        } else if (e.st == RobEntry::St::Issued) {
            --issuedCount_;
        }
        clearBit(readyBits_.data(), slot);
        clearBit(issuedBits_.data(), slot);
        if (e.fi.di.si->op == OpClass::Load && ldqCount_ > 0)
            --ldqCount_;
        if (e.fi.di.si->op == OpClass::Store && stqCount_ > 0)
            --stqCount_;
        if (e.fi.di.seq != kInvalidSeq)
            seqErase(e.fi.di.seq);
        --robCount_;
    }
    if (orphans) {
        // Squashed consumers leave the rows of surviving producers
        // before their slots are reused. Done producers' rows are
        // already empty (emptied when they woke their consumers).
        for (std::size_t i = 0; i < robCount_; ++i) {
            if (robAt(i).st == RobEntry::St::Done)
                continue;
            Word* row = consumersOf(slotOf(i));
            for (std::size_t w = 0; w < robWords_; ++w)
                row[w] &= ~squashed_[w];
        }
        std::fill(squashed_.begin(), squashed_.end(), 0);
    }
    // Any in-dispatch SFB region referred to killed instructions.
    sfbActive_ = false;
}

bool
Backend::resolveCf(std::size_t idx, Cycle now)
{
    (void)now;
    RobEntry& e = robAt(idx);
    const exec::DynInst& di = e.fi.di;
    const OpClass op = di.si->op;
    const bpu::CfiType type = cfiTypeOf(op);

    const bool actualTaken = di.taken;
    const Addr actualNext = di.nextPc;
    bool mispredict = false;
    if (op == OpClass::CondBranch) {
        mispredict = actualTaken != e.fi.predTaken ||
                     (actualTaken && actualNext != e.fi.predNextPc);
    } else {
        mispredict = actualNext != e.fi.predNextPc;
    }

    if (e.sfbConverted) {
        // Predication: no flush, no redirect, no predictor training.
        bpu::BranchResolution res;
        res.ftq = e.fi.ftq;
        res.slot = e.fi.slot;
        res.type = type;
        res.taken = actualTaken;
        res.target = actualNext;
        res.mispredicted = false;
        res.sfbConverted = true;
        bpu_.resolve(res);
        e.wasMispredict = false;
        return false;
    }

    bpu::BranchResolution res;
    res.ftq = e.fi.ftq;
    res.slot = e.fi.slot;
    res.type = type;
    res.taken = actualTaken;
    res.target = actualTaken ? actualNext : kInvalidAddr;
    res.isCall = prog::isCall(op);
    res.isRet = op == OpClass::Return;
    res.mispredicted = mispredict;
    bpu_.resolve(res);

    e.wasMispredict = mispredict;
    if (!mispredict)
        return false;

    ++resolvedMispredicts_;

    // ---- Squash and redirect ------------------------------------------
    squashYoungerThan(idx);

    // Global-history repair (paper §VI-B): restore the predict-time
    // snapshot from the history file and re-push resolved outcomes.
    if (cfg_.ghistMode != bpu::GhistRepairMode::None &&
        bpu_.historyFile().contains(e.fi.ftq)) {
        const bpu::HistoryFileEntry& hfe =
            bpu_.historyFile().at(e.fi.ftq);
        bpu_.restoreSpecGhist(hfe.ghist);
        for (unsigned s = 0; s <= e.fi.slot && s < bpu::kMaxFetchWidth;
             ++s) {
            if (!hfe.brMask[s])
                continue;
            const bool bit = s == e.fi.slot &&
                             type == bpu::CfiType::Br && actualTaken;
            bpu_.pushSpecGhist(bit);
        }
    }

    // RAS repair: restore the packet's pointer snapshot, then replay
    // the resolved CFI's own stack operation.
    std::uint32_t rasPtr = 0;
    if (bpu_.historyFile().contains(e.fi.ftq))
        rasPtr = bpu_.historyFile().at(e.fi.ftq).rasPtr;
    else
        rasPtr = frontend_.ras().pointer();

    // Oracle stream: rewind past the resolved instruction when it was
    // on the architectural path.
    bool onOracle = false;
    if (di.seq != kInvalidSeq && !di.wrongPath) {
        oracle_.rewindTo(di.seq + 1);
        onOracle = true;
    }

    frontend_.redirect(actualNext, onOracle, rasPtr, now);
    if (actualTaken && res.isCall)
        frontend_.ras().push(di.pc + kInstBytes);
    if (actualTaken && res.isRet)
        frontend_.ras().pop();

    return true;
}

void
Backend::completeAndResolve(Cycle now)
{
    // Nothing in flight can finish before nextDoneCycle_ (a lower
    // bound, exact after an uninterrupted walk) — skip the walk.
    if (issuedCount_ == 0 || now < nextDoneCycle_)
        return;
    Cycle nextDone = kNeverCycle;
    forEachOldestFirst(issuedBits_, [&](std::size_t slot) {
        RobEntry& e = robBuf_[slot];
        if (e.doneCycle > now) {
            nextDone = std::min(nextDone, e.doneCycle);
            return true;
        }
        e.st = RobEntry::St::Done;
        clearBit(issuedBits_.data(), slot);
        --issuedCount_;
        if (e.fi.di.seq != kInvalidSeq)
            seqTable_[e.fi.di.seq & seqMask_].done = 1;

        // Wake: every consumer waiting on this slot loses a producer.
        Word* row = consumersOf(slot);
        for (std::size_t w = 0; w < robWords_; ++w) {
            for (Word bits = row[w]; bits != 0; bits &= bits - 1) {
                const std::size_t c =
                    (w << 6) +
                    static_cast<unsigned>(std::countr_zero(bits));
                if (--pending_[c] == 0)
                    setBit(readyBits_.data(), c);
            }
            row[w] = 0;
        }

        if (prog::isControlFlow(e.fi.di.si->op) &&
            resolveCf((slot - robHeadIdx_) & robMask_, now))
            return false; // Everything younger is gone (already walked).
        return true;
    });
    nextDoneCycle_ = nextDone;
}

void
Backend::issue(Cycle now)
{
    // Select oldest first across all three queue classes: loads and
    // stores touch the caches in execLatency, so issue order is
    // visible in LRU state.
    unsigned ports[3] = {cfg_.aluPorts, cfg_.memPorts, cfg_.fpPorts};
    unsigned portsLeft = ports[0] + ports[1] + ports[2];
    if (portsLeft == 0)
        return;
    forEachOldestFirst(readyBits_, [&](std::size_t slot) {
        RobEntry& e = robBuf_[slot];
        if (now < e.earliestIssue)
            return true;
        unsigned& port = ports[static_cast<unsigned>(e.iq)];
        if (port == 0)
            return true;
        --port;
        e.st = RobEntry::St::Issued;
        clearBit(readyBits_.data(), slot);
        setBit(issuedBits_.data(), slot);
        e.doneCycle = now + execLatency(e.fi.di);
        ++issuedCount_;
        if (e.doneCycle < nextDoneCycle_)
            nextDoneCycle_ = e.doneCycle;
        --iqCount_[static_cast<unsigned>(e.iq)];
        ++issued_;
        return --portsLeft != 0;
    });
}

void
Backend::commit(Cycle now)
{
    (void)now;
    unsigned n = 0;
    while (n < cfg_.coreWidth && robCount_ != 0 &&
           robAt(0).st == RobEntry::St::Done) {
        RobEntry& e = robAt(0);
        ++committedInsts_;
        const OpClass op = e.fi.di.si->op;
        if (prog::isControlFlow(op)) {
            ++committedCfis_;
            if (op == OpClass::CondBranch && !e.sfbConverted)
                ++committedBranches_;
            if (e.wasMispredict) {
                if (op == OpClass::CondBranch)
                    ++condMispredicts_;
                else
                    ++jalrMispredicts_;
            }
            if (tracer_ != nullptr) {
                tracer_->record(scope::TraceKind::Commit, e.fi.di.pc,
                                static_cast<std::uint32_t>(e.fi.ftq),
                                scope::kNoComponent,
                                static_cast<std::uint8_t>(e.fi.slot),
                                e.wasMispredict);
            }
        }
        if (op == OpClass::Load && ldqCount_ > 0)
            --ldqCount_;
        if (op == OpClass::Store && stqCount_ > 0)
            --stqCount_;

        // Packet-granularity commit notification to the BPU.
        if (anyCommitted_ && e.fi.ftq != lastCommittedFtq_)
            bpu_.commitPacket(lastCommittedFtq_);
        lastCommittedFtq_ = e.fi.ftq;
        anyCommitted_ = true;

        if (e.fi.di.seq != kInvalidSeq) {
            seqErase(e.fi.di.seq);
            if (!e.fi.di.wrongPath)
                oracle_.retireUpTo(e.fi.di.seq);
        }
        robPopFront();
        ++n;
    }
    committed_ += n;
}

Backend::IqClass
Backend::iqClassOf(OpClass op)
{
    if (op == OpClass::Load || op == OpClass::Store)
        return IqClass::Mem;
    return op == OpClass::FpAlu ? IqClass::Fp : IqClass::Int;
}

Stat<Counter> Backend::*
Backend::dispatchStall(const FetchedInst& fi) const
{
    if (robCount_ >= cfg_.robEntries)
        return &Backend::stallRob_;
    const OpClass op = fi.di.si->op;
    const IqClass iq = iqClassOf(op);
    const unsigned iqCap = iq == IqClass::Int  ? cfg_.intIqEntries
                           : iq == IqClass::Mem ? cfg_.memIqEntries
                                                : cfg_.fpIqEntries;
    if (iqCount_[static_cast<unsigned>(iq)] >= iqCap)
        return &Backend::stallIq_;
    if (op == OpClass::Load && ldqCount_ >= cfg_.ldqEntries)
        return &Backend::stallLdq_;
    if (op == OpClass::Store && stqCount_ >= cfg_.stqEntries)
        return &Backend::stallStq_;
    return nullptr;
}

void
Backend::dispatch(Cycle now)
{
    unsigned n = 0;
    while (n < cfg_.coreWidth && !frontend_.bufferEmpty()) {
        const FetchedInst& fi = frontend_.bufferFront();
        if (const auto stall = dispatchStall(fi)) {
            ++(this->*stall);
            break;
        }
        const OpClass op = fi.di.si->op;
        const IqClass iq = iqClassOf(op);

        const std::size_t slot = slotOf(robCount_);
        RobEntry& e = robBuf_[slot];
        e = RobEntry{};
        e.fi = fi;
        e.iq = iq;
        e.earliestIssue = now + cfg_.decodeDelay;
        frontend_.popFront();

        // ---- SFB decode pass (paper §VI-C) ---------------------------
        if (sfbActive_) {
            if (prog::isControlFlow(op) ||
                e.fi.di.pc >= sfbActiveTarget_) {
                sfbActive_ = false;
            } else {
                e.sfbShadow = true;
                e.sfbGuard = sfbActiveGuard_;
            }
        }
        if (!sfbActive_ && cfg_.sfbEnabled && op == OpClass::CondBranch &&
            e.fi.di.si->sfbEligible && !e.fi.predTaken &&
            e.fi.di.si->target != kInvalidAddr &&
            e.fi.di.si->target > e.fi.di.pc &&
            e.fi.di.si->target - e.fi.di.pc <=
                cfg_.sfbMaxShadowBytes + kInstBytes) {
            e.sfbConverted = true;
            sfbActive_ = true;
            sfbActiveGuard_ = e.fi.dynId;
            sfbActiveTarget_ = e.fi.di.si->target;
            ++sfbConversions_;
        }

        // Wait on in-flight producers before publishing this entry's
        // own seq; its own consumer row starts empty.
        std::fill_n(consumersOf(slot), robWords_, Word{0});
        registerWaiting(slot);
        if (e.fi.di.seq != kInvalidSeq)
            seqInsert(e.fi.di.seq, slot);
        if (op == OpClass::Load)
            ++ldqCount_;
        if (op == OpClass::Store)
            ++stqCount_;
        ++iqCount_[static_cast<unsigned>(iq)];
        ++robCount_;
        ++n;
    }
    dispatched_ += n;
}

void
Backend::tick(Cycle now)
{
    completeAndResolve(now);
    issue(now);
    commit(now);
    dispatch(now);
}

Cycle
Backend::idleUntil(Cycle now) const
{
    if (robCount_ != 0 && robAt(0).st == RobEntry::St::Done)
        return now; // Commit.
    if (!frontend_.bufferEmpty() &&
        dispatchStall(frontend_.bufferFront()) == nullptr)
        return now; // Dispatch.
    // nextDoneCycle_ is a lower bound: at or past it the completion
    // walk runs (and tightens it), so that cycle is not quiescent.
    Cycle wake = issuedCount_ != 0 ? nextDoneCycle_ : kNeverCycle;
    // Ready entries wait only for their decode delay.
    forEachOldestFirst(readyBits_, [&](std::size_t slot) {
        wake = std::min(wake, robBuf_[slot].earliestIssue);
        return wake > now;
    });
    return std::max(wake, now);
}

void
Backend::skipTo(Cycle now, Cycle wake)
{
    if (!frontend_.bufferEmpty())
        this->*dispatchStall(frontend_.bufferFront()) += wake - now;
}

void
Backend::saveState(warp::StateWriter& w) const
{
    w.u64(robCount_);
    for (std::size_t i = 0; i < robCount_; ++i) {
        const RobEntry& e = robAt(i);
        saveFetchedInst(w, e.fi, oracle_.program());
        w.u8(static_cast<std::uint8_t>(e.st));
        w.u8(static_cast<std::uint8_t>(e.iq));
        w.u64(e.earliestIssue);
        w.u64(e.doneCycle);
        w.boolean(e.wasMispredict);
        w.boolean(e.sfbConverted);
        w.boolean(e.sfbShadow);
        w.u64(e.sfbGuard);
    }

    std::uint64_t liveSeqs = 0;
    for (const SeqSlot& s : seqTable_)
        if (s.seq != kInvalidSeq)
            ++liveSeqs;
    w.u64(liveSeqs);
    for (const SeqSlot& s : seqTable_) {
        if (s.seq == kInvalidSeq)
            continue;
        w.u64(s.seq);
        w.u8(s.done);
    }

    w.boolean(sfbActive_);
    w.u64(sfbActiveGuard_);
    w.u64(sfbActiveTarget_);
    w.u64(lastCommittedFtq_);
    w.boolean(anyCommitted_);
    w.u64(committedInsts_);
    w.u64(committedBranches_);
    w.u64(committedCfis_);
    w.u64(condMispredicts_);
    w.u64(jalrMispredicts_);
    w.u64(sfbConversions_);
}

void
Backend::restoreState(warp::StateReader& r)
{
    const std::uint64_t nRob = r.u64();
    if (nRob > cfg_.robEntries)
        r.fail("ROB occupancy exceeds this configuration");
    robHeadIdx_ = 0;
    robCount_ = static_cast<std::size_t>(nRob);
    std::fill(robBuf_.begin(), robBuf_.end(), RobEntry{});
    for (std::size_t i = 0; i < robCount_; ++i) {
        RobEntry& e = robBuf_[i];
        loadFetchedInst(r, e.fi, oracle_.program());
        const std::uint8_t st = r.u8();
        if (st > static_cast<std::uint8_t>(RobEntry::St::Done))
            r.fail("ROB entry state out of range");
        e.st = static_cast<RobEntry::St>(st);
        const std::uint8_t iq = r.u8();
        if (iq > static_cast<std::uint8_t>(IqClass::Fp))
            r.fail("ROB entry issue-queue class out of range");
        e.iq = static_cast<IqClass>(iq);
        e.earliestIssue = r.u64();
        e.doneCycle = r.u64();
        e.wasMispredict = r.boolean();
        e.sfbConverted = r.boolean();
        e.sfbShadow = r.boolean();
        e.sfbGuard = r.u64();
    }

    // The scoreboard is rebuilt from the ROB; the saved copy is only
    // checked against it. A live, unfinished seq with no ROB entry
    // would leave its consumers waiting forever.
    std::fill(seqTable_.begin(), seqTable_.end(), SeqSlot{});
    for (std::size_t i = 0; i < robCount_; ++i) {
        const RobEntry& e = robBuf_[i];
        if (e.fi.di.seq == kInvalidSeq)
            continue;
        SeqSlot& s = seqTable_[e.fi.di.seq & seqMask_];
        if (s.seq != kInvalidSeq)
            r.fail("two ROB entries share a scoreboard slot");
        s.seq = e.fi.di.seq;
        s.robSlot = static_cast<std::uint32_t>(i);
        s.done = e.st == RobEntry::St::Done ? 1 : 0;
    }
    const std::uint64_t liveSeqs = r.u64();
    if (liveSeqs > seqTable_.size())
        r.fail("seq scoreboard occupancy exceeds its capacity");
    for (std::uint64_t i = 0; i < liveSeqs; ++i) {
        const SeqNum seq = r.u64();
        const std::uint8_t done = r.u8();
        if (done == 0 && seqTable_[seq & seqMask_].seq != seq)
            r.fail("scoreboard seq " + std::to_string(seq) +
                   " is in flight but has no ROB entry");
    }

    sfbActive_ = r.boolean();
    sfbActiveGuard_ = r.u64();
    sfbActiveTarget_ = r.u64();
    lastCommittedFtq_ = r.u64();
    anyCommitted_ = r.boolean();
    committedInsts_ = r.u64();
    committedBranches_ = r.u64();
    committedCfis_ = r.u64();
    condMispredicts_ = r.u64();
    jalrMispredicts_ = r.u64();
    sfbConversions_ = r.u64();

    rebuildFromRob();
}

void
Backend::rebuildFromRob()
{
    issuedCount_ = 0;
    nextDoneCycle_ = kNeverCycle;
    std::fill(std::begin(iqCount_), std::end(iqCount_), 0u);
    ldqCount_ = 0;
    stqCount_ = 0;
    std::fill(readyBits_.begin(), readyBits_.end(), 0);
    std::fill(issuedBits_.begin(), issuedBits_.end(), 0);
    std::fill(consumers_.begin(), consumers_.end(), 0);
    std::fill(pending_.begin(), pending_.end(), 0);

    for (std::size_t i = 0; i < robCount_; ++i) {
        const std::size_t slot = slotOf(i);
        const RobEntry& e = robBuf_[slot];
        const OpClass op = e.fi.di.si->op;
        if (op == OpClass::Load)
            ++ldqCount_;
        if (op == OpClass::Store)
            ++stqCount_;
        switch (e.st) {
          case RobEntry::St::Waiting:
            ++iqCount_[static_cast<unsigned>(e.iq)];
            registerWaiting(slot);
            break;
          case RobEntry::St::Issued:
            ++issuedCount_;
            setBit(issuedBits_.data(), slot);
            nextDoneCycle_ = std::min(nextDoneCycle_, e.doneCycle);
            break;
          case RobEntry::St::Done:
            break;
        }
    }
}

} // namespace cobra::core
