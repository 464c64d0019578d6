#include "controller.hh"

#include <limits>

#include "common/logging.hh"
#include "htm/hint_oracle.hh"
#include "mem/directory.hh"

namespace hintm
{
namespace htm
{

const char *
abortReasonName(AbortReason r)
{
    switch (r) {
      case AbortReason::None: return "none";
      case AbortReason::Conflict: return "conflict";
      case AbortReason::FalseConflict: return "false-conflict";
      case AbortReason::Capacity: return "capacity";
      case AbortReason::PageMode: return "page-mode";
      case AbortReason::FallbackLock: return "fallback-lock";
    }
    return "?";
}

const char *
conflictPolicyName(ConflictPolicy p)
{
    switch (p) {
      case ConflictPolicy::AttackerWins: return "attacker-wins";
      case ConflictPolicy::RequesterLoses: return "requester-loses";
    }
    return "?";
}

const char *
htmKindName(HtmKind k)
{
    switch (k) {
      case HtmKind::P8: return "P8";
      case HtmKind::P8S: return "P8S";
      case HtmKind::L1TM: return "L1TM";
      case HtmKind::InfCap: return "InfCap";
    }
    return "?";
}

namespace
{

/** Buffer capacity by kind: bounded only for the dedicated-buffer HTMs. */
unsigned
effectiveBufferEntries(const HtmConfig &cfg)
{
    switch (cfg.kind) {
      case HtmKind::P8:
      case HtmKind::P8S:
        return cfg.bufferEntries;
      case HtmKind::L1TM:
      case HtmKind::InfCap:
        return std::numeric_limits<unsigned>::max();
    }
    return cfg.bufferEntries;
}

} // namespace

HtmController::HtmController(const HtmConfig &cfg, mem::ContextId self,
                             HtmStats *sys_stats)
    : cfg_(cfg), self_(self), stats_(sys_stats)
{
    HINTM_ASSERT(sys_stats != nullptr, "controller needs a stats sink");
    st_.buffer = TxBuffer(effectiveBufferEntries(cfg));
    st_.signature = Signature(cfg.signatureBits, cfg.signatureHashes);
}

void
HtmController::setInterestHook(std::function<void(bool)> hook)
{
    interestHook_ = std::move(hook);
    publishInterest();
}

void
HtmController::publishInterest()
{
    if (interestHook_)
        interestHook_(st_.inTx && !st_.abortPending);
}

void
HtmController::beginTx(Cycle now)
{
    HINTM_ASSERT(!st_.inTx, "nested TX begin on context ", self_);
    HINTM_ASSERT(!st_.abortPending, "begin with unacknowledged abort");
    st_.inTx = true;
    st_.txStart = now;
    ++stats_->begins;
    publishInterest();
}

std::uint8_t
HtmController::trackAccess(Addr addr, AccessType type, bool safe)
{
    if (!st_.inTx || st_.abortPending)
        return TrackFailed;
    if (safe) {
        // The whole point of HinTM: safe accesses consume no tracking
        // resources and may spill from caches freely.
        if (oracle_)
            oracle_->onSafeSkip();
        return TrackFailed;
    }
    const Addr block = blockAlign(addr);

    if (const std::uint8_t tr = st_.buffer.track(block, type)) {
        if (dir_)
            dir_->txTrack(block, unsigned(self_));
        return tr & (NewlyRead | NewlyWritten);
    }

    // Buffer exhausted.
    if (cfg_.kind == HtmKind::P8S) {
        if (type == AccessType::Read) {
            // Reads spill into the signature instead of aborting.
            st_.signature.insert(block);
            const bool is_new = st_.overflowReads.insert(block);
            if (dir_) {
                dir_->txTrack(block, unsigned(self_));
                dir_->setSigActive(unsigned(self_), true);
            }
            ++stats_->signatureSpills;
            return is_new ? std::uint8_t(NewlyRead) : TrackFailed;
        }
        // Writes need real buffering: displace a read-only entry into
        // the signature to make room. Only a full buffer of written
        // blocks is a true (writeset) capacity overflow.
        const Addr victim = st_.buffer.findReadOnlyVictim();
        if (victim != ~Addr(0)) {
            // The victim moves to the spilled reads, so its directory
            // tracker registration stays valid.
            st_.buffer.erase(victim);
            st_.signature.insert(victim);
            st_.overflowReads.insert(victim);
            ++stats_->signatureSpills;
            const std::uint8_t tr = st_.buffer.track(block, type);
            HINTM_ASSERT(tr, "buffer still full after displacement");
            if (dir_) {
                dir_->txTrack(block, unsigned(self_));
                dir_->setSigActive(unsigned(self_), true);
            }
            return tr & (NewlyRead | NewlyWritten);
        }
    }
    if (cfg_.preAbortHandler) {
        // Defer: the runtime decides between conversion and abort.
        st_.capacityPending = true;
        st_.capacityPendingBlock = block;
        return TrackFailed;
    }
    triggerAbort(AbortReason::Capacity, block, true, -1);
    return TrackFailed;
}

void
HtmController::noteSafePageRead(Addr page_num)
{
    if (st_.inTx && !st_.abortPending)
        st_.safePages.insert(page_num);
}

void
HtmController::commitTx(Cycle now)
{
    (void)now;
    HINTM_ASSERT(st_.inTx, "commit outside TX on context ", self_);
    HINTM_ASSERT(!st_.abortPending, "commit with pending abort");
    ++stats_->commits;
    stats_->trackedAtCommit.sample(trackedBlocks());
    clearTxState();
}

AbortReason
HtmController::acknowledgeAbort(Cycle now)
{
    HINTM_ASSERT(st_.abortPending, "acknowledging without pending abort");
    const AbortReason r = st_.pendingReason;
    ++stats_->aborts[unsigned(r)];
    stats_->cyclesLost[unsigned(r)] +=
        (now - st_.txStart) + cfg_.abortHandlerCycles;
    clearTxState();
    return r;
}

void
HtmController::convertToCriticalSection()
{
    HINTM_ASSERT(st_.capacityPending, "no pending capacity overflow");
    HINTM_ASSERT(st_.inTx && !st_.abortPending, "conversion in bad state");
    ++stats_->preAbortConversions;
    // The TX's effects so far stand (the lock serializes everyone
    // else); hardware monitoring simply stops.
    clearTxState();
}

void
HtmController::declineConversion()
{
    HINTM_ASSERT(st_.capacityPending, "no pending capacity overflow");
    st_.capacityPending = false;
    triggerAbort(AbortReason::Capacity, st_.capacityPendingBlock, true, -1);
}

void
HtmController::onPageBecameUnsafe(Addr page_num)
{
    if (!st_.inTx || st_.abortPending)
        return;
    if (st_.safePages.contains(page_num)) {
        // Untracked (safe) reads to this page can no longer be trusted:
        // conservatively abort (§III-B).
        triggerAbort(AbortReason::PageMode, page_num * pageBytes, true,
                     -1);
    }
}

void
HtmController::onRemoteAccess(Addr block_addr, AccessType type,
                              mem::ContextId requester)
{
    if (!st_.inTx || st_.abortPending)
        return;

    const TxBufferEntry *e = st_.buffer.find(block_addr);
    const bool in_read =
        (e && e->read) || st_.overflowReads.contains(block_addr);
    const bool in_write = e && e->written;

    if (type == AccessType::Write) {
        if (in_read || in_write) {
            triggerAbort(AbortReason::Conflict, block_addr, true,
                         std::int32_t(requester));
        } else if (cfg_.kind == HtmKind::P8S &&
                   st_.signature.test(block_addr)) {
            // Aliased hit in the summarizing bitvector only.
            triggerAbort(AbortReason::FalseConflict, block_addr, true,
                         std::int32_t(requester));
        }
    } else {
        if (in_write)
            triggerAbort(AbortReason::Conflict, block_addr, true,
                         std::int32_t(requester));
    }
}

void
HtmController::onEviction(Addr block_addr, bool dirty)
{
    (void)dirty;
    if (!st_.inTx || st_.abortPending || cfg_.kind != HtmKind::L1TM)
        return;
    // L1TM keeps transactional state in L1 lines: displacing a tracked
    // line (capacity or set conflict, including SMT-sibling pressure)
    // loses it, so the TX must abort.
    if (st_.buffer.find(block_addr))
        triggerAbort(AbortReason::Capacity, block_addr, true, -1);
}

std::size_t
HtmController::trackedBlocks() const
{
    return st_.buffer.size() + st_.overflowReads.size();
}

std::size_t
HtmController::readSetBlocks() const
{
    std::size_t n = st_.overflowReads.size();
    for (const auto &kv : st_.buffer.entries()) {
        if (kv.second.read)
            ++n;
    }
    return n;
}

std::size_t
HtmController::writeSetBlocks() const
{
    std::size_t n = 0;
    for (const auto &kv : st_.buffer.entries()) {
        if (kv.second.written)
            ++n;
    }
    return n;
}

bool
HtmController::readsBlock(Addr block_addr) const
{
    const TxBufferEntry *e = st_.buffer.find(block_addr);
    return (e && e->read) || st_.overflowReads.contains(block_addr);
}

bool
HtmController::writesBlock(Addr block_addr) const
{
    const TxBufferEntry *e = st_.buffer.find(block_addr);
    return e && e->written;
}

bool
HtmController::conflictsWith(Addr block_addr, AccessType type) const
{
    if (!st_.inTx || st_.abortPending)
        return false;
    if (type == AccessType::Write)
        return readsBlock(block_addr) || writesBlock(block_addr);
    return writesBlock(block_addr);
}

void
HtmController::triggerAbort(AbortReason r, Addr offending_addr,
                            bool addr_valid, std::int32_t offender)
{
    if (!st_.inTx || st_.abortPending)
        return;
    st_.abortPending = true;
    st_.pendingReason = r;
    st_.lastAbortAddr = offending_addr;
    st_.lastAbortAddrValid = addr_valid;
    st_.lastAbortCtx = offender;
    publishInterest(); // a dead TX no longer listens
    // Restore memory values immediately so that the access which killed
    // this TX observes pre-transactional data.
    if (undoHook_)
        undoHook_();
    if (wakeHook_)
        wakeHook_();
}

void
HtmController::clearTxState()
{
    if (dir_) {
        for (const auto &kv : st_.buffer.entries())
            dir_->txUntrack(kv.first, unsigned(self_));
        st_.overflowReads.forEach(
            [&](Addr b) { dir_->txUntrack(b, unsigned(self_)); });
        dir_->setSigActive(unsigned(self_), false);
    }
    st_.inTx = false;
    st_.abortPending = false;
    st_.capacityPending = false;
    st_.pendingReason = AbortReason::None;
    st_.buffer.clear();
    st_.overflowReads.clear();
    st_.signature.clear();
    st_.safePages.clear();
    publishInterest();
}

void
HtmController::loadState(const State &s)
{
    st_ = s;
    publishInterest();
}

} // namespace htm
} // namespace hintm
