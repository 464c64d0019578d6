#include "mem_system.hh"

#include <bit>

#include "common/logging.hh"
#include "common/metrics.hh"

namespace hintm
{
namespace mem
{

namespace
{

/** Max contexts/L1s representable in the 64-bit fast-path masks. */
constexpr unsigned maskBits = 64;

} // namespace

void
MemStats::dump(std::ostream &os) const
{
    os << "mem.invalidations " << invalidations << "\n"
       << "mem.l1_evictions " << l1Evictions << "\n"
       << "mem.l1_hits " << l1Hits << "\n"
       << "mem.l1_misses " << l1Misses << "\n"
       << "mem.l2_hits " << l2Hits << "\n"
       << "mem.l2_misses " << l2Misses << "\n"
       << "mem.numa_remote " << numaRemote << "\n"
       << "mem.reads " << reads << "\n"
       << "mem.upgrades " << upgrades << "\n"
       << "mem.writebacks " << writebacks << "\n"
       << "mem.writes " << writes << "\n";
}

MemorySystem::MemorySystem(const MemConfig &cfg, unsigned num_l1s)
    : cfg_(cfg)
{
    HINTM_ASSERT(num_l1s >= 1, "need at least one L1");
    st_.arrays.assign(num_l1s,
                      CacheArray(CacheGeometry(cfg.l1SizeBytes, cfg.l1Assoc)));
    st_.arrays.emplace_back(CacheGeometry(cfg.l2SizeBytes, cfg.l2Assoc));
    pinCheckers_.resize(num_l1s);

    HINTM_ASSERT(num_l1s <= maskBits, "more than ", maskBits,
                 " L1s: the directory and listener masks are 64-bit");
    dirOn_ = cfg.directory;
    l1CtxMask_.assign(num_l1s, 0);

    // Contiguous NUMA grouping: L1s [0, n/k), [n/k, 2n/k), ... share a
    // node. Identical in both coherence modes; 1 node = flat machine.
    numaNodes_ = cfg.numaNodes ? cfg.numaNodes : 1;
    if (numaNodes_ > num_l1s)
        numaNodes_ = num_l1s;
    l1Node_.resize(num_l1s);
    for (unsigned i = 0; i < num_l1s; ++i)
        l1Node_[i] = unsigned(std::uint64_t(i) * numaNodes_ / num_l1s);
}

ContextId
MemorySystem::addContext(unsigned l1_id)
{
    HINTM_ASSERT(l1_id < numL1s(), "bad L1 id ", l1_id);
    contexts_.push_back(Context{l1_id, nullptr});
    const ContextId id = ContextId(contexts_.size() - 1);
    HINTM_ASSERT(unsigned(id) < maskBits, "more than ", maskBits,
                 " contexts: the listener masks are 64-bit");
    l1CtxMask_[l1_id] |= std::uint64_t(1) << unsigned(id);
    return id;
}

void
MemorySystem::setListener(ContextId ctx, SnoopListener *listener)
{
    contexts_.at(ctx).listener = listener;
    // A plain observer expects every event; transactional controllers
    // lower their interest themselves once hooked up.
    setListenerInterest(ctx, listener != nullptr);
    setListenerTxFiltered(ctx, listener == nullptr);
}

void
MemorySystem::setListenerInterest(ContextId ctx, bool interested)
{
    HINTM_ASSERT(ctx >= 0 && ctx < ContextId(contexts_.size()),
                 "bad context ", ctx);
    const std::uint64_t bit = std::uint64_t(1) << unsigned(ctx);
    if (interested)
        interestMask_ |= bit;
    else
        interestMask_ &= ~bit;
}

void
MemorySystem::setListenerTxFiltered(ContextId ctx, bool filtered)
{
    HINTM_ASSERT(ctx >= 0 && ctx < ContextId(contexts_.size()),
                 "bad context ", ctx);
    const std::uint64_t bit = std::uint64_t(1) << unsigned(ctx);
    if (filtered)
        fullDeliveryMask_ &= ~bit;
    else
        fullDeliveryMask_ |= bit;
}

void
MemorySystem::setMetricsSink(MetricsRegistry *metrics)
{
    metrics_ = metrics;
    if (metrics_)
        metrics_->initNuma(numaNodes_);
}

void
MemorySystem::sampleBusMetrics(unsigned requester_l1, Addr block)
{
    // Node-crossing traffic only exists with multiple NUMA nodes; the
    // 1x1 matrix is never rendered, so skip its upkeep entirely.
    if (numaNodes_ > 1)
        ++metrics_->numaTraffic(l1Node_[requester_l1], homeNodeOf(block));
    // The sharer census probes every peer L1, so it is decimated:
    // every sharerSampleEvery-th bus transaction. Peer copies are
    // probed directly (not through the directory, whose sharer bits
    // can be stale) so the histogram is identical in directory and
    // broadcast modes.
    if (metrics_->busEvents++ % MetricsRegistry::sharerSampleEvery != 0)
        return;
    unsigned sharers = 0;
    for (unsigned i = 0; i < numL1s(); ++i)
        if (i != requester_l1 && st_.arrays[i].probe(block))
            ++sharers;
    metrics_->sharersAtBus.add(sharers);
}

void
MemorySystem::setPinChecker(unsigned l1_id, CacheArray::PinPredicate pred)
{
    HINTM_ASSERT(l1_id < numL1s(), "bad L1 id ", l1_id);
    pinCheckers_[l1_id] = std::move(pred);
}

const CacheLine *
MemorySystem::probeL1(ContextId ctx, Addr addr) const
{
    return st_.arrays[contexts_.at(ctx).l1].probe(blockAlign(addr));
}

std::uint64_t
MemorySystem::sharerMaskOf(Addr addr) const
{
    return dirOn_ ? st_.dir.sharers(blockAlign(addr)) : 0;
}

std::int16_t
MemorySystem::ownerOf(Addr addr) const
{
    return dirOn_ ? st_.dir.owner(blockAlign(addr)) : Directory::noOwner;
}

DirState
MemorySystem::dirStateOf(Addr addr) const
{
    return dirOn_ ? st_.dir.state(blockAlign(addr)) : DirState::Uncached;
}

bool
MemorySystem::snoopOne(unsigned l1, Addr block, BusOp op)
{
    CacheLine *line = st_.arrays[l1].lookup(block);
    if (!line)
        return false;
    switch (op) {
      case BusOp::Read:
        // Owner supplies data and downgrades; dirty data reaches L2.
        if (line->state == CoherState::Modified) {
            ++st_.stats.writebacks;
            l2().insert(block, CoherState::Modified);
        }
        line->state = CoherState::Shared;
        if (dirOn_)
            st_.dir.recordDowngrade(block, l1);
        break;
      case BusOp::ReadExcl:
      case BusOp::Upgrade:
        if (line->state == CoherState::Modified) {
            ++st_.stats.writebacks;
            l2().insert(block, CoherState::Modified);
        }
        line->state = CoherState::Invalid;
        ++st_.stats.invalidations;
        if (dirOn_)
            st_.dir.removeSharer(block, l1);
        break;
    }
    return true;
}

bool
MemorySystem::snoopPeers(unsigned requester_l1, Addr block, BusOp op)
{
    bool peer_had_copy = false;
    if (dirOn_) {
        std::uint64_t m = st_.dir.sharers(block) &
                          ~(std::uint64_t(1) << requester_l1);
        while (m) {
            const unsigned i = unsigned(std::countr_zero(m));
            m &= m - 1;
            if (snoopOne(i, block, op))
                peer_had_copy = true;
            else
                st_.dir.removeSharer(block, i); // heal a stale bit
        }
        return peer_had_copy;
    }
    for (unsigned i = 0; i < numL1s(); ++i) {
        if (i == requester_l1)
            continue;
        if (snoopOne(i, block, op))
            peer_had_copy = true;
    }
    return peer_had_copy;
}

void
MemorySystem::notifyBus(ContextId requester, Addr block, AccessType type)
{
    // Same-L1 siblings are covered by notifySiblings() on every access;
    // the bus only reaches the other cores.
    const unsigned l1 = contexts_[requester].l1;
    if (dirOn_) {
        // Only contexts that can possibly act on the event: unfiltered
        // (plain) listeners, contexts whose TX tracks the block
        // precisely, and — for writes — contexts carrying a read
        // signature that may alias any block. Tracker-filtered HTM
        // listeners treat every other event as a no-op, so skipping
        // them is behavior-preserving.
        std::uint64_t relevant = fullDeliveryMask_ | st_.dir.txTrackers(block);
        if (type == AccessType::Write)
            relevant |= st_.dir.sigActiveMask();
        std::uint64_t m = interestMask_ & ~l1CtxMask_[l1] & relevant;
        while (m) {
            const ContextId c = ContextId(std::countr_zero(m));
            m &= m - 1;
            if (contexts_[c].listener)
                contexts_[c].listener->onRemoteAccess(block, type,
                                                      requester);
        }
        return;
    }
    for (ContextId c = 0; c < ContextId(contexts_.size()); ++c) {
        if (c == requester || contexts_[c].l1 == l1)
            continue;
        if (contexts_[c].listener)
            contexts_[c].listener->onRemoteAccess(block, type, requester);
    }
}

void
MemorySystem::notifySiblings(ContextId requester, Addr block,
                             AccessType type)
{
    const unsigned l1 = contexts_[requester].l1;
    if (dirOn_) {
        std::uint64_t m = interestMask_ & l1CtxMask_[l1] &
                          ~(std::uint64_t(1) << unsigned(requester));
        while (m) {
            const ContextId c = ContextId(std::countr_zero(m));
            m &= m - 1;
            if (contexts_[c].listener)
                contexts_[c].listener->onRemoteAccess(block, type,
                                                      requester);
        }
        return;
    }
    for (ContextId c = 0; c < ContextId(contexts_.size()); ++c) {
        if (c == requester || contexts_[c].l1 != l1)
            continue;
        if (contexts_[c].listener)
            contexts_[c].listener->onRemoteAccess(block, type, requester);
    }
}

void
MemorySystem::notifyEviction(unsigned l1, Addr block, bool dirty)
{
    if (dirOn_) {
        std::uint64_t m = interestMask_ & l1CtxMask_[l1];
        while (m) {
            const ContextId c = ContextId(std::countr_zero(m));
            m &= m - 1;
            if (contexts_[c].listener)
                contexts_[c].listener->onEviction(block, dirty);
        }
        return;
    }
    for (ContextId c = 0; c < ContextId(contexts_.size()); ++c) {
        if (contexts_[c].l1 != l1)
            continue;
        if (contexts_[c].listener)
            contexts_[c].listener->onEviction(block, dirty);
    }
}

Cycle
MemorySystem::accessL2(Addr block, bool fill_dirty)
{
    Cycle lat = cfg_.l2Latency;
    CacheLine *line = l2().lookup(block);
    if (line) {
        ++st_.stats.l2Hits;
    } else {
        ++st_.stats.l2Misses;
        lat += cfg_.memLatency;
        l2().insert(block,
                    fill_dirty ? CoherState::Modified : CoherState::Shared);
    }
    return lat;
}

AccessResult
MemorySystem::access(ContextId ctx, Addr addr, AccessType type)
{
    HINTM_ASSERT(ctx >= 0 && ctx < ContextId(contexts_.size()),
                 "bad context ", ctx);
    if (observer_)
        observer_->onAccess(ctx, addr, type);
    const Addr block = blockAlign(addr);
    const unsigned l1_id = contexts_[ctx].l1;
    CacheArray &l1 = st_.arrays[l1_id];

    AccessResult res;
    ++(type == AccessType::Read ? st_.stats.reads : st_.stats.writes);

    // SMT siblings sharing this L1 observe every access, hit or miss,
    // mirroring per-thread transactional CAMs snooping local traffic.
    notifySiblings(ctx, block, type);

    CacheLine *line = l1.lookup(block);
    if (line) {
        res.l1Hit = true;
        ++st_.stats.l1Hits;
        if (type == AccessType::Read ||
            line->state == CoherState::Modified ||
            line->state == CoherState::Exclusive) {
            // Silent hit; writes to E upgrade silently to M. Both E and
            // M map to the directory's Owned state, so no update needed.
            if (type == AccessType::Write)
                line->state = CoherState::Modified;
            res.latency = cfg_.l1Latency;
            return res;
        }
        // Write hit on Shared: bus upgrade.
        ++st_.stats.upgrades;
        if (metrics_)
            sampleBusMetrics(l1_id, block);
        snoopPeers(l1_id, block, BusOp::Upgrade);
        notifyBus(ctx, block, type);
        line->state = CoherState::Modified;
        if (dirOn_)
            st_.dir.recordUpgrade(block, l1_id);
        res.latency =
            cfg_.l1Latency + cfg_.upgradeLatency + numaPenalty(l1_id, block);
        return res;
    }

    // L1 miss: place a bus transaction.
    ++st_.stats.l1Misses;
    if (metrics_)
        sampleBusMetrics(l1_id, block);
    const BusOp op =
        type == AccessType::Read ? BusOp::Read : BusOp::ReadExcl;
    const bool peer_had_copy = snoopPeers(l1_id, block, op);
    notifyBus(ctx, block, type);

    const Cycle l2_lat = accessL2(block, /*fill_dirty=*/false);
    res.l2Hit = l2_lat <= cfg_.l2Latency;
    res.latency = cfg_.l1Latency + l2_lat + numaPenalty(l1_id, block);

    CoherState fill;
    if (type == AccessType::Write)
        fill = CoherState::Modified;
    else
        fill = peer_had_copy ? CoherState::Shared : CoherState::Exclusive;

    const Eviction ev =
        l1.insert(block, fill,
                  pinCheckers_[l1_id] ? &pinCheckers_[l1_id] : nullptr);
    if (dirOn_)
        st_.dir.recordFill(block, l1_id, fill != CoherState::Shared);
    if (ev.happened) {
        ++st_.stats.l1Evictions;
        if (dirOn_)
            st_.dir.removeSharer(ev.blockAddr, l1_id);
        if (ev.dirty) {
            ++st_.stats.writebacks;
            l2().insert(ev.blockAddr, CoherState::Modified);
        }
        notifyEviction(l1_id, ev.blockAddr, ev.dirty);
    }
    return res;
}

void
MemorySystem::loadState(const State &s)
{
    HINTM_ASSERT(s.arrays.size() == st_.arrays.size(),
                 "memory state cache-count mismatch");
    st_ = s;
}

} // namespace mem
} // namespace hintm
