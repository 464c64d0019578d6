/**
 * @file
 * Per-context data TLB holding each cached translation's page safety bits.
 * Fully associative with true LRU; sized per config (default 64 entries).
 */

#ifndef HINTM_VM_TLB_HH
#define HINTM_VM_TLB_HH

#include <cstdint>
#include <functional>
#include <unordered_map>

#include "common/types.hh"
#include "vm/page_table.hh"

namespace hintm
{
namespace vm
{

/** Small fully-associative TLB. Keys are page numbers. */
class Tlb
{
  public:
    /** One cached translation. Node-stable: pointers handed out by
     * lookupEntry()/insert() stay valid until the entry itself is
     * evicted or invalidated (announced via the evict observer). */
    struct Entry
    {
        PageState state;
        std::uint64_t lruStamp;
    };

    explicit Tlb(unsigned num_entries = 64) : capacity_(num_entries) {}

    /** @return true on hit; hit refreshes LRU and exposes the state. */
    bool lookup(Addr page_num, PageState *state_out = nullptr);

    /** Pointer-returning hit probe (refreshes LRU), or nullptr. */
    Entry *lookupEntry(Addr page_num);

    /** Refresh an entry's LRU stamp without re-finding it — lets a
     * higher-level memo keep this TLB's replacement behavior exact. */
    void touch(Entry *e) { e->lruStamp = ++st_.clock; }

    /** Install (or refresh) a translation with its safety state.
     * @return the (stable) entry node. */
    Entry *insert(Addr page_num, PageState state);

    /** Drop one translation (shootdown); @return true if it was present. */
    bool invalidate(Addr page_num);

    /** Update the cached state in place if the translation is present. */
    void updateState(Addr page_num, PageState state);

    /**
     * Observer called whenever a cached translation stops being valid to
     * memoize: LRU eviction, invalidation, or an in-place state change
     * (insert-overwrite/updateState). Receives the page number.
     */
    void setEvictObserver(std::function<void(Addr)> fn)
    {
        evictObserver_ = std::move(fn);
    }

    /** Presence probe without LRU effects. */
    bool contains(Addr page_num) const
    {
        return st_.entries.count(page_num) != 0;
    }

    std::size_t size() const { return st_.entries.size(); }
    unsigned capacity() const { return capacity_; }

    /** Exact TLB contents including LRU stamps and the clock: the TLB's
     * only storage for them. */
    struct State
    {
        std::uint64_t clock = 0;
        std::unordered_map<Addr, Entry> entries;
    };

    const State &saveState() const { return st_; }

    /** Restore contents. Keeps the evict observer; invalidates any Entry
     * pointers previously handed out (callers re-derive their memos). */
    void loadState(const State &s) { st_ = s; }

  private:
    void evictLru();

    void
    notifyEvict(Addr page_num)
    {
        if (evictObserver_)
            evictObserver_(page_num);
    }

    unsigned capacity_;
    State st_;
    std::function<void(Addr)> evictObserver_;
};

} // namespace vm
} // namespace hintm

#endif // HINTM_VM_TLB_HH
