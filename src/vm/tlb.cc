#include "tlb.hh"

#include "common/logging.hh"

namespace hintm
{
namespace vm
{

bool
Tlb::lookup(Addr page_num, PageState *state_out)
{
    Entry *e = lookupEntry(page_num);
    if (!e)
        return false;
    if (state_out)
        *state_out = e->state;
    return true;
}

Tlb::Entry *
Tlb::lookupEntry(Addr page_num)
{
    auto it = st_.entries.find(page_num);
    if (it == st_.entries.end())
        return nullptr;
    it->second.lruStamp = ++st_.clock;
    return &it->second;
}

Tlb::Entry *
Tlb::insert(Addr page_num, PageState state)
{
    auto it = st_.entries.find(page_num);
    if (it != st_.entries.end()) {
        it->second.state = state;
        it->second.lruStamp = ++st_.clock;
        notifyEvict(page_num); // cached derivations are stale
        return &it->second;
    }
    if (st_.entries.size() >= capacity_)
        evictLru();
    return &st_.entries.emplace(page_num, Entry{state, ++st_.clock})
                .first->second;
}

bool
Tlb::invalidate(Addr page_num)
{
    if (st_.entries.erase(page_num) == 0)
        return false;
    notifyEvict(page_num);
    return true;
}

void
Tlb::updateState(Addr page_num, PageState state)
{
    auto it = st_.entries.find(page_num);
    if (it != st_.entries.end()) {
        it->second.state = state;
        notifyEvict(page_num);
    }
}

void
Tlb::evictLru()
{
    HINTM_ASSERT(!st_.entries.empty(), "evicting from empty TLB");
    auto victim = st_.entries.begin();
    for (auto it = st_.entries.begin(); it != st_.entries.end(); ++it) {
        if (it->second.lruStamp < victim->second.lruStamp)
            victim = it;
    }
    const Addr page = victim->first;
    st_.entries.erase(victim);
    notifyEvict(page);
}

} // namespace vm
} // namespace hintm
