#include "allocator.hh"

#include "common/logging.hh"
#include "tir/address_space.hh"

namespace hintm
{
namespace tir
{

Allocator::Allocator(unsigned num_arenas)
{
    HINTM_ASSERT(num_arenas >= 1, "need at least one arena");
    for (unsigned i = 0; i < num_arenas; ++i) {
        const Addr base = layout::arenasBase + Addr(i) * layout::arenaStride;
        st_.arenas.push_back(
            Arena{base, base, base + layout::arenaStride, {}});
    }
}

Addr
Allocator::alloc(unsigned arena, std::uint64_t bytes)
{
    HINTM_ASSERT(arena < st_.arenas.size(), "bad arena ", arena);
    HINTM_ASSERT(bytes > 0, "zero-size allocation");
    Arena &a = st_.arenas[arena];
    const std::uint64_t size = (bytes + 7) & ~std::uint64_t(7);

    Addr p = 0;
    auto fl = a.freeLists.find(size);
    if (fl != a.freeLists.end() && !fl->second.empty()) {
        p = fl->second.back();
        fl->second.pop_back();
    } else {
        HINTM_ASSERT(a.bump + size <= a.limit, "arena ", arena,
                     " exhausted");
        p = a.bump;
        a.bump += size;
    }
    st_.live.emplace(p, Allocation{arena, size});
    st_.liveBytes += size;
    return p;
}

void
Allocator::release(Addr p)
{
    auto it = st_.live.find(p);
    HINTM_ASSERT(it != st_.live.end(), "free of unknown pointer ", p);
    const Allocation alloc = it->second;
    st_.live.erase(it);
    st_.liveBytes -= alloc.size;
    st_.arenas[alloc.arena].freeLists[alloc.size].push_back(p);
    if (onRelease)
        onRelease(p, alloc.size);
}

std::uint64_t
Allocator::sizeOf(Addr p) const
{
    auto it = st_.live.find(p);
    return it == st_.live.end() ? 0 : it->second.size;
}

} // namespace tir
} // namespace hintm
