/**
 * @file
 * Page-indexed Addr -> T table for shadow state whose keys are dense
 * and page-local: per-word access histories, per-word sync clocks,
 * per-line sharer masks and the functional memory's word values.
 *
 * Each key is an address at a fixed granularity (kGrainBytes: a word
 * or a line); the table splits it into a page id and one of 512 slots.
 * Pages are allocated whole on first touch, value-initialized, and
 * found through a FlatAddrMap page index with a one-entry MRU page in
 * front.  Workload accesses are heavily page-local, so the common
 * lookup is one compare plus an array index: no per-key hash probe,
 * and no heap allocation once the page is resident (the allocation
 * guard in tests/event_queue_test.cpp checks this).
 *
 * An untouched slot on a resident page reads as a default T, and a
 * key is never erased: callers give the default value a meaning
 * ("no sharers", "never accessed") instead.  Pages never move, so --
 * unlike FlatAddrMap -- references and pointers into the table stay
 * valid across later inserts, for the table's lifetime.
 *
 * A page can carry caller-defined metadata next to its slots
 * (ValueStore keeps its written-word bitmap there).
 *
 * Lookups, const ones included, refresh the MRU entry, so a table must
 * not be shared between threads; each simulation owns its own.
 */

#ifndef CORD_SIM_PAGED_MAP_H
#define CORD_SIM_PAGED_MAP_H

#include <cstddef>
#include <cstdint>
#include <memory>

#include "sim/flat_map.h"
#include "sim/types.h"

namespace cord
{

/** Page metadata for tables that need none. */
struct NoPageMeta
{
};

/**
 * Paged Addr -> T table with stable references.
 *
 * @tparam T slot value (default-constructible; the default is what an
 *         untouched slot reads as)
 * @tparam kGrainBytes bytes of address space per slot (power of two)
 * @tparam Meta per-page metadata, value-initialized with the page
 */
template <typename T, unsigned kGrainBytes, typename Meta = NoPageMeta>
class PagedAddrMap
{
    static_assert(kGrainBytes != 0 && (kGrainBytes & (kGrainBytes - 1)) == 0,
                  "slot granularity must be a power of two");

  public:
    static constexpr std::size_t kPageSlots = 512;

    struct Page
    {
        T slots[kPageSlots]{};
        [[no_unique_address]] Meta meta{};
    };

    /** Slot of @p a within its page. */
    static std::size_t
    slotOf(Addr a)
    {
        return static_cast<std::size_t>(a / kGrainBytes) % kPageSlots;
    }

    /** Page holding @p a, allocated on first touch. */
    Page &
    page(Addr a)
    {
        if (Page *p = lookup(a))
            return *p;
        const std::uint64_t pid = pageId(a);
        std::unique_ptr<Page> &slot = index_[pid];
        slot = std::make_unique<Page>();
        mruPid_ = pid + 1;
        mru_ = slot.get();
        return *mru_;
    }

    /** Slot of @p a; nullptr only when its page is absent (an untouched
     *  slot on a resident page reads as default). */
    T *
    find(Addr a)
    {
        Page *p = lookup(a);
        return p ? &p->slots[slotOf(a)] : nullptr;
    }

    const T *
    find(Addr a) const
    {
        const Page *p = lookup(a);
        return p ? &p->slots[slotOf(a)] : nullptr;
    }

    /** Slot of @p a, allocating its page on first touch. */
    T &operator[](Addr a) { return page(a).slots[slotOf(a)]; }

    /** Number of resident pages. */
    std::size_t pageCount() const { return index_.size(); }

  private:
    /** Resident page of @p a or nullptr; refreshes the MRU entry. */
    Page *
    lookup(Addr a) const
    {
        const std::uint64_t pid = pageId(a);
        if (mruPid_ == pid + 1)
            return mru_;
        const std::unique_ptr<Page> *p = index_.find(pid);
        if (!p)
            return nullptr;
        mruPid_ = pid + 1;
        mru_ = p->get();
        return mru_;
    }

    static std::uint64_t
    pageId(Addr a)
    {
        return a / kGrainBytes / kPageSlots;
    }

    FlatAddrMap<std::unique_ptr<Page>> index_;
    mutable std::uint64_t mruPid_ = 0; //!< pid + 1; 0 = invalid
    mutable Page *mru_ = nullptr;
};

} // namespace cord

#endif // CORD_SIM_PAGED_MAP_H
