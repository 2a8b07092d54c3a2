/**
 * @file
 * Functional memory: the architectural word values of the simulated
 * machine.  The timing caches (mem/timing_mem.h) track only tags, so
 * loads and stores read and update this single store at their commit
 * tick; the commit order defined by the event queue is the machine's
 * memory order.
 *
 * Storage is page-granular: words live in the 512-word pages of a
 * PagedAddrMap (sim/paged_map.h), whose one-entry MRU page makes the
 * common load or store a compare plus an array index, with no heap
 * allocation once the page is resident (the allocation guard in
 * tests/event_queue_test.cpp checks this).  A per-page written bitmap
 * keeps footprintWords() exact (a page allocated by one store does not
 * count its 511 untouched words).
 */

#ifndef CORD_RUNTIME_VALUE_STORE_H
#define CORD_RUNTIME_VALUE_STORE_H

#include <cstdint>
#include <utility>

#include "sim/paged_map.h"
#include "sim/types.h"

namespace cord
{

/** Word-granularity functional memory, zero-initialized. */
class ValueStore
{
  public:
    std::uint64_t
    load(Addr a) const
    {
        const std::uint64_t *w = words_.find(a);
        return w ? *w : 0;
    }

    void
    store(Addr a, std::uint64_t v)
    {
        Words::Page &p = words_.page(a);
        const std::size_t off = Words::slotOf(a);
        std::uint64_t &bits = p.meta.written[off >> 6];
        const std::uint64_t bit = std::uint64_t(1) << (off & 63);
        if ((bits & bit) == 0) {
            bits |= bit;
            ++wordCount_;
        }
        p.slots[off] = v;
    }

    /** Atomic compare-and-swap at commit time.
     *  @return pair {old value, success} */
    std::pair<std::uint64_t, bool>
    compareAndSwap(Addr a, std::uint64_t expected, std::uint64_t desired)
    {
        const std::uint64_t old = load(a);
        if (old == expected) {
            store(a, desired);
            return {old, true};
        }
        return {old, false};
    }

    /** Number of distinct words ever stored to. */
    std::size_t footprintWords() const { return wordCount_; }

  private:
    /** Which words of a page were ever stored to. */
    struct Written
    {
        std::uint64_t written[PagedAddrMap<std::uint64_t,
                                           kWordBytes>::kPageSlots / 64];
    };
    using Words = PagedAddrMap<std::uint64_t, kWordBytes, Written>;

    Words words_;
    std::size_t wordCount_ = 0;
};

} // namespace cord

#endif // CORD_RUNTIME_VALUE_STORE_H
