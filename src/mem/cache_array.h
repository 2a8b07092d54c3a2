/**
 * @file
 * Generic set-associative cache tag array with true-LRU replacement.
 *
 * Used both by the timing model (MESI state per line) and by the
 * detectors' functional cache models (CORD/vector-clock state per line).
 * Only tags and per-line metadata are stored; data values live in the
 * global functional memory (see runtime/value_store.h).
 *
 * Layout: every lookup of every cache model probes one set, so the
 * line addresses live in their own contiguous tag vector, apart from
 * the (much larger) per-line payload.  A 4-way probe reads 32 bytes of
 * tags and touches the payload only on a hit.  The tag vector is the
 * only record of residency: a way is free exactly when its tag holds
 * kInvalidTag.
 */

#ifndef CORD_MEM_CACHE_ARRAY_H
#define CORD_MEM_CACHE_ARRAY_H

#include <bit>
#include <cstdint>
#include <vector>

#include "mem/geometry.h"
#include "sim/logging.h"
#include "sim/types.h"

namespace cord
{

/**
 * Set-associative tag array holding one StateT per resident line.
 *
 * @tparam StateT per-line metadata (must be default-constructible)
 */
template <typename StateT>
class CacheArray
{
  public:
    /** Tag of a free way; never line-aligned, so never a real tag. */
    static constexpr Addr kInvalidTag = ~Addr(0);

    /** The payload of one way: recency plus the metadata. */
    struct Line
    {
        std::uint64_t lru = 0;  //!< larger == more recently used
        StateT state{};
    };

    explicit CacheArray(const CacheGeometry &geo)
        : geo_(geo), tags_(geo.numSets() * geo.ways, kInvalidTag),
          lines_(tags_.size())
    {
        // Set indexing runs on every lookup of every cache model;
        // precompute shift/mask instead of dividing when the geometry
        // allows it (validate() enforces power-of-two sets, and every
        // real configuration uses a power-of-two line size too).
        const std::uint32_t sets = geo.numSets();
        fastIndex_ = std::has_single_bit(sets) &&
                     std::has_single_bit(geo.lineBytes);
        if (fastIndex_) {
            lineShift_ = static_cast<unsigned>(
                std::countr_zero(geo.lineBytes));
            setMask_ = sets - 1;
        }
    }

    const CacheGeometry &geometry() const { return geo_; }

    /** Find a resident line without touching LRU state. */
    Line *
    find(Addr a)
    {
        const std::size_t i = wayOf(lineAddr(a));
        return i == kNoWay ? nullptr : &lines_[i];
    }

    const Line *
    find(Addr a) const
    {
        return const_cast<CacheArray *>(this)->find(a);
    }

    /** Find a resident line and mark it most-recently-used. */
    Line *
    touch(Addr a)
    {
        Line *line = find(a);
        if (line)
            line->lru = ++lruClock_;
        return line;
    }

    /**
     * Insert a line (which must not already be resident) into the
     * first free way of its set, or else over the set's LRU way.  The
     * displaced line is passed to @p onEvict (signature
     * `void(Addr, StateT &)`) before its way is reused.
     *
     * @param a line-aligned (or any) address
     * @return reference to the newly resident line
     */
    template <typename EvictFn>
    Line &
    insert(Addr a, EvictFn &&onEvict)
    {
        const Addr la = lineAddr(a);
        cord_assert(wayOf(la) == kNoWay, "inserting already-resident line ",
                    la);
        const std::size_t begin = setBegin(la);
        const std::size_t end = begin + geo_.ways;
        std::size_t slot = kNoWay;
        for (std::size_t i = begin; i < end; ++i) {
            if (tags_[i] == kInvalidTag) {
                slot = i;
                break;
            }
        }
        if (slot == kNoWay) {
            slot = begin;
            for (std::size_t i = begin + 1; i < end; ++i) {
                if (lines_[i].lru < lines_[slot].lru)
                    slot = i;
            }
            onEvict(tags_[slot], lines_[slot].state);
        }
        tags_[slot] = la;
        lines_[slot] = Line{++lruClock_, StateT{}};
        return lines_[slot];
    }

    /** insert without an eviction callback. */
    Line &
    insert(Addr a)
    {
        return insert(a, [](Addr, StateT &) {});
    }

    /**
     * Remove a line if resident, passing its state to @p onEvict
     * (signature `void(Addr, StateT &)`) first.
     * @return true when removed.
     */
    template <typename EvictFn>
    bool
    invalidate(Addr a, EvictFn &&onEvict)
    {
        const Addr la = lineAddr(a);
        const std::size_t i = wayOf(la);
        if (i == kNoWay)
            return false;
        onEvict(la, lines_[i].state);
        tags_[i] = kInvalidTag;
        return true;
    }

    /** invalidate without an eviction callback. */
    bool
    invalidate(Addr a)
    {
        return invalidate(a, [](Addr, StateT &) {});
    }

    /** Visit every resident line as `fn(Addr, StateT &)` (e.g. the
     *  CORD cache walker), in way order. */
    template <typename Fn>
    void
    forEach(Fn &&fn)
    {
        for (std::size_t i = 0; i < tags_.size(); ++i) {
            if (tags_[i] != kInvalidTag)
                fn(tags_[i], lines_[i].state);
        }
    }

    /** Number of currently resident lines. */
    std::size_t
    residentCount() const
    {
        std::size_t n = 0;
        for (const Addr tag : tags_)
            n += tag != kInvalidTag ? 1 : 0;
        return n;
    }

  private:
    static constexpr std::size_t kNoWay = ~std::size_t(0);

    /** Index of the first way of the set containing @p la. */
    std::size_t
    setBegin(Addr la) const
    {
        const std::size_t set =
            fastIndex_
                ? static_cast<std::size_t>((la >> lineShift_) & setMask_)
                : static_cast<std::size_t>((la / geo_.lineBytes) %
                                           geo_.numSets());
        return set * geo_.ways;
    }

    /** Way holding line-aligned @p la, or kNoWay. */
    std::size_t
    wayOf(Addr la) const
    {
        const std::size_t begin = setBegin(la);
        const Addr *tags = tags_.data() + begin;
        for (std::size_t w = 0; w < geo_.ways; ++w) {
            if (tags[w] == la)
                return begin + w;
        }
        return kNoWay;
    }

    CacheGeometry geo_;
    std::vector<Addr> tags_;  //!< per way: line address or kInvalidTag
    std::vector<Line> lines_; //!< per way, parallel to tags_
    std::uint64_t lruClock_ = 0;
    bool fastIndex_ = false;
    unsigned lineShift_ = 0;
    std::uint64_t setMask_ = 0;
};

} // namespace cord

#endif // CORD_MEM_CACHE_ARRAY_H
