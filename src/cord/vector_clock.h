/**
 * @file
 * Classical logical vector clocks (Fidge/Mattern), used by the paper's
 * comparison configurations (Ideal, InfCache, L2Cache, L1Cache) and by
 * the happens-before analyses.  The epoch-compressed per-word history
 * built on them is cord/access_history.h.
 */

#ifndef CORD_CORD_VECTOR_CLOCK_H
#define CORD_CORD_VECTOR_CLOCK_H

#include <algorithm>
#include <cstdint>
#include <vector>

#include "sim/logging.h"
#include "sim/types.h"

namespace cord
{

/**
 * A vector clock with one 32-bit component per thread.
 *
 * Up to kInlineComponents components live inline, so the clocks of
 * small machines (every paper configuration runs 4 threads) are plain
 * values: copying one into a history entry, displacing an entry or
 * comparing against one neither allocates nor follows a pointer.
 * Wider clocks keep their components in one heap array.
 */
class VectorClock
{
  public:
    /** Components stored inline; wider clocks use the heap. */
    static constexpr unsigned kInlineComponents = 8;

    VectorClock() = default;

    explicit VectorClock(unsigned n) : n_(n)
    {
        if (onHeap())
            heap_ = new std::uint32_t[n_]();
    }

    VectorClock(const VectorClock &o) : n_(o.n_)
    {
        if (onHeap())
            heap_ = new std::uint32_t[n_];
        std::copy_n(o.data(), n_, data());
    }

    VectorClock(VectorClock &&o) noexcept : n_(o.n_)
    {
        if (onHeap()) {
            heap_ = o.heap_;
            o.n_ = 0;
        } else {
            std::copy_n(o.inline_, n_, inline_);
        }
    }

    VectorClock &
    operator=(const VectorClock &o)
    {
        if (this == &o)
            return *this;
        if (n_ != o.n_) {
            std::uint32_t *fresh =
                o.onHeap() ? new std::uint32_t[o.n_] : nullptr;
            release();
            n_ = o.n_;
            if (fresh)
                heap_ = fresh;
        }
        std::copy_n(o.data(), n_, data());
        return *this;
    }

    VectorClock &
    operator=(VectorClock &&o) noexcept
    {
        if (this == &o)
            return *this;
        release();
        n_ = o.n_;
        if (onHeap()) {
            heap_ = o.heap_;
            o.n_ = 0;
        } else {
            std::copy_n(o.inline_, n_, inline_);
        }
        return *this;
    }

    ~VectorClock() { release(); }

    unsigned size() const { return n_; }

    std::uint32_t
    operator[](unsigned i) const
    {
        cord_assert(i < n_, "vector clock index out of range");
        return data()[i];
    }

    /** Increment this thread's own component. */
    void
    tick(unsigned i)
    {
        cord_assert(i < n_, "vector clock index out of range");
        ++data()[i];
    }

    /** Set one component. */
    void
    setComponent(unsigned i, std::uint32_t v)
    {
        cord_assert(i < n_, "vector clock index out of range");
        data()[i] = v;
    }

    /** Component-wise maximum (the classical join). */
    void
    join(const VectorClock &o)
    {
        cord_assert(o.n_ == n_, "joining mismatched vector clocks");
        std::uint32_t *c = data();
        const std::uint32_t *oc = o.data();
        for (unsigned i = 0; i < n_; ++i) {
            if (oc[i] > c[i])
                c[i] = oc[i];
        }
    }

    /** Pointwise less-or-equal: this happened-before-or-equals @p o. */
    bool
    lessEq(const VectorClock &o) const
    {
        cord_assert(o.n_ == n_, "comparing mismatched vector clocks");
        const std::uint32_t *c = data();
        const std::uint32_t *oc = o.data();
        for (unsigned i = 0; i < n_; ++i) {
            if (c[i] > oc[i])
                return false;
        }
        return true;
    }

    bool
    operator==(const VectorClock &o) const
    {
        return n_ == o.n_ && std::equal(data(), data() + n_, o.data());
    }

  private:
    bool onHeap() const { return n_ > kInlineComponents; }

    std::uint32_t *data() { return onHeap() ? heap_ : inline_; }
    const std::uint32_t *data() const { return onHeap() ? heap_ : inline_; }

    void
    release()
    {
        if (onHeap())
            delete[] heap_;
    }

    std::uint32_t n_ = 0;
    union
    {
        std::uint32_t inline_[kInlineComponents] = {};
        std::uint32_t *heap_;
    };
};

/** Start clocks of @p n threads: each thread's own component is 1, so
 *  clock value 0 means "never" in the histories built from them. */
inline std::vector<VectorClock>
initialThreadClocks(unsigned n)
{
    std::vector<VectorClock> vc(n, VectorClock(n));
    for (unsigned t = 0; t < n; ++t)
        vc[t].tick(t);
    return vc;
}

} // namespace cord

#endif // CORD_CORD_VECTOR_CLOCK_H
