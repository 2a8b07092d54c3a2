/**
 * @file
 * Classical logical vector clocks (Fidge/Mattern), used by the paper's
 * comparison configurations (Ideal, InfCache, L2Cache, L1Cache) and by
 * the happens-before analyses.  The epoch-compressed per-word history
 * built on them is cord/access_history.h.
 */

#ifndef CORD_CORD_VECTOR_CLOCK_H
#define CORD_CORD_VECTOR_CLOCK_H

#include <cstdint>
#include <vector>

#include "sim/logging.h"
#include "sim/types.h"

namespace cord
{

/** A vector clock with one 32-bit component per thread. */
class VectorClock
{
  public:
    VectorClock() = default;

    explicit VectorClock(unsigned n) : c_(n, 0) {}

    unsigned size() const { return static_cast<unsigned>(c_.size()); }

    std::uint32_t
    operator[](unsigned i) const
    {
        cord_assert(i < c_.size(), "vector clock index out of range");
        return c_[i];
    }

    /** Increment this thread's own component. */
    void
    tick(unsigned i)
    {
        cord_assert(i < c_.size(), "vector clock index out of range");
        ++c_[i];
    }

    /** Set one component. */
    void
    setComponent(unsigned i, std::uint32_t v)
    {
        cord_assert(i < c_.size(), "vector clock index out of range");
        c_[i] = v;
    }

    /** Component-wise maximum (the classical join). */
    void
    join(const VectorClock &o)
    {
        cord_assert(o.size() == size(), "joining mismatched vector clocks");
        for (unsigned i = 0; i < size(); ++i) {
            if (o.c_[i] > c_[i])
                c_[i] = o.c_[i];
        }
    }

    /** Pointwise less-or-equal: this happened-before-or-equals @p o. */
    bool
    lessEq(const VectorClock &o) const
    {
        cord_assert(o.size() == size(),
                    "comparing mismatched vector clocks");
        for (unsigned i = 0; i < size(); ++i) {
            if (c_[i] > o.c_[i])
                return false;
        }
        return true;
    }

    bool
    operator==(const VectorClock &o) const
    {
        return c_ == o.c_;
    }

  private:
    std::vector<std::uint32_t> c_;
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
