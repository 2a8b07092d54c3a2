/**
 * @file
 * Epoch-compressed per-word access history: the one incremental
 * happens-before race check behind IdealDetector (online), the
 * epoch-compressed offline analysis (analysis/epoch_analyzer.h) and
 * the predictive analysis (analysis/predict.h).
 *
 * For every data word it keeps the clock of each thread's last read
 * and last write of that word -- the FastTrack epoch representation of
 * per-<word,thread> last-access vector timestamps, which is complete
 * for race detection because same-thread accesses are totally ordered
 * by program order.  The per-word state adapts to sharing (the
 * linear-time vector-clock/epoch shape of Kini et al., PAPERS.md):
 *
 *  - exclusive: a word only one thread ever touched keeps that
 *    thread's last read/write clocks inline, and a same-thread access
 *    is an O(1) update that cannot race;
 *  - shared: the second thread's arrival promotes the word to pooled
 *    per-thread clock arrays guarded by accessor bitmasks, so the race
 *    check scans only threads that touched the word.  Machines wider
 *    than 64 threads scan every thread instead.
 *
 * Words live in the 512-word pages of a PagedAddrMap
 * (sim/paged_map.h): the common lookup is an MRU page compare plus an
 * array index, with no per-word hash probe and no allocation once the
 * word's page is resident.  A default Word (exclusive, both clocks 0)
 * means "never accessed" -- thread clocks start at 1
 * (initialThreadClocks) -- so words() counts first touches.
 *
 * Each slot can carry a caller-defined Stamp that is handed back with
 * every racing prior access.  The offline front ends stamp the trace
 * index; online Ideal needs nothing back and uses NoStamp, which takes
 * no storage in the slots (stamping every slot costs ~20% peak RSS on
 * injection campaigns, which run Ideal in every run).
 *
 * The caller owns the thread clocks and the synchronization rule
 * (happens-before for Ideal and the epoch pass, the reads-from order W
 * for prediction); data races never introduce ordering.
 * analysis/hb_analyzer.cpp keeps an independent full-vector
 * implementation on purpose: it is the reference this core is tested
 * against, field by field.
 */

#ifndef CORD_CORD_ACCESS_HISTORY_H
#define CORD_CORD_ACCESS_HISTORY_H

#include <cstdint>
#include <type_traits>
#include <vector>

#include "cord/vector_clock.h"
#include "sim/paged_map.h"
#include "sim/types.h"

namespace cord
{

/** Stamp type for front ends that need nothing back about a prior. */
struct NoStamp
{
};

/** Per-word last-access clocks of every thread, with race check. */
template <typename Stamp>
class AccessHistory
{
  public:
    explicit AccessHistory(unsigned numThreads)
        : n_(numThreads), useMasks_(numThreads <= 64)
    {
    }

    /**
     * Check one data access of thread @p tid, whose current clock is
     * @p tvc, against the word's history, then record it.  Calls
     * `onRace(otherTid, otherStamp, otherWasWrite)` once per racing
     * prior access: a conflicting last access by another thread whose
     * clock @p tvc has not acquired.  Threads come in ascending order,
     * a thread's write before its read.
     */
    template <typename OnRace>
    void
    access(const VectorClock &tvc, ThreadId tid, Addr word, bool isWrite,
           Stamp stamp, OnRace &&onRace)
    {
        Word &w = words_[word];
        const std::uint32_t own = tvc[tid];

        if (w.base == kExclusive) {
            if (w.readClock == 0 && w.writeClock == 0) {
                w.owner = tid;
                ++touched_;
            }
            if (w.owner == tid) {
                // Same-thread fast path: no race possible.
                if (isWrite) {
                    w.writeClock = own;
                    w.writeStamp = stamp;
                } else {
                    w.readClock = own;
                    w.readStamp = stamp;
                }
                return;
            }
            // Second thread arrives: O(1) checks against the single
            // prior accessor, then promote.
            const ThreadId u = w.owner;
            if (w.writeClock != 0 && tvc[u] < w.writeClock)
                onRace(u, w.writeStamp, true);
            if (isWrite && w.readClock != 0 && tvc[u] < w.readClock)
                onRace(u, w.readStamp, false);
            promote(w);
        } else {
            const std::uint32_t *wc = &clocks_[w.base];
            const std::uint32_t *rc = wc + n_;
            auto check = [&](ThreadId u) {
                if (u == tid)
                    return;
                if (wc[u] != 0 && tvc[u] < wc[u])
                    onRace(u, stampAt(w.base + u), true);
                if (isWrite && rc[u] != 0 && tvc[u] < rc[u])
                    onRace(u, stampAt(w.base + n_ + u), false);
            };
            if (useMasks_) {
                std::uint64_t m =
                    isWrite ? (w.writeMask | w.readMask) : w.writeMask;
                while (m) {
                    const unsigned u =
                        static_cast<unsigned>(__builtin_ctzll(m));
                    m &= m - 1;
                    check(static_cast<ThreadId>(u));
                }
            } else {
                for (ThreadId u = 0; u < n_; ++u)
                    check(u);
            }
        }

        const std::uint32_t slot = w.base + (isWrite ? 0 : n_) + tid;
        clocks_[slot] = own;
        if constexpr (kStamped)
            stamps_[slot] = stamp;
        (isWrite ? w.writeMask : w.readMask) |= 1ull << (tid & 63);
    }

    /** Number of distinct words with a recorded access. */
    std::size_t words() const { return touched_; }

  private:
    static constexpr bool kStamped = !std::is_empty_v<Stamp>;
    static constexpr std::uint32_t kExclusive = 0xffffffffu;

    /**
     * One word.  Exclusive mode keeps the owner's last clocks (0 =
     * never) and stamps inline; shared mode indexes the pooled arrays
     * at `base`: n write slots, then n read slots.
     */
    struct Word
    {
        std::uint32_t base = kExclusive;
        ThreadId owner = 0;
        // Here an empty Stamp sits in owner's padding; after the masks
        // it would grow the word by 8 bytes.
        [[no_unique_address]] Stamp readStamp{}, writeStamp{};
        std::uint32_t readClock = 0, writeClock = 0;
        std::uint64_t readMask = 0, writeMask = 0;
    };
    static_assert(kStamped || sizeof(Word) == 32,
                  "an unstamped history must not pay for stamps");

    Stamp
    stampAt(std::uint32_t slot) const
    {
        if constexpr (kStamped)
            return stamps_[slot];
        else
            return Stamp{};
    }

    /** Move an exclusive word's owner history into a fresh pool block. */
    void
    promote(Word &w)
    {
        const auto base = static_cast<std::uint32_t>(clocks_.size());
        clocks_.resize(clocks_.size() + 2 * n_, 0);
        if constexpr (kStamped)
            stamps_.resize(stamps_.size() + 2 * n_);
        const ThreadId u = w.owner;
        if (w.writeClock != 0) {
            clocks_[base + u] = w.writeClock;
            if constexpr (kStamped)
                stamps_[base + u] = w.writeStamp;
            w.writeMask |= 1ull << (u & 63);
        }
        if (w.readClock != 0) {
            clocks_[base + n_ + u] = w.readClock;
            if constexpr (kStamped)
                stamps_[base + n_ + u] = w.readStamp;
            w.readMask |= 1ull << (u & 63);
        }
        w.base = base;
    }

    unsigned n_;
    bool useMasks_;
    PagedAddrMap<Word, kWordBytes> words_;
    std::size_t touched_ = 0;           //!< words ever accessed
    std::vector<std::uint32_t> clocks_; //!< pooled shared-mode clocks
    std::vector<Stamp> stamps_;         //!< parallel to clocks_
};

} // namespace cord

#endif // CORD_CORD_ACCESS_HISTORY_H
