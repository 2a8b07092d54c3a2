/**
 * @file
 * Seeded byte-level mutation shared by the decoder fuzz tests: the
 * damage an artifact suffers in storage or transit.
 */

#ifndef CORD_TESTS_MUTATION_H
#define CORD_TESTS_MUTATION_H

#include <cstdint>
#include <vector>

#include "sim/rng.h"

namespace cord
{

/** Apply one seeded mutation to @p bytes: 1-4 bit flips, a truncation
 *  anywhere (including to nothing), or 1-3 inserted random bytes. */
inline void
mutateBytes(std::vector<std::uint8_t> &bytes, Rng &rng)
{
    switch (rng.below(3)) {
      case 0: {
        const std::uint64_t flips = 1 + rng.below(4);
        for (std::uint64_t i = 0; i < flips && !bytes.empty(); ++i)
            bytes[rng.below(bytes.size())] ^=
                static_cast<std::uint8_t>(1u << rng.below(8));
        break;
      }
      case 1:
        bytes.resize(rng.below(bytes.size() + 1));
        break;
      default: {
        const std::uint64_t n = 1 + rng.below(3);
        for (std::uint64_t i = 0; i < n; ++i)
            bytes.insert(bytes.begin() + static_cast<long>(
                                             rng.below(bytes.size() + 1)),
                         static_cast<std::uint8_t>(rng.below(256)));
        break;
      }
    }
}

} // namespace cord

#endif // CORD_TESTS_MUTATION_H
