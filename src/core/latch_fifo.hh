/**
 * @file
 * Per-die latch FIFOs of the lazy-coherence model (§4.4).
 *
 * Each die's page-buffer latches hold a bounded number of IFP result
 * pages; when a die's FIFO overflows, its oldest entries are
 * evicted and, if still latch-resident and dirty, committed to the
 * array. The entries are kept in one contiguous vector per die:
 * capacities are small (16 pages by default), so a linear scan and a
 * front erase beat a deque's chunked storage, and a fork copies one
 * buffer per die.
 *
 * An entry is a page id, not a residency record. A page can have an
 * entry in two dies' FIFOs at once (its home die changed between IFP
 * writes), and an entry outlives the page leaving the latch; the
 * engine checks a victim's residency when it is evicted.
 */

#ifndef CONDUIT_CORE_LATCH_FIFO_HH
#define CONDUIT_CORE_LATCH_FIFO_HH

#include <algorithm>
#include <cstdint>
#include <vector>

#include "src/ftl/ftl.hh"

namespace conduit
{

class LatchFifos
{
  public:
    /** Empty FIFOs for @p dies dies. */
    void
    reset(std::uint32_t dies)
    {
        fifo_.assign(dies, {});
    }

    /**
     * Append @p page to @p die's FIFO as its newest entry, first
     * dropping the page's older entry in that FIFO (a rewrite
     * refreshes it). Other dies' FIFOs are not searched.
     * @return The entries compared while looking for the old entry.
     */
    std::size_t
    refresh(std::uint32_t die, Lpn page)
    {
        std::vector<Lpn> &f = fifo_[die];
        const auto it = std::find(f.begin(), f.end(), page);
        const auto scanned = static_cast<std::size_t>(
            it == f.end() ? f.size() : it - f.begin() + 1);
        if (it != f.end())
            f.erase(it);
        f.push_back(page);
        return scanned;
    }

    /**
     * Evict @p die's oldest entries, oldest first, while more than
     * @p cap remain; @p victim receives each evicted page after it
     * left the FIFO.
     */
    template <class Victim>
    void
    trim(std::uint32_t die, std::size_t cap, Victim &&victim)
    {
        std::vector<Lpn> &f = fifo_[die];
        while (f.size() > cap) {
            const Lpn v = f.front();
            f.erase(f.begin());
            victim(v);
        }
    }

    /** Drop every entry for a page in [first, limit). */
    void
    purge(Lpn first, Lpn limit)
    {
        for (auto &f : fifo_) {
            f.erase(std::remove_if(f.begin(), f.end(),
                                   [&](Lpn p) {
                                       return p >= first && p < limit;
                                   }),
                    f.end());
        }
    }

  private:
    std::vector<std::vector<Lpn>> fifo_;
};

} // namespace conduit

#endif // CONDUIT_CORE_LATCH_FIFO_HH
