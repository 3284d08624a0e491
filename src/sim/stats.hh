/**
 * @file
 * Statistics collection: counters, means, and full-sample histograms.
 *
 * Tail-latency experiments (Fig. 8 of the paper) need exact 99th and
 * 99.99th percentiles, so Histogram keeps every sample. Workloads in
 * this repository produce at most a few hundred thousand samples, so
 * the memory cost is negligible compared to quantile fidelity.
 */

#ifndef CONDUIT_SIM_STATS_HH
#define CONDUIT_SIM_STATS_HH

#include <algorithm>
#include <cstdint>
#include <map>
#include <string>
#include <vector>

namespace conduit
{

/** A monotonically growing named counter. */
class Counter
{
  public:
    Counter() = default;

    void inc(std::uint64_t by = 1) { value_ += by; }
    std::uint64_t value() const { return value_; }

  private:
    std::uint64_t value_ = 0;
};

/**
 * Nearest-rank percentile of @p samples: the smallest value with at
 * least ceil(p/100 * N) samples at or below it (p <= 0 gives the
 * minimum, p >= 100 the maximum, an empty sample 0). Takes its own
 * copy and partially orders it, so callers keep their data as is.
 * @param p Percentile in [0, 100].
 */
double nearestRankOf(std::vector<double> samples, double p);

/**
 * Exact-quantile histogram over double-valued samples.
 *
 * Samples are stored verbatim; quantiles use nearestRankOf() on a
 * copy, so reads never mutate the histogram and a shared const
 * histogram is safe to query from several threads. Sum, min and max
 * are maintained as running values — reading them never re-scans
 * the sample vector.
 */
class Histogram
{
  public:
    void
    add(double sample)
    {
        samples_.push_back(sample);
        accumulate(sample);
    }

    std::size_t count() const { return samples_.size(); }

    double sum() const { return sum_; }

    double
    mean() const
    {
        return samples_.empty() ? 0.0 : sum_ / samples_.size();
    }

    double min() const { return samples_.empty() ? 0.0 : min_; }

    double max() const { return samples_.empty() ? 0.0 : max_; }

    /**
     * Nearest-rank percentile.
     * @param p Percentile in [0, 100].
     */
    double percentile(double p) const { return nearestRankOf(samples_, p); }

    /** Append every sample of @p other (aggregate histograms). */
    void
    merge(const Histogram &other)
    {
        // Fold sample by sample: the running sum then matches a
        // sequential re-scan of the concatenated vector bit for bit
        // (adding other.sum_ in one step would round differently).
        // No exact reserve: into a growing aggregate that would
        // reallocate and copy every earlier sample on each merge,
        // where push_back's doubling amortizes.
        for (double v : other.samples_) {
            samples_.push_back(v);
            accumulate(v);
        }
    }

    void
    clear()
    {
        samples_.clear();
        sum_ = 0.0;
        min_ = 0.0;
        max_ = 0.0;
    }

  private:
    void
    accumulate(double sample)
    {
        if (samples_.size() == 1) {
            min_ = max_ = sample;
        } else {
            min_ = std::min(min_, sample);
            max_ = std::max(max_, sample);
        }
        sum_ += sample;
    }

    std::vector<double> samples_;
    double sum_ = 0.0;
    double min_ = 0.0;
    double max_ = 0.0;
};

/**
 * The named counters of a simulation run, held by value.
 *
 * Counters live in one flat slot array; a name maps to its slot on
 * first lookup (dotted paths such as "nand.reads"). Components
 * resolve their hot-path counters once into Handles. Copying a
 * StatSet copies every count, and assigning one is a complete
 * restore: handles index slots, so they stay valid across an
 * assignment from any set that registered the same names in the
 * same order first (see extends()).
 */
class StatSet
{
  public:
    /**
     * A counter slot resolved once by name. A default handle, or
     * one taken on a null set, ignores inc() and reads 0:
     * components built without stats need no guards.
     */
    class Handle
    {
      public:
        Handle() = default;

        Handle(StatSet *set, const std::string &name)
            : set_(set), slot_(set ? set->slotOf(name) : 0)
        {
        }

        void
        inc(std::uint64_t by = 1) const
        {
            if (set_)
                set_->slots_[slot_].inc(by);
        }

        std::uint64_t
        value() const
        {
            return set_ ? set_->slots_[slot_].value() : 0;
        }

      private:
        StatSet *set_ = nullptr;
        std::size_t slot_ = 0;
    };

    /**
     * The counter named @p name, created at zero on first use. The
     * reference lasts until the next new name is registered; keep a
     * Handle instead.
     */
    Counter &counter(const std::string &name) { return slots_[slotOf(name)]; }

    /** Every counter by name, in name order. */
    std::map<std::string, Counter> counters() const;

    /**
     * True when every counter of @p base sits in the same slot here,
     * so handles taken on @p base stay valid after `base = *this`.
     */
    bool extends(const StatSet &base) const;

    /** Render all counters as "name value" lines (for debugging). */
    // lint: allow(test-only, a debugging aid; the StatSet test pins its format)
    std::string dump() const;

  private:
    std::size_t slotOf(const std::string &name);

    std::map<std::string, std::size_t> index_;
    std::vector<Counter> slots_;
};

} // namespace conduit

#endif // CONDUIT_SIM_STATS_HH
