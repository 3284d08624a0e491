/**
 * @file
 * SSD-internal DRAM model (Fig. 2).
 *
 * Models the LPDDR4 subsystem that stores FTL metadata and caches
 * pages: independent banks behind a shared data bus. Banks are FCFS
 * Servers with row activate/precharge timing; the bus serializes
 * data transfers at the configured effective bandwidth. Accuracy is
 * at the level the offloading study needs — bank-level parallelism,
 * row-granularity operations, and bus contention — following the
 * Ramulator-2.0-based extension described in §5.1.
 */

#ifndef CONDUIT_DRAM_DRAM_HH
#define CONDUIT_DRAM_DRAM_HH

#include <cstdint>
#include <stdexcept>
#include <vector>

#include "src/sim/config.hh"
#include "src/sim/server.hh"
#include "src/sim/stats.hh"

namespace conduit
{

/**
 * The DRAM subsystem's mutable calendar state: every bank Server
 * plus the shared bus. DramModel holds it as its private base, so a
 * DeviceImage snapshot copies it and a fork assigns it.
 */
struct DramState
{
    ServerGroup banks_;
    Server bus_;
};

/**
 * Bank-parallel DRAM timing model.
 */
class DramModel : private DramState
{
  public:
    using State = DramState;

    explicit DramModel(const DramConfig &cfg, StatSet *stats = nullptr);

    const DramConfig &config() const { return cfg_; }

    /**
     * Transfer @p bytes over the DRAM bus (e.g. staging a page into
     * or out of the compute region). Includes one row activation on
     * the selected bank plus serialized bus time.
     *
     * @param bank Bank index (row address hash).
     * @param bytes Payload size.
     * @param earliest Earliest start.
     */
    ServiceInterval access(std::uint32_t bank, std::uint64_t bytes,
                           Tick earliest);

    /** Occupy a bank for an in-bank (PuD) operation sequence. */
    ServiceInterval
    occupyBank(std::uint32_t bank, Tick earliest, Tick duration)
    {
        return banks_.acquireOn(bank % banks_.size(), earliest,
                                duration);
    }

    /** Occupy the least-loaded bank. */
    ServiceInterval
    occupyAnyBank(Tick earliest, Tick duration)
    {
        return banks_.acquire(earliest, duration);
    }

    /** Least backlog over banks at @p now. */
    Tick bankBacklog(Tick now) const { return banks_.backlog(now); }

    /** Bus backlog at @p now. */
    Tick busBacklog(Tick now) const { return bus_.backlog(now); }

    /** Bus utilization in [0,1] up to @p now. */
    double
    busUtilization(Tick now) const
    {
        return now == 0
            ? 0.0
            : static_cast<double>(bus_.busyTime()) /
                static_cast<double>(now);
    }

    std::uint32_t numBanks() const
    {
        return static_cast<std::uint32_t>(banks_.size());
    }

    /** Row activate + restore + precharge time (one bank cycle). */
    Tick
    rowCycleTicks() const
    {
        return cfg_.tRas + cfg_.tRp;
    }

    /** The complete mutable state (DeviceImage capture). */
    const State &capture() const { return *this; }

    /** Continue from @p s, captured from a model of this geometry. */
    void
    restore(const State &s)
    {
        if (s.banks_.size() != banks_.size())
            throw std::invalid_argument(
                "DramModel::restore: bank count mismatch");
        State::operator=(s);
    }

  private:
    // Hot-path counters resolved once: a StatSet lookup per access
    // costs a string construction plus a map walk.
    // lint: transient-begin(immutable config plus StatSet handles, rebuilt/re-bound by the constructor on restore)
    DramConfig cfg_;
    StatSet::Handle statAccesses_;
    StatSet::Handle statBytes_;
    // lint: transient-end
};

} // namespace conduit

#endif // CONDUIT_DRAM_DRAM_HH
