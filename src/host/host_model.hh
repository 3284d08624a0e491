/**
 * @file
 * Host CPU / GPU baselines (outside-storage processing).
 *
 * Following the paper's methodology (§5.3), host baselines combine a
 * roofline compute model (standing in for real-system measurements)
 * with simulated SSD-to-host data transfers over PCIe 4.0. The host
 * retains a configurable fraction of the working set in its DRAM;
 * every miss streams a page from the SSD over NVMe/PCIe. Compute and
 * transfer overlap (double-buffered streaming), so runtime is the
 * maximum of the two plus a cold-start ramp.
 */

#ifndef CONDUIT_HOST_HOST_MODEL_HH
#define CONDUIT_HOST_HOST_MODEL_HH

#include <cstdint>

#include "src/ir/instruction.hh"
#include "src/sim/config.hh"
#include "src/sim/types.hh"

namespace conduit
{

/** Outcome of a host-side execution. */
struct HostResult
{
    Tick totalTime = 0;
    Tick computeTime = 0;
    Tick transferTime = 0;

    std::uint64_t pcieBytes = 0;
    std::uint64_t flashPagesRead = 0;

    double computeEnergyJ = 0.0;
    double dmEnergyJ = 0.0;

    double energyJ() const { return computeEnergyJ + dmEnergyJ; }

    /** Host page-cache work: exact counts of the model's own
     *  effort, for self-performance records. No simulated output
     *  reads them. */
    struct Work
    {
        std::uint64_t pageTouches = 0; // pages replayed through the LRU
        std::uint64_t misses = 0;
        std::uint64_t evictions = 0;
        std::uint64_t compactions = 0; // RankLru window renumberings
        std::uint64_t victimSteps = 0; // blocks + words skipped
    };
    Work work;
};

/**
 * Analytical host baseline evaluator.
 */
class HostModel
{
  public:
    enum class Kind { Cpu, Gpu };

    HostModel(const SsdConfig &cfg, Kind kind)
        : cfg_(cfg), kind_(kind)
    {
    }

    /** Evaluate the whole program on the host. */
    HostResult run(const Program &prog) const;

  private:
    double opsPerSec(LatencyClass lc) const;

    SsdConfig cfg_;
    Kind kind_;
};

} // namespace conduit

#endif // CONDUIT_HOST_HOST_MODEL_HH
