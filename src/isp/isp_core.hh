/**
 * @file
 * In-storage-processing compute model: the SSD controller's embedded
 * core repurposed for offloaded computation (§2.2).
 *
 * One ARM Cortex-R8-class core (of the controller's five; the rest
 * run the FTL, host protocol and Conduit's offloader, per the §4.3.2
 * footnote) executes vector work through its 32-byte MVE SIMD
 * datapath. For bulk vectors the core is memory-bound: sustained
 * throughput is capped by its streaming bandwidth to SSD DRAM.
 * Residual scalar instructions (non-vectorized code, §7) run on the
 * scalar pipeline at a configurable CPI.
 */

#ifndef CONDUIT_ISP_ISP_CORE_HH
#define CONDUIT_ISP_ISP_CORE_HH

#include <algorithm>
#include <cstdint>

#include "src/ir/opcode.hh"
#include "src/sim/config.hh"
#include "src/sim/server.hh"
#include "src/sim/stats.hh"

namespace conduit
{

/**
 * The compute core's mutable calendar. IspCore holds it as its
 * private base, so a DeviceImage snapshot copies it and a fork
 * assigns it.
 */
struct IspState
{
    Server core_;
};

/**
 * Timing model for the controller compute core.
 */
class IspCore : private IspState
{
  public:
    using State = IspState;

    IspCore(const IspConfig &cfg, const ComputeModelConfig &model,
            StatSet *stats = nullptr);

    /** The general-purpose core executes the full opcode set. */
    static bool supports(OpCode) { return true; }

    /**
     * Native width: @p elem_bits-wide elements one @p simd_bytes MVE
     * issue processes (at least 1). The cost model's estimate and
     * the instruction transformer share this one formula.
     */
    static std::uint32_t
    simdLanes(std::uint32_t simd_bytes, std::uint16_t elem_bits)
    {
        const std::uint32_t ebytes =
            std::max<std::uint32_t>(1, elem_bits / 8);
        return std::max<std::uint32_t>(1, simd_bytes / ebytes);
    }

    /**
     * Execute a vector (or residual scalar) fragment on the core.
     *
     * @param op Operation.
     * @param elem_bits Element width.
     * @param lanes Element count.
     * @param num_srcs Source operand count (memory traffic model).
     * @param vectorized False for residual scalar code.
     * @param earliest Earliest start.
     */
    ServiceInterval execute(OpCode op, std::uint16_t elem_bits,
                            std::uint32_t lanes, std::uint32_t num_srcs,
                            bool vectorized, Tick earliest);

    /** Contention-free latency estimate for the cost function. */
    Tick estimate(OpCode op, std::uint16_t elem_bits,
                  std::uint32_t lanes, std::uint32_t num_srcs,
                  bool vectorized) const;

    /** Pending-work backlog (delay_queue input). */
    Tick backlog(Tick now) const { return core_.backlog(now); }

    void reset() { core_.reset(); }

    /** The complete mutable state (DeviceImage capture). */
    const State &capture() const { return *this; }
    void restore(const State &s) { State::operator=(s); }

  private:
    double cyclesPerSimd(OpCode op) const;

    // Hot-path counters resolved once: a StatSet lookup per op costs
    // a string construction plus a map walk.
    // lint: transient-begin(immutable configs plus StatSet handles, rebuilt/re-bound by the constructor on restore)
    IspConfig cfg_;
    ComputeModelConfig model_;
    StatSet::Handle statOps_;
    StatSet::Handle statBusyPs_;
    // lint: transient-end
};

} // namespace conduit

#endif // CONDUIT_ISP_ISP_CORE_HH
