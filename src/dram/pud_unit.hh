/**
 * @file
 * Processing-using-DRAM unit (SIMDRAM / MIMDRAM / Proteus model).
 *
 * PuD executes bulk operations as sequences of carefully timed
 * ACT/PRE command pairs ("bbops") inside DRAM subarrays: AND/OR via
 * triple-row activation (Ambit), NOT via the sense amplifiers, and
 * multi-bit arithmetic as bit-serial majority/logic sequences
 * (SIMDRAM). One row operates on rowBytes of data across all bitlines
 * simultaneously; banks provide MIMD-style parallelism (MIMDRAM).
 *
 * Operands must reside in the DRAM compute region; the engine stages
 * them from flash via the channel + bus path before invoking this
 * unit (the PuD-SSD data-movement cost discussed in §2.2).
 */

#ifndef CONDUIT_DRAM_PUD_UNIT_HH
#define CONDUIT_DRAM_PUD_UNIT_HH

#include <cstdint>

#include "src/dram/dram.hh"
#include "src/ir/opcode.hh"
#include "src/sim/config.hh"

namespace conduit
{

/**
 * Timing model for in-DRAM computation.
 */
class PudUnit
{
  public:
    PudUnit(DramModel &dram, const ComputeModelConfig &model,
            StatSet *stats = nullptr);

    /** True if the 16-operation PuD ISA supports @p op. */
    static bool supports(OpCode op) { return pudSupports(op); }

    /**
     * Execute a vector fragment of @p lanes elements of
     * @p elem_bits, already resident in the compute region.
     * Rows are spread round-robin over banks starting at
     * @p home_bank; completion is the envelope over banks.
     */
    ServiceInterval execute(OpCode op, std::uint16_t elem_bits,
                            std::uint32_t lanes,
                            std::uint32_t home_bank, Tick earliest);

    /**
     * Contention-free latency estimate (cost-function table):
     * assumes all banks are idle and rows spread perfectly.
     */
    Tick estimate(OpCode op, std::uint16_t elem_bits,
                  std::uint32_t lanes) const;

    /** bbops needed for one row-wide operation of @p op. */
    std::uint32_t bbopCount(OpCode op, std::uint16_t elem_bits) const;

    /** Rows needed to hold @p lanes elements of @p elem_bits. */
    std::uint32_t
    rowsFor(std::uint16_t elem_bits, std::uint32_t lanes) const
    {
        const std::uint64_t bytes =
            static_cast<std::uint64_t>(lanes) * elem_bits / 8;
        const std::uint32_t row = dram_.config().rowBytes;
        return static_cast<std::uint32_t>(
            std::max<std::uint64_t>(1, (bytes + row - 1) / row));
    }

  private:
    DramModel &dram_;
    ComputeModelConfig model_;

    // Hot-path counters resolved once: a StatSet lookup per op costs
    // a string construction plus a map walk.
    StatSet::Handle statOps_;
    StatSet::Handle statBbops_;
};

} // namespace conduit

#endif // CONDUIT_DRAM_PUD_UNIT_HH
