/**
 * @file
 * Energy accounting (§5.2 energy modeling).
 *
 * Accumulates two buckets — data-movement energy and computation
 * energy — matching the red/grey breakdown of Fig. 7(b). Constants
 * come from Table 2 (Flash-Cosmos/ParaBit measurements for NAND,
 * DDR4 studies for DRAM, Cortex-R8 power models for the controller).
 */

#ifndef CONDUIT_ENERGY_ENERGY_MODEL_HH
#define CONDUIT_ENERGY_ENERGY_MODEL_HH

#include <cstdint>

#include "src/ir/opcode.hh"
#include "src/sim/config.hh"
#include "src/sim/types.hh"

namespace conduit
{

/**
 * Per-run energy accumulator.
 */
class EnergyModel
{
  public:
    explicit EnergyModel(const EnergyConfig &cfg) : cfg_(cfg) {}

    /** @name Data-movement events @{ */
    void
    flashRead(std::uint64_t pages)
    {
        dmJ_ += cfg_.readJPerChannel * static_cast<double>(pages);
    }

    void
    flashProgram(std::uint64_t pages)
    {
        dmJ_ += cfg_.programJPerChannel * static_cast<double>(pages);
    }

    void
    channelTransfer(std::uint64_t bytes)
    {
        dmJ_ += cfg_.channelJPerByte * static_cast<double>(bytes);
    }

    void
    dma(std::uint64_t ops)
    {
        dmJ_ += cfg_.dmaJPerChannel * static_cast<double>(ops);
    }

    void
    dramTransfer(std::uint64_t bytes)
    {
        dmJ_ += cfg_.dramJPerByte * static_cast<double>(bytes);
    }
    /** @} */

    /** @name Computation events @{ */

    /** IFP sensing for computation (charged as compute). */
    void
    ifpSense(std::uint64_t pages)
    {
        computeJ_ += cfg_.readJPerChannel * static_cast<double>(pages);
    }

    /** IFP logic on @p bytes of payload. */
    void
    ifpOp(OpCode op, std::uint64_t bytes)
    {
        const double kb = static_cast<double>(bytes) / 1024.0;
        double per_kb = cfg_.andOrJPerKb;
        if (op == OpCode::Xor)
            per_kb = cfg_.xorJPerKb;
        else if (latencyClass(op) != LatencyClass::Low)
            per_kb = cfg_.latchJPerKb * 4.0; // bit-serial latch traffic
        computeJ_ += per_kb * kb;
    }

    void
    pudOp(std::uint64_t bbops)
    {
        computeJ_ += cfg_.bbopJ * static_cast<double>(bbops);
    }

    void
    ispBusy(Tick duration)
    {
        computeJ_ += cfg_.ispWatts * ticksToSeconds(duration);
    }
    /** @} */

    double dataMovementJ() const { return dmJ_; }
    double computeJ() const { return computeJ_; }
    // lint: allow(test-only, the energy tests check the breakdown sums; results carry the two parts)
    double totalJ() const { return dmJ_ + computeJ_; }

    void
    reset()
    {
        dmJ_ = 0.0;
        computeJ_ = 0.0;
    }

  private:
    EnergyConfig cfg_;
    double dmJ_ = 0.0;
    double computeJ_ = 0.0;
};

} // namespace conduit

#endif // CONDUIT_ENERGY_ENERGY_MODEL_HH
