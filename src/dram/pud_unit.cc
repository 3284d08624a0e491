#include "src/dram/pud_unit.hh"

#include <algorithm>
#include <stdexcept>

namespace conduit
{

PudUnit::PudUnit(DramModel &dram, const ComputeModelConfig &model,
                 StatSet *stats)
    : dram_(dram), model_(model), statOps_(stats, "pud.ops"),
      statBbops_(stats, "pud.bbops")
{
}

std::uint32_t
PudUnit::bbopCount(OpCode op, std::uint16_t elem_bits) const
{
    // Bit-serial sequences scale with element width; the config
    // constants are calibrated for 8-bit elements (the INT8
    // quantization of §5.4).
    const double width_scale = static_cast<double>(elem_bits) / 8.0;
    auto scaled = [&](std::uint32_t base, double exponent) {
        double v = static_cast<double>(base);
        if (exponent == 1.0)
            v *= width_scale;
        else
            v *= width_scale * width_scale; // multiplication: O(n^2)
        return static_cast<std::uint32_t>(std::max(1.0, v));
    };

    switch (op) {
      case OpCode::And:
      case OpCode::Or:
      case OpCode::Not:
      case OpCode::Nand:
      case OpCode::Nor:
      case OpCode::Xor:
        return scaled(model_.pudBitwiseBbops, 1.0);
      case OpCode::ShiftL:
      case OpCode::ShiftR:
      case OpCode::Copy:
        return scaled(model_.pudCopyBbops, 1.0);
      case OpCode::Add:
      case OpCode::Sub:
        return scaled(model_.pudAddBbops, 1.0);
      case OpCode::CmpLt:
      case OpCode::CmpEq:
      case OpCode::Select:
      case OpCode::Min:
      case OpCode::Max:
        return scaled(model_.pudPredBbops, 1.0);
      case OpCode::Mul:
      case OpCode::Mac:
        return scaled(model_.pudMulBbops, 2.0);
      default:
        throw std::invalid_argument(
            "PudUnit: unsupported opcode " + std::string(opName(op)));
    }
}

ServiceInterval
PudUnit::execute(OpCode op, std::uint16_t elem_bits, std::uint32_t lanes,
                 std::uint32_t home_bank, Tick earliest)
{
    if (!supports(op))
        throw std::invalid_argument(
            "PudUnit: unsupported opcode " + std::string(opName(op)));
    const std::uint32_t rows = rowsFor(elem_bits, lanes);
    const Tick per_row = static_cast<Tick>(bbopCount(op, elem_bits)) *
        dram_.config().bbopTicks;

    Tick start = kMaxTick;
    Tick end = 0;
    const std::uint32_t banks = dram_.numBanks();
    // Rows spread round-robin across banks: up to `banks` rows make
    // progress simultaneously (MIMDRAM's mat/bank-level MIMD).
    for (std::uint32_t r = 0; r < rows; ++r) {
        auto iv = dram_.occupyBank((home_bank + r) % banks, earliest,
                                   per_row);
        start = std::min(start, iv.start);
        end = std::max(end, iv.end);
    }
    statOps_.inc();
    statBbops_.inc(static_cast<std::uint64_t>(rows) *
                   bbopCount(op, elem_bits));
    return {start == kMaxTick ? earliest : start, end};
}

Tick
PudUnit::estimate(OpCode op, std::uint16_t elem_bits,
                  std::uint32_t lanes) const
{
    if (!supports(op))
        return kMaxTick;
    const std::uint32_t rows = rowsFor(elem_bits, lanes);
    const std::uint32_t banks = dram_.numBanks();
    const std::uint32_t waves = (rows + banks - 1) / banks;
    return static_cast<Tick>(waves) * bbopCount(op, elem_bits) *
        dram_.config().bbopTicks;
}

} // namespace conduit
