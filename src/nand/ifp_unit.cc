#include "src/nand/ifp_unit.hh"

#include <algorithm>
#include <cassert>
#include <stdexcept>

namespace conduit
{

IfpUnit::IfpUnit(NandArray &nand, const ComputeModelConfig &model,
                 StatSet *stats)
    : nand_(nand), model_(model), statOps_(stats, "ifp.ops"),
      statBytes_(stats, "ifp.bytes")
{
}

Tick
IfpUnit::dieDuration(OpCode op, std::uint16_t elem_bits,
                     std::uint32_t num_operands,
                     std::uint32_t sensed_operands,
                     std::uint64_t bytes) const
{
    const NandConfig &cfg = nand_.config();
    const std::uint64_t pages =
        std::max<std::uint64_t>(1, (bytes + cfg.pageBytes - 1) /
                                       cfg.pageBytes);
    const Tick sense = cfg.cmdTicks + cfg.readTicks;
    const std::uint32_t sensed =
        std::min(sensed_operands, num_operands);

    switch (op) {
      case OpCode::And:
      case OpCode::Nand: {
        // MWS: one sensing covers up to maxAndOperands array-resident
        // operands; latch-resident operands fold in for free.
        const std::uint64_t sensings =
            (sensed + cfg.maxAndOperands - 1) /
            std::max<std::uint32_t>(1, cfg.maxAndOperands);
        return pages * (sensings * sense + cfg.andOrTicks +
                        cfg.latchTicks);
      }
      case OpCode::Or:
      case OpCode::Nor: {
        const std::uint64_t sensings =
            (sensed + cfg.maxOrOperands - 1) /
            std::max<std::uint32_t>(1, cfg.maxOrOperands);
        return pages * (sensings * sense + cfg.andOrTicks +
                        cfg.latchTicks);
      }
      case OpCode::Xor:
        // One sensing per array-resident operand, XOR in the latches.
        return pages * (sensed * sense + cfg.xorTicks +
                        cfg.latchTicks);
      case OpCode::Not:
        return pages * (sensed * sense + cfg.latchTicks);
      case OpCode::ShiftL:
      case OpCode::ShiftR:
        // Latch shift: one latch transfer per element bit.
        return pages * (sensed * sense +
                        static_cast<Tick>(elem_bits) * cfg.latchTicks);
      case OpCode::Copy:
        return pages * (sensed * sense + cfg.latchTicks);
      case OpCode::Add:
      case OpCode::Sub: {
        // Ares-Flash bit-serial addition in the S/D latches.
        const Tick serial = static_cast<Tick>(elem_bits) *
            model_.ifpAddStepsPerBit * cfg.latchTicks;
        return pages * (sensed * sense + serial);
      }
      case OpCode::Mul: {
        // shift_and_add: elem_bits partial products, each a latch
        // AND + shifted addition.
        const Tick serial = static_cast<Tick>(elem_bits) *
            model_.ifpMulStepsPerBit * cfg.latchTicks;
        return pages * (sensed * sense + serial);
      }
      default:
        throw std::invalid_argument(
            "IfpUnit: unsupported opcode " + std::string(opName(op)));
    }
}

Tick
IfpUnit::shuttleDuration(OpCode op, std::uint64_t bytes) const
{
    if (op != OpCode::Mul)
        return 0;
    const NandConfig &cfg = nand_.config();
    const Tick one = cfg.dmaTicks +
        transferTicks(std::min<std::uint64_t>(bytes, cfg.pageBytes),
                      cfg.channelBytesPerSec);
    return model_.ifpMulShuttles * one;
}

ServiceInterval
IfpUnit::execute(OpCode op, std::uint16_t elem_bits,
                 std::uint32_t num_operands,
                 std::uint32_t sensed_operands,
                 const std::vector<IfpFragment> &frags, Tick earliest)
{
    if (!supports(op))
        throw std::invalid_argument(
            "IfpUnit: unsupported opcode " + std::string(opName(op)));
    if (frags.empty())
        return {earliest, earliest};

    Tick start = kMaxTick;
    Tick end = 0;
    for (const auto &frag : frags) {
        const Tick dur = dieDuration(op, elem_bits, num_operands,
                                     sensed_operands, frag.bytes);
        auto iv = nand_.occupyDie(frag.dieIndex, earliest, dur);
        Tick frag_end = iv.end;
        const Tick shuttle = shuttleDuration(op, frag.bytes);
        if (shuttle > 0) {
            // Multiply shuttles occupy the fragment's channel after
            // the die-side compute, creating the channel contention
            // that penalizes IFP multiplication (§6.4).
            const std::uint32_t ch =
                frag.dieIndex / nand_.config().diesPerChannel;
            auto ch_iv = nand_.channel(ch).acquire(iv.end, shuttle);
            frag_end = ch_iv.end;
        }
        start = std::min(start, iv.start);
        end = std::max(end, frag_end);
    }
    statOps_.inc();
    std::uint64_t bytes = 0;
    for (const auto &f : frags)
        bytes += f.bytes;
    statBytes_.inc(bytes);
    return {start == kMaxTick ? earliest : start, end};
}

Tick
IfpUnit::estimate(OpCode op, std::uint16_t elem_bits,
                  std::uint32_t num_operands,
                  std::uint32_t sensed_operands,
                  std::uint64_t bytes_per_die) const
{
    if (!supports(op))
        return kMaxTick;
    return dieDuration(op, elem_bits, num_operands, sensed_operands,
                       bytes_per_die) +
        shuttleDuration(op, bytes_per_die);
}

} // namespace conduit
