/**
 * @file
 * In-flash processing unit (Flash-Cosmos + Ares-Flash model, §2.2).
 *
 * Bulk bitwise operations use multi-wordline sensing (MWS): AND of up
 * to 48 operands resident in the same block completes in a single
 * sensing; OR activates up to 4 blocks simultaneously; XOR/NOT use
 * the page-buffer latches. Arithmetic (Ares-Flash) runs bit-serially
 * in the S/D latches; multiplication decomposes into shift_and_add
 * steps that shuttle partial operands between the flash controller
 * and the chip, consuming channel bandwidth — the property that makes
 * IFP multiplication unattractive in Fig. 9/10.
 *
 * Work parallelizes across the dies holding the operand pages; the
 * result stays in the page buffer latches until Conduit's coherence
 * mechanism commits or forwards it (§4.4).
 */

#ifndef CONDUIT_NAND_IFP_UNIT_HH
#define CONDUIT_NAND_IFP_UNIT_HH

#include <cstdint>
#include <vector>

#include "src/ir/opcode.hh"
#include "src/nand/nand.hh"
#include "src/sim/config.hh"

namespace conduit
{

/** One fragment of IFP work bound to a specific die. */
struct IfpFragment
{
    std::uint32_t dieIndex = 0;
    std::uint64_t bytes = 0;   // payload processed on that die
};

/**
 * Reusable builder of one instruction's fragment list. Pages merge
 * into one fragment per die, in the order their dies first appear
 * (IfpUnit::execute reserves dies and channels in list order). A
 * per-die slot index makes each merge O(1), and both buffers persist
 * across builds, so a steady-state build allocates nothing.
 */
class FragmentList
{
  public:
    /** Start an empty list over dies [0, @p dies). */
    void
    begin(std::uint32_t dies)
    {
        for (const IfpFragment &f : frags_)
            slot_[f.dieIndex] = 0;
        frags_.clear();
        if (slot_.size() < dies)
            slot_.resize(dies, 0);
    }

    /** Add @p bytes of work on @p die. */
    void
    add(std::uint32_t die, std::uint64_t bytes)
    {
        std::uint32_t &s = slot_[die];
        if (s == 0) {
            frags_.push_back({die, bytes});
            s = static_cast<std::uint32_t>(frags_.size());
        } else {
            frags_[s - 1].bytes += bytes;
        }
    }

    const std::vector<IfpFragment> &fragments() const { return frags_; }

  private:
    std::vector<IfpFragment> frags_;
    /** Per die: 1 + its fragment's index, or 0 when absent. */
    std::vector<std::uint32_t> slot_;
};

/**
 * Timing model for in-flash computation.
 */
class IfpUnit
{
  public:
    IfpUnit(NandArray &nand, const ComputeModelConfig &model,
            StatSet *stats = nullptr);

    /** True if the substrate supports @p op (nine-operation ISA). */
    static bool supports(OpCode op) { return ifpSupports(op); }

    /**
     * Execute an operation whose operands are already resident in
     * flash, spread over @p frags. Reserves die (and, for multiply,
     * channel) time; returns the overall [start, end] envelope.
     *
     * @param op Operation (must satisfy supports()).
     * @param elem_bits Element width in bits.
     * @param num_operands Source-operand count (MWS fan-in).
     * @param sensed_operands Operands that must be sensed from the
     *        array; latch-resident operands (previous IFP results)
     *        skip sensing entirely, which is what makes IFP shine on
     *        high-reuse bitwise workloads such as AES.
     * @param frags Dies touched and payload bytes per die.
     * @param earliest Earliest start time.
     */
    ServiceInterval execute(OpCode op, std::uint16_t elem_bits,
                            std::uint32_t num_operands,
                            std::uint32_t sensed_operands,
                            const std::vector<IfpFragment> &frags,
                            Tick earliest);

    /**
     * Contention-free latency estimate for the cost function's
     * latency_comp table (§4.3.2): the per-die duration assuming all
     * dies start immediately and work in parallel.
     */
    Tick estimate(OpCode op, std::uint16_t elem_bits,
                  std::uint32_t num_operands,
                  std::uint32_t sensed_operands,
                  std::uint64_t bytes_per_die) const;

  private:
    /** Duration of the in-die portion for one fragment. */
    Tick dieDuration(OpCode op, std::uint16_t elem_bits,
                     std::uint32_t num_operands,
                     std::uint32_t sensed_operands,
                     std::uint64_t bytes) const;

    /** Channel time consumed per fragment (multiply shuttles). */
    Tick shuttleDuration(OpCode op, std::uint64_t bytes) const;

    NandArray &nand_;
    ComputeModelConfig model_;

    // Hot-path counters resolved once: a StatSet lookup per op costs
    // a string construction plus a map walk.
    StatSet::Handle statOps_;
    StatSet::Handle statBytes_;
};

} // namespace conduit

#endif // CONDUIT_NAND_IFP_UNIT_HH
