/**
 * @file
 * The vectorized instruction stream produced by compile-time
 * preprocessing (§4.3.1) and consumed by the runtime offloader.
 *
 * Each VecInstruction is one SIMD operation with the lightweight
 * metadata the compiler pass embeds in the optimized IR: operation
 * type, operand logical-page locations, element size, vector length
 * and producer dependences. The runtime never re-derives any of this;
 * keeping decisions cheap is what makes instruction-granularity
 * offloading viable (§4.5).
 */

#ifndef CONDUIT_IR_INSTRUCTION_HH
#define CONDUIT_IR_INSTRUCTION_HH

#include <cstdint>
#include <string>
#include <vector>

#include "src/ir/opcode.hh"

namespace conduit
{

/** Identifier of a vector instruction within a program. */
using InstrId = std::uint64_t;

/** Sentinel for "no instruction". */
constexpr InstrId kNoInstr = ~static_cast<InstrId>(0);

/**
 * A contiguous run of logical pages holding one vector operand.
 *
 * Operands are addressed at logical-page granularity because that is
 * the granularity of the FTL's L2P mapping and of Conduit's coherence
 * metadata (§4.4).
 */
struct Operand
{
    std::uint64_t basePage = 0;
    std::uint32_t pageCount = 0;

    // lint: allow(test-only, the IR tests pin operand range overlap; nothing aliases operands yet)
    bool
    overlaps(const Operand &o) const
    {
        return basePage < o.basePage + o.pageCount &&
            o.basePage < basePage + pageCount;
    }

    bool
    contains(std::uint64_t page) const
    {
        return page >= basePage && page < basePage + pageCount;
    }
};

/**
 * One vectorized (or residual scalar) instruction.
 */
struct VecInstruction
{
    InstrId id = 0;

    OpCode op = OpCode::Add;

    /** Element width in bits (workloads are INT8-quantized: 8). */
    std::uint16_t elemBits = 8;

    /** Number of SIMD lanes (4096 when fully vectorized). */
    std::uint32_t lanes = 4096;

    /** Source operands (0-3 of them). */
    std::vector<Operand> srcs;

    /** Destination operand. pageCount == 0 for pure reductions. */
    Operand dst;

    /**
     * Producer instructions whose results this instruction reads.
     * Filled by the vectorizer's last-writer analysis.
     */
    std::vector<InstrId> deps;

    /**
     * False for residual scalar code the vectorizer could not
     * transform; such instructions always execute on the ISP core
     * (general-purpose fallback, §7).
     */
    bool vectorized = true;

    /**
     * True when the statement gathers/scatters through a
     * data-dependent index: every lane is an independent random
     * access (drives the host baseline's random-I/O cost model).
     */
    bool indirect = false;

    /** Total bytes read by this instruction. */
    std::uint64_t
    srcBytes() const
    {
        std::uint64_t lane_bytes =
            static_cast<std::uint64_t>(lanes) * elemBits / 8;
        return lane_bytes * srcs.size();
    }

    /** Total bytes written by this instruction. */
    std::uint64_t
    dstBytes() const
    {
        return dst.pageCount == 0
            ? 0
            : static_cast<std::uint64_t>(lanes) * elemBits / 8;
    }

    LatencyClass latency() const { return latencyClass(op); }

    std::string toString() const;
};

/**
 * A full vectorized program: the instruction stream plus the array
 * footprint it touches.
 */
struct Program
{
    std::string name;

    std::vector<VecInstruction> instrs;

    /** Logical pages spanned by all arrays (the dataset footprint). */
    std::uint64_t footprintPages = 0;

    /** Bytes per logical page assumed at build time. */
    std::uint32_t pageBytes = 4096;

    std::uint64_t
    footprintBytes() const
    {
        return footprintPages * static_cast<std::uint64_t>(pageBytes);
    }
};

} // namespace conduit

#endif // CONDUIT_IR_INSTRUCTION_HH
