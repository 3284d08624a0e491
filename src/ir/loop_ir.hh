/**
 * @file
 * Loop-nest intermediate representation: the "application code" the
 * compile-time preprocessing stage (§4.3.1) consumes.
 *
 * This IR substitutes for LLVM IR in the paper's toolchain. Workload
 * generators express their kernels as loop nests over named arrays;
 * the auto-vectorizer (src/vectorizer) performs the same job as the
 * paper's custom LLVM pass: legality analysis, strip-mining into
 * 4096-lane SIMD operations aligned to NAND pages, partial
 * vectorization of loops with residual scalar statements, and
 * embedding of per-instruction metadata.
 */

#ifndef CONDUIT_IR_LOOP_IR_HH
#define CONDUIT_IR_LOOP_IR_HH

#include <cstdint>
#include <string>
#include <vector>

#include "src/ir/opcode.hh"

namespace conduit
{

/** Index into LoopProgram::arrays. */
using ArrayId = std::uint32_t;

/** A named dense array operand of a loop program. */
struct ArrayDecl
{
    std::string name;
    std::uint64_t elems = 0;
    std::uint16_t elemBits = 8;

    std::uint64_t bytes() const { return elems * elemBits / 8; }
};

/**
 * A reference to array elements inside a loop body, as an affine
 * function of the induction variable: array[i * stride + offset].
 *
 * @c indirect marks array[idx[i]]-style accesses, which defeat
 * auto-vectorization of the statement (§7).
 */
struct ArrayRef
{
    ArrayId array = 0;
    std::int64_t offset = 0;
    std::int64_t stride = 1;
    bool indirect = false;
};

/**
 * One statement of a loop body: dst[i] = op(srcs[i]...).
 */
struct LoopStmt
{
    OpCode op = OpCode::Add;
    std::vector<ArrayRef> srcs;
    ArrayRef dst;

    /**
     * Statement is guarded by a data-dependent branch. Vectorizable
     * only through if-conversion (predicated execution), which emits
     * an extra compare+select pair.
     */
    bool conditional = false;

    /**
     * Statement accumulates into a scalar (reduction). Vectorized via
     * parallel partial sums plus a combine tree.
     */
    bool reduction = false;
};

/**
 * A countable loop with a straight-line body.
 */
struct Loop
{
    std::string label;
    std::uint64_t tripCount = 0;
    std::vector<LoopStmt> body;

    /** Loop-carried flow dependence: not vectorizable at all (§7). */
    bool carriedDependence = false;

    /** Multiple exits / complex control flow: not vectorizable. */
    bool multipleExits = false;

    /** Contains atomic or synchronized operations: not vectorizable. */
    bool atomics = false;

    /** Outer repetition count (time steps, rounds, epochs). */
    std::uint64_t repeat = 1;
};

/**
 * A whole application kernel: arrays plus a sequence of loops.
 */
struct LoopProgram
{
    std::string name;
    std::vector<ArrayDecl> arrays;
    std::vector<Loop> loops;

    ArrayId
    addArray(std::string array_name, std::uint64_t elems,
             std::uint16_t elem_bits = 8)
    {
        arrays.push_back({std::move(array_name), elems, elem_bits});
        return static_cast<ArrayId>(arrays.size() - 1);
    }

    // lint: allow(test-only, the IR tests check array footprints; programs size regions by pages)
    std::uint64_t
    totalBytes() const
    {
        std::uint64_t total = 0;
        for (const auto &a : arrays)
            total += a.bytes();
        return total;
    }
};

} // namespace conduit

#endif // CONDUIT_IR_LOOP_IR_HH
