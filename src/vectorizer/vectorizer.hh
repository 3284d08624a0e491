/**
 * @file
 * Compile-time loop auto-vectorization (§4.3.1).
 *
 * This stage plays the role of the paper's custom LLVM pass invoked
 * with -force-vector-width=4096 -force-vector-interleave=1. It:
 *
 *  1. analyses each loop for vectorization legality (loop-carried
 *     dependences, multiple exits, atomics, indirect accesses — the
 *     §7 failure list),
 *  2. strip-mines legal loops into 4096-lane SIMD operations whose
 *     operands are page-aligned runs of logical pages (matching the
 *     FTL's L2P granularity),
 *  3. if-converts conditional statements into compare+select pairs
 *     (partial vectorization),
 *  4. vectorizes reductions via parallel partial accumulators plus a
 *     combine tree,
 *  5. emits residual scalar instructions for everything else (they
 *     will execute on the ISP core), and
 *  6. embeds the metadata (operation type, operand pages, element
 *     size, vector length, dependences) that the runtime offloader
 *     reads, plus -Rpass-style remarks for the user.
 */

#ifndef CONDUIT_VECTORIZER_VECTORIZER_HH
#define CONDUIT_VECTORIZER_VECTORIZER_HH

#include <cstdint>
#include <string>
#include <unordered_map>
#include <vector>

#include "src/ir/instruction.hh"
#include "src/ir/loop_ir.hh"

namespace conduit
{

/** Vectorizer tuning knobs. */
struct VectorizeOptions
{
    std::uint32_t vectorLanes = 4096;
    std::uint32_t pageBytes = 4096;

    /** Max parallel partial accumulators for reductions. */
    std::uint32_t reductionPartials = 64;
};

/** Vectorization summary (drives Table 3 and the -Rpass remarks). */
struct VectorizationReport
{
    std::uint64_t vectorInstrs = 0;
    std::uint64_t scalarInstrs = 0;

    /**
     * Fraction of static kernel code (loop-body statements) that was
     * vectorized — the "Vectorizable Code %" of Table 3.
     */
    double vectorizableFraction = 0.0;

    /** Dynamic element-operations executed as SIMD vs total. */
    double dynamicVectorFraction = 0.0;

    /** Mean times each touched operand page is read. */
    double avgReuse = 0.0;

    /** Element-op mix by latency class (fractions summing to 1). */
    double lowFraction = 0.0;
    double medFraction = 0.0;
    double highFraction = 0.0;

    /** Human-readable per-loop outcomes. */
    std::vector<std::string> remarks;
};

/** Result of running the compile-time stage on a kernel. */
struct VectorizedProgram
{
    Program program;
    VectorizationReport report;
};

/**
 * The auto-vectorizer.
 *
 * Deterministic: the same LoopProgram always lowers to the same
 * instruction stream.
 */
class Vectorizer
{
  public:
    explicit Vectorizer(VectorizeOptions opts = {}) : opts_(opts) {}

    /** Lower @p lp to a vectorized instruction stream. */
    VectorizedProgram run(const LoopProgram &lp) const;

  private:
    struct Layout
    {
        std::vector<std::uint64_t> basePage; // per array
        std::uint64_t nextPage = 0;

        std::uint64_t
        alloc(std::uint64_t bytes, std::uint32_t page_bytes)
        {
            const std::uint64_t pages =
                (bytes + page_bytes - 1) / page_bytes;
            const std::uint64_t base = nextPage;
            nextPage += pages == 0 ? 1 : pages;
            return base;
        }
    };

    struct Emitter;

    /** True if the loop as a whole can never be vectorized. */
    static bool loopIllegal(const Loop &loop, std::string &why);

    /** True if the statement must stay scalar inside a legal loop. */
    static bool stmtIllegal(const LoopStmt &stmt, std::string &why);

    /**
     * Vectorize a reduction statement via parallel partial
     * accumulators plus a binary combine tree.
     */
    static void emitReduction(Emitter &em, const Loop &loop,
                              const LoopStmt &stmt,
                              std::uint16_t elem_bits);

    VectorizeOptions opts_;
};

} // namespace conduit

#endif // CONDUIT_VECTORIZER_VECTORIZER_HH
