#include "src/vectorizer/vectorizer.hh"

#include <algorithm>
#include <cassert>
#include <sstream>
#include <unordered_set>

namespace conduit
{

namespace
{

/** Cap on recorded producer dependences per instruction. */
constexpr std::size_t kMaxDeps = 12;

} // namespace

/**
 * Internal emission state: the output instruction stream, the
 * last-writer table used for dependence metadata, and the access
 * counters behind the reuse/op-mix statistics.
 */
struct Vectorizer::Emitter
{
    const VectorizeOptions &opts;
    const LoopProgram &lp;
    Layout layout;

    Program out;
    VectorizationReport report;

    /** page -> id of the last instruction that wrote it. */
    std::unordered_map<std::uint64_t, InstrId> lastWriter;

    /** page -> number of read touches (reuse statistic). */
    std::unordered_map<std::uint64_t, std::uint64_t> readTouches;

    double elemOpsVector = 0.0;
    double elemOpsScalar = 0.0;
    double elemOpsLow = 0.0;
    double elemOpsMed = 0.0;
    double elemOpsHigh = 0.0;

    Emitter(const VectorizeOptions &o, const LoopProgram &p)
        : opts(o), lp(p)
    {
    }

    /** Page span covered by @p ref over chunk iterations [lo, hi). */
    Operand
    operandFor(const ArrayRef &ref, std::uint64_t lo, std::uint64_t hi) const
    {
        const ArrayDecl &arr = lp.arrays[ref.array];
        const std::uint64_t ebytes = std::max<std::uint64_t>(
            1, arr.elemBits / 8);
        // First and last element indices touched by the chunk.
        const std::int64_t first = ref.offset +
            static_cast<std::int64_t>(lo) * ref.stride;
        const std::int64_t last = ref.offset +
            static_cast<std::int64_t>(hi - 1) * ref.stride;
        // Clamp to the array bounds: small arrays (lookup tables,
        // broadcast scalars) are referenced from any chunk offset.
        const auto last_elem =
            static_cast<std::int64_t>(arr.elems) - 1;
        const std::int64_t min_e = std::clamp<std::int64_t>(
            std::min(first, last), 0, last_elem);
        const std::int64_t max_e = std::clamp<std::int64_t>(
            std::max(first, last), min_e, last_elem);
        const std::uint64_t byte_lo =
            static_cast<std::uint64_t>(min_e) * ebytes;
        const std::uint64_t byte_hi =
            (static_cast<std::uint64_t>(max_e) + 1) * ebytes;
        const std::uint64_t page_lo = byte_lo / opts.pageBytes;
        const std::uint64_t page_hi =
            (byte_hi + opts.pageBytes - 1) / opts.pageBytes;
        Operand op;
        op.basePage = layout.basePage[ref.array] + page_lo;
        op.pageCount = static_cast<std::uint32_t>(
            std::max<std::uint64_t>(1, page_hi - page_lo));
        return op;
    }

    /** Record RAW/WAW dependences and update the last-writer table. */
    void
    wireDeps(VecInstruction &vi)
    {
        std::unordered_set<InstrId> dep_set;
        auto scan = [&](const Operand &o) {
            for (std::uint64_t p = o.basePage;
                 p < o.basePage + o.pageCount; ++p) {
                auto it = lastWriter.find(p);
                if (it != lastWriter.end() && it->second != vi.id)
                    dep_set.insert(it->second);
                if (dep_set.size() >= kMaxDeps)
                    return;
            }
        };
        for (const auto &s : vi.srcs)
            scan(s);
        scan(vi.dst); // WAW ordering
        // lint: allow(unordered-iter, copied then std::sort'ed on the next line; final order is value-determined)
        vi.deps.assign(dep_set.begin(), dep_set.end());
        std::sort(vi.deps.begin(), vi.deps.end());
        for (std::uint64_t p = vi.dst.basePage;
             p < vi.dst.basePage + vi.dst.pageCount; ++p) {
            lastWriter[p] = vi.id;
        }
    }

    /** Count read touches for the reuse statistic. */
    void
    touch(const VecInstruction &vi)
    {
        for (const auto &s : vi.srcs) {
            for (std::uint64_t p = s.basePage;
                 p < s.basePage + s.pageCount; ++p) {
                ++readTouches[p];
            }
        }
    }

    /** Account element-op mix statistics for an emitted instruction. */
    void
    account(const VecInstruction &vi)
    {
        const double ops = vi.lanes;
        if (vi.vectorized)
            elemOpsVector += ops;
        else
            elemOpsScalar += ops;
        switch (latencyClass(vi.op)) {
          case LatencyClass::Low:
            elemOpsLow += ops;
            break;
          case LatencyClass::Medium:
            elemOpsMed += ops;
            break;
          case LatencyClass::High:
            elemOpsHigh += ops;
            break;
        }
    }

    /** Emit one instruction; returns its id. */
    InstrId
    emit(OpCode op, std::uint16_t elem_bits, std::uint32_t lanes,
         std::vector<Operand> srcs, Operand dst, bool vectorized,
         bool indirect = false)
    {
        VecInstruction vi;
        vi.id = out.instrs.size();
        vi.op = op;
        vi.elemBits = elem_bits;
        vi.lanes = lanes;
        vi.srcs = std::move(srcs);
        vi.dst = dst;
        vi.vectorized = vectorized;
        vi.indirect = indirect;
        wireDeps(vi);
        touch(vi);
        account(vi);
        out.instrs.push_back(std::move(vi));
        return out.instrs.back().id;
    }
};

bool
Vectorizer::loopIllegal(const Loop &loop, std::string &why)
{
    if (loop.carriedDependence) {
        why = "loop-carried data dependence";
        return true;
    }
    if (loop.multipleExits) {
        why = "multiple exits / complex control flow";
        return true;
    }
    if (loop.atomics) {
        why = "atomic or synchronized operations";
        return true;
    }
    if (loop.tripCount == 0) {
        why = "unknown or zero trip count";
        return true;
    }
    return false;
}

bool
Vectorizer::stmtIllegal(const LoopStmt &stmt, std::string &why)
{
    for (const auto &s : stmt.srcs) {
        if (s.indirect) {
            why = "indirect (gathered) memory access";
            return true;
        }
    }
    if (stmt.dst.indirect) {
        why = "indirect (scattered) memory access";
        return true;
    }
    return false;
}

void
Vectorizer::emitReduction(Emitter &em, const Loop &loop,
                          const LoopStmt &stmt, std::uint16_t elem_bits)
{
    const auto &opts = em.opts;
    const std::uint64_t trip = loop.tripCount;
    const std::uint64_t width = opts.vectorLanes;
    const std::uint64_t chunks = (trip + width - 1) / width;
    const std::uint64_t partials =
        std::min<std::uint64_t>(opts.reductionPartials,
                                std::max<std::uint64_t>(1, chunks));

    // One page-sized partial accumulator per slot; chunk i folds into
    // slot i % partials, forming `partials` independent chains.
    std::vector<Operand> slot(partials);
    for (auto &s : slot) {
        s.basePage = em.layout.alloc(opts.pageBytes, opts.pageBytes);
        s.pageCount = 1;
    }

    for (std::uint64_t c = 0; c < chunks; ++c) {
        const std::uint64_t lo = c * width;
        const std::uint64_t hi = std::min(trip, lo + width);
        const auto lanes = static_cast<std::uint32_t>(hi - lo);
        std::vector<Operand> srcs;
        for (const auto &r : stmt.srcs)
            srcs.push_back(em.operandFor(r, lo, hi));
        Operand &acc = slot[c % partials];
        srcs.push_back(acc); // accumulate into the slot
        em.emit(stmt.op == OpCode::Mul ? OpCode::Mac : stmt.op,
                elem_bits, lanes, std::move(srcs), acc, true);
    }

    // Binary combine tree over the live slots, then fold the final
    // partial vector into the scalar destination.
    std::uint64_t live = partials;
    while (live > 1) {
        const std::uint64_t half = (live + 1) / 2;
        for (std::uint64_t i = 0; i + half < live; ++i) {
            em.emit(OpCode::Add, elem_bits,
                    static_cast<std::uint32_t>(
                        std::min<std::uint64_t>(width, trip)),
                    {slot[i], slot[i + half]}, slot[i], true);
        }
        live = half;
    }
    Operand dst = em.operandFor(stmt.dst, 0, 1);
    // Final lane-fold is a short serial step on the scalar core.
    em.emit(OpCode::Add, elem_bits,
            static_cast<std::uint32_t>(std::min<std::uint64_t>(
                opts.pageBytes, trip)),
            {slot[0]}, dst, false);
}

VectorizedProgram
Vectorizer::run(const LoopProgram &lp) const
{
    Emitter em(opts_, lp);
    em.out.name = lp.name;
    em.out.pageBytes = opts_.pageBytes;

    // Lay out all arrays page-aligned, in declaration order.
    em.layout.basePage.resize(lp.arrays.size());
    for (std::size_t a = 0; a < lp.arrays.size(); ++a) {
        em.layout.basePage[a] =
            em.layout.alloc(lp.arrays[a].bytes(), opts_.pageBytes);
    }

    for (const auto &loop : lp.loops) {
        std::string why;
        const bool illegal = loopIllegal(loop, why);
        if (illegal) {
            std::ostringstream os;
            os << "loop " << loop.label << ": not vectorized: " << why;
            em.report.remarks.push_back(os.str());
        } else {
            std::ostringstream os;
            os << "loop " << loop.label << ": vectorized, width "
               << opts_.vectorLanes;
            em.report.remarks.push_back(os.str());
        }

        for (std::uint64_t rep = 0; rep < loop.repeat; ++rep) {
            for (const auto &stmt : loop.body) {
                std::string stmt_why;
                const bool stmt_scalar =
                    illegal || stmtIllegal(stmt, stmt_why);
                if (!illegal && !stmt_why.empty() && rep == 0) {
                    std::ostringstream os;
                    os << "loop " << loop.label
                       << ": statement not vectorized: " << stmt_why;
                    em.report.remarks.push_back(os.str());
                }

                const ArrayDecl &dst_arr = lp.arrays[stmt.dst.array];
                const std::uint16_t ebits = dst_arr.elemBits;
                const std::uint64_t trip = loop.tripCount;
                const std::uint64_t width = opts_.vectorLanes;

                if (stmt.reduction && !stmt_scalar) {
                    emitReduction(em, loop, stmt, ebits);
                    continue;
                }

                for (std::uint64_t lo = 0; lo < trip; lo += width) {
                    const std::uint64_t hi = std::min(trip, lo + width);
                    const auto lanes =
                        static_cast<std::uint32_t>(hi - lo);
                    std::vector<Operand> srcs;
                    srcs.reserve(stmt.srcs.size());
                    for (const auto &r : stmt.srcs)
                        srcs.push_back(em.operandFor(r, lo, hi));
                    Operand dst = em.operandFor(stmt.dst, lo, hi);

                    if (stmt_scalar) {
                        bool has_indirect = stmt.dst.indirect;
                        for (const auto &r : stmt.srcs)
                            has_indirect |= r.indirect;
                        em.emit(stmt.op, ebits, lanes, std::move(srcs),
                                dst, false, has_indirect);
                        continue;
                    }

                    if (stmt.conditional) {
                        // If-conversion: mask = cmp(src0, dst);
                        // tmp = op(...); dst = select(mask, tmp, dst).
                        Operand mask;
                        mask.basePage = em.layout.alloc(
                            static_cast<std::uint64_t>(lanes) *
                                ebits / 8,
                            opts_.pageBytes);
                        mask.pageCount = std::max<std::uint32_t>(
                            1, lanes * ebits / 8 / opts_.pageBytes);
                        Operand tmp;
                        tmp.basePage = em.layout.alloc(
                            static_cast<std::uint64_t>(lanes) *
                                ebits / 8,
                            opts_.pageBytes);
                        tmp.pageCount = mask.pageCount;
                        em.emit(OpCode::CmpLt, ebits, lanes,
                                {srcs.front(), dst}, mask, true);
                        em.emit(stmt.op, ebits, lanes, srcs, tmp, true);
                        em.emit(OpCode::Select, ebits, lanes,
                                {mask, tmp, dst}, dst, true);
                        continue;
                    }

                    em.emit(stmt.op, ebits, lanes, std::move(srcs),
                            dst, true);
                }
            }
        }
    }

    // Finalize report. Static code coverage counts each loop-body
    // statement once (Table 3's "vectorizable code %"); the dynamic
    // fraction weights by executed element-operations.
    std::uint64_t static_total = 0;
    std::uint64_t static_vec = 0;
    for (const auto &loop : lp.loops) {
        std::string why;
        const bool illegal = loopIllegal(loop, why);
        for (const auto &stmt : loop.body) {
            ++static_total;
            if (!illegal && !stmtIllegal(stmt, why))
                ++static_vec;
        }
    }
    em.report.vectorizableFraction = static_total == 0
        ? 0.0
        : static_cast<double>(static_vec) /
            static_cast<double>(static_total);
    const double total = em.elemOpsVector + em.elemOpsScalar;
    em.report.dynamicVectorFraction =
        total > 0 ? em.elemOpsVector / total : 0.0;
    std::uint64_t touches = 0;
    // lint: allow(unordered-iter, integer sum over all values; commutative and exact in any order)
    for (const auto &[page, n] : em.readTouches)
        touches += n;
    em.report.avgReuse = em.readTouches.empty()
        ? 0.0
        : static_cast<double>(touches) /
            static_cast<double>(em.readTouches.size());
    if (total > 0) {
        em.report.lowFraction = em.elemOpsLow / total;
        em.report.medFraction = em.elemOpsMed / total;
        em.report.highFraction = em.elemOpsHigh / total;
    }
    for (const auto &vi : em.out.instrs) {
        if (vi.vectorized)
            ++em.report.vectorInstrs;
        else
            ++em.report.scalarInstrs;
    }
    em.out.footprintPages = em.layout.nextPage;

    return {std::move(em.out), std::move(em.report)};
}

} // namespace conduit
