/**
 * @file
 * Randomized property tests: invariants that must hold for any
 * traffic pattern — FCFS calendars never overlap, event queues never
 * reorder time, randomly generated programs always complete with
 * consistent accounting, and policy choices always respect substrate
 * capabilities.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <vector>

#include "src/core/device.hh"
#include "src/sim/event_queue.hh"
#include "src/sim/rng.hh"
#include "src/sim/server.hh"
#include "src/trace/trace.hh"

namespace conduit
{
namespace
{

class RandomSeeds : public ::testing::TestWithParam<std::uint64_t>
{
};

/** An occupancy-only tracer (the instruction-timeline source). */
std::shared_ptr<trace::Tracer>
occupancyTracer()
{
    trace::TraceConfig cfg;
    cfg.categories =
        static_cast<std::uint32_t>(trace::Category::Occupancy);
    return std::make_shared<trace::Tracer>(cfg);
}

/**
 * Run @p prog under @p policy as one tick-0 job on a fresh Device,
 * recording into @p tracer.
 */
RunResult
runTraced(const Program &prog, std::shared_ptr<OffloadPolicy> policy,
          const std::shared_ptr<trace::Tracer> &tracer,
          const EngineOptions &opts = {})
{
    DeviceOptions dopts;
    dopts.config = SsdConfig::scaled(1.0 / 256.0);
    dopts.engine = opts;
    dopts.tracer = tracer;
    Device dev(dopts);
    JobSpec job;
    job.program = std::make_shared<const Program>(prog);
    job.policyObj = std::move(policy);
    dev.submit(job);
    return dev.drain().jobs.front().result;
}

TEST_P(RandomSeeds, ServerIntervalsNeverOverlapAndFcfsHolds)
{
    Rng rng(GetParam());
    Server s;
    Tick prev_start = 0;
    Tick prev_end = 0;
    for (int i = 0; i < 2000; ++i) {
        const Tick earliest = rng.below(1000000);
        const Tick duration = 1 + rng.below(5000);
        auto iv = s.acquire(earliest, duration);
        // Service starts no earlier than requested...
        ASSERT_GE(iv.start, earliest);
        // ...lasts exactly the requested duration...
        ASSERT_EQ(iv.end - iv.start, duration);
        // ...and never overlaps or reorders prior grants (FCFS).
        ASSERT_GE(iv.start, prev_end);
        ASSERT_GE(iv.start, prev_start);
        prev_start = iv.start;
        prev_end = iv.end;
    }
    // The server is free exactly when the last grant ends.
    ASSERT_EQ(s.freeAt(), prev_end);
}

TEST_P(RandomSeeds, ServerGroupConservesWork)
{
    // Requests go to units by index, as DRAM banks are picked by
    // address. Each unit serves its own requests FCFS for exactly
    // their duration without overlap, and the group's backlog is its
    // least-loaded unit's.
    Rng rng(GetParam());
    const std::size_t units = 1 + rng.below(8);
    ServerGroup g(units);
    std::vector<Tick> end(units, 0);
    for (int i = 0; i < 1000; ++i) {
        const std::size_t u = rng.below(units);
        const Tick earliest = rng.below(100000);
        const Tick d = 1 + rng.below(1000);
        const auto iv = g.acquireOn(u, earliest, d);
        ASSERT_GE(iv.start, earliest);
        ASSERT_GE(iv.start, end[u]); // no overlap on the unit
        ASSERT_EQ(iv.end - iv.start, d);
        end[u] = iv.end;
    }
    ASSERT_EQ(g.backlog(0), *std::min_element(end.begin(), end.end()));
}

TEST_P(RandomSeeds, EventQueueNeverTravelsBack)
{
    Rng rng(GetParam());
    EventQueue q;
    Tick last = 0;
    bool ok = true;
    int fired = 0;
    for (int i = 0; i < 500; ++i) {
        q.schedule(rng.below(100000), [&] {
            ok = ok && q.now() >= last;
            last = q.now();
            ++fired;
            // Occasionally chain a future event.
            if (fired % 7 == 0)
                q.schedule(q.now() + 1 + (fired % 13), [&] {
                    ok = ok && q.now() >= last;
                    last = q.now();
                });
        });
    }
    q.run();
    EXPECT_TRUE(ok);
    EXPECT_TRUE(q.empty());
}

/** Build a random but well-formed program. */
Program
randomProgram(std::uint64_t seed, std::size_t n)
{
    Rng rng(seed);
    const OpCode ops[] = {OpCode::And,    OpCode::Xor,  OpCode::Add,
                          OpCode::Sub,    OpCode::Mul,  OpCode::Select,
                          OpCode::Copy,   OpCode::Min,  OpCode::CmpLt,
                          OpCode::Gather, OpCode::Shuffle};
    Program prog;
    prog.name = "random";
    const std::uint64_t region = 64;
    prog.footprintPages = region * 8;
    for (std::size_t i = 0; i < n; ++i) {
        VecInstruction vi;
        vi.id = i;
        vi.op = ops[rng.below(std::size(ops))];
        vi.elemBits = 8;
        vi.lanes = 1024u << rng.below(5); // 1K..16K lanes
        const auto nsrc = 1 + rng.below(2);
        for (std::uint64_t s = 0; s < nsrc; ++s) {
            vi.srcs.push_back(
                Operand{rng.below(region * 7),
                        1 + static_cast<std::uint32_t>(rng.below(4))});
        }
        vi.dst = Operand{region * 7 + rng.below(region - 4),
                         1 + static_cast<std::uint32_t>(rng.below(4))};
        vi.vectorized = rng.uniform() > 0.15;
        // Random back-edges to earlier instructions.
        if (i > 0 && rng.chance(0.5))
            vi.deps.push_back(rng.below(i));
        prog.instrs.push_back(vi);
    }
    return prog;
}

TEST_P(RandomSeeds, RandomProgramsCompleteWithConsistentAccounting)
{
    const Program prog = randomProgram(GetParam(), 120);
    const auto tracer = occupancyTracer();
    auto r = runTraced(prog, makePolicy("Conduit"), tracer);

    // Everything executed exactly once, somewhere.
    ASSERT_EQ(r.instrCount, prog.instrs.size());
    ASSERT_EQ(r.perResource[0] + r.perResource[1] + r.perResource[2],
              r.instrCount);
    ASSERT_EQ(r.latencyUs.count(), prog.instrs.size());
    const trace::InstructionTimeline tl =
        trace::instructionTimeline(*tracer);
    ASSERT_EQ(tl.completion.size(), prog.instrs.size());

    // Dependence ordering: a consumer never completes before its
    // producers.
    for (const auto &vi : prog.instrs) {
        for (InstrId d : vi.deps) {
            ASSERT_GE(tl.completion[vi.id], tl.completion[d]);
        }
    }

    // Execution time covers the last completion; energy is positive
    // and split across the two buckets.
    Tick last = 0;
    for (Tick t : tl.completion)
        last = std::max(last, t);
    ASSERT_GE(r.execTime, last);
    ASSERT_GT(r.energyJ(), 0.0);

    // Scalar instructions only ever ran on the controller core.
    for (std::size_t i = 0; i < prog.instrs.size(); ++i) {
        if (!prog.instrs[i].vectorized) {
            ASSERT_EQ(static_cast<Target>(tl.resource[i]),
                      Target::Isp);
        }
    }
}

TEST_P(RandomSeeds, PolicyChoicesAlwaysRespectCapabilities)
{
    const Program prog = randomProgram(GetParam() ^ 0xABCD, 80);
    const auto tracer = occupancyTracer();
    (void)runTraced(prog,
                    makePolicy(GetParam() % 2 == 0 ? "Conduit"
                                                   : "DM-Offloading"),
                    tracer);
    const trace::InstructionTimeline tl =
        trace::instructionTimeline(*tracer);
    ASSERT_EQ(tl.resource.size(), prog.instrs.size());
    for (std::size_t i = 0; i < prog.instrs.size(); ++i) {
        const auto t = static_cast<Target>(tl.resource[i]);
        const OpCode op = prog.instrs[i].op;
        if (t == Target::Pud)
            ASSERT_TRUE(pudSupports(op)) << opName(op);
        if (t == Target::Ifp)
            ASSERT_TRUE(ifpSupports(op)) << opName(op);
    }
}

TEST_P(RandomSeeds, FaultReplayPreservesOrderingInvariants)
{
    const Program prog = randomProgram(GetParam() ^ 0x5EED, 100);
    const auto tracer = occupancyTracer();
    EngineOptions opts;
    opts.transientFaultRate = 0.2;
    auto r = runTraced(prog, makePolicy("Conduit"), tracer, opts);
    ASSERT_EQ(r.replays, r.faultsInjected);
    const trace::InstructionTimeline tl =
        trace::instructionTimeline(*tracer);
    for (const auto &vi : prog.instrs) {
        for (InstrId d : vi.deps)
            ASSERT_GE(tl.completion[vi.id], tl.completion[d]);
    }
}

INSTANTIATE_TEST_SUITE_P(Seeds, RandomSeeds,
                         ::testing::Values(1, 7, 42, 1337, 0xDEAD,
                                           99991, 2026, 31415));

} // namespace
} // namespace conduit
