/**
 * @file
 * Integration tests for the Conduit runtime engine: dispatch and
 * dependence ordering, coherence (owner/dirty/version), latch
 * management, fault handling, Ideal mode, and result accounting.
 * Every run is one tick-0 job on a fresh Device, the engine's only
 * driver. The movement fold and the latch FIFOs are also checked
 * directly against straightforward reference models.
 */

#include <gtest/gtest.h>

#include <deque>
#include <set>

#include "src/core/device.hh"
#include "src/trace/trace.hh"

namespace conduit
{
namespace
{

SsdConfig
testCfg()
{
    return SsdConfig::scaled(1.0 / 256.0);
}

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
 * Run @p prog under @p policy as one tick-0 job on a fresh Device
 * (both borrowed for the duration of the call).
 */
RunResult
runJob(const Program &prog, OffloadPolicy &policy,
       const EngineOptions &opts = {}, const SsdConfig &cfg = testCfg(),
       std::shared_ptr<trace::Tracer> tracer = nullptr)
{
    DeviceOptions dopts;
    dopts.config = cfg;
    dopts.engine = opts;
    dopts.tracer = std::move(tracer);
    Device dev(dopts);
    JobSpec job;
    job.program = std::shared_ptr<const Program>(
        std::shared_ptr<const void>(), &prog);
    job.policyObj = std::shared_ptr<OffloadPolicy>(
        std::shared_ptr<void>(), &policy);
    dev.submit(job);
    return dev.drain().jobs.front().result;
}

/** ConduitPolicy that records every feature vector it is shown. */
class RecordingPolicy : public ConduitPolicy
{
  public:
    Target
    select(const VecInstruction &instr, const CostFeatures &f) override
    {
        seen.push_back({instr.id, f});
        return ConduitPolicy::select(instr, f);
    }

    std::vector<std::pair<InstrId, CostFeatures>> seen;
};

/**
 * Hand-build a tiny program over disjoint page-sized vectors; with
 * @p serial, instruction i depends on i-1 (pure ordering edges).
 */
Program
chainProgram(std::size_t n, OpCode op = OpCode::Add,
             bool serial = true)
{
    Program prog;
    prog.name = "chain";
    prog.pageBytes = 4096;
    for (std::size_t i = 0; i < n; ++i) {
        VecInstruction vi;
        vi.id = i;
        vi.op = op;
        vi.elemBits = 8;
        vi.lanes = 16384;
        vi.srcs = {Operand{12 * i, 4}, Operand{12 * i + 4, 4}};
        vi.dst = Operand{12 * i + 8, 4};
        if (serial && i > 0)
            vi.deps = {i - 1};
        prog.instrs.push_back(vi);
    }
    prog.footprintPages = 12 * n + 4;
    return prog;
}

TEST(Engine, RunsAndProducesMonotoneChainCompletions)
{
    const auto tracer = occupancyTracer();
    ConduitPolicy pol;
    auto r = runJob(chainProgram(16), pol, {}, testCfg(), tracer);
    EXPECT_EQ(r.instrCount, 16u);
    EXPECT_GT(r.execTime, 0u);
    const trace::InstructionTimeline tl =
        trace::instructionTimeline(*tracer);
    ASSERT_EQ(tl.completion.size(), 16u);
    // Serial RAW chain: completions strictly increase.
    for (std::size_t i = 1; i < tl.completion.size(); ++i)
        EXPECT_GT(tl.completion[i], tl.completion[i - 1]);
}

TEST(Engine, IndependentInstructionsOverlap)
{
    ConduitPolicy pol;
    auto serial = runJob(chainProgram(24, OpCode::Add, true), pol);
    auto parallel = runJob(chainProgram(24, OpCode::Add, false), pol);
    // Removing the dependence chain shortens execution.
    EXPECT_LT(parallel.execTime, serial.execTime);
}

TEST(Engine, PerResourceCountsCoverAllInstructions)
{
    ConduitPolicy pol;
    auto r = runJob(chainProgram(20), pol);
    EXPECT_EQ(r.perResource[0] + r.perResource[1] + r.perResource[2],
              r.instrCount);
}

TEST(Engine, ScalarInstructionsRunOnIsp)
{
    Program prog = chainProgram(6);
    for (auto &vi : prog.instrs)
        vi.vectorized = false;
    ConduitPolicy pol;
    auto r = runJob(prog, pol);
    EXPECT_EQ(r.perResource[static_cast<int>(Target::Isp)],
              prog.instrs.size());
}

TEST(Engine, UnsupportedOpsNeverReachNarrowSubstrates)
{
    Program prog = chainProgram(8, OpCode::Gather);
    ConduitPolicy pol;
    auto r = runJob(prog, pol);
    // Gather is ISP-only.
    EXPECT_EQ(r.perResource[static_cast<int>(Target::Isp)], 8u);
}

TEST(Engine, FootprintBeyondCapacityRejected)
{
    SsdConfig cfg = testCfg();
    Program prog = chainProgram(2);
    prog.footprintPages = cfg.nand.totalPages() * 2;
    ConduitPolicy pol;
    EXPECT_THROW(runJob(prog, pol, {}, cfg), std::invalid_argument);
}

TEST(Engine, IdealModeSkipsOverheadAndMovement)
{
    Program prog = chainProgram(32);
    ConduitPolicy conduit;
    auto ideal = makePolicy("Ideal");
    auto real = runJob(prog, conduit);
    auto id = runJob(prog, *ideal);
    EXPECT_LT(id.execTime, real.execTime);
    EXPECT_EQ(id.offloaderBusy, 0u);
    EXPECT_EQ(id.internalDmBusy, 0u);
    EXPECT_EQ(id.flashReadBusy, 0u);
    EXPECT_EQ(id.dmEnergyJ, 0.0);
    EXPECT_GT(id.computeEnergyJ, 0.0);
}

TEST(Engine, FaultInjectionReplaysAndStillCompletes)
{
    Program prog = chainProgram(64);
    ConduitPolicy pol;
    EngineOptions opts;
    opts.transientFaultRate = 0.25;
    auto r = runJob(prog, pol, opts);
    EXPECT_GT(r.faultsInjected, 0u);
    EXPECT_EQ(r.replays, r.faultsInjected);
    EXPECT_EQ(r.latencyUs.count(), prog.instrs.size());
    // Replays lengthen execution versus a fault-free run.
    auto c = runJob(prog, pol);
    EXPECT_GT(r.execTime, c.execTime);
}

TEST(Engine, FaultFreeRunInjectsNothing)
{
    ConduitPolicy pol;
    auto r = runJob(chainProgram(32), pol);
    EXPECT_EQ(r.faultsInjected, 0u);
    EXPECT_EQ(r.replays, 0u);
}

TEST(Engine, VersionCounterFlushesBeforeWrap)
{
    // One page rewritten far more times than the flush threshold.
    Program prog;
    prog.name = "rewrite";
    prog.footprintPages = 16;
    const std::size_t writes = 40;
    for (std::size_t i = 0; i < writes; ++i) {
        VecInstruction vi;
        vi.id = i;
        vi.op = OpCode::Add;
        vi.elemBits = 8;
        vi.lanes = 4096;
        vi.srcs = {Operand{0, 1}};
        vi.dst = Operand{1, 1};
        if (i > 0)
            vi.deps = {i - 1};
        prog.instrs.push_back(vi);
    }
    ConduitPolicy pol;
    EngineOptions opts;
    opts.versionFlushThreshold = 8;
    auto r = runJob(prog, pol, opts);
    // 40 writes with threshold 8 force several coherence commits.
    EXPECT_GE(r.coherenceCommits, writes / 8 - 1);
}

TEST(Engine, LatchPressureForcesEvictions)
{
    // Bitwise chain writing many distinct pages through IFP.
    Program prog;
    prog.name = "latchstorm";
    const std::size_t n = 96;
    prog.footprintPages = 4 * n + 8;
    for (std::size_t i = 0; i < n; ++i) {
        VecInstruction vi;
        vi.id = i;
        vi.op = OpCode::Xor;
        vi.elemBits = 8;
        vi.lanes = 16384;
        vi.srcs = {Operand{0, 4}, Operand{4, 4}};
        vi.dst = Operand{8 + 4 * i, 4};
        prog.instrs.push_back(vi);
    }
    SsdConfig cfg = testCfg();
    // Tiny device: few dies, so latch capacity is scarce.
    cfg.nand.channels = 1;
    cfg.nand.diesPerChannel = 2;
    auto pol = makePolicy("Ares-Flash"); // everything to IFP
    EngineOptions opts;
    opts.latchPagesPerDie = 2;
    auto r = runJob(prog, *pol, opts, cfg);
    EXPECT_GT(r.latchEvictions, 0u);
    EXPECT_GE(r.coherenceCommits, r.latchEvictions);
}

TEST(Engine, DramStagingPressureForcesWritebacks)
{
    // Many distinct destination pages staged in SSD DRAM through the
    // PuD path; a tiny staging fraction forces the LRU to evict
    // dirty pages, each eviction committing the victim to flash
    // (coherence trigger iii) and charging internal data movement.
    Program prog;
    prog.name = "dramstorm";
    const std::size_t n = 96;
    prog.footprintPages = 4 * n + 8;
    for (std::size_t i = 0; i < n; ++i) {
        VecInstruction vi;
        vi.id = i;
        vi.op = OpCode::Add;
        vi.elemBits = 8;
        vi.lanes = 16384;
        vi.srcs = {Operand{0, 4}, Operand{4, 4}};
        vi.dst = Operand{8 + 4 * i, 4};
        prog.instrs.push_back(vi);
    }
    auto pud = makePolicy("PuD-SSD"); // everything staged in DRAM
    // Disable the final result drain so execution time is compared
    // without the end-of-run commit of whatever stayed resident.
    EngineOptions relaxed; // default: staging far exceeds footprint
    relaxed.drainResults = false;
    auto free = runJob(prog, *pud, relaxed);

    EngineOptions pressured;
    pressured.drainResults = false;
    pressured.dramStagingFraction = 0.05; // 64-page floor applies
    auto tight = runJob(prog, *pud, pressured);

    EXPECT_GT(tight.coherenceCommits, free.coherenceCommits);
    EXPECT_GT(tight.internalDmBusy, free.internalDmBusy);
    EXPECT_GE(tight.execTime, free.execTime);
}

TEST(Engine, AmpleStagingNeverEvicts)
{
    // The same program with the default (over-provisioned) staging
    // fraction stays resident: no capacity-driven commits at all.
    Program prog = chainProgram(32);
    auto pud = makePolicy("PuD-SSD");
    auto r = runJob(prog, *pud);
    EXPECT_EQ(r.coherenceCommits, 0u);
}

TEST(Engine, LatchSpillScalesWithCapacity)
{
    // Shrinking per-die latch capacity strictly increases spills to
    // the array; generous capacity eliminates them.
    Program prog;
    prog.name = "latchscale";
    const std::size_t n = 48;
    prog.footprintPages = 4 * n + 8;
    for (std::size_t i = 0; i < n; ++i) {
        VecInstruction vi;
        vi.id = i;
        vi.op = OpCode::Xor;
        vi.elemBits = 8;
        vi.lanes = 16384;
        vi.srcs = {Operand{0, 4}, Operand{4, 4}};
        vi.dst = Operand{8 + 4 * i, 4};
        prog.instrs.push_back(vi);
    }
    SsdConfig cfg = testCfg();
    cfg.nand.channels = 1;
    cfg.nand.diesPerChannel = 2;

    auto pol = makePolicy("Ares-Flash");
    EngineOptions tiny, roomy;
    tiny.latchPagesPerDie = 2;
    roomy.latchPagesPerDie = 4096;
    auto spills = runJob(prog, *pol, tiny, cfg);
    auto clean = runJob(prog, *pol, roomy, cfg);
    EXPECT_GT(spills.latchEvictions, 0u);
    EXPECT_EQ(clean.latchEvictions, 0u);
    EXPECT_LT(clean.latchEvictions, spills.latchEvictions);
}

TEST(Engine, DrainChargesHostTransfer)
{
    Program prog = chainProgram(8);
    ConduitPolicy pol;
    EngineOptions with, without;
    without.drainResults = false;
    auto rw = runJob(prog, pol, with);
    auto ro = runJob(prog, pol, without);
    EXPECT_GT(rw.hostDmBusy, 0u);
    EXPECT_EQ(ro.hostDmBusy, 0u);
    EXPECT_GE(rw.execTime, ro.execTime);
}

TEST(Engine, FeatureVectorMatchesSubstrateSupport)
{
    Program prog = chainProgram(1, OpCode::Mul);
    RecordingPolicy pol;
    runJob(prog, pol);
    ASSERT_EQ(pol.seen.size(), 1u);
    const CostFeatures &f = pol.seen.front().second;
    EXPECT_TRUE(f.supported[static_cast<int>(Target::Isp)]);
    EXPECT_TRUE(f.supported[static_cast<int>(Target::Pud)]);
    EXPECT_TRUE(f.supported[static_cast<int>(Target::Ifp)]);
    EXPECT_GT(f.comp[static_cast<int>(Target::Pud)], 0u);
    EXPECT_LT(f.comp[static_cast<int>(Target::Pud)], kMaxTick);
}

TEST(Engine, DispatchFeaturesSeeDependenceDelay)
{
    // At dispatch, an instruction whose producer has not completed
    // yet reports the wait as dependence delay; the chain head has
    // no producer and reports none.
    Program prog = chainProgram(8);
    RecordingPolicy pol;
    runJob(prog, pol);
    ASSERT_FALSE(pol.seen.empty());
    bool waited = false;
    for (const auto &[id, f] : pol.seen) {
        if (id == 0)
            EXPECT_EQ(f.depDelay, 0u);
        else
            waited = waited || f.depDelay > 0;
    }
    EXPECT_EQ(pol.seen.front().first, 0u);
    EXPECT_TRUE(waited);
}

/** Sends instruction i to targets[i]; records every feature vector. */
class FixedTargets : public OffloadPolicy
{
  public:
    explicit FixedTargets(std::vector<Target> t) : targets(std::move(t))
    {
    }

    Target
    select(const VecInstruction &instr, const CostFeatures &f) override
    {
        seen.push_back(f);
        return targets.at(instr.id);
    }

    std::string name() const override { return "Fixed"; }

    std::vector<Target> targets;
    std::vector<CostFeatures> seen;
};

/** The reservations operand movement leaves behind in one run. */
struct Reserved
{
    std::uint64_t nandReads = 0;
    std::uint64_t dramBytes = 0;
    Tick internalDm = 0;
    Tick flashRead = 0;
};

Reserved
runReserving(const Program &prog, FixedTargets &policy)
{
    DeviceOptions dopts;
    dopts.config = testCfg();
    dopts.engine.drainResults = false;
    Device dev(dopts);
    JobSpec job;
    job.program = std::shared_ptr<const Program>(
        std::shared_ptr<const void>(), &prog);
    job.policyObj = std::shared_ptr<OffloadPolicy>(
        std::shared_ptr<void>(), &policy);
    dev.submit(job);
    const RunResult r = dev.drain().jobs.front().result;
    const auto &c = dev.engine().stats().counters();
    auto counter = [&](const char *name) -> std::uint64_t {
        auto it = c.find(name);
        return it == c.end() ? 0 : it->second.value();
    };
    return {counter("nand.reads"), counter("dram.bytes"),
            r.internalDmBusy, r.flashReadBusy};
}

TEST(Engine, MovementEstimateMatchesReservedRoutePerState)
{
    // Instruction 0 leaves page 0 in one of four states; instruction
    // 1 reads it on one target. Instruction 1 has no destination, so
    // everything it adds to the run's reservations is operand
    // movement. latency_dm must count the page (dmBytes > 0) exactly
    // when the executor reserved a hop for it.
    enum State { Flash, DramDirty, DramCached, Latch };
    const char *names[] = {"flash", "dram-dirty", "dram-cached",
                           "latch"};
    // Expected movement per state and target (ISP, PuD, IFP).
    const bool moves[4][kNumTargets] = {
        {true, true, false},  // sensed from the array
        {false, false, true}, // IFP loads the fresh copy into a latch
        {false, false, false},
        {true, true, false}, // shipped out of the latch
    };
    for (int s = Flash; s <= Latch; ++s) {
        VecInstruction first;
        first.op = OpCode::And;
        first.elemBits = 8;
        first.lanes = 4096;
        first.srcs = {Operand{1, 1}};
        first.dst = Operand{2, 1};
        Target first_target = Target::Isp;
        if (s == DramDirty) {
            first.dst = Operand{0, 1};
            first_target = Target::Pud;
        } else if (s == DramCached) {
            first.srcs = {Operand{0, 1}}; // ISP stages a clean copy
        } else if (s == Latch) {
            first.dst = Operand{0, 1};
            first_target = Target::Ifp;
        }
        Program prog;
        prog.name = "route";
        prog.footprintPages = 4;
        prog.instrs = {first};
        FixedTargets setup({first_target});
        const Reserved before = runReserving(prog, setup);

        for (Target t : {Target::Isp, Target::Pud, Target::Ifp}) {
            const auto ti = static_cast<std::size_t>(t);
            SCOPED_TRACE(std::string(names[s]) + " -> " +
                         std::string(targetName(t)));
            VecInstruction read = first;
            read.id = 1;
            read.srcs = {Operand{0, 1}};
            read.dst = Operand{3, 0};
            prog.instrs = {first, read};
            FixedTargets pol({first_target, t});
            const Reserved after = runReserving(prog, pol);
            ASSERT_EQ(pol.seen.size(), 2u);
            const bool estimated = pol.seen[1].dmBytes[ti] > 0;
            const bool reserved = after.nandReads > before.nandReads ||
                after.dramBytes > before.dramBytes ||
                after.internalDm > before.internalDm ||
                after.flashRead > before.flashRead;
            EXPECT_EQ(reserved, moves[s][ti]);
            if (t == Target::Isp && (s == DramDirty || s == DramCached)) {
                // The one designed gap: a DRAM-resident ISP operand's
                // DramStream hop is estimated but reserves nothing,
                // since the IspCore streaming bound already covers
                // the traffic. Deciding it flips this assertion.
                EXPECT_TRUE(estimated);
                EXPECT_EQ(pol.seen[1].dmBytes[ti],
                          testCfg().nand.pageBytes);
            } else {
                EXPECT_EQ(estimated, reserved);
            }
        }
    }
}

TEST(Engine, DeterministicAcrossIdenticalRuns)
{
    Program prog = chainProgram(40);
    ConduitPolicy p1, p2;
    auto r1 = runJob(prog, p1);
    auto r2 = runJob(prog, p2);
    EXPECT_EQ(r1.execTime, r2.execTime);
    EXPECT_EQ(r1.perResource, r2.perResource);
    EXPECT_DOUBLE_EQ(r1.energyJ(), r2.energyJ());
}

TEST(Engine, LatencyHistogramCoversEveryInstruction)
{
    Program prog = chainProgram(25);
    auto pol = makePolicy("DM-Offloading");
    auto r = runJob(prog, *pol);
    EXPECT_EQ(r.latencyUs.count(), 25u);
    EXPECT_GT(r.latencyUs.min(), 0.0);
    EXPECT_GE(r.latencyUs.percentile(99.99), r.latencyUs.percentile(99));
}

/** Every policy completes the same program (parameterized). */
class EveryPolicy : public ::testing::TestWithParam<const char *>
{
};

TEST_P(EveryPolicy, CompletesMixedProgram)
{
    Program prog;
    prog.name = "mixed";
    const OpCode ops[] = {OpCode::Xor, OpCode::Add, OpCode::Mul,
                          OpCode::Select, OpCode::Copy, OpCode::Gather};
    std::size_t id = 0;
    for (OpCode op : ops) {
        for (int i = 0; i < 4; ++i) {
            VecInstruction vi;
            vi.id = id++;
            vi.op = op;
            vi.elemBits = 8;
            vi.lanes = 16384;
            vi.srcs = {Operand{0, 4}, Operand{4, 4}};
            vi.dst = Operand{8 + 4 * (id % 8), 4};
            vi.vectorized = op != OpCode::Gather;
            prog.instrs.push_back(vi);
        }
    }
    prog.footprintPages = 48;
    auto pol = makePolicy(GetParam());
    auto r = runJob(prog, *pol);
    EXPECT_EQ(r.instrCount, prog.instrs.size());
    EXPECT_GT(r.execTime, 0u);
    EXPECT_GT(r.energyJ(), 0.0);
}

INSTANTIATE_TEST_SUITE_P(
    All, EveryPolicy,
    ::testing::Values("Conduit", "DM-Offloading", "BW-Offloading",
                      "Ideal", "ISP", "PuD-SSD", "Flash-Cosmos",
                      "Ares-Flash"));

// ------------------------------------------------------ movement fold

using PageMeta = Engine::State::PageMeta;
using Loc = Engine::State::Loc;

/** The twelve coherence states routeFor tells apart. */
std::vector<PageMeta>
everyPageState()
{
    std::vector<PageMeta> out;
    out.reserve(Engine::kPageStates);
    for (Loc loc : {Loc::Flash, Loc::Latch, Loc::Dram}) {
        for (bool dirty : {false, true}) {
            for (bool cached : {false, true}) {
                PageMeta m;
                m.loc = loc;
                m.dirty = dirty;
                m.dramCached = cached;
                out.push_back(m);
            }
        }
    }
    return out;
}

/** The movement fold as one route walk per page visit and target. */
Engine::Movement
perVisitFold(const std::vector<PageMeta> &visits,
             const Engine::HopTicks &hop)
{
    Engine::Movement mv;
    for (const PageMeta &m : visits) {
        for (Target t : {Target::Isp, Target::Pud, Target::Ifp}) {
            const Engine::Route r = Engine::routeFor(m, t);
            if (r.count == 0)
                continue;
            Tick page = 0;
            for (std::uint8_t h = 0; h < r.count; ++h)
                page += hop[static_cast<int>(r.hops[h])];
            const auto i = static_cast<std::size_t>(t);
            ++mv.pages[i];
            mv.slowest[i] = std::max(mv.slowest[i], page);
        }
    }
    return mv;
}

/** The same visits counted per state and folded by the engine. */
Engine::Movement
stateFold(const std::vector<PageMeta> &visits,
          const Engine::HopTicks &hop)
{
    Engine::StateCounts counts{};
    for (const PageMeta &m : visits)
        ++counts[Engine::pageState(m)];
    return Engine::foldMovement(counts, hop);
}

/**
 * Hop weights (Sense, ChannelOut, ChannelIn, DramWrite, DramStream)
 * chosen so every route sums to a different total; the aged table
 * adds an ECC read penalty to Sense.
 */
constexpr Engine::HopTicks kFreshHops = {1000, 30, 70, 5, 3};
constexpr Engine::HopTicks kAgedHops = {1000 + 250000, 30, 70, 5, 3};

void
expectSameMovement(const Engine::Movement &got,
                   const Engine::Movement &want)
{
    EXPECT_EQ(got.pages, want.pages);
    EXPECT_EQ(got.slowest, want.slowest);
}

TEST(EngineFold, PageStatesAreDistinct)
{
    std::set<std::size_t> seen;
    for (const PageMeta &m : everyPageState()) {
        EXPECT_LT(Engine::pageState(m), Engine::kPageStates);
        seen.insert(Engine::pageState(m));
    }
    EXPECT_EQ(seen.size(), Engine::kPageStates);
}

TEST(EngineFold, EveryStateMatchesPerVisitWalk)
{
    for (const Engine::HopTicks &hop : {kFreshHops, kAgedHops}) {
        for (const PageMeta &m : everyPageState()) {
            SCOPED_TRACE(Engine::pageState(m));
            for (std::size_t n : {1, 3}) {
                const std::vector<PageMeta> visits(n, m);
                expectSameMovement(stateFold(visits, hop),
                                   perVisitFold(visits, hop));
            }
        }
    }
}

TEST(EngineFold, MixedVisitsMatchPerVisitWalk)
{
    // Random operand mixes, with pages repeated across sources (the
    // same page visited more than once).
    const std::vector<PageMeta> states = everyPageState();
    Rng rng(7);
    for (int trial = 0; trial < 400; ++trial) {
        std::vector<PageMeta> pages(1 + rng.below(8));
        for (PageMeta &m : pages)
            m = states[rng.below(states.size())];
        std::vector<PageMeta> visits;
        const std::uint64_t n = rng.below(40);
        visits.reserve(n);
        for (std::uint64_t v = 0; v < n; ++v)
            visits.push_back(pages[rng.below(pages.size())]);
        for (const Engine::HopTicks &hop : {kFreshHops, kAgedHops})
            expectSameMovement(stateFold(visits, hop),
                               perVisitFold(visits, hop));
    }
}

/** Features of a one-instruction program's only dispatch. */
CostFeatures
firstFeatures(const Program &prog, const SsdConfig &cfg = testCfg())
{
    RecordingPolicy pol;
    runJob(prog, pol, {}, cfg);
    return pol.seen.at(0).second;
}

TEST(Engine, RepeatedSourcePagesAreChargedPerVisit)
{
    // Two sources name the same two flash pages: ISP and PuD sense
    // four page visits, IFP computes in place.
    Program prog = chainProgram(1);
    prog.instrs[0].srcs = {Operand{0, 2}, Operand{0, 2}};
    const CostFeatures f = firstFeatures(prog);
    const std::uint64_t page = testCfg().nand.pageBytes;
    EXPECT_EQ(f.dmBytes[static_cast<int>(Target::Isp)], 4 * page);
    EXPECT_EQ(f.dmBytes[static_cast<int>(Target::Pud)], 4 * page);
    EXPECT_EQ(f.dmBytes[static_cast<int>(Target::Ifp)], 0u);
}

TEST(Engine, AgingPenaltyRaisesSensedMovementOnly)
{
    // Worn, long-retained flash charges its expected ECC penalty on
    // every sensed page: ISP and PuD movement grows by the same
    // amount, IFP (in place) stays free.
    Program prog = chainProgram(1);
    SsdConfig fresh = testCfg();
    fresh.reliability.enabled = true;
    SsdConfig aged = fresh;
    aged.reliability.preWearCycles = 3000;
    aged.reliability.retentionDays = 90.0;
    const CostFeatures a = firstFeatures(prog, fresh);
    const CostFeatures b = firstFeatures(prog, aged);
    const auto isp = static_cast<int>(Target::Isp);
    const auto pud = static_cast<int>(Target::Pud);
    const auto ifp = static_cast<int>(Target::Ifp);
    EXPECT_GT(b.dm[isp], a.dm[isp]);
    EXPECT_EQ(b.dm[isp] - a.dm[isp], b.dm[pud] - a.dm[pud]);
    EXPECT_EQ(a.dm[ifp], 0u);
    EXPECT_EQ(b.dm[ifp], 0u);
    EXPECT_EQ(b.dmBytes, a.dmBytes);
}

// --------------------------------------------------------- latch FIFOs

/** The latch FIFOs as one std::deque per die, with the rewrite
 *  refresh and front eviction recordWrite applies. */
struct DequeFifos
{
    std::vector<std::deque<Lpn>> fifo;

    /** Entries compared, then the victims in eviction order. */
    std::pair<std::size_t, std::vector<Lpn>>
    write(std::uint32_t die, Lpn page, std::size_t cap)
    {
        auto &f = fifo[die];
        auto it = std::find(f.begin(), f.end(), page);
        const std::size_t scanned = it == f.end()
            ? f.size()
            : static_cast<std::size_t>(it - f.begin()) + 1;
        if (it != f.end())
            f.erase(it);
        f.push_back(page);
        std::vector<Lpn> victims;
        while (f.size() > cap) {
            victims.push_back(f.front());
            f.pop_front();
        }
        return {scanned, victims};
    }

    void
    purge(Lpn first, Lpn limit)
    {
        for (auto &f : fifo)
            f.erase(std::remove_if(f.begin(), f.end(),
                                   [&](Lpn p) {
                                       return p >= first && p < limit;
                                   }),
                    f.end());
    }
};

TEST(LatchFifos, EvictionOrderMatchesDequeModel)
{
    // Pages land on random dies, so a page often has entries in two
    // dies' FIFOs (its home die changed between writes); reclaims
    // purge page ranges from every die.
    constexpr std::uint32_t kDies = 4;
    for (std::size_t cap : {1, 2, 16}) {
        SCOPED_TRACE(cap);
        LatchFifos fifos;
        fifos.reset(kDies);
        DequeFifos ref{std::vector<std::deque<Lpn>>(kDies)};
        Rng rng(cap);
        for (int step = 0; step < 4000; ++step) {
            const auto die =
                static_cast<std::uint32_t>(rng.below(kDies));
            const Lpn page = rng.below(3 * cap + 8);
            const auto [scanned, want] = ref.write(die, page, cap);
            std::vector<Lpn> got;
            ASSERT_EQ(fifos.refresh(die, page), scanned);
            fifos.trim(die, cap, [&](Lpn v) { got.push_back(v); });
            ASSERT_EQ(got, want) << "step " << step;
            if (step % 500 == 499) {
                const Lpn first = rng.below(3 * cap + 8);
                fifos.purge(first, first + cap);
                ref.purge(first, first + cap);
            }
        }
        for (std::uint32_t d = 0; d < kDies; ++d) {
            std::vector<Lpn> rest;
            fifos.trim(d, 0, [&](Lpn v) { rest.push_back(v); });
            EXPECT_EQ(rest, std::vector<Lpn>(ref.fifo[d].begin(),
                                             ref.fifo[d].end()));
        }
    }
}

/** An 8-bit, one-page-per-operand instruction. */
VecInstruction
pageOp(InstrId id, OpCode op, std::vector<Operand> srcs, Operand dst)
{
    VecInstruction vi;
    vi.id = id;
    vi.op = op;
    vi.elemBits = 8;
    vi.lanes = 4096;
    vi.srcs = std::move(srcs);
    vi.dst = dst;
    return vi;
}

/** A device of @p dies dies on one channel. */
SsdConfig
oneChannel(std::uint32_t dies)
{
    SsdConfig cfg = testCfg();
    cfg.nand.channels = 1;
    cfg.nand.diesPerChannel = dies;
    return cfg;
}

TEST(Engine, LatchCountsMatchDequeModel)
{
    // IFP results cycle over eleven one-page destinations on three
    // dies, each written twice in a row. With a flush threshold of
    // one, the second write commits the latch-resident page first,
    // which re-homes it on the next striping slot: at every capacity
    // below, pages change home die between IFP writes and leave
    // stale entries behind. The counts are those of the
    // one-std::deque-per-die FIFO the engine used before LatchFifos.
    Program prog;
    prog.name = "rehome";
    for (std::size_t i = 0; i < 64; ++i)
        prog.instrs.push_back(
            pageOp(i, OpCode::Xor, {Operand{0, 2}, Operand{2, 2}},
                   Operand{4 + (i / 2) % 11, 1}));
    prog.footprintPages = 15;
    struct Want
    {
        std::uint32_t cap;
        std::uint64_t evictions;
        std::uint64_t commits;
    };
    for (const Want &w : {Want{1, 31, 63}, Want{2, 29, 61},
                         Want{16, 0, 53}}) {
        SCOPED_TRACE(w.cap);
        auto pol = makePolicy("Ares-Flash");
        EngineOptions opts;
        opts.latchPagesPerDie = w.cap;
        opts.versionFlushThreshold = 1;
        const RunResult r = runJob(prog, *pol, opts, oneChannel(3));
        EXPECT_EQ(r.latchEvictions, w.evictions);
        EXPECT_EQ(r.coherenceCommits, w.commits);
    }
}

TEST(Engine, LatchSlotsOutliveResidency)
{
    // The FIFOs do not keep one slot per latch-resident page; these
    // counts pin the current behaviour in two cases. The third, a
    // re-homed page's stale entry in its old die's FIFO, is pinned
    // by LatchCountsMatchDequeModel.
    EngineOptions opts;
    opts.latchPagesPerDie = 2;

    // 1. A page the PuD route moves out of the latch keeps its slot.
    //    Writes B, A to the latch, PuD reads A, then C: the stale A
    //    slot pushes B out. One slot per resident page would evict
    //    nothing.
    {
        Program prog;
        prog.name = "pud-leaves";
        prog.footprintPages = 8;
        prog.instrs = {
            pageOp(0, OpCode::Xor, {Operand{0, 1}}, Operand{1, 1}),
            pageOp(1, OpCode::Xor, {Operand{0, 1}}, Operand{2, 1}),
            pageOp(2, OpCode::And, {Operand{2, 1}}, Operand{3, 1}),
            pageOp(3, OpCode::Xor, {Operand{0, 1}}, Operand{4, 1})};
        FixedTargets pol(
            {Target::Ifp, Target::Ifp, Target::Pud, Target::Ifp});
        const RunResult r = runJob(prog, pol, opts, oneChannel(1));
        EXPECT_EQ(r.latchEvictions, 1u);
        EXPECT_EQ(r.coherenceCommits, 1u);
    }

    // 2. A page moved into a latch by operand movement takes no
    //    slot. PuD writes P; IFP reads P (loading it into the latch)
    //    and writes B; then C. Only B is evicted; with a slot for P,
    //    P would be evicted as well.
    {
        opts.latchPagesPerDie = 1;
        Program prog;
        prog.name = "moved-in";
        prog.footprintPages = 8;
        prog.instrs = {
            pageOp(0, OpCode::And, {Operand{0, 1}}, Operand{1, 1}),
            pageOp(1, OpCode::Xor, {Operand{1, 1}}, Operand{2, 1}),
            pageOp(2, OpCode::Xor, {Operand{0, 1}}, Operand{3, 1})};
        FixedTargets pol({Target::Pud, Target::Ifp, Target::Ifp});
        const RunResult r = runJob(prog, pol, opts, oneChannel(1));
        EXPECT_EQ(r.latchEvictions, 1u);
        EXPECT_EQ(r.coherenceCommits, 1u);
    }
}

} // namespace
} // namespace conduit
