/**
 * @file
 * Tests for the reliability & device-aging subsystem: RBER/ECC
 * determinism and monotonicity, pre-wear fast-forward equivalence,
 * bad-block retirement and its GC interaction, reliability-off
 * byte-identity, aging-sweep thread determinism, and the NandArray
 * hot-path fast paths (decode strides, dieOf, incremental min-die
 * backlog) against their reference formulations.
 */

#include <gtest/gtest.h>

#include "src/core/device.hh"
#include "src/reliability/reliability.hh"
#include "src/runner/sweep_runner.hh"
#include "src/sim/rng.hh"

namespace conduit
{
namespace
{

SsdConfig
smallCfg()
{
    SsdConfig cfg;
    cfg.nand.channels = 2;
    cfg.nand.diesPerChannel = 2;
    cfg.nand.planesPerDie = 1;
    cfg.nand.blocksPerPlane = 16;
    cfg.nand.pagesPerBlock = 8;
    return cfg;
}

Program
chainProgram(std::size_t n, OpCode op = OpCode::Add)
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
        if (i > 0)
            vi.deps = {i - 1};
        prog.instrs.push_back(vi);
    }
    prog.footprintPages = 12 * n + 4;
    return prog;
}

// ----------------------------------------------------- RBER model

TEST(RberModel, MonotoneInWearAndRetention)
{
    ReliabilityConfig cfg;
    reliability::RberModel m(cfg, 42, 8);
    double prev = 0.0;
    for (std::uint32_t pe = 0; pe <= 6000; pe += 500) {
        const double r = m.rber(0, pe, 0.0);
        EXPECT_GT(r, prev);
        prev = r;
    }
    prev = 0.0;
    for (int days = 0; days <= 365; days += 30) {
        const double r = m.rber(0, 1000, days * 86400.0);
        EXPECT_GT(r, prev);
        prev = r;
    }
}

TEST(RberModel, DeterministicPerSeedWithBoundedJitter)
{
    ReliabilityConfig cfg;
    reliability::RberModel a(cfg, 7, 64);
    reliability::RberModel b(cfg, 7, 64);
    reliability::RberModel c(cfg, 8, 64);
    bool any_differs = false;
    for (std::uint64_t blk = 0; blk < 64; ++blk) {
        EXPECT_DOUBLE_EQ(a.rber(blk, 1000, 3600.0),
                         b.rber(blk, 1000, 3600.0));
        EXPECT_GE(a.jitterOf(blk), 1.0 - cfg.blockJitter);
        EXPECT_LE(a.jitterOf(blk), 1.0 + cfg.blockJitter);
        if (a.jitterOf(blk) != c.jitterOf(blk))
            any_differs = true;
    }
    EXPECT_TRUE(any_differs); // different seeds, different devices
}

// ----------------------------------------------------- ECC ladder

TEST(EccEngine, LadderIsMonotoneAndTiered)
{
    ReliabilityConfig cfg;
    reliability::EccEngine ecc(cfg);

    // Below the hard-decode budget: free.
    EXPECT_EQ(ecc.plan(cfg.hardDecodeRber * 0.5).extraTicks, 0u);
    EXPECT_EQ(ecc.plan(cfg.hardDecodeRber).retries, 0u);

    // Just past it: exactly one retry.
    const auto one = ecc.plan(cfg.hardDecodeRber * 1.01);
    EXPECT_EQ(one.retries, 1u);
    EXPECT_EQ(one.extraTicks, cfg.retryTicks);
    EXPECT_FALSE(one.soft);

    // Monotone latency across six decades of RBER.
    Tick prev = 0;
    std::uint32_t prev_retries = 0;
    for (double rber = 1e-6; rber < 1.0; rber *= 1.3) {
        const auto p = ecc.plan(rber);
        EXPECT_GE(p.extraTicks, prev);
        EXPECT_GE(p.retries, prev_retries);
        prev = p.extraTicks;
        prev_retries = p.retries;
    }

    // Past the ladder: capped retries plus a soft decode.
    const auto deep = ecc.plan(0.05);
    EXPECT_EQ(deep.retries, cfg.maxReadRetries);
    EXPECT_TRUE(deep.soft);
    EXPECT_EQ(deep.extraTicks,
              cfg.maxReadRetries * cfg.retryTicks +
                  cfg.softDecodeTicks);
    EXPECT_FALSE(deep.uncorrectable);
    EXPECT_TRUE(ecc.plan(cfg.uncorrectableRber * 1.5).uncorrectable);
}

// ------------------------------------------- fast-forward (aging)

TEST(ReliabilityModel, PreWearEqualsSimulatedErases)
{
    const SsdConfig cfg = smallCfg();
    ReliabilityConfig fresh;
    fresh.enabled = true;
    ReliabilityConfig aged = fresh;
    aged.preWearCycles = 250;

    // Erase counts are the caller's (the NandArray's), per block and
    // device-wide: pre-wear 250 at count 0 must answer as no
    // pre-wear at count 250 on every block.
    reliability::ReliabilityModel ff(cfg.nand, aged, cfg.seed);
    reliability::ReliabilityModel sim(cfg.nand, fresh, cfg.seed);
    for (std::uint64_t blk = 0; blk < sim.blocks(); ++blk)
        for (int e = 0; e < 250; ++e)
            sim.noteErase(blk, 0);

    ASSERT_EQ(ff.blocks(), sim.blocks());
    for (std::uint64_t blk = 0; blk < ff.blocks(); ++blk) {
        EXPECT_DOUBLE_EQ(ff.rberOf(blk, 0, usToTicks(50)),
                         sim.rberOf(blk, 250, usToTicks(50)));
    }
    EXPECT_EQ(ff.typicalReadPenalty(0, 0),
              sim.typicalReadPenalty(250 * sim.blocks(), 0));
}

TEST(ReliabilityModel, RetentionFastForwardRaisesReadPenalty)
{
    const SsdConfig cfg = smallCfg();
    ReliabilityConfig young;
    young.enabled = true;
    young.preWearCycles = 1500;
    ReliabilityConfig old_dev = young;
    old_dev.retentionDays = 180.0;

    reliability::ReliabilityModel a(cfg.nand, young, cfg.seed);
    reliability::ReliabilityModel b(cfg.nand, old_dev, cfg.seed);
    EXPECT_GT(b.typicalReadPenalty(0, 0), a.typicalReadPenalty(0, 0));
    // An erase refreshes the block: its retention offset clears.
    b.noteErase(3, usToTicks(10));
    EXPECT_LT(b.rberOf(3, 1, usToTicks(10)),
              a.rberOf(3, 0, usToTicks(10)) *
                  (1.0 + young.blockJitter) /
                  (1.0 - young.blockJitter));
}

// ------------------------------- NAND read path + wear accounting

TEST(Reliability, AgedReadsChargeTheLadderOnTheDie)
{
    SsdConfig cfg = smallCfg();
    cfg.reliability.enabled = true;
    cfg.reliability.preWearCycles = 3000;
    cfg.reliability.retentionDays = 90.0;

    StatSet stats;
    NandArray nand(cfg.nand, &stats);
    reliability::ReliabilityModel rel(cfg.nand, cfg.reliability,
                                      cfg.seed, &stats);
    nand.setReliability(&rel);

    NandArray plain(cfg.nand);
    const FlashAddress a = plain.decode(0);
    const Tick base = plain.readPage(a, 0).end;
    const Tick aged = nand.readPage(a, 0).end;
    EXPECT_GT(aged, base);
    EXPECT_GE(rel.stats().retriedReads, 1u);
    EXPECT_EQ(aged - base,
              rel.ecc().plan(rel.rberOf(0, 0, 0)).extraTicks);
}

TEST(Reliability, BadBlockRetirementShrinksPoolAndGcSurvives)
{
    SsdConfig cfg = smallCfg();
    cfg.reliability.enabled = true;
    // An age where only jitter-weak blocks exhaust the retry ladder:
    // those accumulate soft-decode votes and retire at their next
    // erase, while the rest of the pool keeps the device serviceable.
    cfg.reliability.preWearCycles = 3100;
    cfg.reliability.retentionDays = 120.0;
    cfg.reliability.retireSoftThreshold = 2;

    StatSet stats;
    NandArray nand(cfg.nand, &stats);
    Ftl ftl(nand, cfg, &stats);
    reliability::ReliabilityModel rel(cfg.nand, cfg.reliability,
                                      cfg.seed, &stats);
    nand.setReliability(&rel);

    const std::uint64_t pages = ftl.logicalPages() / 2;
    ftl.preload(pages);
    const std::uint64_t total = ftl.totalBlocks();

    // Read (voting for retirement), then overwrite (forcing GC to
    // erase voted blocks). Repeat until retirement shows up; a
    // worn-to-death device throwing plane-dry is an acceptable end
    // state, but not before at least one block retired.
    Tick t = 0;
    bool device_died = false;
    try {
        for (int round = 0;
             round < 6 && rel.stats().retiredBlocks == 0; ++round) {
            for (Lpn l = 0; l < pages; ++l)
                t = ftl.readPage(l, t);
            for (Lpn l = 0; l < pages; ++l)
                t = ftl.writePage(l, t).readyAt;
        }
    } catch (const std::runtime_error &) {
        device_died = true;
    }
    // Retirement has one record, the model's: its count matches the
    // blocks it flags.
    std::uint64_t flagged = 0;
    for (std::uint64_t b = 0; b < total; ++b)
        flagged += rel.retired(b) ? 1 : 0;
    const std::uint64_t retired = rel.stats().retiredBlocks;
    EXPECT_GE(retired, 1u);
    EXPECT_EQ(flagged, retired);
    EXPECT_GE(stats.counter("ftl.gc_runs").value(), 1u);
    // The pool shrank: retired blocks are gone for good.
    EXPECT_LT(ftl.freeBlocks() + retired, total);
    if (!device_died) {
        // ... yet the FTL still serves traffic.
        const auto wr = ftl.writePage(0, t);
        EXPECT_NE(wr.ppn, kNoPpn);
    }
}

// ------------------------------------------------- engine-level

/** Run @p prog under @p policy as one tick-0 job on a fresh Device. */
RunResult
runJob(const Program &prog, const std::string &policy,
       const SsdConfig &cfg)
{
    DeviceOptions dopts;
    dopts.config = cfg;
    Device dev(dopts);
    JobSpec job;
    job.program = std::make_shared<const Program>(prog);
    job.policy = policy;
    dev.submit(job);
    return dev.drain().jobs.front().result;
}

TEST(Reliability, DisabledKnobsAreInertAndFreshAgedMatchesBaseline)
{
    const Program prog = chainProgram(24);

    auto run = [&](const SsdConfig &cfg) {
        return runJob(prog, "Conduit", cfg);
    };

    SsdConfig base = smallCfg();
    SsdConfig knobs = smallCfg();
    knobs.reliability.preWearCycles = 5000; // enabled == false!
    knobs.reliability.retentionDays = 365.0;
    knobs.reliability.retryTicks = usToTicks(1000);

    const RunResult a = run(base);
    const RunResult b = run(knobs);
    EXPECT_EQ(a.execTime, b.execTime);
    EXPECT_EQ(a.latencyUs.count(), b.latencyUs.count());
    EXPECT_DOUBLE_EQ(a.latencyUs.sum(), b.latencyUs.sum());
    EXPECT_EQ(a.perResource, b.perResource);
    EXPECT_DOUBLE_EQ(a.dmEnergyJ, b.dmEnergyJ);

    // Enabled on a factory-fresh device: zero RBER penalty, so the
    // simulated results still match the baseline (only maintenance
    // events differ, and a fresh device never scrubs).
    SsdConfig fresh_on = smallCfg();
    fresh_on.reliability.enabled = true;
    const RunResult c = run(fresh_on);
    EXPECT_EQ(a.execTime, c.execTime);
    EXPECT_DOUBLE_EQ(a.latencyUs.sum(), c.latencyUs.sum());
    EXPECT_EQ(a.perResource, c.perResource);
}

TEST(Reliability, AgingStretchesEngineExecution)
{
    const Program prog = chainProgram(24);
    auto run = [&](std::uint32_t pe, double days) {
        SsdConfig cfg = smallCfg();
        cfg.reliability.enabled = true;
        cfg.reliability.preWearCycles = pe;
        cfg.reliability.retentionDays = days;
        // Fixed-substrate policy: every operand stages through real
        // flash reads, so the ECC ladder is squarely on the path
        // (decision-adaptive policies can sidestep it via IFP's
        // raw-bit in-place computation).
        return runJob(prog, "ISP", cfg);
    };

    const RunResult fresh = run(0, 0.0);
    const RunResult mid = run(2000, 60.0);
    const RunResult old_dev = run(3600, 120.0);
    EXPECT_LT(fresh.execTime, mid.execTime);
    EXPECT_LT(mid.execTime, old_dev.execTime);
}

TEST(Reliability, AgingSweepIsThreadCountInvariant)
{
    auto cells = [] {
        std::vector<runner::Scenario> specs;
        for (std::uint32_t age : {0u, 1500u, 3000u}) {
            DeviceOptions device;
            device.config.reliability.enabled = true;
            device.config.reliability.preWearCycles = age;
            device.config.reliability.retentionDays = age * 0.03;
            runner::Tenant aes;
            aes.workloadId = WorkloadId::Aes;
            runner::Offer offer;
            offer.jobs = 3;
            offer.jobsPerSec = 400.0;
            specs.push_back(runner::loadScenario(device, aes, offer));
        }
        return specs;
    }();

    runner::SweepRunner serial({1});
    runner::SweepRunner pooled({4});
    const auto sa = serial.runAll(cells);
    const auto sb = pooled.runAll(cells);
    ASSERT_EQ(sa.size(), sb.size());
    std::vector<DeviceSnapshot> a, b;
    for (std::size_t i = 0; i < sa.size(); ++i) {
        a.push_back(sa[i].devices.front());
        b.push_back(sb[i].devices.front());
    }
    for (std::size_t i = 0; i < a.size(); ++i) {
        EXPECT_EQ(a[i].makespan, b[i].makespan);
        EXPECT_EQ(a[i].eventsFired, b[i].eventsFired);
        EXPECT_EQ(a[i].jobs.size(), b[i].jobs.size());
        EXPECT_DOUBLE_EQ(a[i].aggregate.latencyUs.percentile(99),
                         b[i].aggregate.latencyUs.percentile(99));
        EXPECT_EQ(a[i].reliability.eccRetries,
                  b[i].reliability.eccRetries);
        EXPECT_EQ(a[i].reliability.retiredBlocks,
                  b[i].reliability.retiredBlocks);
        EXPECT_EQ(a[i].reliability.scrubRefreshes,
                  b[i].reliability.scrubRefreshes);
    }
    // And the ladder actually ages: more correction work each rung.
    EXPECT_EQ(a[0].reliability.eccRetries, 0u);
    EXPECT_GT(a[2].reliability.eccRetries,
              a[1].reliability.eccRetries);
}

// -------------------------------------- NandArray hot-path caches

TEST(NandFastPaths, DecodeMatchesReferenceOnOddGeometries)
{
    for (std::uint32_t ppb : {7u, 8u, 196u}) {
        NandConfig n;
        n.channels = 3;
        n.diesPerChannel = 2;
        n.planesPerDie = 2;
        n.blocksPerPlane = 5;
        n.pagesPerBlock = ppb;
        NandArray nand(n);
        const std::uint64_t total = n.totalPages();
        for (Ppn p = 0; p < total; p += 11) {
            const FlashAddress a = nand.decode(p);
            // Reference: pure div/mod peel, innermost first.
            Ppn rest = p;
            EXPECT_EQ(a.page, rest % n.pagesPerBlock);
            rest /= n.pagesPerBlock;
            EXPECT_EQ(a.block, rest % n.blocksPerPlane);
            rest /= n.blocksPerPlane;
            EXPECT_EQ(a.plane, rest % n.planesPerDie);
            rest /= n.planesPerDie;
            EXPECT_EQ(a.die, rest % n.diesPerChannel);
            rest /= n.diesPerChannel;
            EXPECT_EQ(a.channel, rest);
            EXPECT_EQ(nand.encode(a), p);
            EXPECT_EQ(nand.dieOf(p), nand.dieIndex(a));
        }
        EXPECT_THROW(nand.decode(total), std::out_of_range);
        EXPECT_THROW(nand.dieOf(total), std::out_of_range);
    }
}

TEST(NandFastPaths, MinDieBacklogTracksBruteForce)
{
    NandConfig n;
    n.channels = 2;
    n.diesPerChannel = 4;
    NandArray nand(n);
    Rng rng(99);

    const auto brute = [&](Tick now) {
        Tick best = kMaxTick;
        for (std::uint32_t d = 0; d < nand.numDies(); ++d)
            best = std::min(best, nand.dieBacklog(d, now));
        return best;
    };

    Tick now = 0;
    for (int step = 0; step < 2000; ++step) {
        const auto die = static_cast<std::uint32_t>(
            rng.below(nand.numDies()));
        nand.occupyDie(die, now, rng.below(5000) + 1);
        if (rng.chance(0.3))
            now += rng.below(2000);
        ASSERT_EQ(nand.minDieBacklog(now), brute(now));
    }
    nand.reset();
    EXPECT_EQ(nand.minDieBacklog(0), 0u);
    nand.occupyDie(1, 0, 100);
    EXPECT_EQ(nand.minDieBacklog(0), brute(0));
}

} // namespace
} // namespace conduit
