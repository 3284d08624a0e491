/**
 * @file
 * Unit tests for the FTL: preload striping, out-of-place writes,
 * mapping cache behaviour, garbage collection and wear-leveling.
 */

#include <gtest/gtest.h>

#include <array>
#include <set>
#include <thread>

#include "src/ftl/ftl.hh"

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

/** Erase counts over every block. */
struct Wear
{
    std::uint32_t lo = ~0U;
    std::uint32_t hi = 0;
    std::uint64_t total = 0;
};

Wear
wearOf(const NandArray &nand, const Ftl &ftl)
{
    Wear w;
    for (std::uint64_t b = 0; b < ftl.totalBlocks(); ++b) {
        w.lo = std::min(w.lo, nand.eraseCount(b));
        w.hi = std::max(w.hi, nand.eraseCount(b));
        w.total += nand.eraseCount(b);
    }
    return w;
}

TEST(Ftl, PreloadMapsSequentialLpnsStriped)
{
    SsdConfig cfg = smallCfg();
    NandArray nand(cfg.nand);
    Ftl ftl(nand, cfg);
    ftl.preload(8);
    std::set<std::uint32_t> dies;
    for (Lpn l = 0; l < 8; ++l) {
        const Ppn p = ftl.physicalOf(l);
        ASSERT_NE(p, kNoPpn);
        dies.insert(nand.dieIndex(nand.decode(p)));
    }
    // CWDP striping spreads consecutive pages over all four dies.
    EXPECT_EQ(dies.size(), 4u);
}

TEST(Ftl, UnmappedPagesReportNoPpn)
{
    SsdConfig cfg = smallCfg();
    NandArray nand(cfg.nand);
    Ftl ftl(nand, cfg);
    ftl.preload(2);
    EXPECT_NE(ftl.physicalOf(0), kNoPpn);
    EXPECT_EQ(ftl.physicalOf(5), kNoPpn);
    EXPECT_THROW(ftl.physicalOf(ftl.logicalPages()), std::out_of_range);
}

TEST(Ftl, WriteRelocatesAndInvalidates)
{
    SsdConfig cfg = smallCfg();
    NandArray nand(cfg.nand);
    Ftl ftl(nand, cfg);
    ftl.preload(4);
    const Ppn before = ftl.physicalOf(1);
    auto wr = ftl.writePage(1, 0);
    EXPECT_NE(wr.ppn, before);          // out-of-place
    EXPECT_EQ(ftl.physicalOf(1), wr.ppn);
    EXPECT_GT(wr.readyAt, 0u);          // program latency charged
}

TEST(Ftl, MappingCacheStartsAtFullCoverage)
{
    // Until a session sizes it, the DFTL cache holds every L2P entry.
    SsdConfig cfg = smallCfg();
    NandArray nand(cfg.nand);
    Ftl ftl(nand, cfg);
    EXPECT_EQ(ftl.mappingCacheCapacity(), ftl.logicalPages());
}

TEST(Ftl, MappingCacheHitsAndMisses)
{
    SsdConfig cfg = smallCfg();
    NandArray nand(cfg.nand);
    Ftl ftl(nand, cfg);
    ftl.preload(64);
    ftl.setMappingCacheCapacity(16);
    // First touches are cold misses.
    auto c1 = ftl.translate(0, 0);
    EXPECT_FALSE(c1.cacheHit);
    EXPECT_EQ(c1.latency, cfg.overhead.l2pLookupFlash);
    auto c2 = ftl.translate(0, 0);
    EXPECT_TRUE(c2.cacheHit);
    EXPECT_EQ(c2.latency, cfg.overhead.l2pLookupDram);
    // Sweep past capacity evicts lpn 0 again.
    for (Lpn l = 1; l < 40; ++l)
        ftl.translate(l, 0);
    auto c3 = ftl.translate(0, 0);
    EXPECT_FALSE(c3.cacheHit);
}

TEST(Ftl, StatSetAgreesWithMemberCountersOnBothPaths)
{
    // The write path (writePage) touches the mapping cache exactly
    // like the read path (translate), and both count into the one
    // record of cache traffic: the StatSet's ftl.map_* counters.
    SsdConfig cfg = smallCfg();
    NandArray nand(cfg.nand);
    StatSet stats;
    Ftl ftl(nand, cfg, &stats);
    ftl.preload(64);
    ftl.setMappingCacheCapacity(16);
    const auto hits = [&] { return stats.counter("ftl.map_hits").value(); };
    const auto misses = [&] {
        return stats.counter("ftl.map_misses").value();
    };

    // Read path: a cold pass over twice the capacity misses every
    // touch; revisiting the resident tail hits.
    Tick t = 0;
    std::uint64_t touches = 0;
    for (Lpn l = 0; l < 32; ++l, ++touches)
        ftl.translate(l, t);
    for (Lpn l = 24; l < 32; ++l, ++touches)
        ftl.translate(l, t);
    EXPECT_EQ(misses(), 32u);
    EXPECT_EQ(hits(), 8u);

    // Write path: the same shape counts the same way.
    for (Lpn l = 32; l < 48; ++l, ++touches)
        t = ftl.writePage(l, t).readyAt;
    for (Lpn l = 40; l < 48; ++l, ++touches)
        t = ftl.writePage(l, t).readyAt;
    EXPECT_EQ(misses(), 48u);
    EXPECT_EQ(hits(), 16u);
    EXPECT_EQ(hits() + misses(), touches);
}

TEST(Ftl, HonorsMappingCacheCapacityBelowSixteen)
{
    // §5.4-style DRAM-pressure experiments size the cache very
    // small; a silent 16-entry floor would inflate the hit rate.
    SsdConfig cfg = smallCfg();
    NandArray nand(cfg.nand);
    Ftl ftl(nand, cfg);
    ftl.preload(32);

    ftl.setMappingCacheCapacity(2);
    EXPECT_EQ(ftl.mappingCacheCapacity(), 2u);
    EXPECT_FALSE(ftl.translate(0, 0).cacheHit); // cold
    EXPECT_FALSE(ftl.translate(1, 0).cacheHit); // cold
    EXPECT_TRUE(ftl.translate(0, 0).cacheHit);  // both resident
    EXPECT_FALSE(ftl.translate(2, 0).cacheHit); // evicts lpn 1 (LRU)
    EXPECT_TRUE(ftl.translate(0, 0).cacheHit);
    EXPECT_FALSE(ftl.translate(1, 0).cacheHit); // was evicted

    // A 3-entry reuse loop thrashes a 2-entry cache: every touch
    // misses, exactly what the configured capacity implies.
    ftl.setMappingCacheCapacity(2);
    for (int round = 0; round < 3; ++round) {
        for (Lpn l = 4; l < 7; ++l)
            EXPECT_FALSE(ftl.translate(l, 0).cacheHit);
    }

    // Zero clamps to one resident entry, and shrinking evicts down
    // to the new capacity (MRU survives).
    ftl.setMappingCacheCapacity(0);
    EXPECT_EQ(ftl.mappingCacheCapacity(), 1u);
    EXPECT_FALSE(ftl.translate(9, 0).cacheHit);
    EXPECT_TRUE(ftl.translate(9, 0).cacheHit);
    EXPECT_FALSE(ftl.translate(10, 0).cacheHit);
    EXPECT_FALSE(ftl.translate(9, 0).cacheHit);
}

TEST(Ftl, ReadPageChargesTranslationPlusSensing)
{
    SsdConfig cfg = smallCfg();
    NandArray nand(cfg.nand);
    Ftl ftl(nand, cfg);
    ftl.preload(2);
    ftl.translate(0, 0); // warm the mapping entry
    const Tick done = ftl.readPage(0, 0);
    EXPECT_GE(done, cfg.overhead.l2pLookupDram + cfg.nand.readTicks);
}

TEST(Ftl, GarbageCollectionReclaimsBlocks)
{
    SsdConfig cfg = smallCfg();
    cfg.gcThreshold = 0.30; // trigger early
    NandArray nand(cfg.nand);
    StatSet stats;
    Ftl ftl(nand, cfg, &stats);
    const std::uint64_t lpns = 24;
    ftl.preload(lpns);
    // Rewrite a small set of pages many times: invalidated copies
    // accumulate until GC must reclaim.
    Tick t = 0;
    for (int round = 0; round < 60; ++round) {
        for (Lpn l = 0; l < lpns; ++l) {
            auto wr = ftl.writePage(l, t);
            t = wr.readyAt;
        }
    }
    EXPECT_GT(stats.counter("ftl.gc_runs").value(), 0u);
    EXPECT_GT(ftl.freeBlocks(), 0u);
    // All lpns still mapped and distinct.
    std::set<Ppn> ppns;
    for (Lpn l = 0; l < lpns; ++l)
        ppns.insert(ftl.physicalOf(l));
    EXPECT_EQ(ppns.size(), lpns);
}

TEST(Ftl, WearLevelingBoundsEraseSkew)
{
    // A deep free pool (GC keeps 70% of blocks free), so the
    // allocator's choice among free blocks decides which blocks
    // cycle. Wear-aware selection spreads the erases: the spread
    // stays within three times the mean erase count (16 erases here,
    // against 29 when the first free block is taken instead). With a
    // shallow pool (0.30) greedy GC keeps reclaiming the same
    // lowest-index blocks, and the spread is 38 either way.
    SsdConfig cfg = smallCfg();
    cfg.gcThreshold = 0.70;
    NandArray nand(cfg.nand);
    Ftl ftl(nand, cfg);
    ftl.preload(24);
    Tick t = 0;
    for (int round = 0; round < 120; ++round) {
        for (Lpn l = 0; l < 24; ++l)
            t = ftl.writePage(l, t).readyAt;
    }
    const Wear w = wearOf(nand, ftl);
    const std::uint64_t blocks = ftl.totalBlocks();
    const std::uint64_t mean = (w.total + blocks - 1) / blocks;
    EXPECT_GT(mean, 0u);
    EXPECT_LE(w.hi - w.lo, 3 * mean);
}

TEST(Ftl, GcUnderWritePressureIsDeterministic)
{
    // The same write-pressure schedule must produce identical GC
    // activity and wear state on every run — and on concurrent runs
    // over private devices, since nothing in the FTL may depend on
    // shared mutable state.
    const auto pressure = [] {
        SsdConfig cfg = smallCfg();
        cfg.gcThreshold = 0.30;
        NandArray nand(cfg.nand);
        StatSet stats;
        Ftl ftl(nand, cfg, &stats);
        ftl.preload(24);
        Tick t = 0;
        for (int round = 0; round < 60; ++round) {
            for (Lpn l = 0; l < 24; ++l)
                t = ftl.writePage(l, t).readyAt;
        }
        return std::array<std::uint64_t, 4>{
            stats.counter("ftl.gc_runs").value(),
            wearOf(nand, ftl).hi,
            ftl.freeBlocks(), t};
    };

    const auto reference = pressure();
    EXPECT_GT(reference[0], 0u); // GC actually ran
    EXPECT_EQ(pressure(), reference); // repeat run

    std::array<std::array<std::uint64_t, 4>, 4> results{};
    {
        std::vector<std::thread> workers;
        for (auto &slot : results)
            workers.emplace_back([&slot, &pressure] {
                slot = pressure();
            });
        for (auto &w : workers)
            w.join();
    }
    for (const auto &r : results)
        EXPECT_EQ(r, reference);
}

TEST(Ftl, PreloadBeyondCapacityThrows)
{
    SsdConfig cfg = smallCfg();
    NandArray nand(cfg.nand);
    Ftl ftl(nand, cfg);
    EXPECT_THROW(ftl.preload(ftl.logicalPages() + 1),
                 std::invalid_argument);
}

TEST(Ftl, OverProvisioningHidesCapacity)
{
    SsdConfig cfg = smallCfg();
    NandArray nand(cfg.nand);
    Ftl ftl(nand, cfg);
    EXPECT_LT(ftl.logicalPages(), cfg.nand.totalPages());
    EXPECT_GT(ftl.logicalPages(),
              cfg.nand.totalPages() * 9 / 10);
}

} // namespace
} // namespace conduit
