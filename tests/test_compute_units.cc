/**
 * @file
 * Unit tests for the three NDP compute models: PuD (DRAM), IFP
 * (flash), and ISP (controller core), plus the DRAM timing model
 * and the IFP fragment-list builder.
 */

#include <gtest/gtest.h>

#include "src/dram/dram.hh"
#include "src/dram/pud_unit.hh"
#include "src/isp/isp_core.hh"
#include "src/nand/ifp_unit.hh"
#include "src/sim/rng.hh"

namespace conduit
{
namespace
{

TEST(Dram, BankParallelBusSerial)
{
    DramConfig d;
    DramModel dram(d);
    auto a = dram.access(0, 4096, 0);
    auto b = dram.access(1, 4096, 0);
    // Different banks activate in parallel...
    EXPECT_EQ(a.start, 0u);
    EXPECT_EQ(b.start, 0u);
    // ...but the shared bus serializes the bursts.
    EXPECT_GE(b.end, a.end);
    // Same bank queues.
    auto c = dram.access(0, 4096, 0);
    EXPECT_GT(c.start, 0u);
}

TEST(Pud, SupportsSixteenOpSubsetOnly)
{
    EXPECT_TRUE(PudUnit::supports(OpCode::Add));
    EXPECT_TRUE(PudUnit::supports(OpCode::Mul));
    EXPECT_TRUE(PudUnit::supports(OpCode::Select));
    EXPECT_TRUE(PudUnit::supports(OpCode::Copy));
    EXPECT_FALSE(PudUnit::supports(OpCode::Shuffle));
    EXPECT_FALSE(PudUnit::supports(OpCode::Gather));
    EXPECT_FALSE(PudUnit::supports(OpCode::Exp));
    EXPECT_FALSE(PudUnit::supports(OpCode::Div));
}

TEST(Pud, LatencyScalesWithBbopSequence)
{
    DramConfig d;
    DramModel dram(d);
    ComputeModelConfig m;
    PudUnit pud(dram, m);
    // One row: bitwise is cheaper than add is cheaper than multiply.
    const std::uint32_t lanes = d.rowBytes; // exactly one row, 8-bit
    const Tick bw = pud.estimate(OpCode::Xor, 8, lanes);
    const Tick add = pud.estimate(OpCode::Add, 8, lanes);
    const Tick mul = pud.estimate(OpCode::Mul, 8, lanes);
    EXPECT_LT(bw, add);
    EXPECT_LT(add, mul);
    EXPECT_EQ(bw, static_cast<Tick>(m.pudBitwiseBbops) * d.bbopTicks);
}

TEST(Pud, RowsSpreadAcrossBanks)
{
    DramConfig d;
    DramModel dram(d);
    ComputeModelConfig m;
    PudUnit pud(dram, m);
    // 8 rows over 8 banks: same estimate as 1 row (one wave).
    const std::uint32_t one_row = d.rowBytes;
    EXPECT_EQ(pud.estimate(OpCode::Add, 8, one_row),
              pud.estimate(OpCode::Add, 8, one_row * d.banks));
    // 9 rows need a second wave.
    EXPECT_GT(pud.estimate(OpCode::Add, 8, one_row * (d.banks + 1)),
              pud.estimate(OpCode::Add, 8, one_row));
}

TEST(Pud, WiderElementsCostMore)
{
    DramConfig d;
    DramModel dram(d);
    PudUnit pud(dram, ComputeModelConfig{});
    EXPECT_GT(pud.bbopCount(OpCode::Add, 32),
              pud.bbopCount(OpCode::Add, 8));
    // Multiplication scales quadratically with width.
    const auto m8 = pud.bbopCount(OpCode::Mul, 8);
    const auto m32 = pud.bbopCount(OpCode::Mul, 32);
    EXPECT_GE(m32, m8 * 10);
}

TEST(Pud, UnsupportedThrows)
{
    DramConfig d;
    DramModel dram(d);
    PudUnit pud(dram, ComputeModelConfig{});
    EXPECT_THROW(pud.execute(OpCode::Gather, 8, 64, 0, 0),
                 std::invalid_argument);
    EXPECT_EQ(pud.estimate(OpCode::Gather, 8, 64), kMaxTick);
}

TEST(Ifp, SupportsNinePlusLatchOps)
{
    EXPECT_TRUE(IfpUnit::supports(OpCode::And));
    EXPECT_TRUE(IfpUnit::supports(OpCode::Xor));
    EXPECT_TRUE(IfpUnit::supports(OpCode::Add));
    EXPECT_TRUE(IfpUnit::supports(OpCode::Mul));
    EXPECT_FALSE(IfpUnit::supports(OpCode::Select));
    EXPECT_FALSE(IfpUnit::supports(OpCode::CmpLt));
    EXPECT_FALSE(IfpUnit::supports(OpCode::Gather));
    EXPECT_FALSE(IfpUnit::supports(OpCode::Div));
}

TEST(Ifp, MwsAndIsSingleSensing)
{
    NandConfig n;
    NandArray nand(n);
    IfpUnit ifp(nand, ComputeModelConfig{});
    // AND of 2 and of 48 operands both take one multi-WL sensing.
    const Tick and2 = ifp.estimate(OpCode::And, 8, 2, 2, n.pageBytes);
    const Tick and48 =
        ifp.estimate(OpCode::And, 8, 48, 48, n.pageBytes);
    EXPECT_EQ(and2, and48);
    // 49 operands exceed the MWS fan-in: a second sensing.
    const Tick and49 =
        ifp.estimate(OpCode::And, 8, 49, 49, n.pageBytes);
    EXPECT_GT(and49, and48);
}

TEST(Ifp, LatchResidentOperandsSkipSensing)
{
    NandConfig n;
    NandArray nand(n);
    IfpUnit ifp(nand, ComputeModelConfig{});
    const Tick cold = ifp.estimate(OpCode::Xor, 8, 2, 2, n.pageBytes);
    const Tick warm = ifp.estimate(OpCode::Xor, 8, 2, 0, n.pageBytes);
    EXPECT_GT(cold, warm);
    // Sensing dominates: warm op costs only the latch logic.
    EXPECT_LT(warm, usToTicks(1));
    EXPECT_GT(cold, usToTicks(40)); // two sensings
}

TEST(Ifp, MultiplyShuttlesOccupyChannel)
{
    NandConfig n;
    NandArray nand(n);
    ComputeModelConfig m;
    IfpUnit ifp(nand, m);
    const Tick before = nand.channel(0).busyTime();
    ifp.execute(OpCode::Mul, 8, 2, 0, {{0, n.pageBytes}}, 0);
    EXPECT_GT(nand.channel(0).busyTime(), before);
    // Addition does not shuttle.
    const Tick after_mul = nand.channel(0).busyTime();
    ifp.execute(OpCode::Add, 8, 2, 0, {{0, n.pageBytes}}, 0);
    EXPECT_EQ(nand.channel(0).busyTime(), after_mul);
}

TEST(Ifp, FragmentsRunInParallelAcrossDies)
{
    NandConfig n;
    NandArray nand(n);
    IfpUnit ifp(nand, ComputeModelConfig{});
    std::vector<IfpFragment> one = {{0, n.pageBytes}};
    std::vector<IfpFragment> four = {
        {0, n.pageBytes}, {1, n.pageBytes},
        {2, n.pageBytes}, {3, n.pageBytes}};
    auto iv1 = ifp.execute(OpCode::Xor, 8, 2, 2, one, 0);
    NandArray nand2(n);
    IfpUnit ifp2(nand2, ComputeModelConfig{});
    auto iv4 = ifp2.execute(OpCode::Xor, 8, 2, 2, four, 0);
    // Four dies finish in the same wall-clock as one.
    EXPECT_EQ(iv4.end - iv4.start, iv1.end - iv1.start);
}

TEST(Ifp, UnsupportedThrows)
{
    NandConfig n;
    NandArray nand(n);
    IfpUnit ifp(nand, ComputeModelConfig{});
    EXPECT_THROW(ifp.execute(OpCode::Select, 8, 3, 3, {{0, 4096}}, 0),
                 std::invalid_argument);
    EXPECT_EQ(ifp.estimate(OpCode::Select, 8, 3, 3, 4096), kMaxTick);
}

TEST(Isp, StreamBoundForBulkVectors)
{
    IspConfig c;
    ComputeModelConfig m;
    IspCore isp(c, m);
    // Large low-latency vector: bounded by streaming bandwidth.
    const std::uint32_t lanes = 16384;
    const Tick t = isp.estimate(OpCode::Xor, 8, lanes, 2, true);
    const Tick stream = transferTicks(
        static_cast<std::uint64_t>(lanes) * 3, c.streamBytesPerSec);
    EXPECT_NEAR(static_cast<double>(t), static_cast<double>(stream),
                static_cast<double>(stream) * 0.05);
}

TEST(Isp, HighClassOpsStreamMore)
{
    IspCore isp(IspConfig{}, ComputeModelConfig{});
    EXPECT_GT(isp.estimate(OpCode::Mul, 8, 16384, 2, true),
              isp.estimate(OpCode::Add, 8, 16384, 2, true));
}

TEST(Isp, ScalarFallbackCostsPerElement)
{
    IspConfig c;
    ComputeModelConfig m;
    IspCore isp(c, m);
    const Tick scalar = isp.estimate(OpCode::Add, 8, 1000, 2, false);
    const double cycles = 1000.0 * m.ispScalarCyclesPerElem;
    const double expect_ps = cycles * (kPsPerS / c.clockHz);
    EXPECT_NEAR(static_cast<double>(scalar), expect_ps,
                expect_ps * 0.05);
}

TEST(Isp, SingleCoreSerializes)
{
    IspCore isp(IspConfig{}, ComputeModelConfig{});
    auto a = isp.execute(OpCode::Add, 8, 16384, 2, true, 0);
    auto b = isp.execute(OpCode::Add, 8, 16384, 2, true, 0);
    EXPECT_EQ(b.start, a.end);
    EXPECT_GT(isp.backlog(0), 0u);
    const IspCore fresh(IspConfig{}, ComputeModelConfig{});
    EXPECT_EQ(fresh.backlog(0), 0u);
}

/** A fragment list built the linear way: scan for the page's die,
 *  append it when absent. */
std::vector<IfpFragment>
linearFragments(const std::vector<std::uint32_t> &dies,
                std::uint64_t bytes)
{
    std::vector<IfpFragment> frags;
    for (std::uint32_t die : dies) {
        bool merged = false;
        for (auto &f : frags) {
            if (f.dieIndex == die) {
                f.bytes += bytes;
                merged = true;
                break;
            }
        }
        if (!merged)
            frags.push_back({die, bytes});
    }
    return frags;
}

TEST(Ifp, FragmentListKeepsFirstAppearanceOrder)
{
    // One builder reused across many lists, as the engine reuses its
    // own: each list must match a fresh linear build, die order and
    // byte sums alike, whatever the previous list held.
    FragmentList list;
    Rng rng(11);
    for (int trial = 0; trial < 300; ++trial) {
        const auto dies = static_cast<std::uint32_t>(1 + rng.below(16));
        std::vector<std::uint32_t> pages(rng.below(40));
        for (std::uint32_t &d : pages)
            d = static_cast<std::uint32_t>(rng.below(dies));
        const std::uint64_t bytes = 1 + rng.below(8192);
        list.begin(dies);
        for (std::uint32_t d : pages)
            list.add(d, bytes);
        const auto want = linearFragments(pages, bytes);
        ASSERT_EQ(list.fragments().size(), want.size());
        for (std::size_t i = 0; i < want.size(); ++i) {
            EXPECT_EQ(list.fragments()[i].dieIndex, want[i].dieIndex);
            EXPECT_EQ(list.fragments()[i].bytes, want[i].bytes);
        }
    }
}

/** Property sweep: all units' estimates are monotone in lanes. */
class MonotoneLanes : public ::testing::TestWithParam<OpCode>
{
};

TEST_P(MonotoneLanes, EstimatesNonDecreasing)
{
    const OpCode op = GetParam();
    DramConfig d;
    DramModel dram(d);
    PudUnit pud(dram, ComputeModelConfig{});
    NandConfig n;
    NandArray nand(n);
    IfpUnit ifp(nand, ComputeModelConfig{});
    IspCore isp(IspConfig{}, ComputeModelConfig{});

    Tick prev_pud = 0, prev_isp = 0, prev_ifp = 0;
    for (std::uint32_t lanes = 1024; lanes <= 65536; lanes *= 2) {
        if (pudSupports(op)) {
            const Tick t = pud.estimate(op, 8, lanes);
            ASSERT_GE(t, prev_pud);
            prev_pud = t;
        }
        if (ifpSupports(op)) {
            const Tick t = ifp.estimate(op, 8, 2, 2, lanes);
            ASSERT_GE(t, prev_ifp);
            prev_ifp = t;
        }
        const Tick t = isp.estimate(op, 8, lanes, 2, true);
        ASSERT_GE(t, prev_isp);
        prev_isp = t;
    }
}

INSTANTIATE_TEST_SUITE_P(Ops, MonotoneLanes,
                         ::testing::Values(OpCode::And, OpCode::Xor,
                                           OpCode::Add, OpCode::Mul,
                                           OpCode::Select,
                                           OpCode::Copy));

} // namespace
} // namespace conduit
