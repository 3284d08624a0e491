/**
 * @file
 * Unit tests for the NAND flash array: address codec, die/channel
 * timing, FCFS contention, and geometry sweeps.
 */

#include <gtest/gtest.h>

#include "src/nand/nand.hh"

namespace conduit
{
namespace
{

NandConfig
smallNand()
{
    NandConfig n;
    n.channels = 2;
    n.diesPerChannel = 2;
    n.planesPerDie = 2;
    n.blocksPerPlane = 8;
    n.pagesPerBlock = 16;
    return n;
}

TEST(NandCodec, RoundTripAllFields)
{
    NandArray nand(smallNand());
    FlashAddress a{1, 1, 1, 7, 15};
    EXPECT_EQ(nand.decode(nand.encode(a)), a);
    FlashAddress b{0, 0, 0, 0, 0};
    EXPECT_EQ(nand.decode(nand.encode(b)), b);
    EXPECT_EQ(nand.encode(b), 0u);
}

TEST(NandCodec, DenseAndInRange)
{
    NandArray nand(smallNand());
    const std::uint64_t total = smallNand().totalPages();
    // Every ppn decodes and re-encodes to itself (bijection).
    for (Ppn p = 0; p < total; ++p)
        ASSERT_EQ(nand.encode(nand.decode(p)), p);
    EXPECT_THROW(nand.decode(total), std::out_of_range);
}

TEST(NandTiming, ReadOccupiesDieForTr)
{
    NandConfig n = smallNand();
    NandArray nand(n);
    FlashAddress a{0, 0, 0, 0, 0};
    auto iv = nand.readPage(a, 0);
    EXPECT_EQ(iv.start, 0u);
    EXPECT_EQ(iv.end, n.cmdTicks + n.readTicks);
    // Same die: second read queues behind the first.
    auto iv2 = nand.readPage(a, 0);
    EXPECT_EQ(iv2.start, iv.end);
    // Different die: starts immediately.
    FlashAddress b{0, 1, 0, 0, 0};
    auto iv3 = nand.readPage(b, 0);
    EXPECT_EQ(iv3.start, 0u);
}

TEST(NandTiming, ProgramAndEraseDurations)
{
    NandConfig n = smallNand();
    NandArray nand(n);
    FlashAddress a{1, 0, 1, 3, 2};
    auto pw = nand.programPage(a, 100);
    EXPECT_EQ(pw.end - pw.start, n.cmdTicks + n.programTicks);
    auto er = nand.eraseBlock(a, pw.end);
    EXPECT_EQ(er.start, pw.end);
    EXPECT_EQ(er.end - er.start, n.cmdTicks + n.eraseTicks);
}

TEST(NandTiming, ChannelTransferSerializes)
{
    NandConfig n = smallNand();
    NandArray nand(n);
    auto x1 = nand.transferOut(0, n.pageBytes, 0);
    auto x2 = nand.transferOut(0, n.pageBytes, 0);
    EXPECT_EQ(x2.start, x1.end);
    // Other channel is independent.
    auto x3 = nand.transferOut(1, n.pageBytes, 0);
    EXPECT_EQ(x3.start, 0u);
    // Duration = DMA + serialization at channel bandwidth.
    const Tick expect =
        n.dmaTicks + transferTicks(n.pageBytes, n.channelBytesPerSec);
    EXPECT_EQ(x1.end - x1.start, expect);
}

TEST(NandStats, CountersAccumulate)
{
    StatSet stats;
    NandArray nand(smallNand(), &stats);
    FlashAddress a{0, 0, 0, 0, 0};
    nand.readPage(a, 0);
    nand.readPage(a, 0);
    nand.programPage(a, 0);
    nand.transferOut(0, 4096, 0);
    EXPECT_EQ(stats.counter("nand.reads").value(), 2u);
    EXPECT_EQ(stats.counter("nand.programs").value(), 1u);
    EXPECT_EQ(stats.counter("nand.xfer_out_bytes").value(), 4096u);
}

TEST(NandBacklog, TracksPendingWork)
{
    NandConfig n = smallNand();
    NandArray nand(n);
    EXPECT_EQ(nand.minDieBacklog(0), 0u);
    FlashAddress a{0, 0, 0, 0, 0};
    nand.readPage(a, 0);
    EXPECT_GT(nand.dieBacklog(0, 0), 0u);
    // Min over dies is still zero (other dies idle).
    EXPECT_EQ(nand.minDieBacklog(0), 0u);
    EXPECT_EQ(nand.channelBacklog(0, 0), 0u);
}

TEST(NandUtilization, GrowsWithTraffic)
{
    // Channel occupancy: each transfer extends the channel's pending
    // work by exactly its bus time, and other channels stay idle.
    NandConfig n = smallNand();
    NandArray nand(n);
    EXPECT_EQ(nand.channel(0).backlog(0), 0u);
    const auto a = nand.transferOut(0, n.pageBytes, 0);
    EXPECT_GT(a.end, a.start);
    EXPECT_EQ(nand.channel(0).backlog(0), a.end);
    const auto b = nand.transferIn(0, n.pageBytes, 0);
    EXPECT_EQ(b.start, a.end);
    EXPECT_EQ(nand.channel(0).backlog(0), a.end + (b.end - b.start));
    EXPECT_EQ(nand.channel(0).backlog(b.end), 0u);
    EXPECT_EQ(nand.channel(1).backlog(0), 0u);
}

/** Geometry property sweep: codec bijectivity across shapes. */
class NandGeometry
    : public ::testing::TestWithParam<std::tuple<int, int, int>>
{
};

TEST_P(NandGeometry, CodecBijective)
{
    auto [ch, dies, planes] = GetParam();
    NandConfig n;
    n.channels = ch;
    n.diesPerChannel = dies;
    n.planesPerDie = planes;
    n.blocksPerPlane = 4;
    n.pagesPerBlock = 8;
    NandArray nand(n);
    const std::uint64_t total = n.totalPages();
    for (Ppn p = 0; p < total; p += 7)
        ASSERT_EQ(nand.encode(nand.decode(p)), p);
    FlashAddress last = nand.decode(total - 1);
    EXPECT_EQ(last.channel, n.channels - 1);
    EXPECT_EQ(last.page, n.pagesPerBlock - 1);
}

INSTANTIATE_TEST_SUITE_P(Shapes, NandGeometry,
                         ::testing::Values(std::make_tuple(1, 1, 1),
                                           std::make_tuple(2, 4, 2),
                                           std::make_tuple(8, 8, 2),
                                           std::make_tuple(3, 5, 4)));

} // namespace
} // namespace conduit
