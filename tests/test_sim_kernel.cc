/**
 * @file
 * Unit tests for the simulation kernel: event queue ordering and
 * cancellation, tick conversions, statistics, servers, and the RNG.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <deque>
#include <functional>
#include <list>
#include <vector>

#include "src/sim/event_queue.hh"
#include "src/sim/flat_lru.hh"
#include "src/sim/rank_lru.hh"
#include "src/sim/rng.hh"
#include "src/sim/server.hh"
#include "src/sim/stats.hh"
#include "src/sim/types.hh"

namespace conduit
{
namespace
{

TEST(Types, Conversions)
{
    EXPECT_EQ(nsToTicks(1), kPsPerNs);
    EXPECT_EQ(usToTicks(1), kPsPerUs);
    EXPECT_EQ(msToTicks(1), kPsPerMs);
    EXPECT_DOUBLE_EQ(ticksToNs(kPsPerNs), 1.0);
    EXPECT_DOUBLE_EQ(ticksToUs(kPsPerUs), 1.0);
    EXPECT_DOUBLE_EQ(ticksToSeconds(kPsPerS), 1.0);
    EXPECT_EQ(nsToTicks(22.5), 22500u);
}

TEST(Types, TransferTicks)
{
    // 1 GB/s: 1 byte = 1 ns (+1 tick rounding).
    EXPECT_NEAR(static_cast<double>(transferTicks(4096, 1e9)),
                4096.0 * kPsPerNs, 2.0);
    EXPECT_EQ(transferTicks(0, 1e9), 0u);
    EXPECT_EQ(transferTicks(100, 0.0), 0u);
}

TEST(EventQueue, FiresInTimeOrder)
{
    EventQueue q;
    std::vector<int> order;
    q.schedule(30, [&] { order.push_back(3); });
    q.schedule(10, [&] { order.push_back(1); });
    q.schedule(20, [&] { order.push_back(2); });
    q.run();
    EXPECT_EQ(order, (std::vector<int>{1, 2, 3}));
    EXPECT_EQ(q.now(), 30u);
}

TEST(EventQueue, SameTickFifoWithinPriority)
{
    EventQueue q;
    std::vector<int> order;
    q.schedule(5, [&] { order.push_back(1); }, 1);
    q.schedule(5, [&] { order.push_back(2); }, 1);
    q.schedule(5, [&] { order.push_back(0); }, 0);
    q.run();
    EXPECT_EQ(order, (std::vector<int>{0, 1, 2}));
}

TEST(EventQueue, CancelPreventsFiring)
{
    EventQueue q;
    int fired = 0;
    EventId id = q.schedule(10, [&] { ++fired; });
    q.schedule(20, [&] { ++fired; });
    EXPECT_TRUE(q.cancel(id));
    EXPECT_FALSE(q.cancel(id)); // double-cancel is a no-op
    q.run();
    EXPECT_EQ(fired, 1);
}

TEST(EventQueue, CallbackCanScheduleMore)
{
    EventQueue q;
    int count = 0;
    q.schedule(1, [&] {
        ++count;
        q.schedule(q.now() + 1, [&] { ++count; });
    });
    q.run();
    EXPECT_EQ(count, 2);
    EXPECT_EQ(q.now(), 2u);
}

TEST(EventQueue, SchedulingInPastThrows)
{
    EventQueue q;
    q.schedule(100, [] {});
    q.runOne();
    EXPECT_THROW(q.schedule(50, [] {}), std::logic_error);
}

TEST(EventQueue, RunUntilBound)
{
    EventQueue q;
    int fired = 0;
    q.schedule(10, [&] { ++fired; });
    q.schedule(20, [&] { ++fired; });
    q.schedule(30, [&] { ++fired; });
    EXPECT_EQ(q.run(20), 2u);
    EXPECT_EQ(fired, 2);
    EXPECT_EQ(q.pending(), 1u);
}

TEST(EventQueue, CancelHeavyMemoryStaysBounded)
{
    // Open-loop device workloads schedule and cancel events at a
    // sustained rate. Cancelled entries must not accumulate: slots
    // are free-listed for reuse and the heap compacts lazily once
    // dead entries outnumber the live half.
    EventQueue q;
    std::deque<EventId> window;
    constexpr int kPairs = 1'000'000;
    constexpr std::size_t kWindow = 1024;
    for (int i = 0; i < kPairs; ++i) {
        window.push_back(
            q.schedule(static_cast<Tick>(kPairs + i), [] {}));
        if (window.size() > kWindow) {
            ASSERT_TRUE(q.cancel(window.front()));
            window.pop_front();
        }
    }
    EXPECT_EQ(q.pending(), kWindow);
    // Slab footprint tracks peak outstanding events, not the 1M
    // schedule/cancel pairs; the heap stays within a small factor
    // of the live set.
    EXPECT_LE(q.slabSlots(), 4 * kWindow);
    EXPECT_LE(q.heapEntries(), 4 * kWindow);
    EXPECT_LE(q.cancelledEntries(), q.heapEntries() / 2 + 1);
    // The survivors all fire, in order.
    EXPECT_EQ(q.run(), kWindow);
    EXPECT_TRUE(q.empty());
    EXPECT_EQ(q.heapEntries(), 0u);

    // Deep inserts into the active bucket live in the late heap;
    // cancelling them must compact it too. A pile of kPile same-tick
    // completions sits behind a dispatcher that schedules kBurst
    // successors in front of the pile and then cancels all of them.
    constexpr std::size_t kPile = 1000;
    constexpr std::size_t kBurst = 3000;
    EventQueue deep;
    int pileFired = 0;
    for (std::size_t i = 0; i < kPile; ++i)
        deep.schedule(1, [&pileFired] { ++pileFired; }, 10);
    deep.schedule(1, [&deep] {
        std::vector<EventId> burst;
        for (std::size_t i = 0; i < kBurst; ++i)
            burst.push_back(deep.schedule(1, [] { FAIL(); }));
        for (EventId id : burst)
            ASSERT_TRUE(deep.cancel(id));
        EXPECT_TRUE(deep.auditPendingConservation());
    });
    ASSERT_TRUE(deep.runOne());
    EXPECT_EQ(deep.counters().latePushes, kBurst);
    EXPECT_EQ(deep.counters().compactions, 1u);
    EXPECT_EQ(deep.pending(), kPile);
    EXPECT_LE(deep.heapEntries(), 2 * kPile);
    EXPECT_LE(deep.cancelledEntries(), deep.heapEntries() / 2 + 1);
    EXPECT_EQ(deep.run(), kPile);
    EXPECT_EQ(pileFired, static_cast<int>(kPile));
    EXPECT_EQ(deep.heapEntries(), 0u);
}

TEST(EventQueue, WorkCountersArePinnedOnAFixedSchedule)
{
    // The counters are exact functions of the schedule, so a fixed
    // one pins every field. Phase 1 — one bucket holding a dispatcher
    // chain (priority 0) ahead of 100 completions (priority 10) and
    // 3 tails (priority 20): every successor lands 103 entries deep,
    // past kMaxShift, so it goes to the late heap; every per-step
    // completion (priority 15) lands 3 deep, in place. The window is
    // 104 one-tick buckets, so phase 2's tick-100 pair stays in it.
    EventQueue q;
    std::vector<int> order; // 0 dispatch, 1 completion, 2 tail, 3 step
    std::function<void(int)> dispatch = [&](int k) {
        order.push_back(0);
        q.schedule(q.now(), [&order] { order.push_back(3); }, 15);
        if (k < 9)
            q.schedule(q.now(), [&dispatch, k] { dispatch(k + 1); });
        else // phase 2: two entries too wide apart for counting sort
            for (int p : {30000, 0})
                q.schedule(100, [&order] { order.push_back(4); }, p);
    };
    q.schedule(0, [&dispatch] { dispatch(0); });
    for (int i = 0; i < 100; ++i)
        q.schedule(0, [&order] { order.push_back(1); }, 10);
    for (int i = 0; i < 3; ++i)
        q.schedule(0, [&order] { order.push_back(2); }, 20);
    EXPECT_EQ(q.run(), 125u);
    std::vector<int> want(10, 0);
    want.insert(want.end(), 100, 1);
    want.insert(want.end(), 10, 3);
    want.insert(want.end(), 3, 2);
    want.insert(want.end(), 2, 4);
    EXPECT_EQ(order, want);

    // Phase 3: cancelling 51 of 100 pending entries compacts once;
    // tick 1000 lies past the window, so draining them re-anchors.
    std::vector<EventId> ids;
    for (int i = 0; i < 100; ++i)
        ids.push_back(q.schedule(1000, [] {}));
    for (int i = 0; i < 51; ++i)
        ASSERT_TRUE(q.cancel(ids[static_cast<std::size_t>(i)]));
    EXPECT_EQ(q.run(), 49u);

    const EventQueue::Counters &c = q.counters();
    EXPECT_EQ(c.inPlaceInserts, 10u);
    EXPECT_EQ(c.shiftedEntries, 30u);
    EXPECT_EQ(c.latePushes, 9u);
    EXPECT_EQ(c.lateHighWater, 1u);
    EXPECT_EQ(c.reAnchors, 2u);     // phases 1 and 3
    EXPECT_EQ(c.countingSorts, 2u); // phases 1 and 3
    EXPECT_EQ(c.comparisonSorts, 1u);
    EXPECT_EQ(c.compactions, 1u);
}

TEST(EventQueue, StaleIdCannotCancelReusedSlot)
{
    // Firing or cancelling releases an event's slab slot for reuse;
    // the generation stamp in the id must keep stale handles from
    // cancelling the slot's next occupant.
    EventQueue q;
    int fired = 0;
    const EventId a = q.schedule(10, [&] { ++fired; });
    ASSERT_TRUE(q.cancel(a));
    const EventId b = q.schedule(20, [&] { ++fired; });
    EXPECT_NE(a, b);
    EXPECT_FALSE(q.cancel(a)); // stale handle, reused slot
    q.run();
    EXPECT_EQ(fired, 1);
    // After b fired, its id is stale too.
    EXPECT_FALSE(q.cancel(b));
    const EventId c = q.scheduleAfter(5, [&] { ++fired; });
    EXPECT_FALSE(q.cancel(b));
    ASSERT_TRUE(q.cancel(c));
    EXPECT_TRUE(q.empty());
}

TEST(EventQueue, EmptyCallbackIsCancellableAndFiresAsNoOp)
{
    EventQueue q;
    const EventId a = q.schedule(5, EventQueue::Callback{});
    EXPECT_TRUE(q.cancel(a));
    q.schedule(6, EventQueue::Callback{});
    EXPECT_EQ(q.run(), 1u);
    EXPECT_EQ(q.eventsFired(), 1u);
    EXPECT_TRUE(q.empty());
}

TEST(EventQueue, PendingConservationHoldsAcrossTierTransitions)
{
    // pending() must equal the recount of generation-matching
    // entries across the calendar and overflow tiers at every point
    // of a workload that forces tier transitions: near-future
    // appends, far-future overflow, re-anchoring, lazy sorts,
    // cancellation, and compaction.
    EventQueue q;
    ASSERT_TRUE(q.auditPendingConservation()); // empty queue
    std::deque<EventId> window;
    std::uint64_t fired = 0;
    for (std::uint64_t i = 0; i < 3'000; ++i) {
        // Spread: same-tick, near-future, and far-future entries.
        const Tick when = (i % 3 == 0) ? q.now()
            : (i % 3 == 1)             ? q.now() + (i * 7919) % 4096
                                       : q.now() + 1'000'000 + i;
        window.push_back(
            q.schedule(when, [&fired] { ++fired; },
                       static_cast<int>(i & 3)));
        if (window.size() > 64) {
            q.cancel(window.front());
            window.pop_front();
        }
        if (i % 7 == 0)
            q.runOne();
        if (i % 256 == 0)
            ASSERT_TRUE(q.auditPendingConservation()) << "i=" << i;
    }
    ASSERT_TRUE(q.auditPendingConservation());
    q.run();
    EXPECT_TRUE(q.empty());
    ASSERT_TRUE(q.auditPendingConservation()); // drained queue
}

TEST(FlatLru, RecencyOrderAndEviction)
{
    FlatLru lru;
    lru.reset(8);
    EXPECT_FALSE(lru.touch(3)); // miss inserts
    EXPECT_FALSE(lru.touch(5));
    EXPECT_TRUE(lru.touch(3)); // hit moves to front
    EXPECT_EQ(lru.size(), 2u);
    EXPECT_EQ(lru.keyOf(lru.head()), 3u);
    EXPECT_EQ(lru.keyOf(lru.tail()), 5u);
    EXPECT_EQ(lru.popTail(), 5u);
    EXPECT_EQ(lru.size(), 1u);
    lru.eraseKey(3);
    EXPECT_TRUE(lru.empty());
    // Freed nodes are recycled; keys beyond the index grow it.
    EXPECT_FALSE(lru.touch(7));
    EXPECT_FALSE(lru.touch(100));
    EXPECT_TRUE(lru.touch(100));
    EXPECT_EQ(lru.keyOf(lru.tail()), 7u);
}

TEST(EventQueue, LargeCaptureCallbackTakesHeapPath)
{
    // Captures beyond SmallFn's inline buffer (48 bytes) fall back
    // to the heap; the event must still fire, cancel, and destroy
    // cleanly (ASan covers the cleanup).
    EventQueue q;
    struct Big
    {
        std::uint64_t pad[12]; // 96 bytes > kInlineBytes
    };
    static_assert(sizeof(Big) > SmallFn::kInlineBytes);
    Big big{};
    big.pad[11] = 7;
    std::uint64_t seen = 0;
    q.schedule(1, [big, &seen] { seen = big.pad[11]; });
    const EventId cancelled = q.schedule(2, [big, &seen] { seen = 0; });
    EXPECT_TRUE(q.cancel(cancelled));
    q.run();
    EXPECT_EQ(seen, 7u);
}

TEST(RankLru, GrowsWindowWhenLiveSetExceedsCapacityHint)
{
    // A caller whose live set outgrows 4x the capacity hint must get
    // a widened timestamp window, not an overflow: touch far more
    // distinct keys than the hinted capacity and verify order.
    RankLru lru;
    lru.reset(128, 1); // window starts at max(64, 4) = 64
    for (std::uint64_t k = 0; k < 100; ++k)
        EXPECT_FALSE(lru.touch(k));
    EXPECT_EQ(lru.size(), 100u);
    EXPECT_EQ(lru.keyAtRankFromTail(0), 0u);  // least recent
    EXPECT_EQ(lru.keyAtRankFromTail(99), 99u); // most recent
    EXPECT_TRUE(lru.touch(0)); // 0 moves to the front...
    EXPECT_EQ(lru.keyAtRankFromTail(0), 1u); // ...1 is now LRU
    EXPECT_EQ(lru.keyAtRankFromTail(99), 0u);
}

TEST(RankLru, EraseAbsentKeyIsNoOp)
{
    RankLru lru;
    lru.reset(16, 4);
    lru.eraseKey(3); // never inserted
    EXPECT_TRUE(lru.empty());
    EXPECT_FALSE(lru.touch(3));
    lru.eraseKey(3);
    lru.eraseKey(3); // double erase
    EXPECT_TRUE(lru.empty());
    EXPECT_FALSE(lru.contains(3));
    EXPECT_FALSE(lru.touch(3)); // reinsert after erase is a miss
    EXPECT_EQ(lru.size(), 1u);
}

TEST(RankLru, MatchesReferenceListWalk)
{
    // RankLru must reproduce a move-to-front list byte for byte: the
    // same hit/miss sequence and, for every eviction, the same
    // victim a skip-step walk from the tail would reach. Drive both
    // against a random touch stream and compare every decision.
    constexpr std::uint64_t kKeys = 96;
    constexpr std::uint64_t kCapacity = 24;
    std::list<std::uint64_t> ref; // front = most recent
    RankLru lru;
    lru.reset(kKeys, kCapacity);
    Rng touches(11), skips(12);

    for (int step = 0; step < 20000; ++step) {
        const std::uint64_t key = touches.below(kKeys);
        const auto it = std::find(ref.begin(), ref.end(), key);
        const bool ref_hit = it != ref.end();
        if (ref_hit)
            ref.erase(it);
        ref.push_front(key);
        ASSERT_EQ(lru.touch(key), ref_hit) << "step " << step;
        ASSERT_EQ(lru.size(), ref.size());
        if (ref.size() > kCapacity) {
            const std::uint64_t skip =
                skips.below(std::max<std::uint64_t>(1, ref.size() / 2));
            auto vit = std::prev(ref.end());
            for (std::uint64_t i = 0;
                 i < skip && vit != ref.begin(); ++i)
                --vit;
            const std::uint64_t rank = std::min<std::uint64_t>(
                skip, lru.size() - 1);
            ASSERT_EQ(lru.keyAtRankFromTail(rank), *vit)
                << "step " << step;
            lru.eraseKey(*vit);
            ref.erase(vit);
        }
    }
}

TEST(Server, FcfsQueueing)
{
    Server s("t");
    auto a = s.acquire(0, 10);
    EXPECT_EQ(a.start, 0u);
    EXPECT_EQ(a.end, 10u);
    // Second request queues behind the first.
    auto b = s.acquire(0, 5);
    EXPECT_EQ(b.start, 10u);
    EXPECT_EQ(b.end, 15u);
    EXPECT_EQ(b.queueDelay(0), 10u);
    // A request in the future starts on time.
    auto c = s.acquire(100, 5);
    EXPECT_EQ(c.start, 100u);
    EXPECT_EQ(s.backlog(50), 55u);
    EXPECT_EQ(s.busyTime(), 20u);
}

TEST(ServerGroup, LeastLoadedDispatch)
{
    ServerGroup g("g", 2);
    auto a = g.acquire(0, 10);
    auto b = g.acquire(0, 10);
    // Both units busy until 10; third request queues on one.
    auto c = g.acquire(0, 10);
    EXPECT_EQ(a.start, 0u);
    EXPECT_EQ(b.start, 0u);
    EXPECT_EQ(c.start, 10u);
    EXPECT_EQ(g.busyTime(), 30u);
}

TEST(Histogram, ExactPercentiles)
{
    Histogram h;
    for (int i = 1; i <= 100; ++i)
        h.add(i);
    EXPECT_DOUBLE_EQ(h.percentile(50), 50.0);
    EXPECT_DOUBLE_EQ(h.percentile(99), 99.0);
    EXPECT_DOUBLE_EQ(h.percentile(100), 100.0);
    EXPECT_DOUBLE_EQ(h.percentile(0), 1.0);
    EXPECT_DOUBLE_EQ(h.mean(), 50.5);
    EXPECT_DOUBLE_EQ(h.min(), 1.0);
    EXPECT_DOUBLE_EQ(h.max(), 100.0);
}

TEST(Histogram, TailPercentileOfSkewedData)
{
    Histogram h;
    for (int i = 0; i < 9999; ++i)
        h.add(1.0);
    h.add(1000.0);
    EXPECT_DOUBLE_EQ(h.percentile(99), 1.0);
    EXPECT_DOUBLE_EQ(h.percentile(99.995), 1000.0);
}

TEST(Histogram, PercentileCacheTracksInterleavedMutations)
{
    // Every mutation path (add, merge, clear) must show in a later
    // percentile read: no order may outlive the samples it was
    // computed from.
    Histogram h;
    h.add(10.0);
    h.add(20.0);
    EXPECT_DOUBLE_EQ(h.percentile(100), 20.0); // populates cache
    h.add(5.0); // add after a percentile read
    EXPECT_DOUBLE_EQ(h.percentile(0), 5.0);
    EXPECT_DOUBLE_EQ(h.percentile(100), 20.0);

    Histogram other;
    other.add(40.0);
    other.add(1.0);
    h.merge(other); // merge after a percentile read
    EXPECT_DOUBLE_EQ(h.percentile(100), 40.0);
    EXPECT_DOUBLE_EQ(h.percentile(0), 1.0);
    EXPECT_EQ(h.count(), 5u);
    EXPECT_DOUBLE_EQ(h.sum(), 76.0);
    EXPECT_DOUBLE_EQ(h.min(), 1.0);
    EXPECT_DOUBLE_EQ(h.max(), 40.0);

    h.clear(); // clear after a percentile read
    EXPECT_DOUBLE_EQ(h.percentile(50), 0.0);
    EXPECT_DOUBLE_EQ(h.sum(), 0.0);
    EXPECT_DOUBLE_EQ(h.min(), 0.0);
    EXPECT_DOUBLE_EQ(h.max(), 0.0);
    h.add(7.0); // reuse after clear
    EXPECT_DOUBLE_EQ(h.percentile(50), 7.0);
    EXPECT_DOUBLE_EQ(h.mean(), 7.0);
}

TEST(Histogram, RunningAggregatesMatchSampleScan)
{
    // The running sum/min/max must equal what a full re-scan of the
    // samples would produce, through any add/merge interleaving.
    Rng rng(77);
    Histogram h;
    std::vector<double> all;
    for (int round = 0; round < 4; ++round) {
        for (int i = 0; i < 100; ++i) {
            const double v = rng.uniform() * 1e3 - 500.0;
            h.add(v);
            all.push_back(v);
        }
        Histogram part;
        for (int i = 0; i < 50; ++i) {
            const double v = rng.uniform() * 10.0;
            part.add(v);
            all.push_back(v);
        }
        h.merge(part);
    }
    double sum = 0.0;
    for (double v : all)
        sum += v;
    EXPECT_DOUBLE_EQ(h.sum(), sum);
    EXPECT_DOUBLE_EQ(h.min(), *std::min_element(all.begin(), all.end()));
    EXPECT_DOUBLE_EQ(h.max(), *std::max_element(all.begin(), all.end()));
    EXPECT_EQ(h.count(), all.size());
}

TEST(Histogram, MergeIntoEmptySetsExtrema)
{
    Histogram h, other;
    other.add(-3.0);
    other.add(9.0);
    h.merge(other);
    EXPECT_DOUBLE_EQ(h.min(), -3.0);
    EXPECT_DOUBLE_EQ(h.max(), 9.0);
    EXPECT_DOUBLE_EQ(h.sum(), 6.0);
}

TEST(Rng, DeterministicAcrossInstances)
{
    Rng a(123), b(123);
    for (int i = 0; i < 100; ++i)
        EXPECT_EQ(a.next(), b.next());
}

TEST(Rng, BelowStaysInRange)
{
    Rng r(7);
    for (int i = 0; i < 1000; ++i)
        EXPECT_LT(r.below(17), 17u);
}

TEST(Rng, UniformInUnitInterval)
{
    Rng r(9);
    double sum = 0.0;
    for (int i = 0; i < 10000; ++i) {
        const double u = r.uniform();
        ASSERT_GE(u, 0.0);
        ASSERT_LT(u, 1.0);
        sum += u;
    }
    EXPECT_NEAR(sum / 10000.0, 0.5, 0.02);
}

TEST(NearestRank, MatchesSortedReferenceWithDuplicates)
{
    // Runs of equal values straddle the rank boundaries; the sorted
    // reference indexes rank ceil(p/100 * N), clamped to [1, N].
    Rng rng(5);
    std::vector<double> xs;
    for (int i = 0; i < 997; ++i)
        xs.push_back(static_cast<double>(rng.below(200)) * 0.5);
    std::vector<double> sorted = xs;
    std::sort(sorted.begin(), sorted.end());
    ASSERT_NE(std::adjacent_find(sorted.begin(), sorted.end()),
              sorted.end()); // the sample does hold duplicates
    Histogram h;
    for (double x : xs)
        h.add(x);
    const auto n = static_cast<double>(sorted.size());
    for (double p : {0.0, 0.01, 50.0, 99.0, 99.99, 100.0}) {
        const auto rank = static_cast<std::size_t>(
            std::clamp(std::ceil(p / 100.0 * n), 1.0, n));
        EXPECT_EQ(nearestRankOf(xs, p), sorted[rank - 1]) << "p=" << p;
        EXPECT_EQ(h.percentile(p), sorted[rank - 1]) << "p=" << p;
    }
    EXPECT_EQ(nearestRankOf({}, 50.0), 0.0);
    EXPECT_EQ(nearestRankOf({4.0, 4.0, 1.0}, 50.0), 4.0);
}

TEST(StatSet, CopyAssignmentKeepsHandlesValid)
{
    // A component resolves its handles on the live set, which is
    // later restored by assigning an image taken from a set that
    // registered the same names first.
    StatSet live;
    const StatSet::Handle reads(&live, "nand.reads");
    const StatSet::Handle bytes(&live, "dram.bytes");
    StatSet image = live;
    image.counter("nand.reads").inc(5);
    image.counter("dram.bytes").inc(4096);
    image.counter("engine.drained_pages").inc(2); // registered later
    reads.inc(100); // live diverges before the restore
    ASSERT_TRUE(image.extends(live));

    live = image;
    reads.inc();
    bytes.inc(10);
    EXPECT_EQ(live.counter("nand.reads").value(), 6u);
    EXPECT_EQ(live.counter("dram.bytes").value(), 4106u);
    EXPECT_EQ(live.counter("engine.drained_pages").value(), 2u);
    EXPECT_EQ(image.counter("nand.reads").value(), 5u); // a copy

    std::vector<std::string> names;
    for (const auto &kv : live.counters())
        names.push_back(kv.first);
    EXPECT_EQ(names, (std::vector<std::string>{
                         "dram.bytes", "engine.drained_pages",
                         "nand.reads"}));

    // Registration order decides the slots: a set that registered
    // the same names the other way round cannot restore `live`.
    StatSet swapped;
    swapped.counter("dram.bytes");
    swapped.counter("nand.reads");
    EXPECT_FALSE(swapped.extends(live));

    StatSet::Handle none; // no set: counts nothing, needs no guard
    none.inc();
}

TEST(StatSet, CountersAndDump)
{
    StatSet s;
    s.counter("a.b").inc();
    s.counter("a.b").inc(4);
    EXPECT_EQ(s.counter("a.b").value(), 5u);
    const std::string d = s.dump();
    EXPECT_NE(d.find("a.b 5"), std::string::npos);
}

} // namespace
} // namespace conduit
