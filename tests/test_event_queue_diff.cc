/**
 * @file
 * Differential test: the calendar/ladder EventQueue against the
 * pre-calendar binary-heap kernel, kept here as ReferenceEventQueue.
 * Randomized workloads — schedule, same-tick self-scheduling,
 * far-future bursts, pre-populated open-loop arrivals, deep inserts
 * in front of completion piles — must produce identical
 * (tick, priority, seq) fire orders and identical pending()
 * trajectories, and the calendar queue must hold its tier-structure
 * audit throughout.
 */

#include <algorithm>
#include <cstdint>
#include <functional>
#include <stdexcept>
#include <vector>

#include <gtest/gtest.h>

#include "src/sim/event_queue.hh"
#include "src/sim/types.hh"

namespace conduit
{
namespace
{

/**
 * The binary-heap event kernel the calendar queue replaced, kept as
 * the ordering oracle. Same contract: (tick, priority, seq) fire
 * order, one heap entry per pending event.
 */
class ReferenceEventQueue
{
  public:
    using Callback = std::function<void()>;

    void
    schedule(Tick when, Callback cb, int priority = 0)
    {
        if (when < now_)
            throw std::logic_error(
                "ReferenceEventQueue: scheduling event in the past");
        heap_.push_back(Entry{when, nextSeq_++, std::move(cb), priority});
        std::push_heap(heap_.begin(), heap_.end(), Later{});
    }

    void
    scheduleAfter(Tick delay, Callback cb, int priority = 0)
    {
        schedule(now_ + delay, std::move(cb), priority);
    }

    bool
    runOne()
    {
        if (heap_.empty())
            return false;
        std::pop_heap(heap_.begin(), heap_.end(), Later{});
        Entry e = std::move(heap_.back());
        heap_.pop_back();
        now_ = e.when;
        ++fired_;
        if (e.cb)
            e.cb();
        return true;
    }

    std::uint64_t
    run(Tick until = kMaxTick)
    {
        std::uint64_t n = 0;
        while (!heap_.empty() && heap_.front().when <= until) {
            runOne();
            ++n;
        }
        return n;
    }

    Tick now() const { return now_; }
    std::size_t pending() const { return heap_.size(); }
    bool empty() const { return heap_.empty(); }
    std::uint64_t eventsFired() const { return fired_; }

  private:
    struct Entry
    {
        Tick when;
        std::uint64_t seq;
        Callback cb;
        int priority;
    };

    struct Later
    {
        bool
        operator()(const Entry &a, const Entry &b) const
        {
            if (a.when != b.when)
                return a.when > b.when;
            if (a.priority != b.priority)
                return a.priority > b.priority;
            return a.seq > b.seq;
        }
    };

    std::vector<Entry> heap_;
    Tick now_ = 0;
    std::uint64_t nextSeq_ = 1;
    std::uint64_t fired_ = 0;
};

/** xorshift64* — deterministic workload generator. */
struct Rng
{
    std::uint64_t s;
    explicit Rng(std::uint64_t seed) : s(seed * 2685821657736338717ull | 1) {}
    std::uint64_t
    next()
    {
        s ^= s >> 12;
        s ^= s << 25;
        s ^= s >> 27;
        return s * 2685821657736338717ull;
    }
    std::uint64_t below(std::uint64_t n) { return next() % n; }
};

/** Check the tier-structure audit — only the calendar queue has it;
 *  the reference is the oracle, not the subject. */
void audit(EventQueue &q) { ASSERT_TRUE(q.auditPendingConservation()); }
void audit(ReferenceEventQueue &) {}

/**
 * One deterministic workload applied to either kernel. Everything a
 * callback does is derived from its label, so as long as fire order
 * matches, both runs make identical decisions. Returns the full
 * observable trace: fire log and pending trajectory. A far-heavy
 * workload sends a fifth of its schedules far past the calendar
 * window, so the overflow tier and re-anchoring carry much of it.
 */
template <typename Q>
std::vector<std::uint64_t>
runWorkload(std::uint64_t seed, std::size_t ops, bool farHeavy,
            bool sameTickHeavy)
{
    Q q;
    Rng rng(seed);
    std::vector<std::uint64_t> trace;
    std::uint64_t nextLabel = 1;

    // Fired callbacks append to the trace and may self-schedule
    // children (possibly same-tick) whose shape depends only on the
    // parent label.
    std::function<void(std::uint64_t)> onFire = [&](std::uint64_t label) {
        trace.push_back(label);
        trace.push_back(q.now());
        if (label % 5 == 0) { // spawner: 1-2 children
            const int kids = 1 + static_cast<int>(label % 2);
            for (int c = 0; c < kids; ++c) {
                const Tick delta = sameTickHeavy
                    ? (label + c) % 2       // mostly same-tick
                    : (label * 31 + c) % 977;
                const int prio =
                    static_cast<int>((label + c) % 5) - 2;
                const std::uint64_t kid = nextLabel++;
                q.scheduleAfter(
                    delta, [&onFire, kid] { onFire(kid); }, prio);
            }
        }
    };

    for (std::size_t op = 0; op < ops; ++op) {
        const std::uint64_t roll = rng.below(100);
        if (roll < 50) {
            Tick delta;
            if (sameTickHeavy && roll < 25)
                delta = 0;
            else if (farHeavy && roll < 10)
                delta = (Tick{1} << 20) + rng.below(Tick{1} << 24);
            else
                delta = rng.below(1 << (1 + rng.below(14)));
            const int prio = static_cast<int>(rng.below(5)) - 2;
            const std::uint64_t label = nextLabel++;
            q.schedule(q.now() + delta,
                       [&onFire, label] { onFire(label); }, prio);
        } else if (roll < 90) {
            const std::uint64_t burst = 1 + rng.below(8);
            for (std::uint64_t i = 0; i < burst; ++i)
                if (!q.runOne())
                    break;
            trace.push_back(q.now());
        } else {
            trace.push_back(q.run(q.now() + rng.below(4096)));
        }
        trace.push_back(q.pending());
        if (op % 64 == 0)
            audit(q);
    }
    trace.push_back(q.run());
    trace.push_back(q.now());
    trace.push_back(q.eventsFired());
    EXPECT_TRUE(q.empty());
    audit(q);
    return trace;
}

TEST(EventQueueDifferential, RandomizedMatchesReference)
{
    for (std::uint64_t seed = 1; seed <= 12; ++seed) {
        const auto cal = runWorkload<EventQueue>(seed, 1500, false, false);
        const auto ref =
            runWorkload<ReferenceEventQueue>(seed, 1500, false, false);
        ASSERT_EQ(cal, ref) << "seed " << seed;
    }
}

TEST(EventQueueDifferential, SameTickSelfSchedulingMatches)
{
    for (std::uint64_t seed = 100; seed <= 108; ++seed) {
        const auto cal = runWorkload<EventQueue>(seed, 1200, false, true);
        const auto ref =
            runWorkload<ReferenceEventQueue>(seed, 1200, false, true);
        ASSERT_EQ(cal, ref) << "seed " << seed;
    }
}

TEST(EventQueueDifferential, FarFutureHeavyMatches)
{
    for (std::uint64_t seed = 200; seed <= 208; ++seed) {
        const auto cal = runWorkload<EventQueue>(seed, 1500, true, false);
        const auto ref =
            runWorkload<ReferenceEventQueue>(seed, 1500, true, false);
        ASSERT_EQ(cal, ref) << "seed " << seed;
    }
}

/** The open-loop Device shape: every arrival is scheduled up front;
 *  each fires a same-tick dispatch step, which schedules the job's
 *  completion. */
TEST(EventQueueDifferential, PrePopulatedArrivalWindowMatches)
{
    const auto drive = [](auto &q) {
        std::vector<std::uint64_t> trace;
        for (std::uint64_t i = 0; i < 30'000; ++i) {
            q.schedule(
                (i * 7919) % 30'000,
                [&q, &trace, i] {
                    trace.push_back(i * 3);
                    q.scheduleAfter(0, [&q, &trace, i] {
                        trace.push_back(i * 3 + 1);
                        q.scheduleAfter(50, [&trace, i] {
                            trace.push_back(i * 3 + 2);
                        });
                    });
                },
                static_cast<int>(i & 3));
        }
        trace.push_back(q.run());
        trace.push_back(q.now());
        return trace;
    };
    EventQueue cal;
    ReferenceEventQueue ref;
    const auto a = drive(cal);
    const auto b = drive(ref);
    EXPECT_TRUE(cal.auditPendingConservation());
    EXPECT_EQ(a.size(), 90'002u);
    ASSERT_EQ(a, b);
}

/** Hand back the calendar queue's work counters; the reference,
 *  which has none, leaves @p out alone. */
void
keepCounters(const EventQueue &q, EventQueue::Counters *out)
{
    if (out)
        *out = q.counters();
}
void keepCounters(const ReferenceEventQueue &, EventQueue::Counters *) {}

/**
 * Overload shape: piles of completions sit in the active bucket and
 * dispatch chains schedule in front of them, so successors land deep
 * in the undrained tail (the calendar queue's late heap) or, once a
 * pile has mostly drained, near its end (in place). Chains and piles
 * share ticks and priorities, so heap and tail entries tie on
 * (tick, priority) and only seq orders them. A burst dispatcher
 * pushes kBurst entries in front of its pile at (now + 1,
 * priority -2). The outer loop then stops run(until) at the burst
 * tick, so the front it stops on is a burst entry, which sits in the
 * late heap whenever the burst went deep. Every callback audits the
 * tier structure mid-drain. Comparing the two sides of the merge by
 * tick alone fails this case.
 */
template <typename Q>
std::vector<std::uint64_t>
runDeepInserts(std::uint64_t seed, EventQueue::Counters *counters = nullptr)
{
    constexpr std::size_t kBurst = 600;
    Q q;
    Rng rng(seed);
    std::vector<std::uint64_t> trace;
    std::uint64_t nextLabel = 1;
    Tick burstTick = kMaxTick;
    std::function<void(std::uint64_t, int)> onFire;
    const auto add = [&](Tick when, int prio, int budget) {
        const std::uint64_t label = nextLabel++;
        q.schedule(
            when, [&onFire, label, budget] { onFire(label, budget); },
            prio);
    };
    const auto prio = [&rng] { return static_cast<int>(rng.below(3)) - 1; };

    // budget > 0: a dispatcher with that many successors left.
    onFire = [&](std::uint64_t label, int budget) {
        trace.push_back(label);
        trace.push_back(q.now());
        trace.push_back(q.pending());
        audit(q);
        if (budget <= 0)
            return;
        add(q.now() + rng.below(2), prio(), budget - 1);
        add(q.now() + 2 + rng.below(6), prio(), 0);
        if (budget % 7 == 3 && burstTick == kMaxTick) {
            for (std::size_t i = 0; i < kBurst; ++i)
                add(q.now() + 1, -2, 0);
            burstTick = q.now();
            audit(q);
        }
    };

    for (int round = 0; round < 6; ++round) {
        // A far sentinel widens the window's buckets past the pile's
        // span, so the whole pile shares the active bucket.
        const Tick base = q.now() + 1;
        add(base + (Tick{1} << 20), 0, 0);
        const std::size_t pile = 150 + rng.below(150);
        for (std::size_t i = 0; i < pile; ++i)
            add(base + rng.below(8), prio(), 0);
        for (int c = 0; c < 4; ++c)
            add(base + rng.below(2), prio(), 20 + static_cast<int>(c));
        while (!q.empty()) {
            if (burstTick != kMaxTick) {
                trace.push_back(q.run(burstTick));
                trace.push_back(q.now());
                burstTick = kMaxTick;
            } else if (rng.below(2) == 0) {
                const std::uint64_t burst = 1 + rng.below(16);
                for (std::uint64_t i = 0; i < burst; ++i)
                    if (!q.runOne())
                        break;
            } else {
                trace.push_back(q.run(q.now() + rng.below(3)));
            }
            trace.push_back(q.pending());
            audit(q);
        }
    }
    trace.push_back(q.now());
    trace.push_back(q.eventsFired());
    keepCounters(q, counters);
    return trace;
}

TEST(EventQueueDifferential, DeepInsertsMergeExactly)
{
    for (std::uint64_t seed = 300; seed <= 305; ++seed) {
        EventQueue::Counters c;
        const auto cal = runDeepInserts<EventQueue>(seed, &c);
        const auto ref = runDeepInserts<ReferenceEventQueue>(seed);
        ASSERT_EQ(cal, ref) << "seed " << seed;
        // The shape reaches both insert paths.
        EXPECT_GT(c.inPlaceInserts, 0u) << "seed " << seed;
        EXPECT_GT(c.shiftedEntries, 0u) << "seed " << seed;
        EXPECT_GE(c.latePushes, 600u) << "seed " << seed;
    }
}

/** Re-running a seed must reproduce the identical trace (the bench
 *  digests rely on the kernel being repeat-invariant). */
TEST(EventQueueDifferential, RepeatInvariant)
{
    const auto a = runWorkload<EventQueue>(42, 1500, true, true);
    const auto b = runWorkload<EventQueue>(42, 1500, true, true);
    ASSERT_EQ(a, b);
}

} // namespace
} // namespace conduit
