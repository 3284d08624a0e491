/**
 * @file
 * Discrete-event simulation kernel.
 *
 * The queue orders events by (tick, priority, sequence). Sequence
 * numbers make execution deterministic: two events scheduled for the
 * same tick and priority always fire in scheduling order, so repeated
 * runs of the same workload produce bit-identical results.
 *
 * Storage layout (the wall-clock hot path):
 *
 * - Callbacks live in a free-listed slab of slots that never
 *   relocate. Firing releases the slot for immediate reuse. An event
 *   cannot be taken back once scheduled: the simulator reserves every
 *   resource at dispatch time, so no component needs to.
 * - Ordering records are small POD entries (no callback) in a
 *   two-tier calendar/ladder structure:
 *
 *     * The near-future tier is a bucketed calendar: a window of
 *       fixed-width tick ranges, one append-only vector per bucket.
 *       Scheduling into the window is an O(1) append; a bucket is
 *       sorted by (tick, priority, seq) once, lazily, when the drain
 *       front first reaches it, so a fan of N pre-populated events
 *       costs one scatter pass plus small per-bucket sorts instead
 *       of N O(log n) heap sifts over the full resident set.
 *     * Events beyond the window land in an unsorted far-future
 *       overflow tier (O(1) append, min/max tracked). When the
 *       calendar drains, the overflow is re-anchored: a new window
 *       is sized to the overflow's tick span and the entries are
 *       scattered into it in one pass, ladder-style. Every entry
 *       therefore moves at most twice (append, scatter) before the
 *       one sort that orders it.
 *
 *   The window adapts: re-anchoring a lone entry doubles the bucket
 *   width, so sparse self-scheduling chains settle into a window
 *   wide enough that successors schedule straight into the active
 *   bucket and re-anchoring stops.
 * - The active bucket is a merge of two sides, both ordered by the
 *   full (tick, priority, seq) key, with every entry in exactly one:
 *
 *     * its sorted vector, drained front to back. A successor that
 *       lands at most kMaxShift entries from the end of the
 *       undrained tail is inserted in place (the chain-shaped common
 *       case: a short shift, no extra structure).
 *     * a min-heap of "late" entries. A successor that would land
 *       deeper — a dispatch scheduled in front of a pile of
 *       completions under overload — is pushed here instead of
 *       shifting the whole tail.
 *
 *   The drain front is the earlier of the two heads, so the merge
 *   fires exactly the sequence one sorted bucket would. The heap is
 *   empty whenever the front leaves a bucket, so it never outlives
 *   the active bucket or meets a re-anchor.
 * - Every resident entry is pending, so pending() is the resident
 *   count of the two tiers.
 */

#ifndef CONDUIT_SIM_EVENT_QUEUE_HH
#define CONDUIT_SIM_EVENT_QUEUE_HH

#include <cstdint>
#include <memory>
#include <stdexcept>
#include <vector>

#include "src/sim/small_fn.hh"
#include "src/sim/types.hh"

namespace conduit
{

/**
 * A deterministic discrete-event queue.
 *
 * Callbacks may schedule further events (including for the current
 * tick). Scheduling in the past is a programming error and throws.
 */
class EventQueue
{
  public:
    using Callback = SmallFn;

    EventQueue();
    /** Returns slab chunks and entry buffers to a thread-local pool
     *  so the next queue on this thread skips the page-fault cost of
     *  faulting in fresh memory (open-loop runs construct one queue
     *  per cell). */
    ~EventQueue();
    EventQueue(const EventQueue &) = delete;
    EventQueue &operator=(const EventQueue &) = delete;

    /**
     * Schedule @p cb to run at absolute time @p when.
     *
     * @param when Absolute tick; must be >= now().
     * @param cb Callback invoked when the event fires.
     * @param priority Lower values fire first within the same tick.
     */
    void schedule(Tick when, Callback cb, int priority = 0);

    /** Schedule @p cb to run @p delay ticks from now. */
    void
    scheduleAfter(Tick delay, Callback cb, int priority = 0)
    {
        schedule(now_ + delay, std::move(cb), priority);
    }

    /**
     * Fire the earliest pending event.
     * @retval true if an event fired, false if the queue was empty.
     */
    bool runOne();

    /**
     * Run events until the queue drains or simulated time would
     * exceed @p until.
     * @return Number of events fired.
     */
    std::uint64_t run(Tick until = kMaxTick);

    /** Current simulated time. */
    Tick now() const { return now_; }

    /** Number of pending events: every resident entry of both tiers
     *  (the late heap counts in calEntries_). */
    std::size_t pending() const { return calEntries_ + overflow_.size(); }

    /** True if no events are pending. */
    bool empty() const { return pending() == 0; }

    /** Total events fired since construction. */
    std::uint64_t eventsFired() const { return fired_; }

    /**
     * Adopt a snapshot's clock on a fresh queue (DeviceImage
     * restore): sets now() and eventsFired() to the captured values
     * so a forked run's schedule() floors and fired counts continue
     * exactly where the captured run stood. Only valid on a queue
     * that has never scheduled or fired anything — a device image is
     * captured at quiescence, so the restored queue starts empty.
     * Sequence numbers deliberately restart: they only order events
     * that coexist, and no event survives the snapshot boundary.
     */
    void
    restore(Tick now, std::uint64_t fired)
    {
        if (!empty() || fired_ != 0 || nextSeq_ != 1)
            throw std::logic_error(
                "EventQueue::restore: queue is not fresh");
        now_ = now;
        fired_ = fired;
    }

    /** Slots ever allocated: bounds callback storage (memory-bound
     *  regression tests). */
    // lint: allow(test-only, audit hook: the kernel tests bound slab growth by peak pending())
    std::size_t slabSlots() const { return slotCount_; }

    /**
     * Deterministic work counters: exact functions of the schedule
     * (never of the host), so a perf gate can compare them for
     * equality where wall-clock figures need a noise margin.
     */
    struct Counters
    {
        /** Active-bucket inserts shifted in place, and the entries
         *  they shifted. */
        std::uint64_t inPlaceInserts = 0;
        std::uint64_t shiftedEntries = 0;
        /** Deep active-bucket inserts pushed onto the late heap, and
         *  the heap's peak size. */
        std::uint64_t latePushes = 0;
        std::uint64_t lateHighWater = 0;
        std::uint64_t reAnchors = 0;
        /** Buckets ordered by counting sort vs std::sort. */
        std::uint64_t countingSorts = 0;
        std::uint64_t comparisonSorts = 0;
    };
    const Counters &counters() const { return counters_; }

    /**
     * Audit the tier structure pending() is derived from: buckets the
     * drain front has passed are empty, the late heap holds entries
     * only while a sorted bucket is mid-drain, and calEntries_ equals
     * a recount of the calendar's undrained entries. O(buckets) —
     * meant for tests and debug builds, not the hot path.
     */
    // lint: allow(test-only, audit hook: the kernel tests check the tier structure at every step)
    bool auditPendingConservation() const;

  private:
    static constexpr std::uint32_t kNoSlot = ~std::uint32_t{0};
    /** Calendar windows use between kMinBuckets and kMaxBuckets. */
    static constexpr std::size_t kMinBuckets = 64;
    static constexpr std::size_t kMaxBuckets = 512;
    /** Drained-prefix trim threshold for the active bucket. */
    static constexpr std::size_t kTrimMinDrained = 64;
    /** Deepest in-place insert into the active bucket (2 KiB of
     *  entries); anything deeper goes to the late heap. */
    static constexpr std::size_t kMaxShift = 64;
    /** Slab chunk: 512 slots x 64 bytes — slots never relocate. */
    static constexpr std::size_t kChunkShift = 9;
    static constexpr std::size_t kChunkSize = std::size_t{1} << kChunkShift;
    static constexpr std::size_t kChunkMask = kChunkSize - 1;

    /** Slab slot: callback storage, free-listed between uses. */
    struct Slot
    {
        Callback cb;
        std::uint32_t nextFree = kNoSlot;
    };

    /** Ordering entry: POD record referencing a slab slot. */
    struct Entry
    {
        Tick when;
        std::uint64_t seq;
        std::uint32_t slot;
        int priority;
    };
    static_assert(sizeof(Entry) == 24);

    /** Strict (tick, priority, seq) fire order. */
    static bool
    earlier(const Entry &a, const Entry &b)
    {
        if (a.when != b.when)
            return a.when < b.when;
        if (a.priority != b.priority)
            return a.priority < b.priority;
        return a.seq < b.seq;
    }
    /** Heap order that puts the earliest entry at late_.front(). */
    struct Later
    {
        bool
        operator()(const Entry &a, const Entry &b) const
        {
            return earlier(b, a);
        }
    };

    /** Thread-local recycling pool shared by queues on one thread. */
    struct Recycler
    {
        std::vector<std::unique_ptr<Slot[]>> chunks;
        std::vector<std::vector<Entry>> vecs;
    };
    static Recycler &recycler();
    /** Pop a pooled entry buffer (empty, capacity retained). */
    static std::vector<Entry> takePooledVec();

    Slot &
    slotAt(std::uint32_t slot)
    {
        return chunks_[slot >> kChunkShift][slot & kChunkMask];
    }
    const Slot &
    slotAt(std::uint32_t slot) const
    {
        return chunks_[slot >> kChunkShift][slot & kChunkMask];
    }
    std::uint32_t acquireSlot(Callback &&cb);
    void releaseSlot(std::uint32_t slot);

    /** True while @p when can be filed into the current window. */
    bool
    inWindow(Tick when) const
    {
        return curBucket_ < bucketCount_ &&
            (openEnded_ || when < winEnd_);
    }
    /** Bucket holding @p when (clamped into the window). */
    std::size_t bucketIndex(Tick when) const;
    /** File @p e into the calendar (window membership pre-checked). */
    void insertCalendar(const Entry &e);
    /** Sort a bucket into (when, priority, seq) fire order. */
    void sortBucket(std::vector<Entry> &vec);
    /** Size a fresh window to the overflow span and scatter it. */
    void reAnchor();
    /**
     * Advance the drain front to the earliest pending entry:
     * re-anchor drained windows and lazily sort newly reached
     * buckets. False when no events are pending.
     */
    bool advanceToFront();
    /** True when the drain front is late_.front(), not the bucket's. */
    bool
    frontIsLate() const
    {
        if (late_.empty())
            return false;
        const std::vector<Entry> &vec = buckets_[curBucket_];
        return drainPos_ >= vec.size() ||
            earlier(late_.front(), vec[drainPos_]);
    }
    /** The entry at the drain front (advanceToFront() returned true). */
    const Entry &
    front() const
    {
        return frontIsLate() ? late_.front()
                             : buckets_[curBucket_][drainPos_];
    }
    /** Pop the entry at the drain front and invoke its callback. */
    void fireFront();

    // lint: transient-begin(restore() requires a freshly-constructed queue with zero pending/fired events, so every structural member below provably holds its constructed value; only now_ and the fired_ total carry across a snapshot)
    std::vector<std::unique_ptr<Slot[]>> chunks_;
    std::size_t slotCount_ = 0;
    std::uint32_t freeHead_ = kNoSlot;

    /** @name Near-future calendar tier @{ */
    std::vector<std::vector<Entry>> buckets_;
    std::size_t bucketCount_ = 0; // active buckets; 0 = no window yet
    Tick winStart_ = 0;
    Tick winEnd_ = 0;
    Tick lastWidth_ = 1;     // adaptive width memory across windows
    unsigned widthShift_ = 0; // widths are powers of two: index by shift
    bool openEnded_ = false; // window reaches kMaxTick
    std::size_t curBucket_ = 0;
    std::size_t drainPos_ = 0; // drained prefix of the active bucket
    bool curSorted_ = false;
    std::size_t calEntries_ = 0; // pending calendar entries, late heap included
    /** Deep inserts into the active bucket: a min-heap under Later,
     *  merged with the bucket's undrained tail at the drain front. */
    std::vector<Entry> late_;
    /** @} */

    /** @name Far-future overflow tier @{ */
    std::vector<Entry> overflow_; // unsorted, beyond the window
    Tick ovMin_ = kMaxTick;
    Tick ovMax_ = 0;
    /** @} */

    /** Reused scratch for sortBucket's counting passes. */
    std::vector<Entry> sortScratch_;
    std::vector<std::uint32_t> sortCounts_;

    Counters counters_;
    // lint: transient-end
    Tick now_ = 0;
    std::uint64_t nextSeq_ = 1;
    std::uint64_t fired_ = 0;
};

} // namespace conduit

#endif // CONDUIT_SIM_EVENT_QUEUE_HH
