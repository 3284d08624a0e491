#include "src/sim/event_queue.hh"

#include <algorithm>
#include <cassert>
#include <stdexcept>

namespace conduit
{

namespace
{

/** Firing a drained entry touches its (random) slab line; fetch it
 *  this many entries ahead of the drain front. */
constexpr std::size_t kPrefetchAhead = 8;

} // namespace

EventQueue::Recycler &
EventQueue::recycler()
{
    static thread_local Recycler r;
    return r;
}

std::vector<EventQueue::Entry>
EventQueue::takePooledVec()
{
    Recycler &r = recycler();
    if (r.vecs.empty())
        return {};
    std::vector<Entry> v = std::move(r.vecs.back());
    r.vecs.pop_back();
    v.clear();
    return v;
}

EventQueue::EventQueue() : overflow_(takePooledVec()) {}

EventQueue::~EventQueue()
{
    // Armed callbacks must still be destroyed (their captures own
    // resources); a drained queue has none, so the walk is skipped.
    if (!empty()) {
        for (auto &chunk : chunks_)
            for (std::size_t i = 0; i < kChunkSize; ++i)
                chunk[i].cb.reset();
    }
    Recycler &r = recycler();
    constexpr std::size_t kMaxPoolChunks = 4096; // 128 MiB of slots
    // Two queues' worth of buckets plus headroom, and late_.
    constexpr std::size_t kMaxPoolVecs = kMaxBuckets * 2 + 64 + 1;
    for (auto &chunk : chunks_) {
        if (r.chunks.size() >= kMaxPoolChunks)
            break;
        r.chunks.emplace_back(std::move(chunk));
    }
    const auto give = [&r](std::vector<Entry> &v) {
        if (v.capacity() != 0 && r.vecs.size() < kMaxPoolVecs) {
            v.clear();
            r.vecs.emplace_back(std::move(v));
        }
    };
    // Pooled in the reverse of the order the next queue usually takes
    // them: its ctor pops overflow_, its first counting sort
    // sortScratch_, and its first deep insert, which needs a sorted
    // bucket, late_.
    for (auto &v : buckets_)
        give(v);
    give(late_);
    give(sortScratch_);
    give(overflow_); // biggest buffer last: the next ctor pops it first
}

std::uint32_t
EventQueue::acquireSlot(Callback &&cb)
{
    if (freeHead_ != kNoSlot) {
        const std::uint32_t slot = freeHead_;
        Slot &s = slotAt(slot);
        freeHead_ = s.nextFree;
        s.cb = std::move(cb);
        return slot;
    }
    if ((slotCount_ & kChunkMask) == 0) {
        Recycler &r = recycler();
        if (!r.chunks.empty()) {
            // Recycled slots hold null callbacks.
            chunks_.emplace_back(std::move(r.chunks.back()));
            r.chunks.pop_back();
        } else {
            chunks_.emplace_back(new Slot[kChunkSize]);
        }
    }
    const std::uint32_t slot = static_cast<std::uint32_t>(slotCount_++);
    slotAt(slot).cb = std::move(cb);
    return slot;
}

void
EventQueue::releaseSlot(std::uint32_t slot)
{
    Slot &s = slotAt(slot);
    s.cb.reset();
    s.nextFree = freeHead_;
    freeHead_ = slot;
}

std::size_t
EventQueue::bucketIndex(Tick when) const
{
    // when may trail winStart_ (now_ can lag the window after a
    // re-anchor) or trail the drain front's bucket (now_ can lag the
    // active bucket's range); both clamp forward — within-bucket
    // sorting restores exact order.
    std::size_t b = 0;
    if (when > winStart_) {
        const Tick idx = (when - winStart_) >> widthShift_;
        b = idx >= bucketCount_ ? bucketCount_ - 1
                                : static_cast<std::size_t>(idx);
    }
    return b < curBucket_ ? curBucket_ : b;
}

void
EventQueue::insertCalendar(const Entry &e)
{
    const std::size_t b = bucketIndex(e.when);
    std::vector<Entry> &vec = buckets_[b];
    if (b == curBucket_ && curSorted_) {
        // The active bucket is mid-drain: keep its undrained tail
        // ordered. The insertion point can never precede drainPos_ —
        // everything already drained compares no later than the last
        // fired event, and a new entry always compares after it (its
        // tick is >= now_ and its sequence is the largest issued).
        const auto pos = std::lower_bound(
            vec.begin() + static_cast<std::ptrdiff_t>(drainPos_),
            vec.end(), e, [](const Entry &a, const Entry &b) {
                return earlier(a, b);
            });
        const auto depth = static_cast<std::size_t>(vec.end() - pos);
        if (depth <= kMaxShift) {
            ++counters_.inPlaceInserts;
            counters_.shiftedEntries += depth;
            vec.insert(pos, e);
        } else {
            // Shifting a deep tail per insert is quadratic under
            // overload; the late heap merges back at the drain front.
            if (late_.capacity() == 0)
                late_ = takePooledVec();
            late_.push_back(e);
            std::push_heap(late_.begin(), late_.end(), Later{});
            ++counters_.latePushes;
            counters_.lateHighWater = std::max<std::uint64_t>(
                counters_.lateHighWater, late_.size());
        }
    } else {
        vec.push_back(e);
    }
    ++calEntries_;
}

void
EventQueue::reAnchor()
{
    // Only a fully drained husk can remain in the old window.
    assert(late_.empty());
    ++counters_.reAnchors;
    if (curBucket_ < bucketCount_)
        buckets_[curBucket_].clear();

    const std::size_t n = overflow_.size();
    const std::size_t k = std::clamp(n, kMinBuckets, kMaxBuckets);
    const Tick span = ovMax_ - ovMin_;
    Tick w;
    if (span == 0) {
        // A lone far-future entry means the window was too narrow for
        // the workload's inter-event gap: double the width so sparse
        // self-scheduling chains converge to a window they stay in.
        if (n == 1)
            w = lastWidth_ >= (Tick{1} << 62) ? lastWidth_
                                              : lastWidth_ * 2;
        else
            w = 1;
    } else {
        // Round up to a power of two: bucket lookup becomes a shift.
        const Tick w0 = span / k + 1;
        w = w0 <= 1 ? 1
                    : Tick{1} << (64 - __builtin_clzll(w0 - 1));
    }
    lastWidth_ = w;
    widthShift_ = static_cast<unsigned>(__builtin_ctzll(w));
    winStart_ = ovMin_;
    openEnded_ = w > (kMaxTick - winStart_) / k;
    winEnd_ = openEnded_ ? kMaxTick
                         : winStart_ + w * static_cast<Tick>(k);
    while (buckets_.size() < k)
        buckets_.push_back(takePooledVec());
    bucketCount_ = k;
    curBucket_ = 0;
    drainPos_ = 0;
    curSorted_ = false;

    // Counting pass first so each bucket is reserved exactly once —
    // the scatter then never reallocates mid-pass.
    std::vector<std::size_t> counts(k, 0);
    for (const Entry &e : overflow_)
        ++counts[bucketIndex(e.when)];
    for (std::size_t b = 0; b < k; ++b) {
        if (counts[b] > buckets_[b].capacity())
            buckets_[b].reserve(counts[b]);
    }
    for (const Entry &e : overflow_)
        buckets_[bucketIndex(e.when)].push_back(e);
    calEntries_ = n;
    overflow_.clear();
    ovMin_ = kMaxTick;
    ovMax_ = 0;
}

void
EventQueue::sortBucket(std::vector<Entry> &vec)
{
    const std::size_t n = vec.size();
    if (n < 2)
        return;
    // A bucket is filled strictly in sequence order (the re-anchor
    // scatter walks the overflow in push order; every later append
    // carries a larger sequence), so a *stable* sort by
    // (when, priority) alone yields full (when, priority, seq) fire
    // order. When the composite key range is small — it usually is:
    // bucket width is bounded and priorities cluster near zero — a
    // counting sort does it in O(n + range) with no comparisons.
    Tick minW = vec[0].when, maxW = minW;
    int minP = vec[0].priority, maxP = minP;
    for (std::size_t i = 1; i < n; ++i) {
        minW = std::min(minW, vec[i].when);
        maxW = std::max(maxW, vec[i].when);
        minP = std::min(minP, vec[i].priority);
        maxP = std::max(maxP, vec[i].priority);
    }
    const Tick wRange = maxW - minW + 1;
    const std::uint64_t pRange =
        static_cast<std::uint64_t>(maxP) - minP + 1;
    constexpr std::uint64_t kMaxKeys = 16384;
    if (wRange != 0 && pRange <= kMaxKeys &&
        wRange <= kMaxKeys / pRange) {
        const std::size_t keys =
            static_cast<std::size_t>(wRange * pRange);
        sortCounts_.assign(keys + 1, 0);
        const auto key = [&](const Entry &e) {
            return static_cast<std::size_t>(
                (e.when - minW) * pRange +
                static_cast<std::uint64_t>(e.priority - minP));
        };
        for (const Entry &e : vec)
            ++sortCounts_[key(e) + 1];
        for (std::size_t i = 1; i <= keys; ++i)
            sortCounts_[i] += sortCounts_[i - 1];
        if (sortScratch_.capacity() == 0)
            sortScratch_ = takePooledVec();
        sortScratch_.resize(n);
        for (const Entry &e : vec)
            sortScratch_[sortCounts_[key(e)]++] = e;
        vec.swap(sortScratch_); // scratch becomes the next scratch
        ++counters_.countingSorts;
    } else {
        ++counters_.comparisonSorts;
        std::sort(vec.begin(), vec.end(),
                  [](const Entry &a, const Entry &b) {
                      return earlier(a, b);
                  });
    }
}

bool
EventQueue::advanceToFront()
{
    for (;;) {
        if (calEntries_ == 0) {
            if (overflow_.empty())
                return false;
            reAnchor();
        }
        std::vector<Entry> &vec = buckets_[curBucket_];
        if (drainPos_ >= vec.size() && late_.empty()) {
            vec.clear();
            ++curBucket_;
            drainPos_ = 0;
            curSorted_ = false;
            continue;
        }
        if (!curSorted_) {
            sortBucket(vec);
            curSorted_ = true;
        }
        // Trim the drained prefix once it dominates the bucket: in
        // the open-ended steady state one bucket hosts the whole run,
        // and without this the husk would grow without bound.
        if (drainPos_ >= kTrimMinDrained && drainPos_ * 2 >= vec.size()) {
            vec.erase(vec.begin(),
                      vec.begin() + static_cast<std::ptrdiff_t>(drainPos_));
            drainPos_ = 0;
        }
        return true;
    }
}

void
EventQueue::fireFront()
{
    Entry e{};
    if (frontIsLate()) {
        e = late_.front();
        std::pop_heap(late_.begin(), late_.end(), Later{});
        late_.pop_back();
    } else {
        const std::vector<Entry> &vec = buckets_[curBucket_];
        e = vec[drainPos_];
        if (drainPos_ + kPrefetchAhead < vec.size())
            __builtin_prefetch(
                &slotAt(vec[drainPos_ + kPrefetchAhead].slot),
                1 /* for write */, 1);
        ++drainPos_;
    }
    --calEntries_;
    // Release before invoking: the callback sees the event as fired
    // and may reuse the slot.
    Callback cb = std::move(slotAt(e.slot).cb);
    releaseSlot(e.slot);
    now_ = e.when;
    ++fired_;
    if (cb) // an empty callback fires as a no-op
        cb();
}

void
EventQueue::schedule(Tick when, Callback cb, int priority)
{
    if (when < now_)
        throw std::logic_error("EventQueue: scheduling event in the past");
    const Entry e{when, nextSeq_++, acquireSlot(std::move(cb)), priority};
    if (inWindow(when)) {
        insertCalendar(e);
    } else {
        overflow_.push_back(e);
        if (when < ovMin_)
            ovMin_ = when;
        if (when > ovMax_)
            ovMax_ = when;
    }
}

bool
EventQueue::runOne()
{
    if (!advanceToFront())
        return false;
    fireFront();
    return true;
}

std::uint64_t
EventQueue::run(Tick until)
{
    std::uint64_t n = 0;
    while (advanceToFront()) {
        if (front().when > until)
            break;
        fireFront();
        ++n;
    }
    return n;
}

bool
EventQueue::auditPendingConservation() const
{
    std::size_t resident = late_.size();
    for (std::size_t b = 0; b < bucketCount_; ++b) {
        const std::size_t size = buckets_[b].size();
        if (b < curBucket_) {
            if (size != 0)
                return false; // passed buckets must be cleared
        } else {
            resident += size - (b == curBucket_ ? drainPos_ : 0);
        }
    }
    if (!late_.empty() && !curSorted_)
        return false; // late entries only join a bucket mid-drain
    return resident == calEntries_;
}

} // namespace conduit
