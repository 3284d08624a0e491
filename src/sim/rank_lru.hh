/**
 * @file
 * Order-statistics LRU: O(1) recency updates, blocked rank/select.
 *
 * The host baseline's page cache evicts the entry `skip` steps from
 * the LRU end (CLOCK-like randomized victim selection), which a
 * linked list finds by walking `skip` nodes. RankLru stamps every
 * touch with the next timestamp, so that entry is the (skip+1)-th
 * smallest alive stamp. Alive stamps are bits in 64-bit words; each
 * word keeps its popcount in a byte and each block of 16 words (1,024
 * stamps) its count, so a touch flips one bit and adjusts two counts:
 * O(1). keyAtRankFromTail() skips whole blocks, then whole words, by
 * their counts and selects inside one word by clearing low set bits
 * (no popcount on the hot path: without -mpopcnt it is a libcall).
 * Recency order and victims equal the list's exactly, so callers keep
 * their RNG draws and get bit-identical victim sequences.
 *
 * When the stamp window fills, alive stamps are renumbered 0..size-1
 * in order and the counts rebuilt in the same buffers (O(window),
 * amortized O(1) per touch); a live set over half the window doubles
 * the window first.
 */

#ifndef CONDUIT_SIM_RANK_LRU_HH
#define CONDUIT_SIM_RANK_LRU_HH

#include <algorithm>
#include <cstdint>
#include <vector>

namespace conduit
{

/** LRU set over dense keys with block-scan rank-from-tail queries. */
class RankLru
{
  public:
    static constexpr std::uint64_t kNone = ~std::uint64_t{0};

    /** Host-time work counters; no simulated result reads them. */
    struct Counters
    {
        std::uint64_t compactions = 0; // window renumberings
        std::uint64_t victimSteps = 0; // blocks + words skipped
    };

    /** Drop all entries. @p key_space bounds the dense key range
     *  (grown on demand); @p expected_capacity sizes the timestamp
     *  window (4x capacity, at least 64 stamps). */
    void
    reset(std::uint64_t key_space, std::uint64_t expected_capacity)
    {
        ts_.assign(key_space, kNone);
        words_.clear();
        resizeWindow( // 64 stamps per word
            std::max<std::uint64_t>(1, (expected_capacity + 15) / 16));
        nextTs_ = 0;
        size_ = 0;
        counters_ = {};
    }

    std::size_t size() const { return size_; }
    bool empty() const { return size_ == 0; }
    const Counters &counters() const { return counters_; }

    /** Touch @p key: refresh its recency (hit, returns true) or
     *  insert it as most recent (miss, returns false). Never evicts:
     *  capacity policy belongs to the caller. */
    bool
    touch(std::uint64_t key)
    {
        if (key >= ts_.size())
            ts_.resize(key + 1, kNone);
        const bool hit = ts_[key] != kNone;
        if (hit)
            flip(ts_[key], -1);
        else
            ++size_;
        place(key);
        return hit;
    }

    /**
     * Key @p rank steps from the least-recent end: rank 0 is the LRU
     * entry, rank size()-1 the most recent. @p rank must be < size().
     */
    std::uint64_t
    keyAtRankFromTail(std::uint64_t rank)
    {
        // The (rank+1)-th smallest alive stamp: skip whole blocks,
        // then whole words, then the word's `rank` low set bits.
        std::size_t b = 0;
        while (blockCount_[b] <= rank)
            rank -= blockCount_[b++];
        std::size_t w = b * kBlockWords;
        while (wordCount_[w] <= rank)
            rank -= wordCount_[w++];
        counters_.victimSteps += b + (w - b * kBlockWords);
        std::uint64_t bits = words_[w];
        for (; rank != 0; --rank)
            bits &= bits - 1;
        return tsToKey_[64 * w + __builtin_ctzll(bits)];
    }

    /** Remove @p key; no-op when absent (like FlatLru::eraseKey). */
    void
    eraseKey(std::uint64_t key)
    {
        if (!contains(key))
            return;
        flip(ts_[key], -1);
        ts_[key] = kNone;
        --size_;
    }

    bool
    contains(std::uint64_t key) const
    {
        return key < ts_.size() && ts_[key] != kNone;
    }

  private:
    static constexpr std::size_t kBlockWords = 16;

    /** Set (+1) or clear (-1) stamp @p ts's alive bit and counts. */
    void
    flip(std::uint64_t ts, int delta)
    {
        const std::size_t w = ts / 64;
        words_[w] ^= std::uint64_t{1} << (ts % 64);
        wordCount_[w] = static_cast<std::uint8_t>(wordCount_[w] + delta);
        blockCount_[w / kBlockWords] += delta;
    }

    void
    place(std::uint64_t key)
    {
        if (nextTs_ == tsToKey_.size()) {
            // Compaction must reclaim at least half the window to
            // stay amortized O(1): a larger live set grows it first.
            if (size_ * 2 > tsToKey_.size())
                resizeWindow(2 * words_.size());
            compact();
        }
        flip(nextTs_, +1);
        ts_[key] = nextTs_;
        tsToKey_[nextTs_++] = key;
    }

    /** Resize to @p words words of stamps; new words are empty. */
    void
    resizeWindow(std::size_t words)
    {
        words_.resize(words, 0);
        wordCount_.assign(words, 0);
        blockCount_.assign((words + kBlockWords - 1) / kBlockWords, 0);
        tsToKey_.resize(64 * words, kNone);
    }

    /** Renumber alive stamps 0..n-1 in order; rebuild the counts. */
    void
    compact()
    {
        std::uint64_t n = 0;
        for (std::size_t w = 0; w < words_.size(); ++w)
            for (std::uint64_t bits = words_[w]; bits != 0;
                 bits &= bits - 1) {
                const std::uint64_t key =
                    tsToKey_[64 * w + __builtin_ctzll(bits)];
                tsToKey_[n] = key; // n <= the stamp just read
                ts_[key] = n++;
            }
        std::fill(blockCount_.begin(), blockCount_.end(), 0);
        for (std::size_t w = 0; w < words_.size(); ++w) {
            const std::uint64_t c = std::min<std::uint64_t>(
                64, n - std::min<std::uint64_t>(n, 64 * w));
            words_[w] = c == 0 ? 0 : ~std::uint64_t{0} >> (64 - c);
            wordCount_[w] = static_cast<std::uint8_t>(c);
            blockCount_[w / kBlockWords] += static_cast<std::uint32_t>(c);
        }
        nextTs_ = n;
        ++counters_.compactions;
    }

    std::vector<std::uint64_t> ts_;         // key -> timestamp
    std::vector<std::uint64_t> tsToKey_;    // timestamp -> key
    std::vector<std::uint64_t> words_;      // alive-stamp bits
    std::vector<std::uint8_t> wordCount_;   // popcount per word
    std::vector<std::uint32_t> blockCount_; // alive per 16 words
    std::uint64_t nextTs_ = 0;
    std::size_t size_ = 0;
    Counters counters_;
};

} // namespace conduit

#endif // CONDUIT_SIM_RANK_LRU_HH
