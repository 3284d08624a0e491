/**
 * @file
 * Flash Translation Layer.
 *
 * Implements the FTL functions the paper's simulator inherits from
 * MQSim (§5.1): logical-to-physical mapping with a demand-based
 * mapping cache (DFTL), page allocation striped across channels,
 * dies, and planes for parallelism, greedy garbage collection, and
 * wear-aware free-block selection.
 *
 * Conduit consults the L2P table on every offloading decision to
 * locate operands (§4.3.2 feature 2), so translate() models the
 * mapping-cache hit/miss latencies of §4.5 (100 ns hit in SSD DRAM,
 * 30 µs miss serviced from flash).
 */

#ifndef CONDUIT_FTL_FTL_HH
#define CONDUIT_FTL_FTL_HH

#include <algorithm>
#include <cstdint>
#include <vector>

#include "src/nand/nand.hh"
#include "src/sim/config.hh"
#include "src/sim/flat_lru.hh"
#include "src/sim/stats.hh"

namespace conduit
{

/** Logical page number. */
using Lpn = std::uint64_t;

constexpr Ppn kNoPpn = ~static_cast<Ppn>(0);
constexpr Lpn kNoLpn = ~static_cast<Lpn>(0);

/**
 * Every mutable FTL quantity: L2P mappings, per-block state
 * (validity, reverse maps, free/collecting flags), the open-block
 * cursors and stripe pointer, the free-pool count, and the demand
 * mapping cache. Ftl holds it as its private base, so a DeviceImage
 * snapshot copies it and a fork assigns it; config, wiring and
 * geometry-derived members stay in Ftl. Block wear lives in the
 * NandArray, retirement in the reliability model, and reported
 * counts in the StatSet.
 */
struct FtlState
{
    struct BlockState
    {
        std::vector<bool> valid;     // per page
        std::vector<Lpn> owner;      // reverse map per page
        std::uint32_t validCount = 0;
        std::uint32_t writePtr = 0;  // next free page, == pagesPerBlock
                                     // when full; 0 once retired
        bool free = true;

        /**
         * Mid-collection reentrancy guard: migrating a victim's
         * pages allocates fresh ones, which can GC other planes —
         * the victim itself (fewest valid pages by construction)
         * must not be re-picked while its collection is in flight.
         */
        bool collecting = false;
    };

    std::vector<Ppn> l2p_;
    std::vector<BlockState> blocks_;

    /** One open block per (channel, die, plane) slot. */
    std::vector<std::uint64_t> openBlock_;
    std::uint64_t nextSlot_ = 0; // round-robin stripe pointer

    std::uint64_t freeBlockCount_ = 0;
    Tick lastGcTick_ = 0;

    // Demand mapping cache (DFTL): flat intrusive LRU over cached
    // L2P entries (preallocated nodes, direct-mapped lookup).
    std::uint64_t mapCacheCapacity_ = 0;
    FlatLru mapLru_;
};

/**
 * Page-mapping FTL with demand mapping cache, GC, wear awareness and
 * (when the NandArray has a reliability model attached) bad-block
 * management: a collected block whose correction history demands
 * retirement is permanently removed from the free pool after its
 * erase — over-provisioning shrinks and GC runs hotter.
 */
class Ftl : private FtlState
{
  public:
    using State = FtlState;

    Ftl(NandArray &nand, const SsdConfig &cfg, StatSet *stats = nullptr);

    /**
     * Background scrub: refresh @p block by migrating its valid
     * pages to fresh locations and erasing it (resetting its
     * retention age in the reliability model). Only full, closed,
     * non-retired blocks are eligible.
     * @return true if the block was refreshed.
     */
    bool scrubBlock(std::uint64_t block, Tick now);

    /**
     * Background wear-leveling candidate: the lowest-erase-count
     * full, closed, non-retired block, provided its erase count
     * trails the pool's hottest block by more than @p gap. Cold
     * data sits in exactly these blocks — refreshing one
     * (scrubBlock) migrates the cold pages and returns the young
     * block to write service. Ties break on the lowest block index,
     * so the scan is deterministic.
     * @return The block index, or -1 when the pool is level enough
     *         (or no eligible block exists).
     */
    std::int64_t wearLevelCandidate(std::uint32_t gap) const;

    /** Result of an L2P lookup. */
    struct Lookup
    {
        Ppn ppn = kNoPpn;
        Tick latency = 0;
        bool cacheHit = true;
    };

    /** Result of a page write. */
    struct WriteResult
    {
        Ppn ppn = kNoPpn;
        Tick readyAt = 0;
    };

    /**
     * Translate @p lpn, modelling the mapping-cache. Never performs
     * media operations for the data itself.
     */
    Lookup translate(Lpn lpn, Tick now);

    /**
     * Current physical location without charging lookup latency.
     * Used for modelling decisions where the information is already
     * resident (e.g. precomputed feature tables).
     */
    Ppn physicalOf(Lpn lpn) const;

    /**
     * Read the data page at @p lpn: translation + die sensing.
     * @return Completion time of the sensing (data in page buffer).
     */
    Tick readPage(Lpn lpn, Tick now);

    /**
     * Write @p lpn out-of-place: allocate a fresh physical page,
     * program it, invalidate the old copy, and run GC if needed.
     */
    WriteResult writePage(Lpn lpn, Tick now);

    /**
     * Install the initial dataset: map @p pages logical pages to
     * physical pages (striped for maximum parallelism) without
     * charging simulated time, per the §4.4 assumption that all
     * application data resides in the SSD at start.
     */
    void preload(std::uint64_t pages);

    /** Number of logical pages exposed (with over-provisioning). */
    std::uint64_t logicalPages() const { return logicalPages_; }

    /**
     * Resize the demand mapping cache (entries). A new FTL caches
     * every logical page; each engine session resizes it to the
     * session's page capacity. Capacities down to a
     * single entry are honored — a DRAM-pressure experiment sizing
     * the cache below 16 entries gets exactly the hit rate that
     * capacity implies (the old 16-entry floor silently inflated
     * it). Zero is clamped to 1: the DFTL model always keeps the
     * entry it is translating resident.
     */
    void
    setMappingCacheCapacity(std::uint64_t entries)
    {
        mapCacheCapacity_ = std::max<std::uint64_t>(1, entries);
        while (mapLru_.size() > mapCacheCapacity_)
            mapLru_.popTail();
    }

    // lint: allow(test-only, the FTL tests check how sessions size the mapping cache)
    std::uint64_t
    mappingCacheCapacity() const
    {
        return mapCacheCapacity_;
    }

    /** The complete mutable state (DeviceImage capture). */
    const State &capture() const { return *this; }

    /**
     * Continue from @p s, captured from an FTL of the same geometry.
     * @throws std::invalid_argument on a geometry mismatch.
     */
    void restore(const State &s);

    /** @name Introspection for tests and stats @{ */
    // lint: allow(test-only, the GC tests watch the free pool shrink and refill)
    std::uint64_t freeBlocks() const { return freeBlockCount_; }
    std::uint64_t totalBlocks() const { return blocks_.size(); }
    /** @} */

  private:
    /** Dense block index over (channel, die, plane, block). */
    std::uint64_t blockIndex(const FlashAddress &a) const;
    FlashAddress blockAddress(std::uint64_t bi) const;

    /** Is @p bi some plane slot's current write target? */
    bool isOpenBlock(std::uint64_t bi) const;

    /** Pick the next open block slot in CWDP-striped order. */
    Ppn allocatePage(Tick now);

    /** Open a fresh (wear-min) free block on the given plane. */
    std::uint64_t openBlockOn(std::uint64_t plane_slot);

    void invalidate(Ppn ppn);
    void maybeGc(Tick now);
    bool collectBlock(std::uint64_t victim, Tick now,
                      bool scrub = false);
    bool collectPlane(std::uint64_t plane_slot, Tick now);
    void touchMapCache(Lpn lpn, bool &hit);

    // lint: transient-begin(wiring: references into the owning Engine and its StatSet, re-bound by its constructor on restore)
    NandArray &nand_;
    SsdConfig cfg_;
    StatSet::Handle statMapHits_;
    StatSet::Handle statMapMisses_;
    StatSet::Handle statGcRuns_;
    StatSet::Handle statGcMigrations_;
    // lint: transient-end

    // lint: transient(pure function of config geometry, recomputed by the constructor)
    std::uint64_t logicalPages_ = 0;
};

} // namespace conduit

#endif // CONDUIT_FTL_FTL_HH
