#include "src/ftl/ftl.hh"

#include <algorithm>
#include <cassert>
#include <stdexcept>

#include "src/reliability/reliability.hh"

namespace conduit
{

namespace
{
/** Fraction of physical blocks hidden as over-provisioning. */
constexpr double kOverProvision = 0.07;
} // namespace

Ftl::Ftl(NandArray &nand, const SsdConfig &cfg, StatSet *stats)
    : nand_(nand), cfg_(cfg), statMapHits_(stats, "ftl.map_hits"),
      statMapMisses_(stats, "ftl.map_misses"),
      statGcRuns_(stats, "ftl.gc_runs"),
      statGcMigrations_(stats, "ftl.gc_migrations")
{
    const NandConfig &n = cfg_.nand;
    const std::uint64_t total_blocks = n.totalBlocks();
    blocks_.resize(total_blocks);
    for (auto &b : blocks_) {
        b.valid.assign(n.pagesPerBlock, false);
        b.owner.assign(n.pagesPerBlock, kNoLpn);
    }
    freeBlockCount_ = total_blocks;

    logicalPages_ = static_cast<std::uint64_t>(
        static_cast<double>(n.totalPages()) * (1.0 - kOverProvision));
    l2p_.assign(logicalPages_, kNoPpn);

    const std::uint64_t plane_slots = static_cast<std::uint64_t>(
        n.channels) * n.diesPerChannel * n.planesPerDie;
    openBlock_.assign(plane_slots, ~0ULL);

    mapLru_.reset(logicalPages_);
    setMappingCacheCapacity(logicalPages_);
}

std::uint64_t
Ftl::blockIndex(const FlashAddress &a) const
{
    return nand_.blockIndexOf(a);
}

bool
Ftl::isOpenBlock(std::uint64_t bi) const
{
    // A plane's current write target stays referenced by openBlock_
    // even once full (it is only replaced on the slot's next
    // allocation). Collecting it would reset writePtr under that
    // live reference and the next allocation would program into a
    // freed — or retired — block.
    const std::uint64_t slot = bi / cfg_.nand.blocksPerPlane;
    return openBlock_[slot] == bi;
}

FlashAddress
Ftl::blockAddress(std::uint64_t bi) const
{
    const NandConfig &n = cfg_.nand;
    FlashAddress a;
    a.block = static_cast<std::uint32_t>(bi % n.blocksPerPlane);
    bi /= n.blocksPerPlane;
    a.plane = static_cast<std::uint32_t>(bi % n.planesPerDie);
    bi /= n.planesPerDie;
    a.die = static_cast<std::uint32_t>(bi % n.diesPerChannel);
    bi /= n.diesPerChannel;
    a.channel = static_cast<std::uint32_t>(bi);
    a.page = 0;
    return a;
}

std::uint64_t
Ftl::openBlockOn(std::uint64_t plane_slot)
{
    const NandConfig &n = cfg_.nand;
    // Wear-aware selection: the free block with the fewest erases on
    // this plane becomes the new open block (static wear-leveling).
    // If the plane ran dry, collect garbage on it first.
    const std::uint64_t base = plane_slot * n.blocksPerPlane;
    // Collect until a free block appears or no victim remains: one
    // collection need not free anything (the victim may retire), so
    // a single attempt would give up while reclaimable blocks still
    // sit on the plane. Each pass consumes one victim, so the loop
    // is bounded by the plane's block count.
    for (;;) {
        std::uint64_t best = ~0ULL;
        for (std::uint64_t b = base; b < base + n.blocksPerPlane;
             ++b) {
            if (!blocks_[b].free)
                continue;
            if (best == ~0ULL ||
                nand_.eraseCount(b) < nand_.eraseCount(best)) {
                best = b;
            }
        }
        if (best != ~0ULL) {
            blocks_[best].free = false;
            blocks_[best].writePtr = 0;
            --freeBlockCount_;
            return best;
        }
        if (!collectPlane(plane_slot, lastGcTick_))
            break;
    }
    throw std::runtime_error("Ftl: plane out of free blocks");
}

Ppn
Ftl::allocatePage(Tick now)
{
    const NandConfig &n = cfg_.nand;
    const std::uint64_t slots = openBlock_.size();
    // CWDP round-robin striping: consecutive writes land on
    // different channels/dies to maximize internal parallelism.
    const std::uint64_t slot = nextSlot_;
    nextSlot_ = (nextSlot_ + 1) % slots;
    if (openBlock_[slot] == ~0ULL ||
        blocks_[openBlock_[slot]].writePtr >= n.pagesPerBlock) {
        openBlock_[slot] = openBlockOn(slot);
    }
    BlockState &b = blocks_[openBlock_[slot]];
    FlashAddress a = blockAddress(openBlock_[slot]);
    a.page = b.writePtr++;
    (void)now;
    return nand_.encode(a);
}

void
Ftl::touchMapCache(Lpn lpn, bool &hit)
{
    // The read path (translate) and the write path (writePage) both
    // count here, so the StatSet reports all mapping-cache traffic.
    if (mapLru_.touch(lpn)) {
        hit = true;
        statMapHits_.inc();
        return;
    }
    hit = false;
    statMapMisses_.inc();
    if (mapLru_.size() > mapCacheCapacity_)
        mapLru_.popTail();
}

Ftl::Lookup
Ftl::translate(Lpn lpn, Tick now)
{
    (void)now;
    if (lpn >= logicalPages_)
        throw std::out_of_range("Ftl::translate: lpn out of range");
    Lookup r;
    bool hit = false;
    touchMapCache(lpn, hit);
    r.cacheHit = hit;
    r.latency = hit ? cfg_.overhead.l2pLookupDram
                    : cfg_.overhead.l2pLookupFlash;
    r.ppn = l2p_[lpn];
    return r;
}

Ppn
Ftl::physicalOf(Lpn lpn) const
{
    if (lpn >= logicalPages_)
        throw std::out_of_range("Ftl::physicalOf: lpn out of range");
    return l2p_[lpn];
}

Tick
Ftl::readPage(Lpn lpn, Tick now)
{
    Lookup lk = translate(lpn, now);
    if (lk.ppn == kNoPpn)
        throw std::logic_error("Ftl::readPage: unmapped lpn");
    auto iv = nand_.readPage(nand_.decode(lk.ppn), now + lk.latency);
    return iv.end;
}

void
Ftl::invalidate(Ppn ppn)
{
    if (ppn == kNoPpn)
        return;
    const FlashAddress a = nand_.decode(ppn);
    BlockState &b = blocks_[blockIndex(a)];
    if (b.valid[a.page]) {
        b.valid[a.page] = false;
        b.owner[a.page] = kNoLpn;
        --b.validCount;
    }
}

Ftl::WriteResult
Ftl::writePage(Lpn lpn, Tick now)
{
    if (lpn >= logicalPages_)
        throw std::out_of_range("Ftl::writePage: lpn out of range");
    bool hit = false;
    touchMapCache(lpn, hit);
    const Tick map_latency = hit ? cfg_.overhead.l2pLookupDram
                                 : cfg_.overhead.l2pLookupFlash;

    invalidate(l2p_[lpn]);
    const Ppn ppn = allocatePage(now);
    const FlashAddress a = nand_.decode(ppn);
    BlockState &b = blocks_[blockIndex(a)];
    b.valid[a.page] = true;
    b.owner[a.page] = lpn;
    ++b.validCount;
    l2p_[lpn] = ppn;

    auto iv = nand_.programPage(a, now + map_latency);
    maybeGc(iv.end);
    return {ppn, iv.end};
}

void
Ftl::preload(std::uint64_t pages)
{
    if (pages > logicalPages_)
        throw std::invalid_argument("Ftl::preload: exceeds capacity");
    for (Lpn lpn = 0; lpn < pages; ++lpn) {
        const Ppn ppn = allocatePage(0);
        const FlashAddress a = nand_.decode(ppn);
        BlockState &b = blocks_[blockIndex(a)];
        b.valid[a.page] = true;
        b.owner[a.page] = lpn;
        ++b.validCount;
        l2p_[lpn] = ppn;
    }
}

bool
Ftl::collectBlock(std::uint64_t victim, Tick now, bool scrub)
{
    const NandConfig &n = cfg_.nand;
    if (!scrub)
        statGcRuns_.inc();

    BlockState &vb = blocks_[victim];
    vb.collecting = true;
    FlashAddress va = blockAddress(victim);
    Tick t = now;
    for (std::uint32_t p = 0; p < n.pagesPerBlock; ++p) {
        if (!vb.valid[p])
            continue;
        const Lpn lpn = vb.owner[p];
        va.page = p;
        // Migrate: sense the valid page, then program a fresh copy.
        auto rd = nand_.readPage(va, t);
        const Ppn dst = allocatePage(rd.end);
        const FlashAddress da = nand_.decode(dst);
        BlockState &db = blocks_[blockIndex(da)];
        db.valid[da.page] = true;
        db.owner[da.page] = lpn;
        ++db.validCount;
        auto wr = nand_.programPage(da, rd.end);
        l2p_[lpn] = dst;
        vb.valid[p] = false;
        vb.owner[p] = kNoLpn;
        --vb.validCount;
        t = wr.end;
        statGcMigrations_.inc();
    }
    va.page = 0;
    nand_.eraseBlock(va, t);
    vb.collecting = false;
    vb.writePtr = 0;
    reliability::ReliabilityModel *rel = nand_.reliability();
    if (rel && rel->retirePending(victim)) {
        // Bad-block management: the erase was this block's last. It
        // leaves the pool for good — never free again, and with
        // writePtr 0 never a GC or scrub victim — so
        // over-provisioning shrinks and GC triggers earlier.
        rel->markRetired(victim);
        return true;
    }
    vb.free = true;
    ++freeBlockCount_;
    return true;
}

bool
Ftl::scrubBlock(std::uint64_t block, Tick now)
{
    const NandConfig &n = cfg_.nand;
    const BlockState &b = blocks_.at(block);
    // Only full, closed blocks are refreshable: a plane's active
    // write target (even when full, it stays the slot's open block
    // until the next allocation) cannot be erased under it, and a
    // retired block is never full.
    if (b.free || b.collecting ||
        b.writePtr < n.pagesPerBlock || isOpenBlock(block))
        return false;
    return collectBlock(block, now, /*scrub=*/true);
}

std::int64_t
Ftl::wearLevelCandidate(std::uint32_t gap) const
{
    const NandConfig &n = cfg_.nand;
    const reliability::ReliabilityModel *rel = nand_.reliability();
    std::uint64_t coldest = ~0ULL;
    std::uint32_t maxErase = 0;
    for (std::uint64_t b = 0; b < blocks_.size(); ++b) {
        if (rel && rel->retired(b))
            continue;
        const BlockState &bs = blocks_[b];
        maxErase = std::max(maxErase, nand_.eraseCount(b));
        // Eligibility mirrors scrubBlock: only a full, closed,
        // non-collecting block can be refreshed under itself.
        if (bs.free || bs.collecting ||
            bs.writePtr < n.pagesPerBlock || isOpenBlock(b))
            continue;
        if (coldest == ~0ULL ||
            nand_.eraseCount(b) < nand_.eraseCount(coldest))
            coldest = b;
    }
    if (coldest == ~0ULL || maxErase - nand_.eraseCount(coldest) <= gap)
        return -1;
    return static_cast<std::int64_t>(coldest);
}

bool
Ftl::collectPlane(std::uint64_t plane_slot, Tick now)
{
    // Reclaim the cheapest full, closed victim on this plane. Open
    // blocks (incl. the plane's current write target) are skipped.
    const NandConfig &n = cfg_.nand;
    const std::uint64_t base = plane_slot * n.blocksPerPlane;
    std::uint64_t victim = ~0ULL;
    for (std::uint64_t b = base; b < base + n.blocksPerPlane; ++b) {
        const BlockState &bs = blocks_[b];
        if (bs.free || bs.collecting ||
            bs.writePtr < n.pagesPerBlock || isOpenBlock(b))
            continue;
        if (bs.validCount >= n.pagesPerBlock)
            continue; // nothing reclaimable
        if (victim == ~0ULL ||
            bs.validCount < blocks_[victim].validCount) {
            victim = b;
        }
    }
    if (victim == ~0ULL)
        return false;
    return collectBlock(victim, now);
}

void
Ftl::maybeGc(Tick now)
{
    lastGcTick_ = now;
    const NandConfig &n = cfg_.nand;
    // Reclaim until the free pool recovers or no victim remains.
    for (int iter = 0; iter < 8; ++iter) {
        const double free_fraction =
            static_cast<double>(freeBlockCount_) /
            static_cast<double>(blocks_.size());
        if (free_fraction >= cfg_.gcThreshold)
            return;

        // Greedy victim selection: the full block with the fewest
        // valid pages costs the least migration work.
        std::uint64_t victim = ~0ULL;
        for (std::uint64_t bi = 0; bi < blocks_.size(); ++bi) {
            const BlockState &b = blocks_[bi];
            if (b.free || b.collecting ||
                b.writePtr < n.pagesPerBlock || isOpenBlock(bi))
                continue; // only full, closed blocks
            if (b.validCount >= n.pagesPerBlock)
                continue;
            if (victim == ~0ULL ||
                b.validCount < blocks_[victim].validCount) {
                victim = bi;
            }
        }
        if (victim == ~0ULL)
            return;
        collectBlock(victim, now);
    }
}

void
Ftl::restore(const State &s)
{
    if (s.l2p_.size() != l2p_.size() ||
        s.blocks_.size() != blocks_.size() ||
        s.openBlock_.size() != openBlock_.size()) {
        throw std::invalid_argument(
            "Ftl::restore: image geometry mismatch");
    }
    State::operator=(s);
}

} // namespace conduit
