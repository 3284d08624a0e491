#include "src/host/host_model.hh"

#include <algorithm>

#include "src/sim/rank_lru.hh"
#include "src/sim/rng.hh"

namespace conduit
{

double
HostModel::opsPerSec(LatencyClass lc) const
{
    const HostConfig &h = cfg_.host;
    if (kind_ == Kind::Cpu) {
        switch (lc) {
          case LatencyClass::Low:
            return h.cpuLowOpsPerSec;
          case LatencyClass::Medium:
            return h.cpuMedOpsPerSec;
          case LatencyClass::High:
            return h.cpuHighOpsPerSec;
        }
    }
    switch (lc) {
      case LatencyClass::Low:
        return h.gpuLowOpsPerSec;
      case LatencyClass::Medium:
        return h.gpuMedOpsPerSec;
      case LatencyClass::High:
        return h.gpuHighOpsPerSec;
    }
    return h.cpuMedOpsPerSec;
}

HostResult
HostModel::run(const Program &prog) const
{
    const HostConfig &h = cfg_.host;
    HostResult r;

    // Host-side page cache: LRU over a fraction of the footprint.
    const double frac = kind_ == Kind::Cpu ? h.cpuCacheFraction
                                           : h.gpuCacheFraction;
    const std::uint64_t capacity = std::max<std::uint64_t>(
        1, static_cast<std::uint64_t>(
               static_cast<double>(prog.footprintPages) * frac));
    RankLru lru;
    lru.reset(prog.footprintPages, capacity);
    // lint: allow(seed-plumbing, fixed seed is the host-cache model itself: every replay of a program must see the identical synthetic access pattern, independent of device config)
    Rng rng(0xC0FFEE);

    auto touch = [&](std::uint64_t page) -> bool {
        ++r.work.pageTouches;
        if (lru.touch(page))
            return true;
        ++r.work.misses;
        if (lru.size() > capacity) {
            // CLOCK-like randomized victim selection: pure LRU
            // degenerates on the cyclic sweeps of these kernels.
            // The victim sits `skip` recency steps from the LRU
            // end (a tail walk stops at the head, hence the rank
            // clamp); RankLru finds it by a block-count scan
            // instead of a skip-step list walk.
            const std::uint64_t skip =
                rng.below(std::max<std::uint64_t>(1, lru.size() / 2));
            const std::uint64_t rank = std::min<std::uint64_t>(
                skip, lru.size() - 1);
            lru.eraseKey(lru.keyAtRankFromTail(rank));
            ++r.work.evictions;
        }
        return false;
    };

    // Per-operand aggregation over the page loops. Two observations
    // keep this exactly equivalent to touching every page:
    //  - Re-touching the current MRU page is a guaranteed hit that
    //    leaves the recency order unchanged, and the randomized
    //    victim (rank <= size-2 from the tail) can never be the MRU,
    //    so those touches are observable no-ops and are skipped.
    //  - An operand whose page range equals the immediately previous
    //    operand's, where that previous pass was all hits, replays a
    //    pure-hit walk: no rng draws, no evictions, and the walk
    //    restores the identical recency order it started from. The
    //    whole range is skipped. These kernels re-read the same
    //    operand back to back constantly (e.g. state in AES rounds),
    //    which is what made the per-page walk the top cost of
    //    host-baseline cells.
    std::uint64_t mruPage = ~std::uint64_t{0};
    std::uint64_t lastBase = ~std::uint64_t{0};
    std::uint64_t lastCount = 0;
    bool lastAllHit = false;

    // Misses are returned per operand and charged in one aggregate
    // update instead of per page.
    auto touchRange = [&](std::uint64_t base,
                          std::uint64_t count) -> std::uint64_t {
        if (count == 0)
            return 0; // touches nothing; keep the replay tracking
        if (base == lastBase && count == lastCount && lastAllHit)
            return 0; // all-hit replay of the previous operand
        std::uint64_t misses = 0;
        for (std::uint64_t p = base; p < base + count; ++p) {
            if (p == mruPage)
                continue; // MRU re-touch: observable no-op
            if (!touch(p))
                ++misses;
            mruPage = p;
        }
        lastBase = base;
        lastCount = count;
        lastAllHit = misses == 0;
        return misses;
    };

    // opsPerSec is loop-invariant per latency class; indexed by the
    // LatencyClass enum value.
    const double opsTab[3] = {opsPerSec(LatencyClass::Low),
                              opsPerSec(LatencyClass::Medium),
                              opsPerSec(LatencyClass::High)};

    double compute_s = 0.0;
    std::uint64_t dirty_pages = 0;
    std::uint64_t gather_bytes = 0;

    for (const auto &vi : prog.instrs) {
        compute_s += static_cast<double>(vi.lanes) /
            opsTab[static_cast<std::size_t>(latencyClass(vi.op))];
        if (vi.indirect) {
            // Data-dependent gather: every lane is an independent
            // random access; misses fetch a cache line's worth from
            // the SSD (batched into page-sized NVMe reads).
            gather_bytes += static_cast<std::uint64_t>(
                static_cast<double>(vi.lanes) * (1.0 - frac) * 64.0);
        }
        for (const auto &src : vi.srcs) {
            const std::uint64_t misses =
                touchRange(src.basePage, src.pageCount);
            r.pcieBytes += misses * prog.pageBytes;
            r.flashPagesRead += misses;
        }
        touchRange(vi.dst.basePage, vi.dst.pageCount);
        dirty_pages += vi.dst.pageCount;
    }

    // Results written back to the SSD once (page granularity,
    // bounded by the distinct output pages actually produced).
    const std::uint64_t writeback_pages =
        std::min<std::uint64_t>(dirty_pages, prog.footprintPages);
    r.pcieBytes += writeback_pages * prog.pageBytes;
    r.pcieBytes += gather_bytes;
    r.work.compactions = lru.counters().compactions;
    r.work.victimSteps = lru.counters().victimSteps;

    r.computeTime = static_cast<Tick>(
        compute_s * static_cast<double>(kPsPerS));
    const std::uint64_t miss_pages = r.pcieBytes / prog.pageBytes;
    r.transferTime =
        transferTicks(r.pcieBytes, h.pcieBytesPerSec) +
        miss_pages * h.ioOverheadPerPage;

    // Streaming pipeline: compute overlaps transfer; the cold-start
    // ramp is one average page fetch.
    const Tick ramp = transferTicks(prog.pageBytes, h.pcieBytesPerSec);
    r.totalTime = std::max(r.computeTime, r.transferTime) + ramp;

    const double watts = kind_ == Kind::Cpu ? h.cpuWatts : h.gpuWatts;
    r.computeEnergyJ = watts * ticksToSeconds(r.computeTime);
    const EnergyConfig &e = cfg_.energy;
    r.dmEnergyJ = h.pcieJoulesPerByte * static_cast<double>(r.pcieBytes) +
        e.readJPerChannel * static_cast<double>(r.flashPagesRead) +
        e.channelJPerByte * static_cast<double>(r.pcieBytes);
    return r;
}

} // namespace conduit
