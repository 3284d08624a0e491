#include "src/nand/nand.hh"

#include <cassert>
#include <stdexcept>

#include "src/reliability/reliability.hh"
#include "src/trace/trace.hh"

namespace conduit
{

NandArray::Radix
NandArray::makeRadix(std::uint64_t value)
{
    Radix r;
    r.div = value == 0 ? 1 : value;
    if ((r.div & (r.div - 1)) == 0) {
        r.pow2 = true;
        r.mask = r.div - 1;
        while ((std::uint64_t{1} << r.shift) < r.div)
            ++r.shift;
    }
    return r;
}

NandArray::NandArray(const NandConfig &cfg, StatSet *stats)
    : cfg_(cfg), statReads_(stats, "nand.reads"),
      statPrograms_(stats, "nand.programs"),
      statErases_(stats, "nand.erases"),
      statXferOutBytes_(stats, "nand.xfer_out_bytes"),
      statXferInBytes_(stats, "nand.xfer_in_bytes"),
      statDmaOps_(stats, "nand.dma_ops")
{
    dies_.resize(numDies());
    channels_.resize(cfg_.channels);
    erases_.assign(cfg_.totalBlocks(), 0);
    rPage_ = makeRadix(cfg_.pagesPerBlock);
    rBlock_ = makeRadix(cfg_.blocksPerPlane);
    rPlane_ = makeRadix(cfg_.planesPerDie);
    rDie_ = makeRadix(cfg_.diesPerChannel);
    pagesPerDie_ = makeRadix(static_cast<std::uint64_t>(
        cfg_.pagesPerBlock) * cfg_.blocksPerPlane * cfg_.planesPerDie);
}

FlashAddress
NandArray::decode(Ppn ppn) const
{
    // Mixed-radix digits via the cached strides: for the default
    // geometry only the innermost (pagesPerBlock = 196) split is a
    // real division — every outer level is a shift/mask.
    FlashAddress a;
    a.page = rPage_.split(ppn);
    a.block = rBlock_.split(ppn);
    a.plane = rPlane_.split(ppn);
    a.die = rDie_.split(ppn);
    a.channel = static_cast<std::uint32_t>(ppn);
    if (a.channel >= cfg_.channels)
        throw std::out_of_range("NandArray::decode: ppn out of range");
    return a;
}

Ppn
NandArray::encode(const FlashAddress &a) const
{
    Ppn ppn = a.channel;
    ppn = ppn * cfg_.diesPerChannel + a.die;
    ppn = ppn * cfg_.planesPerDie + a.plane;
    ppn = ppn * cfg_.blocksPerPlane + a.block;
    ppn = ppn * cfg_.pagesPerBlock + a.page;
    return ppn;
}

ServiceInterval
NandArray::readPage(const FlashAddress &a, Tick earliest)
{
    Tick dur = cfg_.cmdTicks + cfg_.readTicks;
    // ECC retry ladder: worn / retention-aged blocks stretch the
    // sense. Charged as die-busy time, so it queues like tR and
    // co-run streams see it in the die backlogs.
    Tick penalty = 0;
    if (rel_) {
        const std::uint64_t block = blockIndexOf(a);
        penalty = rel_->onRead(block, erases_[block], earliest);
    }
    dur += penalty;
    auto iv = dies_[dieIndex(a)].acquire(earliest, dur);
    statReads_.inc();
    if (tracer_ && penalty > 0 &&
        tracer_->wants(trace::Category::Reliability)) {
        trace::Event e;
        e.cat = trace::Category::Reliability;
        e.kind = trace::EventKind::EccStall;
        e.device = traceId_;
        e.lane = dieIndex(a);
        e.start = iv.start;
        e.end = iv.end;
        e.a = blockIndexOf(a);
        e.b = penalty;
        tracer_->record(e);
    }
    return iv;
}

ServiceInterval
NandArray::programPage(const FlashAddress &a, Tick earliest)
{
    auto iv = dies_[dieIndex(a)].acquire(
        earliest, cfg_.cmdTicks + cfg_.programTicks);
    statPrograms_.inc();
    return iv;
}

ServiceInterval
NandArray::eraseBlock(const FlashAddress &a, Tick earliest)
{
    auto iv = dies_[dieIndex(a)].acquire(
        earliest, cfg_.cmdTicks + cfg_.eraseTicks);
    statErases_.inc();
    const std::uint64_t block = blockIndexOf(a);
    ++erases_[block];
    if (rel_)
        rel_->noteErase(block, earliest);
    return iv;
}

ServiceInterval
NandArray::transferOut(std::uint32_t channel, std::uint64_t bytes,
                       Tick earliest)
{
    const Tick dur = cfg_.dmaTicks +
        transferTicks(bytes, cfg_.channelBytesPerSec);
    auto iv = channels_.at(channel).acquire(earliest, dur);
    statXferOutBytes_.inc(bytes);
    statDmaOps_.inc();
    return iv;
}

ServiceInterval
NandArray::transferIn(std::uint32_t channel, std::uint64_t bytes,
                      Tick earliest)
{
    const Tick dur = cfg_.dmaTicks +
        transferTicks(bytes, cfg_.channelBytesPerSec);
    auto iv = channels_.at(channel).acquire(earliest, dur);
    statXferInBytes_.inc(bytes);
    statDmaOps_.inc();
    return iv;
}

Tick
NandArray::dieBacklog(std::uint32_t die_index, Tick now) const
{
    return dies_.at(die_index).backlog(now);
}

Tick
NandArray::minDieBacklog(Tick now) const
{
    if (dies_.empty())
        return 0;
    // Free points only move forward, so the cached minimizer stays
    // minimal until *it* is acquired: every other die was >= it at
    // the last validation and can only have grown since. Rescan only
    // when the cached die's free point changed.
    if (dies_[minDie_].freeAt() != minDieFreeAt_) {
        Tick best = kMaxTick;
        std::uint32_t best_die = 0;
        for (std::uint32_t d = 0; d < dies_.size(); ++d) {
            const Tick f = dies_[d].freeAt();
            if (f < best) {
                best = f;
                best_die = d;
            }
        }
        minDie_ = best_die;
        minDieFreeAt_ = best;
    }
    return minDieFreeAt_ > now ? minDieFreeAt_ - now : 0;
}

Tick
NandArray::channelBacklog(std::uint32_t channel, Tick now) const
{
    return channels_.at(channel).backlog(now);
}

} // namespace conduit
