/**
 * @file
 * NAND flash array timing model.
 *
 * Models the device hierarchy of Fig. 1/3: channels shared by dies,
 * dies containing planes, planes containing blocks of pages. Dies
 * execute read/program/erase (and IFP sensing) operations and are
 * independently busy; channels are the shared command/data buses that
 * flash controllers arbitrate. Both are FCFS Servers, so queueing and
 * contention emerge from reservation order, as in MQSim.
 */

#ifndef CONDUIT_NAND_NAND_HH
#define CONDUIT_NAND_NAND_HH

#include <cstdint>
#include <stdexcept>
#include <vector>

#include "src/sim/config.hh"
#include "src/sim/server.hh"
#include "src/sim/stats.hh"
#include "src/sim/types.hh"

namespace conduit
{

namespace reliability
{
class ReliabilityModel;
}

namespace trace
{
class Tracer;
}

/** Physical page number (dense index over the whole device). */
using Ppn = std::uint64_t;

/** Decoded physical flash address. */
struct FlashAddress
{
    std::uint32_t channel = 0;
    std::uint32_t die = 0;     // within channel
    std::uint32_t plane = 0;
    std::uint32_t block = 0;   // within plane
    std::uint32_t page = 0;    // within block

    bool
    operator==(const FlashAddress &o) const
    {
        return channel == o.channel && die == o.die &&
            plane == o.plane && block == o.block && page == o.page;
    }
};

/**
 * The flash array's mutable state: every die and channel Server
 * (free point, busy-time integral), the erase count of every block,
 * and the incremental min-die cache. NandArray holds it as its
 * private base, so a DeviceImage snapshot copies it and a fork
 * assigns it.
 */
struct NandState
{
    std::vector<Server> dies_;
    std::vector<Server> channels_;

    /**
     * Erases each block has served, indexed by blockIndexOf(). The
     * one record of simulated wear: the FTL levels and opens blocks
     * by it, and the reliability model adds its fast-forwarded
     * pre-wear to it.
     */
    std::vector<std::uint32_t> erases_;

    /**
     * Incremental min-die tracker. Server free points only move
     * forward, so a cached minimizer stays minimal until that die is
     * acquired again; minDieBacklog() validates the cache against the
     * die's current free point and rescans only on mismatch, instead
     * of walking every die once per feature collection.
     */
    mutable std::uint32_t minDie_ = 0;
    mutable Tick minDieFreeAt_ = 0;
};

/**
 * The flash array: address codec, per-die and per-channel timing.
 */
class NandArray : private NandState
{
  public:
    using State = NandState;

    explicit NandArray(const NandConfig &cfg, StatSet *stats = nullptr);

    const NandConfig &config() const { return cfg_; }

    /** @name Address codec @{ */
    FlashAddress decode(Ppn ppn) const;
    Ppn encode(const FlashAddress &a) const;
    std::uint32_t
    dieIndex(const FlashAddress &a) const
    {
        return a.channel * cfg_.diesPerChannel + a.die;
    }

    /**
     * Die of @p ppn without materializing the full address: one
     * division (a shift for power-of-two geometries) instead of the
     * four mixed-radix splits of decode(). The hot feature-collection
     * path (Engine::fragmentsFor) only needs the die.
     */
    std::uint32_t
    dieOf(Ppn ppn) const
    {
        const std::uint64_t die = pagesPerDie_.pow2
            ? ppn >> pagesPerDie_.shift
            : ppn / pagesPerDie_.div;
        if (die >= numDies())
            throw std::out_of_range("NandArray::dieOf: ppn out of range");
        return static_cast<std::uint32_t>(die);
    }

    /** Dense block index over (channel, die, plane, block) — the
     *  same ordering the FTL's block table uses. */
    std::uint64_t
    blockIndexOf(const FlashAddress &a) const
    {
        std::uint64_t bi = dieIndex(a);
        bi = bi * cfg_.planesPerDie + a.plane;
        bi = bi * cfg_.blocksPerPlane + a.block;
        return bi;
    }
    /** @} */

    /**
     * Attach the reliability model (null detaches). When set, every
     * readPage charges the ECC retry ladder for the page's block on
     * top of tR, so worn and retention-aged blocks serve reads more
     * slowly and their die backlogs grow accordingly, and every
     * eraseBlock restarts the block's retention in the model. The
     * FTL asks the same model which blocks to retire.
     */
    void setReliability(reliability::ReliabilityModel *rel)
    {
        rel_ = rel;
    }

    reliability::ReliabilityModel *reliability() const { return rel_; }

    /**
     * Attach a tracer (null detaches). ECC-retry stalls charged by
     * readPage are recorded against @p device's per-die tracks.
     */
    void setTracer(trace::Tracer *t, std::uint32_t device)
    {
        tracer_ = t;
        traceId_ = device;
    }

    /**
     * Sense one page into the die's page buffer (tR). Does not
     * include channel transfer; see transferOut().
     */
    ServiceInterval readPage(const FlashAddress &a, Tick earliest);

    /** Program one page from the page buffer (tPROG). */
    ServiceInterval programPage(const FlashAddress &a, Tick earliest);

    /** Erase a block (tBERS): its erase count advances by one. */
    ServiceInterval eraseBlock(const FlashAddress &a, Tick earliest);

    /** Erases block @p block (a blockIndexOf() index) has served. */
    std::uint32_t eraseCount(std::uint64_t block) const
    {
        return erases_[block];
    }

    /** Erases across every block: the nand.erases counter (0 when
     *  the array was built without a StatSet). */
    std::uint64_t totalErases() const { return statErases_.value(); }

    /**
     * Occupy a die for an arbitrary in-die operation (used by the
     * IFP unit for multi-wordline sensing and latch sequences).
     */
    ServiceInterval
    occupyDie(std::uint32_t die_index, Tick earliest, Tick duration)
    {
        return dies_[die_index].acquire(earliest, duration);
    }

    /**
     * Move @p bytes between a die's page buffer and the flash
     * controller over the channel bus (tDMA + serialization).
     */
    ServiceInterval transferOut(std::uint32_t channel, std::uint64_t bytes,
                                Tick earliest);

    /** Same cost/path as transferOut, kept separate for stats. */
    ServiceInterval transferIn(std::uint32_t channel, std::uint64_t bytes,
                               Tick earliest);

    /** Backlog (pending work) of the busiest resource class. @{ */
    Tick dieBacklog(std::uint32_t die_index, Tick now) const;
    Tick minDieBacklog(Tick now) const;
    // lint: allow(test-only, only the NAND backlog test reads it; the cost features read die backlogs)
    Tick channelBacklog(std::uint32_t channel, Tick now) const;
    /** @} */

    std::uint32_t numDies() const
    {
        return cfg_.channels * cfg_.diesPerChannel;
    }

    Server &channel(std::uint32_t ch) { return channels_.at(ch); }

    /** The complete mutable state (DeviceImage capture). */
    const State &capture() const { return *this; }

    /** Continue from @p s, captured from an array of this geometry. */
    void
    restore(const State &s)
    {
        if (s.dies_.size() != dies_.size() ||
            s.channels_.size() != channels_.size() ||
            s.erases_.size() != erases_.size())
            throw std::invalid_argument(
                "NandArray::restore: geometry mismatch");
        State::operator=(s);
    }

  private:
    /**
     * One mixed-radix digit of the address codec, precomputed so
     * decode() performs no repeated config loads and power-of-two
     * digits split with shift/mask instead of div/mod.
     */
    struct Radix
    {
        std::uint64_t div = 1;
        std::uint64_t mask = 0;
        std::uint32_t shift = 0;
        bool pow2 = false;

        /** Extract the digit and advance @p ppn to the next level. */
        std::uint32_t
        split(Ppn &ppn) const
        {
            if (pow2) {
                const auto digit =
                    static_cast<std::uint32_t>(ppn & mask);
                ppn >>= shift;
                return digit;
            }
            const auto digit = static_cast<std::uint32_t>(ppn % div);
            ppn /= div;
            return digit;
        }
    };

    static Radix makeRadix(std::uint64_t value);

    // lint: transient(immutable config, rebuilt by the constructor on restore)
    NandConfig cfg_;
    // lint: transient-begin(wiring into the owning Engine and its StatSet, re-bound by its constructor on restore)
    reliability::ReliabilityModel *rel_ = nullptr;
    trace::Tracer *tracer_ = nullptr;
    std::uint32_t traceId_ = 0;
    StatSet::Handle statReads_;
    StatSet::Handle statPrograms_;
    StatSet::Handle statErases_;
    StatSet::Handle statXferOutBytes_;
    StatSet::Handle statXferInBytes_;
    StatSet::Handle statDmaOps_;
    // lint: transient-end

    /** Cached strides (innermost first) and the pages-per-die span. */
    // lint: transient-begin(pure functions of config geometry, recomputed by the constructor)
    Radix rPage_, rBlock_, rPlane_, rDie_;
    Radix pagesPerDie_;
    // lint: transient-end
};

} // namespace conduit

#endif // CONDUIT_NAND_NAND_HH
