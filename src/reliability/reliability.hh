/**
 * @file
 * Device reliability & aging state.
 *
 * ReliabilityModel is the one stateful object behind the subsystem:
 * it owns each block's retention clock, correction history and
 * retirement, composes the RberModel and EccEngine, and answers the
 * questions the rest of the simulator asks:
 *
 *  - NandArray::readPage: "what does ECC add to this sense?"
 *    (onRead — charges the retry ladder, tracks retirement votes)
 *  - Ftl: "has this block worn out?" (retirePending / markRetired /
 *    retired — retired blocks leave the free pool for good,
 *    shrinking over-provisioning and accelerating GC)
 *  - Engine's scrub task: "which blocks need refreshing?" (scrubDue)
 *  - Engine's cost tables: "what read penalty should the offloader
 *    expect right now?" (typicalReadPenalty — feeds the §4.3.2
 *    data-movement estimates so offload decisions see device age)
 *
 * A block's simulated erase count lives in the NandArray, which
 * advances it and calls noteErase at every erase; the per-block
 * questions take that count as an argument.
 *
 * Fast-forward: preWearCycles and retentionDays initialize every
 * block as if the device had already served that history, so aging
 * sweeps start from an aged state without simulating years. The
 * equivalence contract (tested): a model fast-forwarded to N cycles
 * answers at erase count 0 exactly as a fresh model does at N.
 *
 * Everything is deterministic — wear state advances only at defined
 * simulated-time points, and the only randomness is the per-block
 * jitter table derived from the run seed.
 */

#ifndef CONDUIT_RELIABILITY_RELIABILITY_HH
#define CONDUIT_RELIABILITY_RELIABILITY_HH

#include <cstdint>
#include <stdexcept>
#include <vector>

#include "src/reliability/ecc_engine.hh"
#include "src/reliability/rber_model.hh"
#include "src/sim/config.hh"
#include "src/sim/stats.hh"
#include "src/sim/types.hh"

namespace conduit::reliability
{

/**
 * Cumulative reliability counters (DeviceSnapshot reporting), read
 * out of the StatSet's rel.* counters by ReliabilityModel::stats().
 */
struct ReliabilityStats
{
    /** Reads that needed at least one retry step. */
    std::uint64_t retriedReads = 0;

    /** Total retry steps across all reads. */
    std::uint64_t eccRetries = 0;

    /** Reads that fell through to soft-decision decode. */
    std::uint64_t softDecodes = 0;

    /** Reads beyond the ECC's correction strength. */
    std::uint64_t uncorrectableReads = 0;

    /** Blocks permanently removed from service. */
    std::uint64_t retiredBlocks = 0;

    /** Background scrub passes executed. */
    std::uint64_t scrubPasses = 0;

    /** Blocks the scrubber refreshed (migrated + erased). */
    std::uint64_t scrubRefreshes = 0;

    /** Cold blocks the wear-leveler migrated out of low wear. */
    std::uint64_t wearLevelMigrations = 0;
};

/**
 * The device's aging state: per-block retention and correction
 * history (including the memoized read plans, which are pure
 * functions of wear + retention bucket) and the wear-leveling tally.
 * ReliabilityModel holds it as its private base, so a DeviceImage
 * snapshot copies it and a fork assigns it.
 */
struct ReliabilityState
{
    struct BlockWear
    {
        std::uint32_t softReads = 0; // ladder-exhausting reads
        bool retirePending = false;
        bool retired = false;

        /** Tick the resident data was (re)programmed. */
        Tick programmedAt = 0;

        /** Fast-forwarded retention predating t = 0 (cleared by the
         *  first erase: the block then holds fresh data). */
        double retentionOffsetSeconds = 0.0;

        /**
         * Read-plan memo: the decode plan is constant between
         * erases within a coarse retention bucket, so the
         * transcendental RBER/ladder math runs once per
         * (erase, bucket) instead of once per read. kMaxTick marks
         * it stale (fresh block or just erased).
         */
        Tick planBucket = kMaxTick;
        ReadPlan plan;
    };

    std::vector<BlockWear> wear_;
    // Not a StatSet counter: one would add a name to the counter set.
    std::uint64_t wearLevelMigrations_ = 0;
};

/** The device's aging state and reliability decision logic. */
class ReliabilityModel : private ReliabilityState
{
  public:
    using State = ReliabilityState;

    ReliabilityModel(const NandConfig &nand,
                     const ReliabilityConfig &cfg, std::uint64_t seed,
                     StatSet *stats = nullptr);

    /**
     * Account one page read of @p block, erased @p erases times, at
     * @p now.
     * @return Extra die-busy ticks the ECC ladder charges.
     */
    Tick onRead(std::uint64_t block, std::uint32_t erases, Tick now);

    /**
     * A block erase at @p now (NandArray::eraseBlock reports each
     * one): retention restarts (the fast-forwarded retention offset
     * clears — the block now holds freshly programmed data).
     */
    void noteErase(std::uint64_t block, Tick now);

    /** @name Bad-block management @{ */
    /** True when the block's correction history demands retirement. */
    bool
    retirePending(std::uint64_t block) const
    {
        return wear_[block].retirePending && !wear_[block].retired;
    }

    /** Permanently retire @p block (FTL calls this at its erase). */
    void markRetired(std::uint64_t block);

    bool retired(std::uint64_t block) const
    {
        return wear_[block].retired;
    }
    /** @} */

    /** @name Background scrub support @{ */
    /** RBER high enough that the block's data should be rewritten. */
    bool scrubDue(std::uint64_t block, std::uint32_t erases,
                  Tick now) const;

    void notePass();
    void noteRefresh();
    void noteLevelMigration();
    /** @} */

    /** Current error rate of @p block after @p erases simulated
     *  erases (pre-wear is added here). */
    double rberOf(std::uint64_t block, std::uint32_t erases,
                  Tick now) const;

    /**
     * Expected ECC latency of a read at the device's current average
     * wear and retention — the aging term of the offloader's static
     * data-movement table (jitter-free, monotone in device age).
     * @p erases is the device-total simulated erase count
     * (NandArray::totalErases); pre-wear is added here.
     *
     * Called once per dispatched instruction, so the transcendental
     * RBER math is cached: the value only moves with erases and
     * (slowly, on a days scale) with retention, so it is recomputed
     * when the erase count changes or simulated time crosses a
     * coarse bucket — deterministic, since both inputs are pure
     * simulated state.
     */
    Tick typicalReadPenalty(std::uint64_t erases, Tick now) const;

    /** @name Introspection @{ */
    double retentionSecondsOf(std::uint64_t block, Tick now) const;

    std::uint64_t blocks() const { return wear_.size(); }

    /** The counters so far; all but wearLevelMigrations read 0
     *  when the model was built without a StatSet. */
    ReliabilityStats stats() const;

    // lint: allow(test-only, the reliability tests drive the model's ECC ladder directly)
    const EccEngine &ecc() const { return ecc_; }
    /** @} */

    /** The complete mutable state (DeviceImage capture). */
    const State &capture() const { return *this; }

    /** Continue from @p s, captured from a model of this geometry. */
    void
    restore(const State &s)
    {
        if (s.wear_.size() != wear_.size())
            throw std::invalid_argument(
                "ReliabilityModel::restore: block count mismatch");
        State::operator=(s);
        penaltyBucket_ = kMaxTick;
        penaltyErases_ = ~std::uint64_t{0};
        penalty_ = 0;
    }

  private:
    // lint: transient-begin(config, the stateless models derived from it and StatSet handles, rebuilt/re-bound by the constructor on restore)
    ReliabilityConfig cfg_;
    RberModel rber_;
    EccEngine ecc_;
    StatSet::Handle statRetriedReads_;
    StatSet::Handle statEccRetries_;
    StatSet::Handle statSoftDecodes_;
    StatSet::Handle statUncorrectable_;
    StatSet::Handle statRetiredBlocks_;
    StatSet::Handle statScrubPasses_;
    StatSet::Handle statScrubRefreshes_;
    // lint: transient-end

    /**
     * typicalReadPenalty memo (see its doc comment). Not part of the
     * State: restore marks it stale and the next query
     * deterministically recomputes it from the restored wear.
     */
    static constexpr Tick kPenaltyBucketTicks = msToTicks(10);
    mutable Tick penaltyBucket_ = kMaxTick;
    mutable std::uint64_t penaltyErases_ = ~std::uint64_t{0};
    mutable Tick penalty_ = 0;
};

} // namespace conduit::reliability

#endif // CONDUIT_RELIABILITY_RELIABILITY_HH
