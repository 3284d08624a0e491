#include "src/reliability/reliability.hh"

#include <algorithm>

namespace conduit::reliability
{

ReliabilityModel::ReliabilityModel(const NandConfig &nand,
                                   const ReliabilityConfig &cfg,
                                   std::uint64_t seed, StatSet *stats)
    : cfg_(cfg), rber_(cfg, seed, nand.totalBlocks()), ecc_(cfg),
      statRetriedReads_(stats, "rel.retried_reads"),
      statEccRetries_(stats, "rel.ecc_retries"),
      statSoftDecodes_(stats, "rel.soft_decodes"),
      statUncorrectable_(stats, "rel.uncorrectable_reads"),
      statRetiredBlocks_(stats, "rel.retired_blocks"),
      statScrubPasses_(stats, "rel.scrub_passes"),
      statScrubRefreshes_(stats, "rel.scrub_refreshes")
{
    BlockWear init;
    init.retentionOffsetSeconds =
        std::max(0.0, cfg_.retentionDays) * 86400.0;
    wear_.assign(static_cast<std::size_t>(nand.totalBlocks()), init);
}

double
ReliabilityModel::retentionSecondsOf(std::uint64_t block,
                                     Tick now) const
{
    const BlockWear &w = wear_[block];
    const Tick since = now > w.programmedAt ? now - w.programmedAt : 0;
    return w.retentionOffsetSeconds + ticksToSeconds(since);
}

double
ReliabilityModel::rberOf(std::uint64_t block, std::uint32_t erases,
                         Tick now) const
{
    return rber_.rber(block, cfg_.preWearCycles + erases,
                      retentionSecondsOf(block, now));
}

Tick
ReliabilityModel::onRead(std::uint64_t block, std::uint32_t erases,
                         Tick now)
{
    BlockWear &w = wear_[block];
    // Memoized per (erase, retention bucket) — see BlockWear::plan.
    // Retention is evaluated at the bucket start, keeping exp/pow
    // off the per-read path; noteErase invalidates the memo.
    const Tick bucket = now / kPenaltyBucketTicks;
    if (w.planBucket != bucket) {
        w.plan = ecc_.plan(
            rberOf(block, erases, bucket * kPenaltyBucketTicks));
        w.planBucket = bucket;
    }
    const ReadPlan plan = w.plan;
    // Anything beyond the free hard decode counts — with
    // maxReadRetries = 0 a plan can be soft-only (retries == 0).
    if (plan.retries == 0 && !plan.soft && !plan.uncorrectable)
        return 0;
    statRetriedReads_.inc();
    statEccRetries_.inc(plan.retries);
    if (plan.soft) {
        statSoftDecodes_.inc();
        // Only ladder-exhausting reads vote for retirement: plain
        // retries are routine on a uniformly aged device, and
        // counting them would retire the entire pool.
        if (++w.softReads >= cfg_.retireSoftThreshold)
            w.retirePending = true;
    }
    if (plan.uncorrectable) {
        w.retirePending = true;
        statUncorrectable_.inc();
    }
    return plan.extraTicks;
}

void
ReliabilityModel::noteErase(std::uint64_t block, Tick now)
{
    BlockWear &w = wear_[block];
    w.programmedAt = now;
    w.retentionOffsetSeconds = 0.0;
    w.softReads = 0; // correction history restarts with fresh data
    w.planBucket = kMaxTick; // read-plan memo is stale
}

void
ReliabilityModel::markRetired(std::uint64_t block)
{
    BlockWear &w = wear_[block];
    if (w.retired)
        return;
    w.retired = true;
    w.retirePending = false;
    statRetiredBlocks_.inc();
}

bool
ReliabilityModel::scrubDue(std::uint64_t block, std::uint32_t erases,
                           Tick now) const
{
    if (wear_[block].retired)
        return false;
    return rberOf(block, erases, now) > cfg_.scrubRberThreshold;
}

void
ReliabilityModel::notePass()
{
    statScrubPasses_.inc();
}

void
ReliabilityModel::noteRefresh()
{
    statScrubRefreshes_.inc();
}

void
ReliabilityModel::noteLevelMigration()
{
    ++wearLevelMigrations_;
}

ReliabilityStats
ReliabilityModel::stats() const
{
    ReliabilityStats s;
    s.retriedReads = statRetriedReads_.value();
    s.eccRetries = statEccRetries_.value();
    s.softDecodes = statSoftDecodes_.value();
    s.uncorrectableReads = statUncorrectable_.value();
    s.retiredBlocks = statRetiredBlocks_.value();
    s.scrubPasses = statScrubPasses_.value();
    s.scrubRefreshes = statScrubRefreshes_.value();
    s.wearLevelMigrations = wearLevelMigrations_;
    return s;
}

Tick
ReliabilityModel::typicalReadPenalty(std::uint64_t erases,
                                     Tick now) const
{
    if (wear_.empty())
        return 0;
    // Memoized per (erase count, coarse time bucket): retention
    // moves on a days scale, so evaluating it at the bucket start
    // keeps the exp/pow off the per-instruction path without
    // visibly quantizing the estimate.
    const Tick bucket = now / kPenaltyBucketTicks;
    if (bucket == penaltyBucket_ && erases == penaltyErases_)
        return penalty_;
    const double avg_wear = static_cast<double>(cfg_.preWearCycles) +
        static_cast<double>(erases) /
            static_cast<double>(wear_.size());
    // Average retention: the fast-forward offset plus elapsed run
    // time. Scrub refreshes lower individual blocks below this —
    // the table wants the expectation, not the per-block truth.
    const double retention_s =
        std::max(0.0, cfg_.retentionDays) * 86400.0 +
        ticksToSeconds(bucket * kPenaltyBucketTicks);
    penaltyBucket_ = bucket;
    penaltyErases_ = erases;
    penalty_ = ecc_.plan(rber_.typicalRber(avg_wear, retention_s))
                   .extraTicks;
    return penalty_;
}

} // namespace conduit::reliability
