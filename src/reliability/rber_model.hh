/**
 * @file
 * Wear- and retention-dependent raw bit error rate.
 *
 * RBER follows the standard two-factor characterization of 3D NAND
 * error studies (Cai et al., Mielke et al.): an exponential growth
 * term in program/erase cycling and a power-law term in retention
 * age, combined multiplicatively:
 *
 *   RBER(pe, t) = rberFresh
 *               * exp(wearAlpha * pe / ratedCycles)
 *               * (1 + retentionBeta * (t / nominalDays)^shape)
 *               * jitter(block)
 *
 * jitter is a deterministic per-block factor in [1-j, 1+j] drawn
 * once from the run seed (src/sim/rng.hh), modelling block-to-block
 * process variation: the same seed always produces the same weak and
 * strong blocks, so aged-device runs are exactly reproducible.
 *
 * The model is strictly monotone in both wear and retention — more
 * cycles or longer retention never lowers the error rate — which the
 * ECC ladder turns into monotone read latency.
 */

#ifndef CONDUIT_RELIABILITY_RBER_MODEL_HH
#define CONDUIT_RELIABILITY_RBER_MODEL_HH

#include <cstdint>
#include <vector>

#include "src/sim/config.hh"

namespace conduit::reliability
{

/** RBER as a function of (wear, retention, block identity). */
class RberModel
{
  public:
    /**
     * @param cfg Model constants.
     * @param seed Run seed; the per-block jitter table derives from
     *             it alone, so equal seeds give equal devices.
     * @param blocks Number of physical blocks (jitter table size).
     */
    RberModel(const ReliabilityConfig &cfg, std::uint64_t seed,
              std::uint64_t blocks);

    /**
     * Error rate of @p block after @p peCycles erases with data
     * retained for @p retentionSeconds.
     */
    double rber(std::uint64_t block, std::uint32_t pe_cycles,
                double retention_seconds) const;

    /**
     * Device-typical RBER (jitter-free) at the given age; used for
     * the static cost tables the offloader consults (§4.3.2), which
     * model expected — not per-block — behaviour.
     */
    double typicalRber(double pe_cycles,
                       double retention_seconds) const;

    /** The block's jitter factor (tests and introspection). */
    // lint: allow(test-only, the reliability tests bound the per-block jitter)
    double jitterOf(std::uint64_t block) const
    {
        return jitter_.at(block);
    }

  private:
    double ageFactor(double pe_cycles, double retention_seconds) const;

    ReliabilityConfig cfg_;
    std::vector<double> jitter_;
};

} // namespace conduit::reliability

#endif // CONDUIT_RELIABILITY_RBER_MODEL_HH
