/**
 * @file
 * Host-level placement policies for a device fleet.
 *
 * A PlacementPolicy picks the device an arriving job runs on. The
 * determinism contract mirrors the rest of the repository: a policy
 * may observe only (a) the job being routed, (b) its own state
 * accumulated from previous decisions, and (c) the per-device
 * DeviceProbes the cluster hands it — host-visible backlog state at
 * the job's arrival tick. Nothing wall-clock-dependent ever enters a
 * decision, so a fleet run is bit-identical across host thread
 * counts and repeats.
 *
 * Policies that never read the probes (round-robin, seeded random)
 * declare so via needsProbes(); the cluster then skips advancing
 * every device to each arrival tick, which keeps those fleets on
 * exactly the bare open-loop submission path a single Device runs
 * (the single-device equivalence contract).
 */

#ifndef CONDUIT_CLUSTER_PLACEMENT_HH
#define CONDUIT_CLUSTER_PLACEMENT_HH

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "src/core/device.hh"

namespace conduit::cluster
{

/** What a placement policy may know about the job being routed. */
struct JobView
{
    /** Fleet-wide submission index (0-based, arrival order). */
    std::size_t index = 0;

    /** Tenant slot the job belongs to (affinity key). */
    std::size_t tenant = 0;

    /** Arrival tick on the fleet clock. */
    Tick arrival = 0;
};

/** Routes arriving jobs to devices (host-visible state only). */
class PlacementPolicy
{
  public:
    virtual ~PlacementPolicy() = default;

    /** Display name (the one makePlacement resolves). */
    virtual const char *name() const = 0;

    /**
     * Does place() read the probes? When false the cluster skips
     * advancing devices to each arrival tick and passes idle
     * probes — the probe-free fast path.
     */
    virtual bool needsProbes() const { return false; }

    /**
     * Pick a device for @p job. @p probes has one entry per device,
     * taken at the job's arrival tick (idle defaults for probe-free
     * policies). Must return an index < probes.size().
     */
    virtual std::size_t
    place(const JobView &job,
          const std::vector<DeviceProbe> &probes) = 0;
};

/**
 * Construct a placement policy by display name: "round-robin",
 * "random", "least-backlog", or "affinity".
 * @throws std::invalid_argument for an unknown name.
 */
std::unique_ptr<PlacementPolicy>
makePlacement(const std::string &name, std::uint64_t seed = 1);

/** Every display name makePlacement() accepts, in table order. */
const std::vector<std::string> &placementNames();

} // namespace conduit::cluster

#endif // CONDUIT_CLUSTER_PLACEMENT_HH
