/**
 * @file
 * FCFS resource calendars for contention modelling.
 *
 * A Server represents a unit that processes one request at a time
 * (a flash die, a flash channel, a DRAM bank, a controller core).
 * Callers reserve a service interval; the server returns when the
 * request actually starts and completes, implicitly modelling FCFS
 * queueing delay. A ServerGroup models a pool of identical units
 * that the caller addresses by index (e.g. the DRAM banks used by
 * PuD, picked by address).
 */

#ifndef CONDUIT_SIM_SERVER_HH
#define CONDUIT_SIM_SERVER_HH

#include <algorithm>
#include <cstdint>
#include <vector>

#include "src/sim/types.hh"

namespace conduit
{

/** Start/completion pair returned by a reservation. */
struct ServiceInterval
{
    Tick start;
    Tick end;
};

/** A single FCFS service unit. */
class Server
{
  public:
    /**
     * Reserve @p duration ticks of service no earlier than @p earliest.
     * @return The interval actually granted.
     */
    ServiceInterval
    acquire(Tick earliest, Tick duration)
    {
        const Tick start = std::max(earliest, busyUntil_);
        busyUntil_ = start + duration;
        return {start, busyUntil_};
    }

    /** Earliest time a new request could start service. */
    Tick freeAt() const { return busyUntil_; }

    /** Pending work beyond @p now (the paper's delay_queue input). */
    Tick
    backlog(Tick now) const
    {
        return busyUntil_ > now ? busyUntil_ - now : 0;
    }

  private:
    Tick busyUntil_ = 0;
};

/** A pool of identical servers, each reserved by index. */
class ServerGroup
{
  public:
    ServerGroup() = default;

    explicit ServerGroup(std::size_t count) : units_(count) {}

    /** Reserve on a specific unit (e.g. a bank selected by address). */
    ServiceInterval
    acquireOn(std::size_t index, Tick earliest, Tick duration)
    {
        return units_.at(index).acquire(earliest, duration);
    }

    /** Minimum backlog over units (group-level queueing delay). */
    Tick
    backlog(Tick now) const
    {
        Tick best = kMaxTick;
        for (const auto &u : units_)
            best = std::min(best, u.backlog(now));
        return best == kMaxTick ? 0 : best;
    }

    std::size_t size() const { return units_.size(); }

  private:
    std::vector<Server> units_;
};

} // namespace conduit

#endif // CONDUIT_SIM_SERVER_HH
