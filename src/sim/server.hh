/**
 * @file
 * FCFS resource calendars for contention modelling.
 *
 * A Server represents a unit that processes one request at a time
 * (a flash die, a flash channel, a DRAM bank, a controller core).
 * Callers reserve a service interval; the server returns when the
 * request actually starts and completes, implicitly modelling FCFS
 * queueing delay. A ServerGroup models a pool of identical units with
 * least-loaded dispatch (e.g. the eight DRAM banks used by PuD).
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

    Tick queueDelay(Tick requested) const { return start - requested; }
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
        busyTime_ += duration;
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

    /** Total busy time accumulated (for utilization stats). */
    Tick busyTime() const { return busyTime_; }

  private:
    Tick busyUntil_ = 0;
    Tick busyTime_ = 0;
};

/** A pool of identical servers with least-loaded dispatch. */
class ServerGroup
{
  public:
    ServerGroup() = default;

    explicit ServerGroup(std::size_t count) : units_(count) {}

    /** Reserve on the unit that can start soonest. */
    ServiceInterval
    acquire(Tick earliest, Tick duration)
    {
        return pick()->acquire(earliest, duration);
    }

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

    /** Sum of busy time over all units. */
    Tick
    busyTime() const
    {
        Tick total = 0;
        for (const auto &u : units_)
            total += u.busyTime();
        return total;
    }

    std::size_t size() const { return units_.size(); }

  private:
    Server *
    pick()
    {
        Server *best = &units_.front();
        for (auto &u : units_) {
            if (u.freeAt() < best->freeAt())
                best = &u;
        }
        return best;
    }

    std::vector<Server> units_;
};

} // namespace conduit

#endif // CONDUIT_SIM_SERVER_HH
