/**
 * @file
 * Thread-safe, shared, immutable compile cache.
 *
 * Many consumers need the same compiled workload: the cells of a
 * sweep matrix and the jobs of a persistent Device. The cache compiles each distinct (workload,
 * scale, vectorizer-geometry) combination exactly once — even under
 * concurrent first requests, which block on a shared future instead
 * of recompiling — and hands every caller a shared pointer to the
 * immutable result, so concurrent runs share nothing mutable.
 */

#ifndef CONDUIT_CORE_PROGRAM_CACHE_HH
#define CONDUIT_CORE_PROGRAM_CACHE_HH

#include <future>
#include <map>
#include <memory>
#include <mutex>
#include <tuple>

#include "src/sim/config.hh"
#include "src/vectorizer/vectorizer.hh"
#include "src/workloads/workloads.hh"

namespace conduit
{

/** Compile-once cache of vectorized workload programs. */
class ProgramCache
{
  public:
    /**
     * Compile @p id at @p params under @p cfg's vectorizer geometry,
     * or return the previously compiled program. Safe to call from
     * any number of threads; a given key is compiled exactly once.
     */
    std::shared_ptr<const VectorizedProgram>
    get(WorkloadId id, const WorkloadParams &params,
        const SsdConfig &cfg);

    /** Number of distinct programs compiled so far. */
    std::size_t size() const;

  private:
    /** (workload, scale, lanes, pageBytes) — what the output depends on. */
    using Key = std::tuple<int, double, std::uint32_t, std::uint32_t>;

    mutable std::mutex mu_;
    std::map<Key, std::shared_future<
                      std::shared_ptr<const VectorizedProgram>>>
        cache_;
};

} // namespace conduit

#endif // CONDUIT_CORE_PROGRAM_CACHE_HH
