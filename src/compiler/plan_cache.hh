/**
 * @file
 * Process-wide cache of compiled OffloadPlans, keyed on the stable
 * content fingerprint of (canonicalized kernel, CompileOptions).
 *
 * Compilation is deterministic, so two lookups with the same
 * fingerprint may freely share one immutable plan: ExecContext, the
 * sweep engine's worker threads, and the fuzz campaign all hit the
 * same instance. Plans are handed out as shared_ptr<const OffloadPlan>
 * — a holder keeps its plan alive even if the cache evicts it, and
 * nothing downstream may mutate a shared plan.
 *
 * The cache tracks hit/miss counts and compile wall-time so the
 * setup-cost share of offload overhead (Colagrande & Benini's offload
 * latency breakdown) is measurable: every hit's savedMs is the wall
 * time the original compile of that entry cost.
 */

#ifndef DISTDA_COMPILER_PLAN_CACHE_HH
#define DISTDA_COMPILER_PLAN_CACHE_HH

#include <deque>
#include <memory>
#include <mutex>
#include <string>
#include <unordered_map>

#include "src/compiler/plan.hh"

namespace distda::compiler
{

/** Thread-safe, process-wide plan memoizer. */
class PlanCache
{
  public:
    /** Outcome of one getOrCompile: the plan plus accounting. */
    struct Lookup
    {
        std::shared_ptr<const OffloadPlan> plan;
        bool hit = false;
        /** Wall-clock this call spent compiling (0 on a hit). */
        double compileMs = 0.0;
        /** Wall-clock a hit avoided (the entry's original compileMs). */
        double savedMs = 0.0;
    };

    /** Cumulative counters since construction (or clear()). */
    struct Stats
    {
        std::uint64_t hits = 0;
        std::uint64_t misses = 0;
        std::uint64_t evictions = 0; ///< entries dropped at capacity
        double compileMs = 0.0; ///< total wall time spent compiling
        double savedMs = 0.0;   ///< total wall time hits avoided
        std::size_t entries = 0;
        std::size_t capacity = 0; ///< current maximum entry count

        double
        hitRate() const
        {
            const double total =
                static_cast<double>(hits) + static_cast<double>(misses);
            return total > 0.0 ? static_cast<double>(hits) / total : 0.0;
        }
    };

    /** The process-wide instance every subsystem shares. */
    static PlanCache &process();

    /**
     * Return the cached plan for (kernel, opts), compiling and
     * inserting on a miss. Compilation runs outside the cache lock, so
     * concurrent misses on different kernels compile in parallel; two
     * concurrent misses on the same fingerprint both compile and the
     * first insert wins (determinism makes the copies identical).
     */
    Lookup getOrCompile(const Kernel &kernel, const CompileOptions &opts);

    /**
     * Insert an externally obtained plan (e.g. loaded from a --plan-dir
     * artifact) under its recorded fingerprint. First insert wins.
     */
    void insert(std::shared_ptr<const OffloadPlan> plan);

    Stats stats() const;

    /** Drop all entries and reset counters (tests). */
    void clear();

    /**
     * FIFO capacity bound (default 4096): long fuzz campaigns and
     * multi-tenant serve traffic compile an unbounded stream of
     * distinct kernels, and the cache must not grow with them.
     * Holders keep evicted plans alive via their shared_ptr. Values
     * < 1 clamp to 1; shrinking below the current entry count evicts
     * oldest-first immediately (counted in Stats::evictions).
     */
    void setCapacity(std::size_t capacity);

  private:
    struct Entry
    {
        std::shared_ptr<const OffloadPlan> plan;
        double compileMs = 0.0;
    };

    static constexpr std::size_t kDefaultCapacity = 4096;

    void evictLocked();

    mutable std::mutex _mu;
    std::unordered_map<std::string, Entry> _entries;
    std::deque<std::string> _order; ///< insertion order for eviction
    Stats _stats;
    std::size_t _capacity = kDefaultCapacity;
};

} // namespace distda::compiler

#endif // DISTDA_COMPILER_PLAN_CACHE_HH
