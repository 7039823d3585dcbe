/**
 * @file
 * Set-associative write-back cache with LRU replacement, a finite-MSHR
 * occupancy model and an optional stride prefetcher (Table III gives
 * the L2 a stride prefetcher).
 *
 * The cache is functional-with-timing: tags are tracked exactly so hit
 * and miss counts (and therefore data-movement numbers) are real, and
 * latency is accumulated along the walk through lower levels. MSHRs
 * bound the memory-level parallelism: a miss occupies the
 * earliest-free MSHR and queues when all are busy.
 *
 * The miss path avoids data-dependent branches (DESIGN.md §4): the
 * MSHR free times are a sorted ring and the victim is the first
 * argmin of the set's LRU stamps, where a never-filled way has stamp
 * 0 and tag ~0.
 */

#ifndef DISTDA_MEM_CACHE_HH
#define DISTDA_MEM_CACHE_HH

#include <algorithm>
#include <cstdint>
#include <string>
#include <vector>

#include "src/energy/energy_model.hh"
#include "src/mem/addr.hh"
#include "src/sim/divisor.hh"
#include "src/sim/fn_ref.hh"
#include "src/sim/stats.hh"
#include "src/sim/ticks.hh"

namespace distda::sim
{
class Probe;
} // namespace distda::sim

namespace distda::mem
{

/** Static configuration for one cache. */
struct CacheParams
{
    std::string name = "cache";
    std::uint64_t sizeBytes = 32 * 1024;
    int assoc = 8;
    sim::Cycles latencyCycles = 2;
    int mshrs = 8;
    std::uint64_t clockHz = 2'000'000'000ULL;
    bool writeback = true;
    bool stridePrefetch = false;
    int prefetchDegree = 2;
    /**
     * XOR-fold high line bits into the set index. NUCA banks need
     * this: cluster selection consumes page bits, so without hashing
     * only a fraction of a bank's sets would ever be used.
     */
    bool setHash = false;
    energy::Component component = energy::Component::L1;
};

/** Outcome of a single cache access. */
struct CacheResult
{
    bool hit = false;
    sim::Tick latency = 0;
};

/**
 * One cache level. Lower levels are reached through a downstream
 * callback so the same class serves private L1/L2, NUCA L3 banks, the
 * Mono-CA private cache and the ACP front-ends.
 */
class Cache
{
  public:
    /**
     * Downstream line-fill handler: (line_addr, is_write, now) ->
     * latency. Writebacks call it with is_write=true; the returned
     * latency of writebacks is not added to the critical path. The
     * target must outlive the cache; downstreams point at hierarchy
     * components owned alongside the cache itself.
     */
    using Downstream = sim::FnRef<sim::Tick(Addr, bool, sim::Tick)>;

    Cache(const CacheParams &params, energy::Accountant *acct,
          Downstream downstream);

    const CacheParams &params() const { return _params; }

    /**
     * Access @p size bytes at @p addr. Multi-line requests walk each
     * covered line; the reported latency is the first-word latency plus
     * line-pipelined continuation. Inline so the common single-line
     * request is one direct call into accessLine.
     */
    CacheResult
    access(Addr addr, std::uint32_t size, bool write, sim::Tick now)
    {
        const Addr first = lineAlign(addr);
        const std::uint64_t nlines =
            linesCovering(addr, std::max(size, 1u));

        CacheResult total = accessLine(first, write, now);
        // Subsequent lines of a multi-line request are pipelined; they
        // extend latency only past the first line's completion.
        for (std::uint64_t i = 1; i < nlines; ++i) {
            CacheResult r = accessLine(first + i * lineBytes, write,
                                       now + total.latency);
            total.latency += r.latency;
            total.hit = total.hit && r.hit;
        }
        return total;
    }

    /** True when the line containing @p addr is resident. */
    bool contains(Addr addr) const;

    double accesses() const { return static_cast<double>(_accesses); }
    double hits() const { return static_cast<double>(_hits); }
    double misses() const { return static_cast<double>(_misses); }
    double writebacks() const { return static_cast<double>(_writebacks); }
    double
    prefetchesIssued() const
    {
        return static_cast<double>(_prefetches);
    }
    /** Demand hits whose line was brought in by the prefetcher. */
    double
    prefetchHits() const
    {
        return static_cast<double>(_prefetchHits);
    }

    void exportStats(stats::Group &group) const;

    /**
     * Attach a timeline probe: demand misses emit "miss" spans on
     * @p track and sample @p miss_dist with their latency in ticks.
     * Null @p probe detaches; the hot path then pays one pointer test.
     */
    void
    setProbe(sim::Probe *probe, int track,
             stats::Distribution *miss_dist)
    {
        _probe = probe;
        _probeTrack = track;
        _missDist = miss_dist;
    }

  private:
    struct Line
    {
        /** Line number; ~0 (which no line number reaches) until the
         *  way is first filled. Lines are never invalidated. */
        Addr tag = ~Addr(0);
        bool dirty = false;
        bool prefetched = false; ///< filled by the prefetcher, no
                                 ///< demand hit yet
        /** Stamp of the last touch; 0 until the way is first filled,
         *  since _lruTick is pre-incremented. */
        std::uint64_t lru = 0;
    };

    /** Access one line; returns (hit, latency). */
    CacheResult accessLine(Addr line_addr, bool write, sim::Tick now);

    /** Fill @p line_addr, evicting as needed; returns fill latency. */
    sim::Tick fill(Addr line_addr, bool dirty, sim::Tick now,
                   bool count_demand);

    /** Fill into a pre-selected victim way (no victim scan). */
    sim::Tick fillVictim(Line *victim, Addr line_addr, bool dirty,
                         sim::Tick now, bool count_demand);

    /** First way of the set @p line_addr maps to. */
    Line *
    setOf(Addr line_addr)
    {
        return &_lines[setIndex(line_addr) *
                       static_cast<std::size_t>(_params.assoc)];
    }

    /** The way of @p set holding @p tag, or null. */
    Line *findIn(Line *set, Addr tag) const;

    /**
     * The replacement victim of @p set: the first way with the
     * smallest LRU stamp. That is the first never-filled way (stamp
     * 0) if there is one, else the least recently used line. Picked
     * with conditional moves, not branches.
     */
    Line *victimIn(Line *set) const;

    std::size_t setIndex(Addr line_addr) const;
    Line *findLine(Addr line_addr);
    const Line *findLine(Addr line_addr) const;

    /** Train the stride prefetcher and issue prefetch fills. */
    void prefetch(Addr line_addr, sim::Tick now);

    CacheParams _params;
    energy::Accountant *_acct;
    Downstream _downstream;
    sim::ClockDomain _clock;
    std::size_t _numSets;
    sim::Divisor _sets; ///< _numSets, masked when a power of two
    sim::Tick _tagLat; ///< tag/hit latency in ticks, fixed per cache
    std::vector<Line> _lines;          ///< numSets * assoc entries
    /**
     * MSHR next-free ticks as a ring sorted ascending from _mshrHead:
     * the earliest-free MSHR is _mshrFree[_mshrHead]. A miss takes it,
     * advances the head and sorts its completion tick in from the
     * tail, which is almost always already in place.
     */
    std::vector<sim::Tick> _mshrFree;
    std::size_t _mshrHead = 0;
    std::uint64_t _lruTick = 0;
    /**
     * One-entry MRU filter in front of the tag walk: sequential
     * streams hit the same line repeatedly, so most lookups resolve
     * with one compare. Tags are full line numbers (unique across the
     * cache) and _lines never reallocates, so a stale pointer
     * self-invalidates via the tag check.
     */
    Line *_mru = nullptr;

    struct StrideEntry
    {
        std::uint64_t region = ~0ULL;
        std::int64_t lastLine = 0;
        std::int64_t stride = 0;
        int confidence = 0;
    };
    std::vector<StrideEntry> _strideTable;

    std::uint64_t _accesses = 0, _hits = 0, _misses = 0, _writebacks = 0;
    std::uint64_t _prefetches = 0, _prefetchHits = 0;

    sim::Probe *_probe = nullptr;
    int _probeTrack = -1;
    stats::Distribution *_missDist = nullptr;
};

} // namespace distda::mem

#endif // DISTDA_MEM_CACHE_HH
