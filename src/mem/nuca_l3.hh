/**
 * @file
 * Static-NUCA L3 (Table III: 2MB total, 8 clusters of 256KB on the mesh
 * NoC, 16-way, 64 MSHRs, latency 10).
 *
 * Addresses map to clusters at page granularity so that an inner-loop
 * window of one data structure mostly falls in one cluster (which the
 * paper's greedy home-node placement exploits); explicit per-range
 * affinity overrides implement the manual allocation customization of
 * the Dist-DA-F+A configuration (Fig 14).
 */

#ifndef DISTDA_MEM_NUCA_L3_HH
#define DISTDA_MEM_NUCA_L3_HH

#include <cstdint>
#include <map>
#include <memory>
#include <vector>

#include "src/mem/cache.hh"
#include "src/mem/dram.hh"
#include "src/noc/mesh.hh"
#include "src/sim/divisor.hh"

namespace distda::mem
{

/** NUCA L3 configuration. */
struct NucaParams
{
    int clusters = 8;
    std::uint64_t clusterBytes = 256 * 1024;
    int assoc = 16;
    sim::Cycles latencyCycles = 10;
    int mshrs = 64;
    std::uint64_t clockHz = 2'000'000'000ULL;
    /** Interleave granule: coarse enough that an inner-loop
     *  window (a few stencil rows) anchors in one cluster. */
    std::uint64_t pageBytes = 16384;
};

/** Traffic classes used for one requester's L3 traffic. */
struct TrafficTag
{
    noc::TrafficClass req = noc::TrafficClass::Ctrl;
    noc::TrafficClass data = noc::TrafficClass::Data;
};

/** The shared, distributed last-level cache. */
class NucaL3
{
  public:
    NucaL3(const NucaParams &params, noc::Mesh *mesh, Dram *dram,
           energy::Accountant *acct);

    const NucaParams &params() const { return _params; }

    /** Home cluster of @p addr (affinity override, else page interleave). */
    int clusterOf(Addr addr) const;

    /** Anchor [base, base+bytes) to @p cluster (allocation affinity). */
    void setAffinity(Addr base, std::uint64_t bytes, int cluster);

    /** Drop all affinity overrides. */
    void clearAffinity() { _affinity.clear(); }

    /**
     * Access @p size bytes at @p addr from mesh node @p src_node.
     * Cross-cluster requests ride the NoC with @p tag's classes.
     */
    CacheResult access(Addr addr, std::uint32_t size, bool write,
                       int src_node, sim::Tick now, TrafficTag tag);

    /** Per-cluster bank. */
    Cache &bank(int cluster) { return *_banks[static_cast<std::size_t>(cluster)]; }
    const Cache &bank(int cluster) const
    {
        return *_banks[static_cast<std::size_t>(cluster)];
    }

    /** Total bank accesses across clusters. */
    double totalAccesses() const;
    /** Total bank misses across clusters. */
    double totalMisses() const;

    void exportStats(stats::Group &group) const;

    /**
     * Register one timeline track per bank (under its cluster's
     * process) and route bank miss spans/latencies into @p probe.
     */
    void attachProbe(sim::Probe &probe);

  private:
    struct AffinityRange
    {
        Addr base;
        std::uint64_t bytes;
        int cluster;
    };

    NucaParams _params;
    sim::Divisor _pageBytes;
    sim::Divisor _clusters;
    noc::Mesh *_mesh;
    Dram *_dram;
    std::vector<std::unique_ptr<Cache>> _banks;
    std::vector<AffinityRange> _affinity;
};

} // namespace distda::mem

#endif // DISTDA_MEM_NUCA_L3_HH
