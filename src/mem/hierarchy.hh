/**
 * @file
 * The full memory system of Table III wired together: private L1/L2 for
 * the host (L2 with a stride prefetcher), the NUCA L3 on the mesh NoC,
 * LPDDR DRAM behind it, and per-cluster accelerator coherency ports
 * (ACP, 1-way 1KB) through which all accelerator requests pass.
 */

#ifndef DISTDA_MEM_HIERARCHY_HH
#define DISTDA_MEM_HIERARCHY_HH

#include <memory>
#include <vector>

#include "src/mem/cache.hh"
#include "src/mem/dram.hh"
#include "src/mem/nuca_l3.hh"
#include "src/noc/mesh.hh"

namespace distda::mem
{

/** Whole-hierarchy configuration (defaults reproduce Table III). */
struct HierarchyParams
{
    CacheParams l1;
    CacheParams l2;
    NucaParams l3;
    DramParams dram;
    noc::MeshParams mesh;
    CacheParams acp;

    HierarchyParams();
};

/** The assembled memory system. */
class Hierarchy
{
  public:
    Hierarchy(const HierarchyParams &params, energy::Accountant *acct);

    noc::Mesh &mesh() { return *_mesh; }
    NucaL3 &l3() { return *_l3; }
    Dram &dram() { return *_dram; }
    Cache &l1() { return *_l1; }
    Cache &l2() { return *_l2; }
    Cache &acp(int cluster)
    {
        return *_acps[static_cast<std::size_t>(cluster)];
    }

    /** Host demand access: L1 -> L2 -> L3 -> DRAM. */
    CacheResult
    hostAccess(Addr addr, std::uint32_t size, bool write, sim::Tick now)
    {
        return _l1->access(addr, size, write, now);
    }

    /** Accelerator access through the cluster-local ACP into the L3. */
    CacheResult accelAccess(Addr addr, std::uint32_t size, bool write,
                            int cluster, sim::Tick now);

    /**
     * Total cache accesses (L1 + L2 + L3 banks + ACPs), the Figure 8
     * metric.
     */
    double cacheAccesses() const;

    void exportStats(stats::Group &group) const;

    /**
     * Wire a per-run timeline probe through the whole memory system:
     * host L1/L2 tracks at the host cluster, one ACP track per
     * cluster, one track per L3 bank, and the mesh's per-node packet
     * tracks. Call once per run, before simulation starts.
     */
    void attachProbe(sim::Probe &probe);

  private:
    /**
     * Stable storage for the caches' non-owning Downstream views: one
     * adapter per edge in the hierarchy graph, owned alongside the
     * caches that point at it.
     */
    struct L3Down
    {
        NucaL3 *l3 = nullptr;
        int node = 0;
        TrafficTag tag{};
        sim::Tick operator()(Addr a, bool w, sim::Tick t) const;
    };
    struct CacheDown
    {
        Cache *next = nullptr;
        sim::Tick operator()(Addr a, bool w, sim::Tick t) const;
    };

    std::unique_ptr<noc::Mesh> _mesh;
    std::unique_ptr<Dram> _dram;
    std::unique_ptr<NucaL3> _l3;
    L3Down _l2Down;
    CacheDown _l1Down;
    std::vector<L3Down> _acpDowns;
    std::unique_ptr<Cache> _l2;
    std::unique_ptr<Cache> _l1;
    std::vector<std::unique_ptr<Cache>> _acps;
};

} // namespace distda::mem

#endif // DISTDA_MEM_HIERARCHY_HH
