#include "src/mem/nuca_l3.hh"

#include <algorithm>

#include "src/sim/logging.hh"
#include "src/sim/probe.hh"

namespace distda::mem
{

NucaL3::NucaL3(const NucaParams &params, noc::Mesh *mesh, Dram *dram,
               energy::Accountant *acct)
    : _params(params), _pageBytes(params.pageBytes),
      // Equal to params.clusters once the check below passes.
      _clusters(static_cast<std::uint64_t>(mesh->numNodes())),
      _mesh(mesh), _dram(dram)
{
    if (params.clusters != mesh->numNodes())
        fatal("NUCA clusters (%d) must match mesh nodes (%d)",
              params.clusters, mesh->numNodes());
    for (int c = 0; c < params.clusters; ++c) {
        CacheParams bp;
        bp.name = "l3c" + std::to_string(c);
        bp.sizeBytes = params.clusterBytes;
        bp.assoc = params.assoc;
        bp.latencyCycles = params.latencyCycles;
        bp.mshrs = params.mshrs;
        bp.clockHz = params.clockHz;
        bp.setHash = true;
        bp.component = energy::Component::L3;
        _banks.push_back(std::make_unique<Cache>(
            bp, acct,
            Cache::Downstream(
                [](void *ctx, Addr a, bool w, sim::Tick t) {
                    return static_cast<Dram *>(ctx)->access(a, w, t);
                },
                _dram)));
    }
}

int
NucaL3::clusterOf(Addr addr) const
{
    // _affinity is sorted by base and ranges are disjoint (each byte of
    // the slab arena is handed out once), so at most one range can hold
    // addr: the last one starting at or below it.
    if (!_affinity.empty()) {
        const auto it = std::upper_bound(
            _affinity.begin(), _affinity.end(), addr,
            [](Addr a, const AffinityRange &r) { return a < r.base; });
        if (it != _affinity.begin()) {
            const AffinityRange &r = *(it - 1);
            if (addr - r.base < r.bytes)
                return r.cluster;
        }
    }
    return static_cast<int>(_clusters.mod(_pageBytes.div(addr)));
}

void
NucaL3::setAffinity(Addr base, std::uint64_t bytes, int cluster)
{
    DISTDA_ASSERT(cluster >= 0 && cluster < _params.clusters,
                  "affinity cluster %d", cluster);
    const auto it = std::upper_bound(
        _affinity.begin(), _affinity.end(), base,
        [](Addr b, const AffinityRange &r) { return b < r.base; });
    DISTDA_ASSERT((it == _affinity.end() || base + bytes <= it->base) &&
                      (it == _affinity.begin() ||
                       (it - 1)->base + (it - 1)->bytes <= base),
                  "overlapping affinity range at %llu",
                  static_cast<unsigned long long>(base));
    _affinity.insert(it, AffinityRange{base, bytes, cluster});
}

CacheResult
NucaL3::access(Addr addr, std::uint32_t size, bool write, int src_node,
               sim::Tick now, TrafficTag tag)
{
    const Addr first = lineAlign(addr);
    const std::uint64_t nlines = linesCovering(addr, std::max(size, 1u));

    CacheResult total{true, 0};
    std::uint64_t remaining = std::max(size, 1u);
    for (std::uint64_t i = 0; i < nlines; ++i) {
        const Addr la = first + i * lineBytes;
        const int cluster = clusterOf(la);
        const sim::Tick t = now + total.latency;
        const std::uint32_t chunk = static_cast<std::uint32_t>(
            std::min<std::uint64_t>(remaining, lineBytes));
        remaining -= chunk;

        sim::Tick net_lat = 0;
        if (src_node != cluster) {
            if (write) {
                // Request carries the data; small ack returns.
                auto req = _mesh->transfer(src_node, cluster, 8 + chunk,
                                           tag.data, t);
                auto ack = _mesh->transfer(cluster, src_node, 8, tag.req,
                                           t + req.latency);
                net_lat = req.latency + ack.latency;
            } else {
                auto req = _mesh->transfer(src_node, cluster, 8, tag.req, t);
                auto resp = _mesh->transfer(cluster, src_node, chunk,
                                            tag.data, t + req.latency);
                net_lat = req.latency + resp.latency;
            }
        }

        CacheResult r = _banks[static_cast<std::size_t>(cluster)]->access(
            la, chunk, write, t + net_lat);
        total.latency += net_lat + r.latency;
        total.hit = total.hit && r.hit;
    }
    return total;
}

double
NucaL3::totalAccesses() const
{
    double total = 0.0;
    for (const auto &b : _banks)
        total += b->accesses();
    return total;
}

double
NucaL3::totalMisses() const
{
    double total = 0.0;
    for (const auto &b : _banks)
        total += b->misses();
    return total;
}

void
NucaL3::exportStats(stats::Group &group) const
{
    for (const auto &b : _banks)
        b->exportStats(group);
    group.add("l3.accesses") = totalAccesses();
    group.add("l3.misses") = totalMisses();
}

void
NucaL3::attachProbe(sim::Probe &probe)
{
    // All banks funnel into one L3-wide miss-latency histogram; the
    // per-bank structure is visible on the timeline tracks instead.
    stats::Distribution &miss =
        probe.addDist("l3.miss_latency_ticks", 0.0, 200'000.0, 20);
    for (int c = 0; c < _params.clusters; ++c) {
        const int track = probe.addTrack(c, "l3bank");
        _banks[static_cast<std::size_t>(c)]->setProbe(&probe, track,
                                                      &miss);
    }
}

} // namespace distda::mem
