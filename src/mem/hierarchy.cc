#include "src/mem/hierarchy.hh"

#include "src/sim/logging.hh"
#include "src/sim/probe.hh"

namespace distda::mem
{

HierarchyParams::HierarchyParams()
{
    l1.name = "l1d";
    l1.sizeBytes = 32 * 1024;
    l1.assoc = 8;
    l1.latencyCycles = 2;
    l1.mshrs = 8;
    l1.component = energy::Component::L1;

    l2.name = "l2";
    l2.sizeBytes = 128 * 1024;
    l2.assoc = 16;
    l2.latencyCycles = 4;
    l2.mshrs = 16;
    l2.stridePrefetch = true;
    l2.component = energy::Component::L2;

    acp.name = "acp";
    acp.sizeBytes = 1024;
    acp.assoc = 1;
    acp.latencyCycles = 1;
    // The ACP is a request port fronting a 64-MSHR L3 bank; its own
    // queue is deep enough not to throttle the fill FSMs.
    acp.mshrs = 32;
    acp.component = energy::Component::Acp;
}

sim::Tick
Hierarchy::L3Down::operator()(Addr a, bool w, sim::Tick t) const
{
    return l3->access(a, lineBytes, w, node, t, tag).latency;
}

sim::Tick
Hierarchy::CacheDown::operator()(Addr a, bool w, sim::Tick t) const
{
    return next->access(a, lineBytes, w, t).latency;
}

Hierarchy::Hierarchy(const HierarchyParams &params,
                     energy::Accountant *acct)
{
    _mesh = std::make_unique<noc::Mesh>(params.mesh, acct);
    _dram = std::make_unique<Dram>(params.dram, acct);
    _l3 = std::make_unique<NucaL3>(params.l3, _mesh.get(), _dram.get(),
                                   acct);

    _l2Down = L3Down{_l3.get(), _mesh->hostNode(),
                     TrafficTag{noc::TrafficClass::Ctrl,
                                noc::TrafficClass::Data}};
    _l2 = std::make_unique<Cache>(params.l2, acct,
                                  Cache::Downstream::of(_l2Down));
    _l1Down = CacheDown{_l2.get()};
    _l1 = std::make_unique<Cache>(params.l1, acct,
                                  Cache::Downstream::of(_l1Down));

    // Reserve first: the caches hold raw pointers into _acpDowns.
    _acpDowns.reserve(static_cast<std::size_t>(params.l3.clusters));
    for (int c = 0; c < params.l3.clusters; ++c) {
        _acpDowns.push_back(
            L3Down{_l3.get(), c,
                   TrafficTag{noc::TrafficClass::AccCtrl,
                              noc::TrafficClass::AccData}});
        CacheParams ap = params.acp;
        ap.name = "acp" + std::to_string(c);
        _acps.push_back(std::make_unique<Cache>(
            ap, acct, Cache::Downstream::of(_acpDowns.back())));
    }
}

CacheResult
Hierarchy::accelAccess(Addr addr, std::uint32_t size, bool write,
                       int cluster, sim::Tick now)
{
    DISTDA_ASSERT(cluster >= 0 &&
                      cluster < static_cast<int>(_acps.size()),
                  "accel access from bad cluster %d", cluster);
    return _acps[static_cast<std::size_t>(cluster)]->access(addr, size,
                                                            write, now);
}

double
Hierarchy::cacheAccesses() const
{
    double total = _l1->accesses() + _l2->accesses() +
                   _l3->totalAccesses();
    for (const auto &a : _acps)
        total += a->accesses();
    return total;
}

void
Hierarchy::exportStats(stats::Group &group) const
{
    _l1->exportStats(group);
    _l2->exportStats(group);
    _l3->exportStats(group);
    _dram->exportStats(group);
    _mesh->exportStats(group);
    double acp_acc = 0.0;
    for (const auto &a : _acps)
        acp_acc += a->accesses();
    group.add("acp.accesses") = acp_acc;
    group.add("cache_accesses_total") = cacheAccesses();
}

void
Hierarchy::attachProbe(sim::Probe &probe)
{
    const int host = _mesh->hostNode();
    _l1->setProbe(&probe, probe.addTrack(host, "l1d"),
                  &probe.addDist("l1d.miss_latency_ticks", 0.0,
                                 200'000.0, 20));
    _l2->setProbe(&probe, probe.addTrack(host, "l2"),
                  &probe.addDist("l2.miss_latency_ticks", 0.0,
                                 200'000.0, 20));
    stats::Distribution &acp_miss =
        probe.addDist("acp.miss_latency_ticks", 0.0, 200'000.0, 20);
    for (std::size_t c = 0; c < _acps.size(); ++c) {
        _acps[c]->setProbe(
            &probe, probe.addTrack(static_cast<int>(c), "acp"),
            &acp_miss);
    }
    _l3->attachProbe(probe);
    _mesh->setProbe(&probe);
}

} // namespace distda::mem
