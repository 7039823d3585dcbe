#include "src/noc/mesh.hh"

#include <cstdlib>

#include "src/sim/logging.hh"
#include "src/sim/probe.hh"

namespace distda::noc
{

const char *
trafficClassName(TrafficClass c)
{
    switch (c) {
      case TrafficClass::Ctrl: return "ctrl";
      case TrafficClass::Data: return "data";
      case TrafficClass::AccCtrl: return "acc_ctrl";
      case TrafficClass::AccData: return "acc_data";
      default: panic("bad traffic class %d", static_cast<int>(c));
    }
}

Mesh::Mesh(const MeshParams &params, energy::Accountant *acct)
    : _params(params), _acct(acct), _clock(params.clockHz),
      _routerBusyUntil(static_cast<std::size_t>(numNodes()), 0)
{
    if (params.cols < 1 || params.rows < 1)
        fatal("mesh dimensions must be positive");
    if (params.hostNode < 0 || params.hostNode >= numNodes())
        fatal("host node %d outside mesh", params.hostNode);
    _linkBytes = sim::Divisor(params.linkBytes);
    _flitBytes = sim::Divisor(params.flitBytes);
    const int n = numNodes();
    _hops.resize(static_cast<std::size_t>(n) * static_cast<std::size_t>(n));
    for (int src = 0; src < n; ++src) {
        for (int dst = 0; dst < n; ++dst) {
            _hops[static_cast<std::size_t>(src * n + dst)] =
                std::abs(src % params.cols - dst % params.cols) +
                std::abs(src / params.cols - dst / params.cols);
        }
    }
}

void
Mesh::setProbe(sim::Probe *probe)
{
    _probe = probe;
    _nodeTracks.clear();
    _pktBytes = nullptr;
    _pktHops = nullptr;
    if (!probe)
        return;
    _nodeTracks.reserve(static_cast<std::size_t>(numNodes()));
    for (int n = 0; n < numNodes(); ++n)
        _nodeTracks.push_back(probe->addTrack(n, "noc"));
    _pktBytes = &probe->addDist("noc.packet_bytes", 0.0, 128.0, 16);
    _pktHops = &probe->addDist("noc.packet_hops", 0.0, 8.0, 8);
}

void
Mesh::recordTransfer(int src, int nhops, std::uint32_t bytes,
                     TrafficClass cls, sim::Tick start, sim::Tick end)
{
    // trafficClassName returns string literals, satisfying the probe's
    // static-storage span-name contract.
    _probe->span(_nodeTracks[static_cast<std::size_t>(src)],
                 trafficClassName(cls), start, end);
    _pktBytes->sample(static_cast<double>(bytes));
    _pktHops->sample(static_cast<double>(nhops));
}

double
Mesh::bytesInClass(TrafficClass cls) const
{
    return _bytes[static_cast<std::size_t>(cls)];
}

double
Mesh::totalBytes() const
{
    double total = 0.0;
    for (double b : _bytes)
        total += b;
    return total;
}

void
Mesh::exportStats(stats::Group &group) const
{
    for (std::size_t i = 0;
         i < static_cast<std::size_t>(TrafficClass::NumClasses); ++i) {
        auto cls = static_cast<TrafficClass>(i);
        group.add(std::string("noc_bytes.") + trafficClassName(cls)) =
            _bytes[i];
        group.add(std::string("noc_packets.") + trafficClassName(cls)) =
            _packets[i];
    }
    group.add("noc_bytes.total") = totalBytes();
    group.add("noc_hop_flits") = _totalHopFlits;
}

} // namespace distda::noc
