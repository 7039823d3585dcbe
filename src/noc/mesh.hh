/**
 * @file
 * 2D mesh network-on-chip connecting the eight L3 clusters (Table III:
 * "8 clusters (4 banks per cluster) on mesh NoC").
 *
 * The mesh uses XY dimension-order routing, a light per-router
 * contention model, and credit-based backpressure is realized at the
 * architectural level by the access-unit buffers (producers only send
 * when consumer buffer credits exist; see Channel in the engine).
 *
 * Traffic is accounted in the four categories of Figure 10:
 * host-initiated control (ctrl) and data (data), and inter-accelerator
 * control (acc_ctrl) and data (acc_data).
 */

#ifndef DISTDA_NOC_MESH_HH
#define DISTDA_NOC_MESH_HH

#include <algorithm>
#include <array>
#include <cstdint>
#include <vector>

#include "src/energy/energy_model.hh"
#include "src/sim/divisor.hh"
#include "src/sim/logging.hh"
#include "src/sim/stats.hh"
#include "src/sim/ticks.hh"

namespace distda::sim
{
class Probe;
} // namespace distda::sim

namespace distda::noc
{

/** Figure 10 traffic categories. */
enum class TrafficClass : std::uint8_t
{
    Ctrl,     ///< host-initiated request/response control
    Data,     ///< host-initiated data movement
    AccCtrl,  ///< inter-accelerator control (tokens, credits, bounds)
    AccData,  ///< inter-accelerator operand dataflow
    NumClasses
};

const char *trafficClassName(TrafficClass c);

/** Mesh configuration. */
struct MeshParams
{
    int cols = 4;             ///< mesh X dimension
    int rows = 2;             ///< mesh Y dimension
    int hostNode = 0;         ///< cluster the host attaches to
    sim::Cycles hopCycles = 2;   ///< router + link traversal per hop
    std::uint32_t linkBytes = 16; ///< bytes moved per NoC cycle per link
    std::uint64_t clockHz = 2'000'000'000ULL; ///< NoC clock
    std::uint32_t flitBytes = 8;  ///< flit width for energy accounting
};

/** Result of injecting one transfer. */
struct TransferResult
{
    sim::Tick latency = 0;  ///< injection-to-delivery latency
    int hops = 0;           ///< hop count (0 for local delivery)
};

/**
 * The mesh NoC. Transfers are modeled as cut-through packets: latency =
 * hops * hopCycles + serialization, plus queueing when routers along the
 * path are busy. Bytes and energy are charged per traffic class.
 */
class Mesh
{
  public:
    Mesh(const MeshParams &params, energy::Accountant *acct);

    const MeshParams &params() const { return _params; }
    int numNodes() const { return _params.cols * _params.rows; }
    int hostNode() const { return _params.hostNode; }

    /** XY-routing hop count between two nodes. */
    int
    hops(int src, int dst) const
    {
        DISTDA_ASSERT(src >= 0 && src < numNodes(), "src node %d", src);
        DISTDA_ASSERT(dst >= 0 && dst < numNodes(), "dst node %d", dst);
        return _hops[static_cast<std::size_t>(src * numNodes() + dst)];
    }

    /**
     * Everything about a transfer that depends only on its endpoints,
     * size and class, resolved once by route(): a component that sends
     * the same packet again and again (a stream unit's operand
     * forwards and credits, a cross-cluster channel) keeps its Route
     * and pays only send()'s contention step per packet.
     */
    struct Route
    {
        int src = 0;
        int dst = 0;
        std::uint32_t bytes = 0;
        TrafficClass cls = TrafficClass::Data;
        int hops = 0;
        sim::Tick ser = 0;         ///< link occupancy (serialization)
        sim::Tick headLatency = 0; ///< hops x hopCycles pipeline delay
        double flitHops = 0.0;     ///< energy events per packet
    };

    /** Resolve the fixed part of a transfer; see Route. */
    Route
    route(int src, int dst, std::uint32_t bytes, TrafficClass cls) const
    {
        Route r;
        r.src = src;
        r.dst = dst;
        r.bytes = bytes;
        r.cls = cls;
        r.hops = hops(src, dst);
        if (r.hops == 0)
            return r;
        // Serialization: the packet occupies each traversed link for
        // ceil(bytes / linkBytes) NoC cycles.
        const sim::Cycles ser_cycles =
            _linkBytes.div(bytes + _params.linkBytes - 1);
        r.ser = _clock.cyclesToTicks(std::max<sim::Cycles>(ser_cycles, 1));
        r.headLatency = _clock.cyclesToTicks(
            static_cast<sim::Cycles>(r.hops) * _params.hopCycles);
        const double flits = static_cast<double>(
            _flitBytes.div(bytes + _params.flitBytes - 1));
        r.flitHops = flits * r.hops;
        return r;
    }

    /**
     * Inject one packet along @p r at @p now. Charges bytes/energy and
     * returns delivery latency. Inline: every cross-cluster element
     * and cache line rides through here.
     */
    TransferResult
    send(const Route &r, sim::Tick now)
    {
        const auto idx = static_cast<std::size_t>(r.cls);
        _bytes[idx] += r.bytes;
        _packets[idx] += 1.0;

        if (r.hops == 0)
            return TransferResult{0, 0};

        // Light contention model: injection waits for the source and
        // destination routers; traversal then occupies them.
        sim::Tick &src_busy =
            _routerBusyUntil[static_cast<std::size_t>(r.src)];
        sim::Tick &dst_busy =
            _routerBusyUntil[static_cast<std::size_t>(r.dst)];
        const sim::Tick start =
            std::max(now, std::max(src_busy, dst_busy));
        const sim::Tick done = start + r.headLatency + r.ser;

        // Cut-through: a router is occupied only while the packet's
        // flits stream through it; the head latency is pipeline delay.
        src_busy = start + r.ser;
        dst_busy = start + r.ser;

        _totalHopFlits += r.flitHops;
        if (_acct)
            _acct->addEvents(energy::Component::Noc, r.flitHops);

        if (_probe)
            recordTransfer(r.src, r.hops, r.bytes, r.cls, start,
                           start + r.ser);

        return TransferResult{done - now, r.hops};
    }

    /** Inject a transfer of @p bytes from @p src to @p dst at @p now. */
    TransferResult
    transfer(int src, int dst, std::uint32_t bytes, TrafficClass cls,
             sim::Tick now)
    {
        return send(route(src, dst, bytes, cls), now);
    }

    /** Total bytes injected in one traffic class. */
    double bytesInClass(TrafficClass cls) const;

    /** Total bytes injected across all classes. */
    double totalBytes() const;

    /** Total flit-hops traversed (bytes x distance proxy). */
    double hopFlits() const { return _totalHopFlits; }

    /** Export traffic counters into @p group. */
    void exportStats(stats::Group &group) const;

    /**
     * Attach a timeline probe: every cross-node packet becomes a span
     * on its source node's "noc" track (spans can't overlap — the
     * contention model serializes a router's injections), with packet
     * size and hop-count histograms on the side. Null detaches.
     */
    void setProbe(sim::Probe *probe);

  private:
    /** Out-of-line probe bookkeeping for the inline send(). */
    void recordTransfer(int src, int nhops, std::uint32_t bytes,
                        TrafficClass cls, sim::Tick start,
                        sim::Tick end);

    MeshParams _params;
    energy::Accountant *_acct;
    sim::ClockDomain _clock;
    // Route divisors: serialization and flits.
    sim::Divisor _linkBytes;
    sim::Divisor _flitBytes;
    std::vector<int> _hops; ///< XY hop count, [src * nodes + dst]
    std::vector<sim::Tick> _routerBusyUntil;
    std::array<double,
               static_cast<std::size_t>(TrafficClass::NumClasses)>
        _bytes{};
    std::array<double,
               static_cast<std::size_t>(TrafficClass::NumClasses)>
        _packets{};
    double _totalHopFlits = 0.0;

    sim::Probe *_probe = nullptr;
    std::vector<int> _nodeTracks;
    stats::Distribution *_pktBytes = nullptr;
    stats::Distribution *_pktHops = nullptr;
};

} // namespace distda::noc

#endif // DISTDA_NOC_MESH_HH
