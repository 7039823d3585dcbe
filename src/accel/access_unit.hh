/**
 * @file
 * Access units (Fig 2c): the SRAM-buffered, FSM-driven units that
 * decouple distributed partitions from the memory system and from each
 * other.
 *
 * A StreamUnit implements the hardware support for one-dimensional
 * strided patterns as a sliding window of chunks: the fill FSM
 * prefetches ahead of the consuming accelerator (bounded by buffer
 * capacity), dirty chunks drain on eviction or flush, and multiple
 * taps at constant access distance — loads and stores alike — share
 * one buffer (multi-access combining, Fig 2d). Windows survive across
 * invocations so reuse across outer-loop iterations is captured
 * (§V-B). A RandomUnit implements the cp_read/cp_write random-access
 * path through the translation block and the cluster's ACP.
 *
 * Units carry two cluster coordinates: where the unit sits (the data's
 * home cluster in decentralized-access configurations) and where its
 * consumer computes. When they differ — the Mono-DA configurations —
 * elements are forwarded over the NoC as inter-accelerator traffic.
 */

#ifndef DISTDA_ACCEL_ACCESS_UNIT_HH
#define DISTDA_ACCEL_ACCESS_UNIT_HH

#include <cstdint>
#include <vector>

#include "src/compiler/dfg.hh"
#include "src/mem/hierarchy.hh"
#include "src/noc/mesh.hh"
#include "src/sim/divisor.hh"
#include "src/sim/fn_ref.hh"
#include "src/sim/ticks.hh"

namespace distda::accel
{

/**
 * Memory-side port of an access unit: (addr, bytes, write, now) ->
 * latency. Normally the cluster's ACP into the local L3; the Mono-CA
 * configuration routes it through the accelerator's 8KB private cache.
 * The target must outlive the unit holding the port; in practice ports
 * point at a Cache owned by the Hierarchy or the DataflowEngine, both
 * of which outlive every access unit.
 */
using MemPort =
    sim::FnRef<sim::Tick(mem::Addr, std::uint32_t, bool, sim::Tick)>;

/** Figure 9's dynamic-access-distribution counters, in bytes. */
struct AccessStats
{
    double intraBytes = 0.0; ///< accelerator-local buffer traffic
    double daBytes = 0.0;    ///< accelerator <-> cache hierarchy
    double aaBytes = 0.0;    ///< accelerator <-> accelerator
    double bufferAccesses = 0.0;

    double total() const { return intraBytes + daBytes + aaBytes; }
};

/** Configuration of one stream buffer. */
struct StreamParams
{
    mem::Addr base = 0;           ///< address of element 0 (lead tap)
    std::int64_t strideBytes = 8; ///< per-iteration advance
    std::uint32_t elemBytes = 8;
    bool hasLoads = true;
    bool hasStores = false;
    int unitCluster = 0;          ///< where the buffer + FSM live
    int consumerCluster = 0;      ///< where the consuming actor runs
    std::uint32_t capacityBytes = 4096;
    std::uint64_t totalElems = 0; ///< trip count of the stream
    sim::Tick cycleTick = 500;    ///< one accelerator cycle in ticks
};

/**
 * One strided stream window with fill/drain FSM and multi-tap reuse.
 * Element index k (lead-tap space) maps to base + k * strideBytes; a
 * tap at distance d touches element k - d at iteration k.
 */
class StreamUnit
{
  public:
    /**
     * The trailing probe arguments are optional observability wiring:
     * fill-FSM fetches become "fill" spans and drains "drain" spans on
     * @p probe_track, and fetch latency samples into @p fill_dist.
     */
    StreamUnit(const StreamParams &params, MemPort port, noc::Mesh *mesh,
               AccessStats *stats, sim::Probe *probe = nullptr,
               int probe_track = -1,
               stats::Distribution *fill_dist = nullptr);

    const StreamParams &params() const { return _params; }

    /**
     * Read element for iteration @p k through a tap @p tap_distance
     * behind the lead tap. Returns the tick the value reaches the
     * consumer (>= @p consumer_now).
     *
     * Inline steady-state fast path: an in-window read whose lead is
     * far enough behind the fill FSM that ensure() and the lookahead
     * loop of readMiss() are provably no-ops. Everything observable —
     * stats, _leadK, mesh traffic, the returned tick — matches the
     * general path exactly; only the skipped work is work that would
     * do nothing.
     */
    sim::Tick
    readAt(std::int64_t k, sim::Tick consumer_now,
           std::int64_t tap_distance)
    {
        DISTDA_ASSERT(_params.hasLoads, "readAt on a store-only stream");
        const std::int64_t eff_k = k - tap_distance;
        if (tap_distance <= _maxTapDistance && eff_k >= _winLoK &&
            eff_k < _winHiK && k < _fastLeadLimitK &&
            _leadK < _fastLeadLimitK) {
            if (k > _leadK)
                _leadK = k;
            const sim::Tick ready = consumed(eff_k);
            return ready > consumer_now ? ready : consumer_now;
        }
        return readMiss(k, consumer_now, tap_distance);
    }

    /**
     * Write through a tap; marks the chunk dirty for the drain FSM.
     * Inline: an in-window write skips ensure(), which would return
     * at once.
     */
    sim::Tick
    writeAt(std::int64_t k, sim::Tick now, std::int64_t tap_distance)
    {
        DISTDA_ASSERT(_params.hasStores, "writeAt on a load-only stream");
        const std::int64_t eff_k = k - tap_distance;
        if (tap_distance > _maxTapDistance)
            _maxTapDistance = tap_distance;
        if (k > _leadK)
            _leadK = k;

        if (!_sameCluster) {
            // Compute node posts the value to the remote access unit
            // (the credit protocol guarantees space, so the store is
            // off the critical path); the buffer credit returns as
            // control.
            forward(_postData, _postCredit, eff_k, now);
        }

        // Combined load/store buffers fetch on a write miss (the loads
        // need the rest of the chunk); store-only buffers
        // write-allocate without fetching.
        const std::int64_t c = chunkOf(eff_k);
        if (eff_k < _winLoK || eff_k >= _winHiK)
            ensure(c, now, _params.hasLoads);
        chunk(c).dirty = true;

        _stats->intraBytes += _params.elemBytes;
        _stats->bufferAccesses += 1.0;
        return now;
    }

    /** Drain dirty chunks (window stays resident); returns completion. */
    sim::Tick flush(sim::Tick now);

    /**
     * Rewind for a new pass over the same address range (reuse across
     * outer-loop iterations). When the previous pass fit entirely in
     * the buffer the window is retained and rereads are buffer hits;
     * otherwise the window is discarded (dirty chunks drain).
     */
    void rewind(sim::Tick now);

    /** Elements fetched per memory access (spatial locality). */
    std::int64_t
    elemsPerFetch() const
    {
        return static_cast<std::int64_t>(_perFetch.value());
    }

  private:
    struct Chunk
    {
        sim::Tick ready = 0;
        bool dirty = false;
    };

    std::int64_t
    chunkOf(std::int64_t k) const
    {
        return _perFetch.floorDiv(k);
    }

    mem::Addr
    chunkAddr(std::int64_t c) const
    {
        return static_cast<mem::Addr>(
            static_cast<std::int64_t>(_params.base) +
            c * elemsPerFetch() * _params.strideBytes);
    }

    /**
     * Resident chunk @p c. The window [_loChunk, _hiChunk) lives in a
     * power-of-two ring at slot c & mask; grow() doubles the ring
     * before the window would wrap onto itself, so distinct resident
     * chunks never share a slot (negative chunks wrap like any other).
     */
    Chunk &
    chunk(std::int64_t c)
    {
        return _ring[static_cast<std::size_t>(c) & _ringMask];
    }

    bool windowEmpty() const { return _loChunk == _hiChunk; }

    /**
     * Count one buffer read of resident element @p eff_k and return
     * when it is ready at the consumer, forwarding it first when the
     * consumer is remote.
     */
    sim::Tick
    consumed(std::int64_t eff_k)
    {
        _stats->intraBytes += _params.elemBytes;
        _stats->bufferAccesses += 1.0;
        sim::Tick ready = chunk(chunkOf(eff_k)).ready;
        if (!_sameCluster) {
            // Decentralized access unit proactively forwarding the
            // operand to the remote compute node's buffer (Mono-DA):
            // the push starts as soon as the element is in the unit's
            // buffer, so a prefetched element hides the hop latency;
            // the consumer's pointer-step/credit return rides back as
            // control traffic.
            ready = forward(_readData, _readCredit, eff_k, ready);
            _stats->intraBytes += _params.elemBytes; // consumer buffer
            _stats->bufferAccesses += 1.0;
        }
        return ready;
    }

    /**
     * Mono-DA traffic for element @p eff_k: one packet along @p data at
     * @p t, plus a credit along @p credit when the element opens a
     * chunk (credits return batched at chunk granularity). Returns the
     * data packet's delivery tick.
     */
    sim::Tick forward(const noc::Mesh::Route &data,
                      const noc::Mesh::Route &credit, std::int64_t eff_k,
                      sim::Tick t);

    /** readAt() off the fast path: fill, lookahead and forwarding. */
    sim::Tick readMiss(std::int64_t k, sim::Tick consumer_now,
                       std::int64_t tap_distance);

    /** Make chunk @p c resident (fetching when loads need data). */
    void ensure(std::int64_t c, sim::Tick now, bool fetch);

    /** Extend the window one chunk at @p c (front or back). */
    void grow(std::int64_t c, sim::Tick now, bool fetch);

    /** Evict the oldest chunk, draining when dirty. */
    void evictFront(sim::Tick now);

    /**
     * Refresh the precomputed element-space bounds the readAt fast
     * path checks against; call after any window shape change.
     */
    void updateFastBounds();

    StreamParams _params;
    MemPort _port;
    noc::Mesh *_mesh;
    AccessStats *_stats;
    sim::Probe *_probe;
    int _probeTrack;
    stats::Distribution *_fillDist;

    sim::Divisor _perFetch; ///< elements per chunk (one fetch)
    std::int64_t _capacityChunks;
    std::uint32_t _fetchBytes;
    std::int64_t _lookahead; ///< fill-FSM lookahead distance, chunks
    std::int64_t _lastChunk; ///< chunk of the stream's final element

    std::vector<Chunk> _ring; ///< the window; see chunk()
    std::size_t _ringMask = 0;
    std::int64_t _loChunk = 0;
    std::int64_t _hiChunk = 0;
    std::int64_t _leadK = 0;
    std::int64_t _maxTapDistance = 0;
    sim::Tick _fsmNow = 0;
    sim::Tick _drainDone = 0; ///< latest drain completion since flush

    // Steady-state fast-path state: the common sequential read is an
    // in-window hit that triggers neither ensure() nor the lookahead
    // loop. These bounds, refreshed by updateFastBounds() on every
    // window shape change, let readAt prove that with five compares.
    bool _sameCluster;       ///< unit and consumer co-located
    std::int64_t _winLoK = 0;        ///< window start, element space
    std::int64_t _winHiK = 0;        ///< window end, element space
    std::int64_t _fastLeadLimitK = 0; ///< lead below which the
                                      ///< lookahead loop is a no-op

    // Mono-DA routes (unit <-> consumer), resolved once when the two
    // clusters differ: operand forwards and their credits for reads,
    // posted values and their credits for writes.
    noc::Mesh::Route _readData;
    noc::Mesh::Route _readCredit;
    noc::Mesh::Route _postData;
    noc::Mesh::Route _postCredit;
};

/** The random-access (cp_read / cp_write) path of one partition. */
class RandomUnit
{
  public:
    RandomUnit(MemPort port, AccessStats *stats, sim::Tick cycle_tick);

    /**
     * Access @p elem_bytes at @p addr. @p hide_ticks models how far
     * ahead the access could be issued: indirect-stream patterns
     * (B[A[i]]) run ahead of the consumer, and the +SW configuration's
     * software prefetches extend the window further; pointer-chasing
     * recurrences pass zero. Inline: one call per irregular element.
     */
    sim::Tick
    access(mem::Addr addr, std::uint32_t elem_bytes, bool write,
           sim::Tick now, sim::Tick hide_ticks)
    {
        // One cycle in the translation block (object-buffer mapping).
        const sim::Tick start = now + _cycleTick;
        const sim::Tick lat = _port(addr, elem_bytes, write, start);
        _stats->daBytes += elem_bytes;

        if (write) {
            // Posted: the write drains through the memory interface
            // block in the background; ordering per object is
            // preserved by the partition's serial execution.
            return start;
        }

        // Indirect-stream run-ahead: when the index itself comes from
        // a prefetchable stream (B[A[i]]), the access unit issues the
        // access hide_ticks early; pointer-chasing recurrences get no
        // run-ahead.
        const sim::Tick visible = lat > hide_ticks ? lat - hide_ticks : 0;
        return start + visible;
    }

  private:
    MemPort _port;
    AccessStats *_stats;
    sim::Tick _cycleTick;
};

} // namespace distda::accel

#endif // DISTDA_ACCEL_ACCESS_UNIT_HH
