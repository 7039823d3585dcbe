/**
 * @file
 * Unit tests for the access units (Fig 2c): stream fill/drain FSM
 * behaviour, multi-tap reuse accounting, sparse-stride specialization,
 * window retention across rewinds, dirty-chunk draining, Mono-DA
 * forwarding traffic, and the random-access run-ahead path.
 */

#include <gtest/gtest.h>

#include <cstdlib>
#include <deque>
#include <set>
#include <tuple>

#include "src/accel/access_unit.hh"
#include "src/energy/energy_model.hh"
#include "src/sim/rng.hh"

using namespace distda;
using accel::AccessStats;
using accel::StreamParams;
using accel::StreamUnit;

namespace
{

struct PortLog
{
    std::vector<std::pair<mem::Addr, bool>> calls;
    sim::Tick latency = 10000;

    sim::Tick
    operator()(mem::Addr a, std::uint32_t, bool w, sim::Tick)
    {
        calls.push_back({a, w});
        return latency;
    }

    accel::MemPort fn() { return accel::MemPort::of(*this); }

    double
    fetches() const
    {
        double n = 0;
        for (const auto &[a, w] : calls)
            n += !w;
        return n;
    }

    double
    drains() const
    {
        double n = 0;
        for (const auto &[a, w] : calls)
            n += w;
        return n;
    }
};

StreamParams
denseLoad(std::uint64_t total = 1024)
{
    StreamParams p;
    p.base = 0x100000;
    p.strideBytes = 8;
    p.elemBytes = 8;
    p.totalElems = total;
    return p;
}

energy::Accountant acctForMesh;

noc::Mesh &
sharedMesh()
{
    static noc::Mesh mesh(noc::MeshParams{}, &acctForMesh);
    return mesh;
}

} // namespace

TEST(StreamUnit, DenseStreamFetchesLineGranules)
{
    PortLog port;
    AccessStats stats;
    StreamUnit s(denseLoad(64), port.fn(), &sharedMesh(), &stats);
    sim::Tick now = 0;
    for (std::int64_t k = 0; k < 64; ++k)
        now = s.readAt(k, now, 0);
    EXPECT_EQ(s.elemsPerFetch(), 8);
    EXPECT_DOUBLE_EQ(port.fetches(), 8.0); // 64 elems / 8 per line
    EXPECT_DOUBLE_EQ(stats.daBytes, 8.0 * 64.0);
    EXPECT_DOUBLE_EQ(stats.intraBytes, 64.0 * 8.0);
}

TEST(StreamUnit, ReadyTimesAreMonotonicPerTap)
{
    PortLog port;
    AccessStats stats;
    StreamUnit s(denseLoad(), port.fn(), &sharedMesh(), &stats);
    sim::Tick now = 0;
    for (std::int64_t k = 0; k < 256; ++k) {
        const sim::Tick t = s.readAt(k, now, 0);
        EXPECT_GE(t, now);
        now = t + 500;
    }
}

TEST(StreamUnit, FollowerTapsHitTheWindow)
{
    PortLog port;
    AccessStats stats;
    StreamUnit s(denseLoad(128), port.fn(), &sharedMesh(), &stats);
    sim::Tick now = 0;
    for (std::int64_t k = 0; k < 128; ++k) {
        now = s.readAt(k, now, 0);
        now = s.readAt(k, now, 4); // follower 4 elements behind
    }
    // The follower adds no fetches beyond the lead tap's (plus the
    // one prologue line below element 0).
    EXPECT_LE(port.fetches(), 128.0 / 8.0 + 1.0);
}

TEST(StreamUnit, SparseStrideFetchesElementsOnly)
{
    PortLog port;
    AccessStats stats;
    StreamParams p = denseLoad(64);
    p.strideBytes = 512; // column-like stride
    StreamUnit s(p, port.fn(), &sharedMesh(), &stats);
    sim::Tick now = 0;
    for (std::int64_t k = 0; k < 64; ++k)
        now = s.readAt(k, now, 0);
    EXPECT_EQ(s.elemsPerFetch(), 1);
    EXPECT_DOUBLE_EQ(port.fetches(), 64.0);
    // Access specialization: 8B per fetch, not a 64B line.
    EXPECT_DOUBLE_EQ(stats.daBytes, 64.0 * 8.0);
}

TEST(StreamUnit, LoopInvariantFetchesOnce)
{
    PortLog port;
    AccessStats stats;
    StreamParams p = denseLoad(128);
    p.strideBytes = 0;
    StreamUnit s(p, port.fn(), &sharedMesh(), &stats);
    sim::Tick now = 0;
    for (std::int64_t k = 0; k < 128; ++k)
        now = s.readAt(k, now, 0);
    EXPECT_DOUBLE_EQ(port.fetches(), 1.0);
}

TEST(StreamUnit, PrefetchHidesLatencyInSteadyState)
{
    PortLog port;
    port.latency = 8000; // 8ns
    AccessStats stats;
    StreamUnit s(denseLoad(4096), port.fn(), &sharedMesh(), &stats);
    sim::Tick now = 0;
    // Consume slowly (16ns per element): after warmup, reads must not
    // stall on fetches.
    sim::Tick stall = 0;
    for (std::int64_t k = 0; k < 512; ++k) {
        const sim::Tick t = s.readAt(k, now, 0);
        if (k > 64)
            stall += t - now;
        now = t + 16000;
    }
    EXPECT_EQ(stall, 0u);
}

TEST(StreamUnit, FastPathMatchesSlowPathStatsAndFetches)
{
    // Steady-state sequential reads take the precomputed-bounds fast
    // path; interleaved rereads of already-consumed elements do too.
    // Neither may change what reaches memory or the counters, relative
    // to a unit driven only by the plain sequential scan.
    PortLog fast_port, ref_port;
    AccessStats fast_stats, ref_stats;
    StreamUnit fast(denseLoad(256), fast_port.fn(), &sharedMesh(),
                    &fast_stats);
    StreamUnit ref(denseLoad(256), ref_port.fn(), &sharedMesh(),
                   &ref_stats);

    sim::Tick now = 0;
    std::int64_t rereads = 0;
    sim::Tick prev = 0;
    for (std::int64_t k = 0; k < 256; ++k) {
        now = fast.readAt(k, now, 0);
        EXPECT_GE(now, prev); // ready times stay monotonic
        prev = now;
        if (k > 0 && k % 16 == 0) {
            // In-window reread behind the lead: fast-path candidate.
            now = fast.readAt(k, now, 4);
            ++rereads;
        }
    }
    sim::Tick ref_now = 0;
    for (std::int64_t k = 0; k < 256; ++k)
        ref_now = ref.readAt(k, ref_now, 0);

    // Recently-read data is buffered: no fetch may be reissued.
    EXPECT_DOUBLE_EQ(fast_port.fetches(), ref_port.fetches());
    EXPECT_DOUBLE_EQ(fast_stats.daBytes, ref_stats.daBytes);
    // Every read, fast or slow, counts buffer traffic.
    EXPECT_DOUBLE_EQ(fast_stats.intraBytes,
                     ref_stats.intraBytes +
                         static_cast<double>(rereads) * 8.0);
    EXPECT_DOUBLE_EQ(fast_stats.bufferAccesses,
                     ref_stats.bufferAccesses +
                         static_cast<double>(rereads));
}

TEST(StreamUnit, StoreOnlyWriteAllocatesWithoutFetch)
{
    PortLog port;
    AccessStats stats;
    StreamParams p = denseLoad(256);
    p.hasLoads = false;
    p.hasStores = true;
    StreamUnit s(p, port.fn(), &sharedMesh(), &stats);
    sim::Tick now = 0;
    for (std::int64_t k = 0; k < 256; ++k)
        now = s.writeAt(k, now, 0) + 500;
    EXPECT_DOUBLE_EQ(port.fetches(), 0.0);
    s.flush(now);
    // All 32 line-granules must eventually drain exactly once.
    EXPECT_DOUBLE_EQ(port.drains(), 256.0 / 8.0);
}

TEST(StreamUnit, RmwFetchesOnceAndDrainsDirty)
{
    PortLog port;
    AccessStats stats;
    StreamParams p = denseLoad(64);
    p.hasStores = true;
    StreamUnit s(p, port.fn(), &sharedMesh(), &stats);
    sim::Tick now = 0;
    for (std::int64_t k = 0; k < 64; ++k) {
        now = s.readAt(k, now, 0);
        now = s.writeAt(k, now, 0) + 500;
    }
    const sim::Tick done = s.flush(now);
    EXPECT_GE(done, now);
    EXPECT_DOUBLE_EQ(port.fetches(), 8.0);
    EXPECT_DOUBLE_EQ(port.drains(), 8.0);
}

TEST(StreamUnit, RewindRetainsFullyResidentWindow)
{
    PortLog port;
    AccessStats stats;
    StreamUnit s(denseLoad(64), port.fn(), &sharedMesh(), &stats);
    sim::Tick now = 0;
    for (std::int64_t k = 0; k < 64; ++k)
        now = s.readAt(k, now, 0);
    const double first_pass = port.fetches();
    s.rewind(now);
    for (std::int64_t k = 0; k < 64; ++k)
        now = s.readAt(k, now, 0);
    // Reuse across outer-loop iterations: no refetch.
    EXPECT_DOUBLE_EQ(port.fetches(), first_pass);
}

TEST(StreamUnit, RewindDiscardsOversizedWindow)
{
    PortLog port;
    AccessStats stats;
    StreamParams p = denseLoad(4096); // 32KB > 4KB buffer
    StreamUnit s(p, port.fn(), &sharedMesh(), &stats);
    sim::Tick now = 0;
    for (std::int64_t k = 0; k < 4096; ++k)
        now = s.readAt(k, now, 0);
    const double first_pass = port.fetches();
    s.rewind(now);
    for (std::int64_t k = 0; k < 64; ++k)
        now = s.readAt(k, now, 0);
    EXPECT_GT(port.fetches(), first_pass);
}

TEST(StreamUnit, RemoteConsumerCountsForwardingTraffic)
{
    PortLog port;
    AccessStats stats;
    auto &mesh = sharedMesh();
    const double aa_before = stats.aaBytes;
    StreamParams p = denseLoad(64);
    p.unitCluster = 0;
    p.consumerCluster = 3;
    StreamUnit s(p, port.fn(), &mesh, &stats);
    sim::Tick now = 0;
    for (std::int64_t k = 0; k < 64; ++k)
        now = s.readAt(k, now, 0);
    // Operand forward (8B) per element plus one batched 8B credit per
    // chunk (8 elements/line).
    EXPECT_DOUBLE_EQ(stats.aaBytes - aa_before,
                     64.0 * 8.0 + (64.0 / 8.0) * 8.0);
}

TEST(StreamUnit, TwelveByteStrideChunksAndCreditsMatchTheFormulas)
{
    // A 12-byte stride packs 5 elements per 64B fetch, so chunk
    // indices and the credit tests take the divide fallbacks, which no
    // default configuration reaches. A tap 3 behind the lead starts at
    // elements -3..-1, which floor into chunk -1.
    energy::Accountant acct;
    noc::Mesh mesh(noc::MeshParams{}, &acct);
    StreamParams p;
    p.base = 0x100000;
    p.strideBytes = 12;
    p.elemBytes = 4;
    p.totalElems = 40;
    p.unitCluster = 0;
    p.consumerCluster = 3;
    PortLog port;
    AccessStats stats;
    StreamUnit loads(p, port.fn(), &mesh, &stats);
    ASSERT_EQ(loads.elemsPerFetch(), 5);
    p.base = 0x200000;
    p.hasLoads = false;
    p.hasStores = true;
    StreamUnit stores(p, port.fn(), &mesh, &stats);

    double credits = 0.0;
    sim::Tick now = 0;
    for (std::int64_t k = 0; k < 40; ++k) {
        for (std::int64_t d : {0, 3}) {
            now = loads.readAt(k, now, d);
            now = stores.writeAt(k, now, d);
            credits += 2.0 * ((k - d) % 5 == 0);
        }
    }
    stores.flush(now);

    // Chunk c covers elements [5c, 5c + 5) at base + c * 5 * 12.
    std::set<mem::Addr> fetched, drained;
    for (const auto &[a, w] : port.calls)
        (w ? drained : fetched).insert(a);
    std::set<mem::Addr> want_fetched, want_drained;
    for (std::int64_t c = -1; c <= 7; ++c) {
        want_fetched.insert(0x100000 + c * 60);
        want_drained.insert(0x200000 + c * 60);
    }
    EXPECT_EQ(fetched, want_fetched);
    EXPECT_EQ(port.fetches(), 9.0); // each chunk exactly once
    EXPECT_EQ(drained, want_drained);

    // One 8B credit per element whose index is a multiple of 5.
    EXPECT_DOUBLE_EQ(mesh.bytesInClass(noc::TrafficClass::AccCtrl),
                     8.0 * credits);
    EXPECT_DOUBLE_EQ(mesh.bytesInClass(noc::TrafficClass::AccData),
                     2.0 * 80.0 * 4.0);
}

namespace
{

/**
 * Reference copy of the stream window as a std::deque of chunks, with
 * a list of pending drain completions: the general (slow) path every
 * read and write took before the window became a ring. Kept only
 * here, as the oracle for the ring.
 */
class DequeStream
{
  public:
    DequeStream(const StreamParams &params, accel::MemPort port,
                noc::Mesh *mesh, AccessStats *stats)
        : _params(params), _port(port), _mesh(mesh), _stats(stats)
    {
        const std::int64_t s =
            std::max<std::int64_t>(std::llabs(params.strideBytes), 1);
        std::int64_t per_fetch = 1;
        if (params.strideBytes == 0) {
            per_fetch = std::max<std::int64_t>(
                static_cast<std::int64_t>(params.totalElems), 1);
            _fetchBytes = params.elemBytes;
        } else if (s >= static_cast<std::int64_t>(mem::lineBytes)) {
            _fetchBytes = params.elemBytes;
        } else {
            per_fetch = std::max<std::int64_t>(
                static_cast<std::int64_t>(mem::lineBytes) / s, 1);
            _fetchBytes = mem::lineBytes;
        }
        _perFetch = sim::Divisor(static_cast<std::uint64_t>(per_fetch));
        _capacityChunks = std::max<std::int64_t>(
            params.capacityBytes /
                std::max<std::uint32_t>(_fetchBytes, 1),
            2);
        _lookahead = std::max<std::int64_t>(_capacityChunks / 2, 1);
        _lastChunk = _perFetch.floorDiv(
            static_cast<std::int64_t>(
                std::max<std::uint64_t>(params.totalElems, 1)) -
            1);
    }

    std::int64_t capacityChunks() const { return _capacityChunks; }
    std::size_t maxResident() const { return _maxResident; }

    sim::Tick
    readAt(std::int64_t k, sim::Tick consumer_now,
           std::int64_t tap_distance)
    {
        const std::int64_t eff_k = k - tap_distance;
        const std::int64_t c = _perFetch.floorDiv(eff_k);
        _maxTapDistance = std::max(_maxTapDistance, tap_distance);
        _leadK = std::max(_leadK, k);
        ensure(c, consumer_now, true);
        const std::int64_t lead_c = _perFetch.floorDiv(_leadK);
        const std::int64_t protect =
            _perFetch.floorDiv(_leadK - _maxTapDistance);
        while (_hiChunk <= std::min(lead_c + _lookahead, _lastChunk)) {
            if (_hiChunk - _loChunk >= _capacityChunks) {
                if (_loChunk < protect)
                    evictFront(consumer_now);
                else
                    break;
            }
            grow(_hiChunk, consumer_now, true);
        }
        sim::Tick ready =
            _window[static_cast<std::size_t>(c - _loChunk)].ready;
        _stats->intraBytes += _params.elemBytes;
        _stats->bufferAccesses += 1.0;
        if (_params.unitCluster != _params.consumerCluster) {
            auto xfer = _mesh->transfer(
                _params.unitCluster, _params.consumerCluster,
                _params.elemBytes, noc::TrafficClass::AccData, ready);
            if (_perFetch.divides(eff_k)) {
                _mesh->transfer(_params.consumerCluster,
                                _params.unitCluster, 8,
                                noc::TrafficClass::AccCtrl, ready);
                _stats->aaBytes += 8.0;
            }
            ready += xfer.latency;
            _stats->aaBytes += _params.elemBytes;
            _stats->intraBytes += _params.elemBytes;
            _stats->bufferAccesses += 1.0;
        }
        return std::max(ready, consumer_now);
    }

    sim::Tick
    writeAt(std::int64_t k, sim::Tick now, std::int64_t tap_distance)
    {
        const std::int64_t eff_k = k - tap_distance;
        const std::int64_t c = _perFetch.floorDiv(eff_k);
        _maxTapDistance = std::max(_maxTapDistance, tap_distance);
        _leadK = std::max(_leadK, k);
        if (_params.unitCluster != _params.consumerCluster) {
            _mesh->transfer(_params.consumerCluster, _params.unitCluster,
                            _params.elemBytes,
                            noc::TrafficClass::AccData, now);
            if (_perFetch.divides(eff_k)) {
                _mesh->transfer(_params.unitCluster,
                                _params.consumerCluster, 8,
                                noc::TrafficClass::AccCtrl, now);
                _stats->aaBytes += 8.0;
            }
            _stats->aaBytes += _params.elemBytes;
        }
        ensure(c, now, _params.hasLoads);
        _window[static_cast<std::size_t>(c - _loChunk)].dirty = true;
        _stats->intraBytes += _params.elemBytes;
        _stats->bufferAccesses += 1.0;
        return now;
    }

    sim::Tick
    flush(sim::Tick now)
    {
        for (std::int64_t c = _loChunk; c < _hiChunk; ++c) {
            Chunk &ch = _window[static_cast<std::size_t>(c - _loChunk)];
            if (ch.dirty) {
                drain(c, now);
                ch.dirty = false;
            }
        }
        sim::Tick done = now;
        for (sim::Tick t : _drainDone)
            done = std::max(done, t);
        _drainDone.clear();
        return done;
    }

    void
    rewind(sim::Tick now)
    {
        const std::int64_t first_c = _perFetch.floorDiv(-_maxTapDistance);
        if (_window.empty() || _loChunk > first_c ||
            _hiChunk <= _lastChunk) {
            flush(now);
            _window.clear();
            _loChunk = _hiChunk = 0;
        }
        _leadK = 0;
        _maxTapDistance = 0;
    }

  private:
    struct Chunk
    {
        sim::Tick ready = 0;
        bool dirty = false;
    };

    mem::Addr
    chunkAddr(std::int64_t c) const
    {
        return static_cast<mem::Addr>(
            static_cast<std::int64_t>(_params.base) +
            c * static_cast<std::int64_t>(_perFetch.value()) *
                _params.strideBytes);
    }

    void
    drain(std::int64_t c, sim::Tick now)
    {
        const sim::Tick issue = std::max(_fsmNow, now);
        const sim::Tick lat = _port(chunkAddr(c), _fetchBytes, true, issue);
        _fsmNow = issue + _params.cycleTick;
        _drainDone.push_back(issue + lat);
        _stats->daBytes += _fetchBytes;
        _stats->bufferAccesses += static_cast<double>(_perFetch.value());
    }

    void
    grow(std::int64_t c, sim::Tick now, bool fetch)
    {
        Chunk ch;
        if (fetch) {
            const sim::Tick issue = std::max(_fsmNow, now);
            ch.ready = issue + _port(chunkAddr(c), _fetchBytes, false,
                                     issue);
            _fsmNow = issue + _params.cycleTick;
            _stats->daBytes += _fetchBytes;
            _stats->bufferAccesses +=
                static_cast<double>(_perFetch.value());
        } else {
            ch.ready = now;
        }
        if (_window.empty()) {
            _loChunk = c;
            _hiChunk = c + 1;
            _window.push_back(ch);
        } else if (c == _hiChunk) {
            _window.push_back(ch);
            ++_hiChunk;
        } else {
            ASSERT_EQ(c, _loChunk - 1);
            _window.push_front(ch);
            --_loChunk;
        }
        _maxResident = std::max(_maxResident, _window.size());
    }

    void
    evictFront(sim::Tick now)
    {
        if (_window.front().dirty)
            drain(_loChunk, now);
        _window.pop_front();
        ++_loChunk;
    }

    void
    ensure(std::int64_t c, sim::Tick now, bool fetch)
    {
        if (!_window.empty() && c >= _loChunk && c < _hiChunk)
            return;
        const std::int64_t protect =
            _perFetch.floorDiv(_leadK - _maxTapDistance);
        while (_window.empty() || c >= _hiChunk) {
            if (!_window.empty() &&
                _hiChunk - _loChunk >= _capacityChunks &&
                _loChunk < protect) {
                evictFront(now);
            }
            grow(_window.empty() ? c : _hiChunk, now, fetch);
            if (_hiChunk - _loChunk > _capacityChunks + 2 &&
                _loChunk < protect) {
                evictFront(now);
            }
        }
        while (c < _loChunk)
            grow(_loChunk - 1, now, fetch);
    }

    StreamParams _params;
    accel::MemPort _port;
    noc::Mesh *_mesh;
    AccessStats *_stats;
    sim::Divisor _perFetch;
    std::int64_t _capacityChunks;
    std::uint32_t _fetchBytes;
    std::int64_t _lookahead;
    std::int64_t _lastChunk;
    std::deque<Chunk> _window;
    std::int64_t _loChunk = 0;
    std::int64_t _hiChunk = 0;
    std::int64_t _leadK = 0;
    std::int64_t _maxTapDistance = 0;
    sim::Tick _fsmNow = 0;
    std::deque<sim::Tick> _drainDone;
    std::size_t _maxResident = 0;
};

/** Memory port logging every call; latency varies with the call. */
struct VaryingPort
{
    std::vector<std::tuple<mem::Addr, std::uint32_t, bool, sim::Tick>>
        calls;

    sim::Tick
    operator()(mem::Addr a, std::uint32_t bytes, bool w, sim::Tick now)
    {
        calls.emplace_back(a, bytes, w, now);
        return 2000 + (a * 7 + calls.size() * 977) % 30000;
    }
};

} // namespace

TEST(StreamUnit, RingWindowMatchesDequeReference)
{
    // Seeded reads and writes through four taps, 0 to 3 tap units
    // behind the lead, with forward jumps, rewinds and flushes, on a
    // 256-byte buffer. The lead only moves forward between rewinds,
    // as an actor's iteration does. A tap unit is two thirds of
    // 2 x (capacity + 3) chunks, so the taps protect windows far past
    // capacity + 2 chunks and the ring must regrow (more than once)
    // without losing a chunk. Every returned tick, memory-port call,
    // stat and mesh counter must match the deque window the ring
    // replaced.
    const auto check = [](const StreamParams &p, std::uint64_t seed) {
        energy::Accountant ring_acct, ref_acct;
        noc::Mesh ring_mesh(noc::MeshParams{}, &ring_acct);
        noc::Mesh ref_mesh(noc::MeshParams{}, &ref_acct);
        VaryingPort ring_port, ref_port;
        AccessStats ring_stats, ref_stats;
        StreamUnit ring(p, accel::MemPort::of(ring_port), &ring_mesh,
                        &ring_stats);
        DequeStream ref(p, accel::MemPort::of(ref_port), &ref_mesh,
                        &ref_stats);
        const std::int64_t per_fetch = ring.elemsPerFetch();
        const auto unit = static_cast<std::uint64_t>(
            2 * (ref.capacityChunks() + 3) * per_fetch / 3 + 1);
        const auto last = static_cast<std::int64_t>(p.totalElems) - 1;

        sim::Rng rng(seed);
        sim::Tick now = 0;
        std::int64_t k = 0;
        for (int step = 0; step < 4000; ++step) {
            const std::uint64_t r = rng.nextBelow(100);
            const auto tap = static_cast<std::int64_t>(
                rng.nextBelow(4) * (rng.nextBelow(2) ? unit : 1));
            sim::Tick got = now, want = now;
            if (r < 3) {
                ring.rewind(now);
                ref.rewind(now);
                k = 0;
                continue;
            } else if (r < 6) {
                got = ring.flush(now);
                want = ref.flush(now);
            } else if (p.hasLoads && (!p.hasStores || r < 53)) {
                got = ring.readAt(k, now, tap);
                want = ref.readAt(k, now, tap);
            } else {
                got = ring.writeAt(k, now, tap);
                want = ref.writeAt(k, now, tap);
            }
            ASSERT_EQ(got, want) << "step " << step;
            // Time mostly advances, sometimes steps back.
            now = rng.nextBelow(8) == 0
                      ? now - std::min<sim::Tick>(now, 3000)
                      : got + rng.nextBelow(4000);
            // Next iteration, or a jump of up to two chunks.
            if (rng.nextBelow(3) == 0) {
                const std::uint64_t jump =
                    rng.nextBelow(20) == 0
                        ? rng.nextBelow(2 * static_cast<std::uint64_t>(
                                                per_fetch))
                        : 1;
                k = std::min(k + static_cast<std::int64_t>(jump), last);
            }
        }
        EXPECT_EQ(ring.flush(now), ref.flush(now));

        EXPECT_GT(ref.maxResident(),
                  static_cast<std::size_t>(2 * (ref.capacityChunks() + 3)))
            << "the test no longer forces the ring to regrow";
        EXPECT_EQ(ring_port.calls, ref_port.calls);
        EXPECT_EQ(ring_stats.intraBytes, ref_stats.intraBytes);
        EXPECT_EQ(ring_stats.daBytes, ref_stats.daBytes);
        EXPECT_EQ(ring_stats.aaBytes, ref_stats.aaBytes);
        EXPECT_EQ(ring_stats.bufferAccesses, ref_stats.bufferAccesses);
        for (int c = 0; c < static_cast<int>(noc::TrafficClass::NumClasses);
             ++c) {
            const auto cls = static_cast<noc::TrafficClass>(c);
            EXPECT_EQ(ring_mesh.bytesInClass(cls),
                      ref_mesh.bytesInClass(cls));
        }
        EXPECT_EQ(ring_mesh.hopFlits(), ref_mesh.hopFlits());
        EXPECT_EQ(ring_acct.componentPj(energy::Component::Noc),
                  ref_acct.componentPj(energy::Component::Noc));
        if (p.unitCluster != p.consumerCluster) {
            EXPECT_GT(ring_mesh.totalBytes(), 0.0);
        }
    };

    struct Shape
    {
        std::int64_t stride;
        std::uint32_t elemBytes;
    };
    std::uint64_t seed = 1000;
    for (const Shape shape : {Shape{8, 8}, Shape{12, 4}, Shape{64, 8}}) {
        for (const std::uint64_t total : {400, 60}) {
            for (const int consumer : {0, 5}) {
                for (const int mode : {0, 1, 2}) { // loads, stores, both
                    StreamParams p;
                    p.base = 0x100000;
                    p.strideBytes = shape.stride;
                    p.elemBytes = shape.elemBytes;
                    p.hasLoads = mode != 1;
                    p.hasStores = mode != 0;
                    p.unitCluster = 0;
                    p.consumerCluster = consumer;
                    p.capacityBytes = 256;
                    p.totalElems = total;
                    SCOPED_TRACE(testing::Message()
                                 << "stride " << shape.stride << ", "
                                 << total << " elements, consumer "
                                 << consumer << ", mode " << mode);
                    check(p, ++seed);
                }
            }
        }
    }
}

TEST(RandomUnit, RunAheadHidesLatency)
{
    PortLog port;
    port.latency = 20000;
    AccessStats stats;
    accel::RandomUnit ru(port.fn(), &stats, 500);
    const sim::Tick exposed = ru.access(0x1000, 8, false, 0, 0);
    const sim::Tick hidden = ru.access(0x2000, 8, false, 0, 48 * 500);
    EXPECT_GT(exposed, hidden);
    EXPECT_EQ(hidden, 500u); // translation cycle only
}

TEST(RandomUnit, WritesArePosted)
{
    PortLog port;
    port.latency = 20000;
    AccessStats stats;
    accel::RandomUnit ru(port.fn(), &stats, 500);
    const sim::Tick done = ru.access(0x1000, 8, true, 0, 0);
    EXPECT_EQ(done, 500u);
    EXPECT_DOUBLE_EQ(port.drains(), 1.0);
    EXPECT_DOUBLE_EQ(stats.daBytes, 8.0);
}

TEST(StreamUnit, WrongDirectionPanics)
{
    PortLog port;
    AccessStats stats;
    StreamUnit load_only(denseLoad(), port.fn(), &sharedMesh(), &stats);
    EXPECT_DEATH((void)load_only.writeAt(0, 0, 0), "writeAt");
    StreamParams p = denseLoad();
    p.hasLoads = false;
    p.hasStores = true;
    StreamUnit store_only(p, port.fn(), &sharedMesh(), &stats);
    EXPECT_DEATH((void)store_only.readAt(0, 0, 0), "store-only");
}
