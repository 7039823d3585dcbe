#include "src/accel/access_unit.hh"

#include <algorithm>
#include <cstdlib>
#include <limits>

#include "src/sim/logging.hh"
#include "src/sim/probe.hh"

namespace distda::accel
{

StreamUnit::StreamUnit(const StreamParams &params, MemPort port,
                       noc::Mesh *mesh, AccessStats *stats,
                       sim::Probe *probe, int probe_track,
                       stats::Distribution *fill_dist)
    : _params(params), _port(std::move(port)), _mesh(mesh), _stats(stats),
      _probe(probe), _probeTrack(probe_track), _fillDist(fill_dist)
{
    const std::int64_t s =
        std::max<std::int64_t>(std::llabs(params.strideBytes), 1);
    std::int64_t per_fetch = 1;
    if (params.strideBytes == 0) {
        // Loop-invariant element: one fetch covers the whole stream.
        per_fetch = std::max<std::int64_t>(
            static_cast<std::int64_t>(params.totalElems), 1);
        _fetchBytes = params.elemBytes;
    } else if (s >= static_cast<std::int64_t>(mem::lineBytes)) {
        // Sparse stride: the access unit requests only the element it
        // needs from the bank (access specialization) rather than
        // pulling whole lines across the NoC.
        _fetchBytes = params.elemBytes;
    } else {
        per_fetch = std::max<std::int64_t>(
            static_cast<std::int64_t>(mem::lineBytes) / s, 1);
        _fetchBytes = mem::lineBytes;
    }
    _perFetch = sim::Divisor(static_cast<std::uint64_t>(per_fetch));
    _capacityChunks = std::max<std::int64_t>(
        params.capacityBytes / std::max<std::uint32_t>(_fetchBytes, 1),
        2);

    _sameCluster = params.unitCluster == params.consumerCluster;
    _lookahead = std::max<std::int64_t>(_capacityChunks / 2, 1);
    _lastChunk = chunkOf(
        static_cast<std::int64_t>(
            std::max<std::uint64_t>(params.totalElems, 1)) -
        1);
    updateFastBounds();
}

void
StreamUnit::updateFastBounds()
{
    _winLoK = _loChunk * elemsPerFetch();
    _winHiK = _hiChunk * elemsPerFetch();
    // The lookahead loop runs iff _hiChunk <= min(lead_c + _lookahead,
    // _lastChunk); once the window reaches past the last chunk it can
    // never run again.
    _fastLeadLimitK = _hiChunk > _lastChunk
                          ? std::numeric_limits<std::int64_t>::max()
                          : (_hiChunk - _lookahead) * elemsPerFetch();
}

void
StreamUnit::grow(std::int64_t c, sim::Tick now, bool fetch)
{
    Chunk ch;
    if (fetch) {
        const sim::Tick issue = std::max(_fsmNow, now);
        const sim::Tick lat = _port(chunkAddr(c), _fetchBytes, false,
                                    issue);
        ch.ready = issue + lat;
        ch.fetched = true;
        _fsmNow = issue + _params.cycleTick;
        _stats->daBytes += _fetchBytes;
        _stats->bufferAccesses += elemsPerFetch();
        if (_probe) {
            _probe->span(_probeTrack, "fill", issue, ch.ready);
            if (_fillDist)
                _fillDist->sample(static_cast<double>(lat));
        }
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
    } else if (c == _loChunk - 1) {
        _window.push_front(ch);
        --_loChunk;
    } else {
        panic("stream window grow at %lld outside [%lld,%lld)",
              static_cast<long long>(c),
              static_cast<long long>(_loChunk),
              static_cast<long long>(_hiChunk));
    }
    updateFastBounds();
}

void
StreamUnit::evictFront(sim::Tick now)
{
    Chunk &ch = _window.front();
    if (ch.dirty) {
        const sim::Tick issue = std::max(_fsmNow, now);
        const sim::Tick lat =
            _port(chunkAddr(_loChunk), _fetchBytes, true, issue);
        _fsmNow = issue + _params.cycleTick;
        _drainDone.push_back(issue + lat);
        _stats->daBytes += _fetchBytes;
        _stats->bufferAccesses += elemsPerFetch();
        if (_probe)
            _probe->span(_probeTrack, "drain", issue, issue + lat);
    }
    _window.pop_front();
    ++_loChunk;
    updateFastBounds();
}

void
StreamUnit::ensure(std::int64_t c, sim::Tick now, bool fetch)
{
    if (!_window.empty() && c >= _loChunk && c < _hiChunk)
        return;
    // Grow toward c, evicting from the front when capacity is hit.
    // Reusable window space — chunks a trailing tap still needs — is
    // protected by the eviction bound.
    const std::int64_t protect = chunkOf(_leadK - _maxTapDistance);
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

sim::Tick
StreamUnit::readAt(std::int64_t k, sim::Tick consumer_now,
                   std::int64_t tap_distance)
{
    DISTDA_ASSERT(_params.hasLoads, "readAt on a store-only stream");
    const std::int64_t eff_k = k - tap_distance;

    // Steady-state fast path: a same-cluster in-window read whose lead
    // is far enough behind the fill FSM that ensure() and the
    // lookahead loop below are provably no-ops. Everything observable
    // — stats, _leadK, the returned tick — matches the general path
    // exactly; only the skipped work is work that would do nothing.
    if (_sameCluster && tap_distance <= _maxTapDistance &&
        eff_k >= _winLoK && eff_k < _winHiK && k < _fastLeadLimitK &&
        _leadK < _fastLeadLimitK) {
        if (k > _leadK)
            _leadK = k;
        _stats->intraBytes += _params.elemBytes;
        _stats->bufferAccesses += 1.0;
        const sim::Tick ready =
            _window[static_cast<std::size_t>(chunkOf(eff_k) - _loChunk)]
                .ready;
        return ready > consumer_now ? ready : consumer_now;
    }

    const std::int64_t c = chunkOf(eff_k);

    _maxTapDistance = std::max(_maxTapDistance, tap_distance);
    _leadK = std::max(_leadK, k);

    ensure(c, consumer_now, true);

    // Fill-FSM lookahead: prefetch ahead of the lead tap, sliding the
    // window forward past chunks no tap still needs (this is what
    // decouples the partition from memory latency).
    const std::int64_t lead_c = chunkOf(_leadK);
    const std::int64_t protect = chunkOf(_leadK - _maxTapDistance);
    while (_hiChunk <= std::min(lead_c + _lookahead, _lastChunk)) {
        if (_hiChunk - _loChunk >= _capacityChunks) {
            if (_loChunk < protect)
                evictFront(consumer_now);
            else
                break; // every resident chunk is still live
        }
        grow(_hiChunk, consumer_now, true);
    }

    sim::Tick ready = chunk(c).ready;

    _stats->intraBytes += _params.elemBytes;
    _stats->bufferAccesses += 1.0;

    if (_params.unitCluster != _params.consumerCluster) {
        // Decentralized access unit proactively forwarding the operand
        // to the remote compute node's buffer (Mono-DA): the push
        // starts as soon as the element is in the unit's buffer, so a
        // prefetched element hides the hop latency; the consumer's
        // pointer-step/credit return rides back as control traffic.
        auto xfer = _mesh->transfer(
            _params.unitCluster, _params.consumerCluster,
            _params.elemBytes, noc::TrafficClass::AccData, ready);
        // Credits return batched at chunk granularity.
        if (_perFetch.divides(eff_k)) {
            _mesh->transfer(_params.consumerCluster,
                            _params.unitCluster, 8,
                            noc::TrafficClass::AccCtrl, ready);
            _stats->aaBytes += 8.0;
        }
        ready += xfer.latency;
        _stats->aaBytes += _params.elemBytes;
        _stats->intraBytes += _params.elemBytes; // consumer-side buffer
        _stats->bufferAccesses += 1.0;
    }

    return std::max(ready, consumer_now);
}

sim::Tick
StreamUnit::writeAt(std::int64_t k, sim::Tick now,
                    std::int64_t tap_distance)
{
    DISTDA_ASSERT(_params.hasStores, "writeAt on a load-only stream");
    const std::int64_t eff_k = k - tap_distance;
    const std::int64_t c = chunkOf(eff_k);
    sim::Tick t = now;

    _maxTapDistance = std::max(_maxTapDistance, tap_distance);
    _leadK = std::max(_leadK, k);

    if (_params.unitCluster != _params.consumerCluster) {
        // Compute node posts the value to the remote access unit (the
        // credit protocol guarantees space, so the store is off the
        // critical path); the buffer credit returns as control.
        _mesh->transfer(_params.consumerCluster, _params.unitCluster,
                        _params.elemBytes, noc::TrafficClass::AccData,
                        t);
        // Credits return batched at chunk granularity.
        if (_perFetch.divides(eff_k)) {
            _mesh->transfer(_params.unitCluster,
                            _params.consumerCluster, 8,
                            noc::TrafficClass::AccCtrl, t);
            _stats->aaBytes += 8.0;
        }
        _stats->aaBytes += _params.elemBytes;
    }

    // Combined load/store buffers fetch on a write miss (the loads
    // need the rest of the chunk); store-only buffers write-allocate
    // without fetching.
    ensure(c, t, _params.hasLoads);
    chunk(c).dirty = true;

    _stats->intraBytes += _params.elemBytes;
    _stats->bufferAccesses += 1.0;

    return t;
}

sim::Tick
StreamUnit::flush(sim::Tick now)
{
    for (std::int64_t c = _loChunk; c < _hiChunk; ++c) {
        Chunk &ch = chunk(c);
        if (!ch.dirty)
            continue;
        const sim::Tick issue = std::max(_fsmNow, now);
        const sim::Tick lat =
            _port(chunkAddr(c), _fetchBytes, true, issue);
        _fsmNow = issue + _params.cycleTick;
        _drainDone.push_back(issue + lat);
        _stats->daBytes += _fetchBytes;
        _stats->bufferAccesses += elemsPerFetch();
        if (_probe)
            _probe->span(_probeTrack, "drain", issue, issue + lat);
        ch.dirty = false;
    }
    sim::Tick done = now;
    for (sim::Tick t : _drainDone)
        done = std::max(done, t);
    _drainDone.clear();
    return done;
}

void
StreamUnit::rewind(sim::Tick now)
{
    const std::int64_t first_c = chunkOf(-_maxTapDistance);
    const bool fully_resident =
        !_window.empty() && _loChunk <= first_c && _hiChunk > _lastChunk;
    if (!fully_resident) {
        flush(now);
        _window.clear();
        _loChunk = _hiChunk = 0;
        updateFastBounds();
    }
    _leadK = 0;
    _maxTapDistance = 0;
}

RandomUnit::RandomUnit(int cluster, MemPort port, AccessStats *stats,
                       sim::Tick cycle_tick)
    : _cluster(cluster), _port(std::move(port)), _stats(stats),
      _cycleTick(cycle_tick)
{
}

} // namespace distda::accel
