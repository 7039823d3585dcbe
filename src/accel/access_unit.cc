#include "src/accel/access_unit.hh"

#include <algorithm>
#include <bit>
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
    // Size the ring for the usual window: at most _capacityChunks + 2
    // chunks while eviction is allowed, and no more than the stream's
    // chunks plus the one a trailing tap starts in. grow() doubles it
    // for the protected windows that outgrow that.
    _ring.resize(std::bit_ceil(static_cast<std::uint64_t>(
        std::min(_capacityChunks + 3, _lastChunk + 2))));
    _ringMask = _ring.size() - 1;
    if (!_sameCluster) {
        const int unit = params.unitCluster;
        const int consumer = params.consumerCluster;
        _readData = mesh->route(unit, consumer, params.elemBytes,
                                noc::TrafficClass::AccData);
        _readCredit =
            mesh->route(consumer, unit, 8, noc::TrafficClass::AccCtrl);
        _postData = mesh->route(consumer, unit, params.elemBytes,
                                noc::TrafficClass::AccData);
        _postCredit =
            mesh->route(unit, consumer, 8, noc::TrafficClass::AccCtrl);
    }
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
    if (windowEmpty())
        _loChunk = _hiChunk = c;
    if (c != _hiChunk && c != _loChunk - 1) {
        panic("stream window grow at %lld outside [%lld,%lld)",
              static_cast<long long>(c),
              static_cast<long long>(_loChunk),
              static_cast<long long>(_hiChunk));
    }
    if (static_cast<std::uint64_t>(_hiChunk - _loChunk) == _ring.size()) {
        // A protected window outgrew the ring: double it before the
        // new chunk would wrap onto the oldest one.
        std::vector<Chunk> bigger(_ring.size() * 2);
        const std::size_t mask = bigger.size() - 1;
        for (std::int64_t r = _loChunk; r < _hiChunk; ++r)
            bigger[static_cast<std::size_t>(r) & mask] = chunk(r);
        _ring.swap(bigger);
        _ringMask = mask;
    }
    chunk(c) = ch;
    if (c == _hiChunk)
        ++_hiChunk;
    else
        --_loChunk;
    updateFastBounds();
}

void
StreamUnit::evictFront(sim::Tick now)
{
    if (chunk(_loChunk).dirty) {
        const sim::Tick issue = std::max(_fsmNow, now);
        const sim::Tick lat =
            _port(chunkAddr(_loChunk), _fetchBytes, true, issue);
        _fsmNow = issue + _params.cycleTick;
        _drainDone = std::max(_drainDone, issue + lat);
        _stats->daBytes += _fetchBytes;
        _stats->bufferAccesses += elemsPerFetch();
        if (_probe)
            _probe->span(_probeTrack, "drain", issue, issue + lat);
    }
    ++_loChunk;
    updateFastBounds();
}

void
StreamUnit::ensure(std::int64_t c, sim::Tick now, bool fetch)
{
    if (!windowEmpty() && c >= _loChunk && c < _hiChunk)
        return;
    // Grow toward c, evicting from the front when capacity is hit.
    // Reusable window space — chunks a trailing tap still needs — is
    // protected by the eviction bound.
    const std::int64_t protect = chunkOf(_leadK - _maxTapDistance);
    while (windowEmpty() || c >= _hiChunk) {
        if (!windowEmpty() && _hiChunk - _loChunk >= _capacityChunks &&
            _loChunk < protect) {
            evictFront(now);
        }
        grow(windowEmpty() ? c : _hiChunk, now, fetch);
        if (_hiChunk - _loChunk > _capacityChunks + 2 &&
            _loChunk < protect) {
            evictFront(now);
        }
    }
    while (c < _loChunk)
        grow(_loChunk - 1, now, fetch);
}

sim::Tick
StreamUnit::readMiss(std::int64_t k, sim::Tick consumer_now,
                     std::int64_t tap_distance)
{
    const std::int64_t c = chunkOf(k - tap_distance);

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

    // Only a lead moving backwards between rewinds could have evicted
    // c; the engine's iterations never do.
    DISTDA_ASSERT(c >= _loChunk && c < _hiChunk,
                  "stream read of chunk %lld outside the window "
                  "[%lld,%lld)",
                  static_cast<long long>(c),
                  static_cast<long long>(_loChunk),
                  static_cast<long long>(_hiChunk));
    return std::max(consumed(k - tap_distance), consumer_now);
}

sim::Tick
StreamUnit::forward(const noc::Mesh::Route &data,
                    const noc::Mesh::Route &credit, std::int64_t eff_k,
                    sim::Tick t)
{
    const noc::TransferResult xfer = _mesh->send(data, t);
    if (_perFetch.divides(eff_k)) {
        _mesh->send(credit, t);
        _stats->aaBytes += 8.0;
    }
    _stats->aaBytes += data.bytes;
    return t + xfer.latency;
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
        _drainDone = std::max(_drainDone, issue + lat);
        _stats->daBytes += _fetchBytes;
        _stats->bufferAccesses += elemsPerFetch();
        if (_probe)
            _probe->span(_probeTrack, "drain", issue, issue + lat);
        ch.dirty = false;
    }
    const sim::Tick done = std::max(now, _drainDone);
    _drainDone = 0;
    return done;
}

void
StreamUnit::rewind(sim::Tick now)
{
    const std::int64_t first_c = chunkOf(-_maxTapDistance);
    const bool fully_resident =
        !windowEmpty() && _loChunk <= first_c && _hiChunk > _lastChunk;
    if (!fully_resident) {
        flush(now);
        _loChunk = _hiChunk = 0;
        updateFastBounds();
    }
    _leadK = 0;
    _maxTapDistance = 0;
}

RandomUnit::RandomUnit(MemPort port, AccessStats *stats,
                       sim::Tick cycle_tick)
    : _port(std::move(port)), _stats(stats), _cycleTick(cycle_tick)
{
}

} // namespace distda::accel
