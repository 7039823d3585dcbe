#include "src/mem/cache.hh"

#include <algorithm>

#include "src/sim/logging.hh"
#include "src/sim/probe.hh"

namespace distda::mem
{

namespace
{
constexpr std::size_t strideTableEntries = 16;
} // namespace

Cache::Cache(const CacheParams &params, energy::Accountant *acct,
             Downstream downstream)
    : _params(params), _acct(acct), _downstream(std::move(downstream)),
      _clock(params.clockHz),
      _numSets(params.sizeBytes / lineBytes /
               static_cast<std::uint64_t>(params.assoc)),
      _tagLat(_clock.cyclesToTicks(params.latencyCycles)),
      _lines(_numSets * static_cast<std::size_t>(params.assoc)),
      _mshrFree(static_cast<std::size_t>(std::max(params.mshrs, 1)), 0),
      _strideTable(strideTableEntries)
{
    if (_numSets == 0)
        fatal("cache '%s': size %llu too small for assoc %d",
              params.name.c_str(),
              static_cast<unsigned long long>(params.sizeBytes),
              params.assoc);
    _sets = sim::Divisor(_numSets);
    if (!_downstream)
        fatal("cache '%s' has no downstream", params.name.c_str());
}

std::size_t
Cache::setIndex(Addr line_addr) const
{
    const Addr line = lineNum(line_addr);
    if (_params.setHash) {
        // Fibonacci hashing: high product bits mix every line bit, so
        // page-interleaved banks use all their sets.
        const Addr h = line * 0x9e3779b97f4a7c15ULL;
        return static_cast<std::size_t>(_sets.mod(h >> 32));
    }
    return static_cast<std::size_t>(_sets.mod(line));
}

Cache::Line *
Cache::findIn(Line *set, Addr tag) const
{
    for (int w = 0; w < _params.assoc; ++w) {
        if (set[w].tag == tag)
            return &set[w];
    }
    return nullptr;
}

Cache::Line *
Cache::findLine(Addr line_addr)
{
    return findIn(setOf(line_addr), lineNum(line_addr));
}

const Cache::Line *
Cache::findLine(Addr line_addr) const
{
    return const_cast<Cache *>(this)->findLine(line_addr);
}

bool
Cache::contains(Addr addr) const
{
    return findLine(lineAlign(addr)) != nullptr;
}

Cache::Line *
Cache::victimIn(Line *set) const
{
    // Strict < keeps the first minimum. Never-filled ways hold stamp 0
    // and every fill or hit stamps ++_lruTick >= 1, so this is "first
    // never-filled way, else first LRU line".
    int way = 0;
    std::uint64_t oldest = set[0].lru;
    for (int w = 1; w < _params.assoc; ++w) {
        const std::uint64_t stamp = set[w].lru;
        const bool older = stamp < oldest;
        way = older ? w : way;
        oldest = older ? stamp : oldest;
    }
    return &set[way];
}

CacheResult
Cache::accessLine(Addr line_addr, bool write, sim::Tick now)
{
    ++_accesses;
    if (_acct)
        _acct->addEvents(_params.component, 1.0);

    // MRU filter: skip the set walk when the last-hit line matches.
    const Addr tag = lineNum(line_addr);
    Line *line = _mru;
    Line *set = nullptr;
    if (!line || line->tag != tag) {
        set = setOf(line_addr);
        line = findIn(set, tag);
    }

    if (line) {
        ++_hits;
        if (line->prefetched) {
            ++_prefetchHits;
            line->prefetched = false;
        }
        _mru = line;
        line->lru = ++_lruTick;
        if (write)
            line->dirty = _params.writeback;
        if (!write && _params.stridePrefetch)
            prefetch(line_addr, now);
        return CacheResult{true, _tagLat};
    }

    ++_misses;

    // Occupy the earliest-free MSHR, the ring's head; queue when all
    // are busy. Its slot becomes the tail.
    const std::size_t n = _mshrFree.size();
    std::size_t slot = _mshrHead;
    const sim::Tick start = std::max(now + _tagLat, _mshrFree[slot]);
    _mshrHead = slot + 1 == n ? 0 : slot + 1;
    const sim::Tick done =
        start + fillVictim(victimIn(set), line_addr,
                           write && _params.writeback, start, true);
    // Sort the completion tick in from the tail. Completions mostly
    // grow, so it rarely passes a later tick; it moves further when
    // decoupled callers issue behind `now` or downstream latencies
    // differ.
    while (slot != _mshrHead) {
        const std::size_t prev = (slot == 0 ? n : slot) - 1;
        if (_mshrFree[prev] <= done)
            break;
        _mshrFree[slot] = _mshrFree[prev];
        slot = prev;
    }
    _mshrFree[slot] = done;

    if (_probe) {
        _probe->span(_probeTrack, "miss", start, done);
        if (_missDist)
            _missDist->sample(static_cast<double>(done - now));
    }

    if (!write && _params.stridePrefetch)
        prefetch(line_addr, now);

    return CacheResult{false, done - now};
}

sim::Tick
Cache::fill(Addr line_addr, bool dirty, sim::Tick now, bool count_demand)
{
    return fillVictim(victimIn(setOf(line_addr)), line_addr, dirty, now,
                      count_demand);
}

sim::Tick
Cache::fillVictim(Line *victim, Addr line_addr, bool dirty, sim::Tick now,
                  bool count_demand)
{
    // Only filled lines become dirty, so this needs no filled check.
    if (victim->dirty) {
        ++_writebacks;
        // Writeback is off the critical path; latency discarded.
        _downstream(victim->tag * lineBytes, true, now);
    }

    const sim::Tick miss_lat = _downstream(line_addr, false, now);

    victim->tag = lineNum(line_addr);
    victim->dirty = dirty;
    victim->prefetched = !count_demand;
    victim->lru = ++_lruTick;
    if (count_demand)
        _mru = victim;

    return miss_lat;
}

void
Cache::prefetch(Addr line_addr, sim::Tick now)
{
    const std::uint64_t region = line_addr >> 12;
    const auto line = static_cast<std::int64_t>(lineNum(line_addr));
    StrideEntry &entry = _strideTable[region % strideTableEntries];

    if (entry.region != region) {
        entry.region = region;
        entry.lastLine = line;
        entry.stride = 0;
        entry.confidence = 0;
        return;
    }

    const std::int64_t delta = line - entry.lastLine;
    entry.lastLine = line;
    if (delta == 0)
        return;
    if (delta == entry.stride) {
        entry.confidence = std::min(entry.confidence + 1, 4);
    } else {
        entry.stride = delta;
        entry.confidence = 0;
        return;
    }

    if (entry.confidence < 2)
        return;

    for (int d = 1; d <= _params.prefetchDegree; ++d) {
        const std::int64_t target = line + entry.stride * d;
        if (target < 0)
            continue;
        const Addr target_addr = static_cast<Addr>(target) * lineBytes;
        if (findLine(target_addr))
            continue;
        ++_prefetches;
        if (_acct)
            _acct->addEvents(_params.component, 1.0);
        // Prefetch fills are off the demand critical path.
        fill(target_addr, false, now, false);
    }
}

void
Cache::exportStats(stats::Group &group) const
{
    const std::string p = _params.name + ".";
    group.add(p + "accesses") = accesses();
    group.add(p + "hits") = hits();
    group.add(p + "misses") = misses();
    group.add(p + "writebacks") = writebacks();
    group.add(p + "prefetches") = prefetchesIssued();
    group.add(p + "prefetch_hits") = prefetchHits();
}

} // namespace distda::mem
