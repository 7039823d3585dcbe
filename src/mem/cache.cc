#include "src/mem/cache.hh"

#include <algorithm>
#include <functional>

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
Cache::findLine(Addr line_addr)
{
    const std::size_t set = setIndex(line_addr);
    const Addr tag = lineNum(line_addr);
    for (int w = 0; w < _params.assoc; ++w) {
        Line &line = _lines[set * _params.assoc + w];
        if (line.valid && line.tag == tag)
            return &line;
    }
    return nullptr;
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

CacheResult
Cache::accessLine(Addr line_addr, bool write, sim::Tick now)
{
    _accesses += 1.0;
    if (_acct)
        _acct->addEvents(_params.component, 1.0);

    // MRU filter: skip the set walk when the last-hit line matches.
    const Addr tag = lineNum(line_addr);
    Line *line = nullptr;
    Line *victim = nullptr;
    if (_mru && _mru->valid && _mru->tag == tag) {
        line = _mru;
    } else {
        // One walk serves both lookups: find the tag, and remember the
        // victim (first invalid way, else first-encountered LRU
        // minimum) in case this is a miss.
        Line *const set = &_lines[setIndex(line_addr) *
                                  static_cast<std::size_t>(_params.assoc)];
        bool invalid_victim = false;
        for (int w = 0; w < _params.assoc; ++w) {
            Line &l = set[w];
            if (l.valid && l.tag == tag) {
                line = &l;
                break;
            }
            if (!l.valid) {
                if (!invalid_victim) {
                    victim = &l;
                    invalid_victim = true;
                }
            } else if (!invalid_victim &&
                       (!victim || l.lru < victim->lru)) {
                victim = &l;
            }
        }
    }

    if (line) {
        _hits += 1.0;
        if (line->prefetched) {
            _prefetchHits += 1.0;
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

    _misses += 1.0;

    // Occupy the earliest-free MSHR; queue when all busy. _mshrFree is
    // a min-heap on completion time, so the earliest slot is the root
    // rather than a linear scan over every slot.
    std::pop_heap(_mshrFree.begin(), _mshrFree.end(),
                  std::greater<sim::Tick>());
    const sim::Tick start = std::max(now + _tagLat, _mshrFree.back());
    const sim::Tick fill_lat = fillVictim(
        victim, line_addr, write && _params.writeback, start, true);
    const sim::Tick done = start + fill_lat;
    _mshrFree.back() = done;
    std::push_heap(_mshrFree.begin(), _mshrFree.end(),
                   std::greater<sim::Tick>());

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
    const std::size_t set = setIndex(line_addr);

    // Victim selection: invalid way first, then LRU.
    Line *victim = nullptr;
    for (int w = 0; w < _params.assoc; ++w) {
        Line &line = _lines[set * _params.assoc + w];
        if (!line.valid) {
            victim = &line;
            break;
        }
        if (!victim || line.lru < victim->lru)
            victim = &line;
    }

    return fillVictim(victim, line_addr, dirty, now, count_demand);
}

sim::Tick
Cache::fillVictim(Line *victim, Addr line_addr, bool dirty, sim::Tick now,
                  bool count_demand)
{
    if (victim->valid && victim->dirty) {
        _writebacks += 1.0;
        // Writeback is off the critical path; latency discarded.
        _downstream(victim->tag * lineBytes, true, now);
    }

    const sim::Tick miss_lat = _downstream(line_addr, false, now);

    victim->tag = lineNum(line_addr);
    victim->valid = true;
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
        _prefetches += 1.0;
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
    group.add(p + "accesses") = _accesses;
    group.add(p + "hits") = _hits;
    group.add(p + "misses") = _misses;
    group.add(p + "writebacks") = _writebacks;
    group.add(p + "prefetches") = _prefetches;
    group.add(p + "prefetch_hits") = _prefetchHits;
}

} // namespace distda::mem
