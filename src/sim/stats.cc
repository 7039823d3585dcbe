#include "src/sim/stats.hh"

#include <cmath>
#include <utility>

#include "src/sim/json.hh"
#include "src/sim/logging.hh"

namespace distda::stats
{

void
P2Quantile::add(double v)
{
    // Warm-up: keep the first five samples sorted; they seed the
    // markers exactly.
    if (_n < 5) {
        _heights[_n] = v;
        ++_n;
        for (std::uint64_t i = _n - 1; i > 0; --i) {
            if (_heights[i] < _heights[i - 1])
                std::swap(_heights[i], _heights[i - 1]);
            else
                break;
        }
        if (_n == 5) {
            for (int i = 0; i < 5; ++i)
                _positions[i] = i + 1;
            _desired[0] = 1.0;
            _desired[1] = 1.0 + 2.0 * _q;
            _desired[2] = 1.0 + 4.0 * _q;
            _desired[3] = 3.0 + 2.0 * _q;
            _desired[4] = 5.0;
        }
        return;
    }

    // Locate the cell and bump the extreme markers.
    int cell;
    if (v < _heights[0]) {
        _heights[0] = v;
        cell = 0;
    } else if (v >= _heights[4]) {
        _heights[4] = v;
        cell = 3;
    } else {
        cell = 0;
        while (cell < 3 && v >= _heights[cell + 1])
            ++cell;
    }
    for (int i = cell + 1; i < 5; ++i)
        _positions[i] += 1.0;
    ++_n;

    // Advance the desired positions by the marker increments
    // (0, q/2, q, (1+q)/2, 1).
    _desired[1] += _q / 2.0;
    _desired[2] += _q;
    _desired[3] += (1.0 + _q) / 2.0;
    _desired[4] += 1.0;

    // Adjust the three interior markers toward their desired
    // positions, parabolically when the neighbor gap allows.
    for (int i = 1; i <= 3; ++i) {
        const double d = _desired[i] - _positions[i];
        if ((d >= 1.0 && _positions[i + 1] - _positions[i] > 1.0) ||
            (d <= -1.0 && _positions[i - 1] - _positions[i] < -1.0)) {
            const double s = d >= 1.0 ? 1.0 : -1.0;
            // Piecewise-parabolic (P²) prediction.
            const double np1 = _positions[i + 1];
            const double nm1 = _positions[i - 1];
            const double n0 = _positions[i];
            double h =
                _heights[i] +
                s / (np1 - nm1) *
                    ((n0 - nm1 + s) * (_heights[i + 1] - _heights[i]) /
                         (np1 - n0) +
                     (np1 - n0 - s) * (_heights[i] - _heights[i - 1]) /
                         (n0 - nm1));
            // Fall back to linear when the parabola leaves the cell.
            if (h <= _heights[i - 1] || h >= _heights[i + 1]) {
                const int j = s > 0.0 ? i + 1 : i - 1;
                h = _heights[i] + s * (_heights[j] - _heights[i]) /
                                      (_positions[j] - n0);
            }
            _heights[i] = h;
            _positions[i] += s;
        }
    }
}

double
P2Quantile::value() const
{
    if (_n == 0)
        return 0.0;
    if (_n > 5)
        return _heights[2];
    // Exact small-sample quantile: nearest-rank on the sorted buffer
    // (at n == 5 the heights are still exactly the sorted samples).
    const auto rank = static_cast<std::uint64_t>(
        _q * static_cast<double>(_n - 1) + 0.5);
    return _heights[rank < _n ? rank : _n - 1];
}

Distribution::Distribution(double lo, double hi, std::size_t num_buckets)
    : _lo(lo), _hi(hi), _buckets(num_buckets == 0 ? 1 : num_buckets, 0.0)
{
    DISTDA_ASSERT(hi > lo, "distribution range [%g, %g) is empty", lo, hi);
}

void
Distribution::sample(double v, double weight)
{
    if (_count == 0.0) {
        _min = v;
        _max = v;
    } else {
        if (v < _min)
            _min = v;
        if (v > _max)
            _max = v;
    }
    _count += weight;
    _sum += v * weight;
    _sumSq += v * v * weight;
    _p50.add(v);
    _p95.add(v);
    _p99.add(v);
    if (v < _lo) {
        _underflow += weight;
    } else if (v >= _hi) {
        _overflow += weight;
    } else {
        const auto idx = static_cast<std::size_t>(
            (v - _lo) / (_hi - _lo) * static_cast<double>(_buckets.size()));
        _buckets[idx < _buckets.size() ? idx : _buckets.size() - 1] += weight;
    }
}

double
Distribution::stdev() const
{
    if (_count <= 0.0)
        return 0.0;
    const double m = _sum / _count;
    const double var = _sumSq / _count - m * m;
    return var > 0.0 ? std::sqrt(var) : 0.0;
}

void
Distribution::jsonDump(sim::JsonWriter &w) const
{
    w.beginObject();
    w.key("type").value("distribution");
    w.key("count").value(_count);
    w.key("sum").value(_sum);
    w.key("mean").value(mean());
    w.key("stdev").value(stdev());
    w.key("min").value(min());
    w.key("max").value(max());
    w.key("underflow").value(_underflow);
    w.key("overflow").value(_overflow);
    w.key("p50").value(p50());
    w.key("p95").value(p95());
    w.key("p99").value(p99());
    w.key("bucket_lo").value(_lo);
    w.key("bucket_hi").value(_hi);
    w.key("buckets").beginArray();
    for (const double b : _buckets)
        w.value(b);
    w.endArray();
    w.endObject();
}

void
Group::checkFresh(const std::string &stat_name) const
{
    // One name space across scalars and distributions: a cross-kind
    // collision would be just as ambiguous in a JSON dump as a
    // same-kind one.
    if (_scalars.count(stat_name) || _distributions.count(stat_name)) {
        panic("duplicate stat '%s' in group '%s'", stat_name.c_str(),
              _name.c_str());
    }
}

Scalar &
Group::add(const std::string &stat_name)
{
    checkFresh(stat_name);
    return _scalars[stat_name];
}

Distribution &
Group::addDistribution(const std::string &stat_name, double lo, double hi,
                       std::size_t num_buckets)
{
    checkFresh(stat_name);
    return _distributions.try_emplace(stat_name, lo, hi, num_buckets)
        .first->second;
}

void
Group::addChild(Group *child)
{
    for (const Group *existing : _children) {
        if (existing->name() == child->name())
            panic("duplicate child group '%s' in group '%s'",
                  child->name().c_str(), _name.c_str());
    }
    _children.push_back(child);
}

const Scalar &
Group::get(const std::string &stat_name) const
{
    auto it = _scalars.find(stat_name);
    if (it == _scalars.end())
        panic("stat '%s' not found in group '%s'", stat_name.c_str(),
              _name.c_str());
    return it->second;
}

const Distribution &
Group::getDistribution(const std::string &stat_name) const
{
    auto it = _distributions.find(stat_name);
    if (it == _distributions.end())
        panic("distribution '%s' not found in group '%s'",
              stat_name.c_str(), _name.c_str());
    return it->second;
}

void
Group::jsonDump(sim::JsonWriter &w) const
{
    w.beginObject();
    for (const auto &[k, v] : _scalars)
        w.key(k).value(v.value());
    for (const auto &[k, d] : _distributions) {
        w.key(k);
        d.jsonDump(w);
    }
    for (const Group *child : _children) {
        w.key(child->name());
        child->jsonDump(w);
    }
    w.endObject();
}

} // namespace distda::stats
