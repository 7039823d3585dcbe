/**
 * @file
 * A lightweight named-statistics framework. Components own a
 * stats::Group and register scalar counters and fixed-bucket
 * distributions with it; drivers collect values by name for the
 * table/figure reports and dump whole Group trees as JSON for the
 * machine-readable run reports.
 */

#ifndef DISTDA_SIM_STATS_HH
#define DISTDA_SIM_STATS_HH

#include <algorithm>
#include <cstdint>
#include <map>
#include <string>
#include <vector>

namespace distda::sim
{
class JsonWriter;
} // namespace distda::sim

namespace distda::stats
{

/** A double-valued scalar statistic (counter or accumulator). */
class Scalar
{
  public:
    Scalar() = default;

    Scalar &operator+=(double v) { _value += v; return *this; }
    Scalar &operator++() { _value += 1.0; return *this; }
    Scalar &operator=(double v) { _value = v; return *this; }

    double value() const { return _value; }

  private:
    double _value = 0.0;
};

/**
 * Streaming quantile estimator (the P² algorithm of Jain & Chlamtac,
 * CACM 1985): five markers track the running quantile of an unbounded
 * stream in O(1) memory, adjusted by parabolic interpolation as
 * samples arrive. Exact for the first five samples (sorted buffer);
 * an estimate thereafter. Deterministic given the sample order, so
 * reported quantiles are reproducible run to run.
 */
class P2Quantile
{
  public:
    explicit P2Quantile(double q = 0.5) : _q(q) {}

    void add(double v);

    /** Current estimate (exact while fewer than 6 samples; 0 empty). */
    double value() const;

    double quantile() const { return _q; }
    std::uint64_t samples() const { return _n; }

  private:
    double _q;
    std::uint64_t _n = 0;
    double _heights[5] = {};   ///< marker heights q_i
    double _positions[5] = {}; ///< marker positions n_i
    double _desired[5] = {};   ///< desired positions n'_i
};

/**
 * A fixed-bucket histogram over [lo, hi) with running count, sum,
 * min, max and sum-of-squares, so mean and standard deviation come
 * for free. Samples outside the range land in underflow/overflow
 * counters rather than being dropped, so count() is always the true
 * sample count. Every distribution additionally carries streaming
 * p50/p95/p99 estimates (P²), which see each sample once regardless
 * of its weight.
 */
class Distribution
{
  public:
    Distribution() : Distribution(0.0, 1.0, 1) {}
    Distribution(double lo, double hi, std::size_t num_buckets);

    /** Record @p v with optional sample weight. */
    void sample(double v, double weight = 1.0);

    double count() const { return _count; }
    double sum() const { return _sum; }
    double mean() const { return _count > 0.0 ? _sum / _count : 0.0; }
    double stdev() const;
    /** Smallest/largest sampled value (0 when empty). */
    double min() const { return _count > 0.0 ? _min : 0.0; }
    double max() const { return _count > 0.0 ? _max : 0.0; }
    double underflow() const { return _underflow; }
    double overflow() const { return _overflow; }

    /**
     * Streaming quantile estimates; weights are ignored (each call to
     * sample() counts once toward the order statistics). The three
     * independent estimators are clamped against each other so
     * p50() <= p95() <= p99() holds unconditionally — a hard
     * invariant reports and oracles may rely on.
     */
    double p50() const { return _p50.value(); }
    double p95() const { return std::max(p50(), _p95.value()); }
    double p99() const { return std::max(p95(), _p99.value()); }

    double bucketLo() const { return _lo; }
    double bucketHi() const { return _hi; }
    std::size_t numBuckets() const { return _buckets.size(); }
    double bucketCount(std::size_t i) const { return _buckets[i]; }

    /** Emit this distribution as a JSON object value. */
    void jsonDump(sim::JsonWriter &w) const;

  private:
    double _lo;
    double _hi;
    std::vector<double> _buckets;
    double _count = 0.0;
    double _sum = 0.0;
    double _sumSq = 0.0;
    double _min = 0.0;
    double _max = 0.0;
    double _underflow = 0.0;
    double _overflow = 0.0;
    P2Quantile _p50{0.50};
    P2Quantile _p95{0.95};
    P2Quantile _p99{0.99};
};

/**
 * A named collection of statistics. Groups nest: a parent group sees
 * child statistics with dotted names. Registering the same stat or
 * child name twice panics, so flattened dumps and JSON reports can
 * never silently contain ambiguous keys.
 */
class Group
{
  public:
    explicit Group(std::string name) : _name(std::move(name)) {}

    Group(const Group &) = delete;
    Group &operator=(const Group &) = delete;

    const std::string &name() const { return _name; }

    /** Register a scalar under @p stat_name; returns a reference. */
    Scalar &add(const std::string &stat_name);

    /** Register a fixed-bucket distribution; returns a reference. */
    Distribution &addDistribution(const std::string &stat_name,
                                  double lo = 0.0, double hi = 1.0,
                                  std::size_t num_buckets = 1);

    /** Attach @p child so its stats appear as "<child>.<stat>". */
    void addChild(Group *child);

    /** Look up a scalar by local name; panics when missing. */
    const Scalar &get(const std::string &stat_name) const;

    /** Look up a distribution by local name; panics when missing. */
    const Distribution &getDistribution(
        const std::string &stat_name) const;

    /**
     * Emit this group (scalars, distributions, children) as one JSON
     * object value into @p w.
     */
    void jsonDump(sim::JsonWriter &w) const;

  private:
    /** Panic unless @p stat_name is unused by every stat kind. */
    void checkFresh(const std::string &stat_name) const;

    std::string _name;
    std::map<std::string, Scalar> _scalars;
    std::map<std::string, Distribution> _distributions;
    std::vector<Group *> _children;
};

} // namespace distda::stats

#endif // DISTDA_SIM_STATS_HH
