/**
 * @file
 * Plan-level abstract interpretation over compiled OffloadPlans: the
 * interval/affine value domain, the invocation profile that closes the
 * fact-producing passes (bounds, channels, purity in verify::passes())
 * over "all invocations" the host actually issued, and the fixpoint
 * machinery of the bounds pass.
 *
 * The soundness contract: a Proven fact holds on every execution
 * consistent with the analysis inputs (the plan, and the profile when
 * one is supplied); a Violated fact fails on every such execution;
 * everything else is Unknown. The differential fuzzer enforces this
 * contract dynamically — any run that contradicts a Proven or Violated
 * fact is a campaign failure (src/fuzz/diff.cc).
 */

#ifndef DISTDA_VERIFY_ANALYSIS_HH
#define DISTDA_VERIFY_ANALYSIS_HH

#include <cstdint>
#include <map>
#include <vector>

#include "src/compiler/plan.hh"

namespace distda::verify
{

/**
 * A signed integer interval with +/-inf encoded as the int64 extremes,
 * the base lattice of the bounds analysis. Infinite bounds absorb
 * (unbounded stays unbounded); a sum or product of finite bounds that
 * leaves the int64 range gives top, because integer ops wrap there
 * (compiler::evalOp).
 * Default-constructed intervals are bottom ("no value observed");
 * top() is the unconstrained interval.
 */
struct Interval
{
    std::int64_t lo = 0;
    std::int64_t hi = -1; ///< lo > hi encodes bottom

    static Interval
    exact(std::int64_t v)
    {
        return Interval{v, v};
    }

    static Interval
    of(std::int64_t lo, std::int64_t hi)
    {
        return Interval{lo, hi};
    }

    static Interval top();

    bool isBottom() const { return lo > hi; }
    bool isTop() const;

    bool
    contains(std::int64_t v) const
    {
        return !isBottom() && lo <= v && v <= hi;
    }

    /** True when every value lies in [0, elems). */
    bool within(std::uint64_t elems) const;
    /** True when no value lies in [0, elems). */
    bool disjointFrom(std::uint64_t elems) const;

    Interval join(const Interval &o) const;
    /** Standard widening: escaping bounds jump to +/-inf. */
    Interval widen(const Interval &next) const;

    Interval add(const Interval &o) const;
    Interval sub(const Interval &o) const;
    Interval mul(const Interval &o) const;
    Interval neg() const;
    Interval minWith(const Interval &o) const;
    Interval maxWith(const Interval &o) const;
    Interval absVal() const;

    bool operator==(const Interval &o) const
    {
        return lo == o.lo && hi == o.hi;
    }
    bool operator!=(const Interval &o) const { return !(*this == o); }
};

/**
 * An affine relation c0 + ivCoeff * i + sum_k paramCoeffs[k] * p_k
 * tracked alongside intervals so index computations rebuilt in
 * microcode recover the same precision as declared stream patterns.
 */
struct AffineForm
{
    bool known = false;
    std::int64_t base = 0;
    std::int64_t ivCoeff = 0;
    std::vector<std::int64_t> paramCoeffs;

    static AffineForm constant(std::int64_t v);
    static AffineForm iv();
    static AffineForm param(std::size_t k);

    AffineForm add(const AffineForm &o) const;
    AffineForm sub(const AffineForm &o) const;
    AffineForm scale(std::int64_t c) const;
};

/** One abstract register/channel/carry value. */
struct AbstractValue
{
    Interval itv;      ///< bottom by default
    AffineForm affine; ///< unknown by default

    static AbstractValue top();
    static AbstractValue exact(std::int64_t v);

    AbstractValue join(const AbstractValue &o) const;
    bool operator==(const AbstractValue &o) const;
};

/**
 * Joined observations of every invocation of one kernel, recorded by
 * the driver (ExecContext) or rebuilt from a fuzz case. The analyses
 * interpret "across all invocations" as "across everything joined into
 * this profile"; with no profile they fall back to what the kernel
 * alone implies (static trip counts, declared object shapes).
 */
struct InvocationProfile
{
    std::int64_t invocations = 0;
    bool aliasedBindings = false;
    Interval trip;                ///< joined trip counts
    std::vector<Interval> params; ///< joined per-param integer views
    /** Min bound element count per kernel object id (0 = never bound). */
    std::vector<std::uint64_t> objectElems;
    /** Joined exact per-invocation element ranges per affine access. */
    std::map<int, Interval> accessRanges;

    /**
     * Join one observed invocation: @p param_ints are the parameter
     * words' integer views, @p object_elems the bound array lengths in
     * kernel-object order, @p aliased whether any two bindings overlap.
     */
    void record(const compiler::Kernel &kernel,
                const std::vector<std::int64_t> &param_ints,
                const std::vector<std::uint64_t> &object_elems,
                bool aliased);
};

/**
 * A join-semilattice cell for the interprocedural fixpoint: channel
 * and carry values are cells, each transfer round joins into them, and
 * the engine iterates until every cell is stable (widening after
 * wideningDelay rounds bounds the iteration count).
 */
class FixpointCell
{
  public:
    const AbstractValue &get() const { return _value; }

    /** Join @p v in; returns true when the cell changed. */
    bool joinFrom(const AbstractValue &v, bool widen);

    /** Seed the cell without marking a change. */
    void seed(const AbstractValue &v) { _value = v; }

  private:
    AbstractValue _value;
};

/** Rounds before widening kicks in. */
constexpr int wideningDelay = 3;
/** Hard iteration bound (widening converges far earlier). */
constexpr int maxFixpointRounds = 64;

/**
 * Exact element range of one affine pattern under per-invocation
 * parameter values @p param_ints and trip count @p trip (>= 1).
 */
Interval affineRangeExact(const compiler::AffinePattern &pattern,
                          const std::vector<std::int64_t> &param_ints,
                          std::int64_t trip);

/**
 * Abstract element range of an affine pattern over parameter
 * intervals and a trip interval (bottom trip = unknown).
 */
Interval affineRangeAbstract(const compiler::AffinePattern &pattern,
                             const std::vector<Interval> &params,
                             const Interval &trip);

} // namespace distda::verify

#endif // DISTDA_VERIFY_ANALYSIS_HH
