/**
 * @file
 * The shared fact store of the plan-analysis framework: every analysis
 * (bounds, channel liveness, purity) deposits structured,
 * machine-checkable facts about one compiled plan here. Facts carry a
 * three-valued verdict — Proven facts are load-bearing (an optimizer
 * may act on them), Violated facts are
 * guaranteed failures, Unknown is the sound default — and serialize
 * into the run-report JSON so tooling and the differential fuzzer's
 * soundness oracle can cross-check them against dynamic observation.
 */

#ifndef DISTDA_VERIFY_FACTS_HH
#define DISTDA_VERIFY_FACTS_HH

#include <cstdint>
#include <string>
#include <vector>

namespace distda::sim
{
class JsonWriter;
}

namespace distda::verify
{

/** Three-valued analysis verdict (the fact lattice's top/bottom). */
enum class Verdict : std::uint8_t
{
    Proven,   ///< holds on every execution consistent with the profile
    Unknown,  ///< analysis could not decide; assume nothing
    Violated, ///< fails on every execution consistent with the profile
};

const char *verdictName(Verdict v);

/** Bounds fact for one access (one accessor of one partition). */
struct BoundsFact
{
    int node = -1;      ///< originating DFG access node
    int partition = -1;
    int objId = -1;
    bool affine = true; ///< affine stream vs indirect random access
    bool store = false;
    Verdict verdict = Verdict::Unknown;
    /** Abstract element-index range (valid when rangeKnown). */
    std::int64_t lo = 0;
    std::int64_t hi = 0;
    bool rangeKnown = false;
    /** Element count the range was checked against. */
    std::uint64_t objectElems = 0;
};

/** Token-flow fact for one channel. */
struct ChannelFact
{
    int channel = -1;
    int tokensPerIter = 0;
    /**
     * Smallest FIFO capacity at which this channel (others unbounded)
     * is steady-state live; -1 when no finite capacity suffices or the
     * channel graph was malformed.
     */
    int minSafeCapacity = -1;
    int configuredCapacity = 0;
};

/** Invocation purity classification (the memoization lattice). */
enum class PurityClass : std::uint8_t
{
    Pure,       ///< reads objects, writes none; outputs via carries only
    Idempotent, ///< writes only objects it never reads
    Stateful,   ///< reads an object it also writes
};

const char *purityClassName(PurityClass c);

struct PurityFact
{
    PurityClass cls = PurityClass::Stateful;
    /**
     * True when re-invocation with identical inputs is provably
     * byte-equivalent to a cache hit: Pure or Idempotent, and no
     * observed invocation aliased two object bindings.
     */
    bool memoizable = false;
    std::vector<int> readObjects;    ///< kernel object ids loaded
    std::vector<int> writtenObjects; ///< kernel object ids stored
};

/** Everything the analyses proved about one compiled plan. */
struct FactStore
{
    std::string kernel;
    std::vector<BoundsFact> bounds;
    Verdict deadlockFree = Verdict::Unknown;
    std::vector<ChannelFact> channels;
    PurityFact purity;

    /** Count of bounds facts with the given verdict. */
    int boundsCount(Verdict v) const;
    /** Total count of Violated facts across every analysis. */
    int violations() const;

    /** Serialize as one JSON object. */
    void json(sim::JsonWriter &w) const;
    /** Human-readable multi-line summary. */
    std::string str() const;
};

} // namespace distda::verify

#endif // DISTDA_VERIFY_FACTS_HH
