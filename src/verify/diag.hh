/**
 * @file
 * The result of one verification run over one compiled plan. Every
 * finding is a structured diagnostic — the pass that produced it, a
 * severity, a location string (kernel/partition/instruction) and a
 * human-readable message — so callers can both pretty-print reports
 * and assert on individual findings in tests. Alongside the
 * diagnostics, the analysis passes deposit machine-checkable facts
 * with a three-valued verdict: Proven facts are load-bearing (an
 * optimizer may act on them), Violated facts are guaranteed failures
 * (each also raises an error diagnostic), Unknown is the sound
 * default. Reports serialize into the run-report JSON so tooling and
 * the differential fuzzer's soundness oracle can cross-check the
 * facts against dynamic observation.
 */

#ifndef DISTDA_VERIFY_DIAG_HH
#define DISTDA_VERIFY_DIAG_HH

#include <cstdint>
#include <string>
#include <vector>

namespace distda::sim
{
class JsonWriter;
}

namespace distda::verify
{

/** How bad one finding is. */
enum class Severity : std::uint8_t
{
    Warning, ///< smell: plan runs, but something looks wasteful/dead
    Error,   ///< invariant violation: running this plan is unsafe
};

const char *severityName(Severity s);

/** One finding of one verification pass. */
struct Diag
{
    Severity severity = Severity::Error;
    std::string pass;     ///< producing pass, e.g. "microcode"
    std::string location; ///< e.g. "kernel 'fdt' partition 2 inst 5"
    std::string message;

    /** "error [microcode] kernel 'x' partition 2 inst 5: ..." */
    std::string str() const;
};

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

/** The findings and facts of one verification run. */
class Report
{
  public:
    /** Append a finding (printf-formatted message). */
    void add(Severity severity, const std::string &pass,
             const std::string &location, const char *fmt, ...)
        __attribute__((format(printf, 5, 6)));

    const std::vector<Diag> &diags() const { return _diags; }
    bool empty() const { return _diags.empty(); }

    int errorCount() const;
    int warningCount() const;
    bool ok() const { return errorCount() == 0; }

    /** True when some diagnostic's message contains @p needle. */
    bool mentions(const std::string &needle) const;
    /** True when pass @p pass produced at least one error. */
    bool hasErrorFrom(const std::string &pass) const;
    /** The first error, formatted by Diag::str(); "" when ok(). */
    std::string firstError() const;

    /** All findings, one per line. */
    std::string str() const;

    // Facts, filled by the bounds, channels and purity passes.
    std::string kernel;
    std::vector<BoundsFact> bounds;
    Verdict deadlockFree = Verdict::Unknown;
    std::vector<ChannelFact> channels;
    PurityFact purity;

    /** Count of bounds facts with the given verdict. */
    int boundsCount(Verdict v) const;
    /** Human-readable multi-line summary of the facts. */
    std::string factsStr() const;

    /**
     * Write the kernel name, diagnostic counts, diagnostics and facts
     * as keys of the JSON object currently open on @p w.
     */
    void jsonFields(sim::JsonWriter &w) const;

  private:
    std::vector<Diag> _diags;
};

} // namespace distda::verify

#endif // DISTDA_VERIFY_DIAG_HH
