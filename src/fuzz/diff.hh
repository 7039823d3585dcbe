/**
 * @file
 * The cross-execution oracle: compile one case and run it through
 * every available execution path — host reference (OoO), monolithic
 * accelerator variants, distributed interpreter actors, distributed
 * predecoded actors, and the CGRA backend — then cross-check
 *   - final memory-object state, byte for byte,
 *   - result-carry values, bit for bit,
 *   - interpreter-vs-predecode metrics, field for field,
 *   - stat sanity invariants (positive time, finite non-negative
 *     counters),
 *   - static plan-analysis facts (src/verify/analysis.hh) against the
 *     dynamic outcome: a Proven fact contradicted by execution, or a
 *     Violated fact on a case that is valid by construction, fails the
 *     campaign — the fuzzer is the analyses' soundness oracle,
 * with channel-token conservation enforced inside the engine itself.
 * Any asymmetric crash, mismatch, or anomaly is a finding.
 */

#ifndef DISTDA_FUZZ_DIFF_HH
#define DISTDA_FUZZ_DIFF_HH

#include <string>
#include <vector>

#include "src/driver/metrics.hh"
#include "src/fuzz/case.hh"

namespace distda::fuzz
{

/** One execution path's outcome. */
struct PathResult
{
    std::string path;
    bool crashed = false;
    bool isPanic = false;  ///< invariant violation vs user error
    std::string failure;
    /** Final bytes of each case object, in case-object order. */
    std::vector<std::vector<std::uint8_t>> objectBytes;
    /** Result-carry bit patterns, concatenated across invocations. */
    std::vector<std::uint64_t> resultBits;
    driver::Metrics metrics;
};

/** One verified defect signal. */
struct Finding
{
    enum class Kind
    {
        InvalidCase, ///< the case failed validateCase (harness bug)
        Crash,       ///< a path panicked/fataled (or all did)
        Divergence,  ///< paths disagree on memory/results/metrics
        StatAnomaly, ///< impossible statistics on one path
        /** A dynamic observation contradicts a static analysis fact. */
        AnalysisContradiction,
    };
    Kind kind = Kind::Crash;
    std::string detail;
};

const char *findingKindName(Finding::Kind k);

/** Result of one differential run. */
struct DiffOutcome
{
    std::vector<Finding> findings;
    std::vector<PathResult> paths;

    bool ok() const { return findings.empty(); }

    /**
     * Stable identity of the failure mode: finding kind plus the
     * digit-stripped first line of its detail. The shrinker reduces a
     * case only while the signature is preserved, so minimization
     * cannot wander onto an unrelated bug.
     */
    std::string signature() const;

    /** Human-readable multi-line report. */
    std::string summary() const;
};

/** Run @p c through every path and cross-check. */
DiffOutcome runDifferential(const FuzzCase &c);

} // namespace distda::fuzz

#endif // DISTDA_FUZZ_DIFF_HH
