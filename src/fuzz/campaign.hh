/**
 * @file
 * Fuzz campaign driver: generate N cases from a base seed, run each
 * through the differential oracle (optionally across a thread pool),
 * shrink every failure to a minimal reproducer, and write the
 * reproducers out as .repro files. Also replays saved corpus files so
 * every past counterexample stays a permanent regression test.
 */

#ifndef DISTDA_FUZZ_CAMPAIGN_HH
#define DISTDA_FUZZ_CAMPAIGN_HH

#include <cstdint>
#include <string>
#include <vector>

#include "src/fuzz/diff.hh"
#include "src/fuzz/gen.hh"
#include "src/fuzz/shrink.hh"

namespace distda::fuzz
{

struct CampaignOptions
{
    std::uint64_t seed = 1;
    int runs = 100;
    int jobs = 1;
    GenOptions gen;
    /** Minimize failures before reporting/saving them. */
    bool shrink = true;
    int shrinkRounds = 8;
    /** Directory to save .repro files into ("" = don't save). */
    std::string outDir;
    /** Per-run progress lines on stderr. */
    bool verbose = false;
};

/** One failing run, already shrunk when options asked for it. */
struct CampaignFailure
{
    int run = 0;             ///< index within the campaign
    std::uint64_t caseSeed = 0;
    std::string signature;   ///< DiffOutcome::signature of the original
    std::string summary;     ///< report for the minimized case
    FuzzCase minimized;
    std::string savedPath;   ///< "" unless written to outDir
};

struct CampaignResult
{
    int runs = 0;
    int failures = 0; ///< distinct failing runs (pre-dedup)
    /** One entry per failing run, sorted by run index. */
    std::vector<CampaignFailure> details;

    bool ok() const { return failures == 0; }
};

/** Seed for run @p run of a campaign based at @p seed. */
std::uint64_t caseSeedFor(std::uint64_t seed, int run);

/** Run the campaign described by @p opts. */
CampaignResult runCampaign(const CampaignOptions &opts);

/**
 * Replay saved reproducers. Each file is loaded, re-validated, and run
 * through the full oracle; any finding is reported. Returns the number
 * of files that failed (0 = corpus green).
 */
int replayCorpus(const std::vector<std::string> &files,
                 bool verbose = false);

} // namespace distda::fuzz

#endif // DISTDA_FUZZ_CAMPAIGN_HH
