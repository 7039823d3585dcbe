#include "src/fuzz/campaign.hh"

#include <algorithm>
#include <cstdio>
#include <mutex>

#include "src/driver/pool.hh"
#include "src/sim/logging.hh"

namespace distda::fuzz
{

std::uint64_t
caseSeedFor(std::uint64_t seed, int run)
{
    // splitmix64 over (seed, run) so neighbouring runs share nothing.
    std::uint64_t z = seed + 0x9e3779b97f4a7c15ull *
                                 (static_cast<std::uint64_t>(run) + 1);
    z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ull;
    z = (z ^ (z >> 27)) * 0x94d049bb133111ebull;
    return z ^ (z >> 31);
}

namespace
{

CampaignFailure
handleFailure(const CampaignOptions &opts, int run,
              std::uint64_t case_seed, const FuzzCase &c,
              const DiffOutcome &outcome)
{
    CampaignFailure fail;
    fail.run = run;
    fail.caseSeed = case_seed;
    fail.signature = outcome.signature();

    FuzzCase minimized = c;
    if (opts.shrink) {
        const std::string want = fail.signature;
        ShrinkOracle oracle = [&](const FuzzCase &cand) {
            return runDifferential(cand).signature() == want;
        };
        minimized =
            shrinkCase(c, oracle, opts.shrinkRounds, nullptr);
    }
    fail.summary = runDifferential(minimized).summary();
    fail.minimized = std::move(minimized);

    if (!opts.outDir.empty()) {
        fail.savedPath =
            strfmt("%s/fuzz-seed%llu-run%d.repro", opts.outDir.c_str(),
                   static_cast<unsigned long long>(opts.seed), run);
        saveCase(fail.minimized, fail.savedPath);
    }
    return fail;
}

} // namespace

CampaignResult
runCampaign(const CampaignOptions &opts)
{
    CampaignResult result;
    result.runs = opts.runs;

    std::mutex mu;
    auto runOne = [&](int run) {
        const std::uint64_t case_seed = caseSeedFor(opts.seed, run);
        FuzzCase c = generateCase(case_seed, opts.gen);
        DiffOutcome outcome = runDifferential(c);
        if (outcome.ok()) {
            if (opts.verbose) {
                std::lock_guard<std::mutex> lk(mu);
                std::fprintf(stderr, "  run %d seed %llu: ok\n", run,
                             static_cast<unsigned long long>(
                                 case_seed));
            }
            return;
        }
        CampaignFailure fail =
            handleFailure(opts, run, case_seed, c, outcome);
        std::lock_guard<std::mutex> lk(mu);
        if (opts.verbose) {
            std::fprintf(stderr, "  run %d seed %llu: FAIL [%s]\n",
                         run,
                         static_cast<unsigned long long>(case_seed),
                         fail.signature.c_str());
        }
        result.details.push_back(std::move(fail));
    };

    if (opts.jobs > 1) {
        driver::ThreadPool pool(opts.jobs);
        for (int run = 0; run < opts.runs; ++run)
            pool.submit([&, run] { runOne(run); });
        pool.wait();
    } else {
        for (int run = 0; run < opts.runs; ++run)
            runOne(run);
    }

    std::sort(result.details.begin(), result.details.end(),
              [](const CampaignFailure &a, const CampaignFailure &b) {
                  return a.run < b.run;
              });
    result.failures = static_cast<int>(result.details.size());
    return result;
}

int
replayCorpus(const std::vector<std::string> &files, bool verbose)
{
    int failed = 0;
    for (const std::string &file : files) {
        FuzzCase c = loadCase(file);
        DiffOutcome outcome = runDifferential(c);
        if (outcome.ok()) {
            if (verbose)
                std::fprintf(stderr, "  %s: ok\n", file.c_str());
            continue;
        }
        ++failed;
        std::fprintf(stderr, "  %s: FAIL\n%s", file.c_str(),
                     outcome.summary().c_str());
    }
    return failed;
}

} // namespace distda::fuzz
