/**
 * @file
 * Differential fuzzer CLI: generate random kernels, run each through
 * every execution path, cross-check, and shrink failures to minimal
 * .repro files.
 *
 * Usage:
 *   distda_fuzz [--seed=<n>] [--runs=<k>] [--jobs=<n>]
 *               [--shape=parallel|pipeline|nonpart|multi|cross|mixed]
 *               [--out=<dir>] [--no-shrink] [--quiet]
 *   distda_fuzz --replay=<file.repro>
 *   distda_fuzz --corpus=<dir>
 *
 * Campaign mode (the default) derives one case per run from --seed,
 * runs the differential oracle and, on failure, minimizes the case and
 * (with --out=) writes it as <dir>/fuzz-seed<seed>-run<run>.repro.
 * Exit status is the number of failing runs (clamped to 125).
 *
 * --replay= re-runs one saved reproducer and prints the full report.
 * --corpus= replays every *.repro under a directory (sorted), the way
 * scripts/check.sh pins past counterexamples as regression tests.
 */

#include <algorithm>
#include <cstdio>
#include <filesystem>
#include <string>
#include <thread>
#include <vector>

#include "src/driver/config.hh"
#include "src/fuzz/campaign.hh"
#include "src/sim/logging.hh"

using namespace distda;

namespace
{

std::vector<std::string>
corpusFiles(const std::string &dir)
{
    std::vector<std::string> files;
    std::error_code ec;
    for (const auto &entry :
         std::filesystem::directory_iterator(dir, ec)) {
        if (entry.path().extension() == ".repro")
            files.push_back(entry.path().string());
    }
    if (ec)
        fatal("cannot read corpus directory '%s': %s", dir.c_str(),
              ec.message().c_str());
    std::sort(files.begin(), files.end());
    return files;
}

} // namespace

int
main(int argc, char **argv)
{
    fuzz::CampaignOptions opts;
    opts.jobs = 0; // default below
    std::string replay;
    std::string corpus;
    bool quiet = false;

    for (int i = 1; i < argc; ++i) {
        const std::string arg = argv[i];
        if (arg.rfind("--seed=", 0) == 0) {
            opts.seed = static_cast<std::uint64_t>(
                driver::parseInt(arg.substr(7), "--seed"));
        } else if (arg.rfind("--runs=", 0) == 0) {
            opts.runs = static_cast<int>(
                driver::parseInt(arg.substr(7), "--runs"));
        } else if (arg.rfind("--jobs=", 0) == 0) {
            opts.jobs = static_cast<int>(
                driver::parseInt(arg.substr(7), "--jobs"));
        } else if (arg.rfind("--shape=", 0) == 0) {
            opts.gen.shape = fuzz::shapeFromName(arg.substr(8));
        } else if (arg.rfind("--out=", 0) == 0) {
            opts.outDir = arg.substr(6);
        } else if (arg == "--no-shrink") {
            opts.shrink = false;
        } else if (arg == "--quiet") {
            quiet = true;
        } else if (arg.rfind("--replay=", 0) == 0) {
            replay = arg.substr(9);
        } else if (arg.rfind("--corpus=", 0) == 0) {
            corpus = arg.substr(9);
        } else {
            fatal("unknown flag '%s'", arg.c_str());
        }
    }

    setInformEnabled(false);
    // Random kernels trip verifier smells (dead registers) by design;
    // real findings surface as structured oracle output instead.
    setWarnEnabled(false);

    if (!replay.empty()) {
        const fuzz::FuzzCase c = fuzz::loadCase(replay);
        const fuzz::DiffOutcome outcome = fuzz::runDifferential(c);
        std::printf("%s: %s\n", replay.c_str(),
                    outcome.summary().c_str());
        return outcome.ok() ? 0 : 1;
    }

    if (!corpus.empty()) {
        const std::vector<std::string> files = corpusFiles(corpus);
        if (files.empty()) {
            std::printf("corpus '%s': no .repro files\n",
                        corpus.c_str());
            return 0;
        }
        const int failed = fuzz::replayCorpus(files, !quiet);
        std::printf("corpus '%s': %zu file(s), %d failure(s)\n",
                    corpus.c_str(), files.size(), failed);
        return failed ? 1 : 0;
    }

    if (opts.jobs <= 0) {
        const unsigned hw = std::thread::hardware_concurrency();
        opts.jobs = hw ? static_cast<int>(hw) : 1;
    }
    opts.verbose = !quiet;
    if (!opts.outDir.empty()) {
        std::error_code ec;
        std::filesystem::create_directories(opts.outDir, ec);
        if (ec)
            fatal("cannot create out dir '%s': %s",
                  opts.outDir.c_str(), ec.message().c_str());
    }

    const fuzz::CampaignResult result = fuzz::runCampaign(opts);
    std::printf("fuzz: seed %llu, %d run(s), %d failure(s)\n",
                static_cast<unsigned long long>(opts.seed),
                result.runs, result.failures);
    for (const fuzz::CampaignFailure &f : result.details) {
        std::printf("-- run %d (case seed %llu)%s%s\n%s", f.run,
                    static_cast<unsigned long long>(f.caseSeed),
                    f.savedPath.empty() ? "" : " saved to ",
                    f.savedPath.c_str(), f.summary.c_str());
    }
    return std::min(result.failures, 125);
}
