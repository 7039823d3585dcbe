/**
 * @file
 * Perf-regression baseline recorder: times the fixed quick-sweep job
 * list (every workload x every headline configuration, --quick scale)
 * on the driver's sweep engine and writes BENCH_<label>.json with
 * per-run wall-clock, simulated time and simulation rate, plus enough
 * host/build info to judge whether two records are comparable.
 *
 * scripts/perf_check.sh compares such a record against the committed
 * baseline (BENCH_seed.json) and fails on wall-clock regressions
 * beyond its tolerance band.
 *
 * Flags (besides the common bench flags):
 *   --label=<name>  record label; output file BENCH_<label>.json
 *   --out=<dir>     output directory (default .)
 *   --seq=<n>       baseline sequence number (default 0); committed
 *                   records carry the PR number so perf_check.sh can
 *                   pick the most recent one as its reference
 *
 * Timing defaults to --jobs=1 so records are comparable across
 * machines with different core counts; pass --jobs explicitly to
 * measure parallel throughput instead.
 */

#include <chrono>
#include <cstdio>
#include <cstring>
#include <string>
#include <thread>
#include <vector>

#include "bench/bench_common.hh"
#include "src/driver/config.hh"
#include "src/driver/sweep.hh"

namespace
{

using namespace distda;

double
wallMsSince(std::chrono::steady_clock::time_point t0)
{
    return std::chrono::duration<double, std::milli>(
               std::chrono::steady_clock::now() - t0)
        .count();
}

} // namespace

int
main(int argc, char **argv)
{
    bench::Options opts = bench::parseOptions(argc, argv);
    opts.run.scale = 0.25; // fixed quick scale: records must compare

    std::string label = "local";
    std::string out_dir = ".";
    long long seq = 0;
    bool jobs_given = false;
    for (int i = 1; i < argc; ++i) {
        if (std::strncmp(argv[i], "--label=", 8) == 0)
            label = argv[i] + 8;
        else if (std::strncmp(argv[i], "--out=", 6) == 0)
            out_dir = argv[i] + 6;
        else if (std::strncmp(argv[i], "--seq=", 6) == 0)
            seq = driver::parseInt(argv[i] + 6, "--seq");
        else if (std::strncmp(argv[i], "--jobs=", 7) == 0)
            jobs_given = true;
    }
    if (!jobs_given)
        opts.sweep.jobs = 1;

    setInformEnabled(false);

    std::vector<driver::SweepJob> jobs;
    for (const std::string &w : workloads::workloadNames()) {
        for (driver::ArchModel m : driver::headlineModels()) {
            driver::SweepJob job;
            job.workload = w;
            job.config.model = m;
            job.options = opts.run;
            jobs.push_back(job);
        }
    }

    const auto t0 = std::chrono::steady_clock::now();
    const auto results = driver::runSweep(jobs, opts.sweep);
    const double total_wall_ms = wallMsSince(t0);
    driver::dieOnFailures(results);

    double sim_ns_total = 0.0;
    double job_wall_ms_total = 0.0;
    double plan_hits = 0.0;
    double plan_misses = 0.0;
    double plan_compile_ms = 0.0;
    double plan_saved_ms = 0.0;
    for (const auto &r : results) {
        sim_ns_total += r.metrics.timeNs;
        job_wall_ms_total += r.wallMs;
        plan_hits += r.metrics.planCacheHits;
        plan_misses += r.metrics.planCacheMisses;
        plan_compile_ms += r.metrics.planCompileMs;
        plan_saved_ms += r.metrics.planCompileMsSaved;
    }

    const std::string path = out_dir + "/BENCH_" + label + ".json";
    std::FILE *f = std::fopen(path.c_str(), "w");
    if (!f)
        fatal("cannot write %s", path.c_str());

    std::fprintf(f, "{\n");
    std::fprintf(f, "  \"label\": \"%s\",\n", label.c_str());
    std::fprintf(f, "  \"scale\": %.3f,\n", opts.run.scale);
    std::fprintf(f, "  \"jobs\": %d,\n", opts.sweep.jobs);
    std::fprintf(f, "  \"seq\": %lld,\n", seq);
    std::fprintf(f, "  \"host\": {\n");
    std::fprintf(f, "    \"hardware_threads\": %u,\n",
                 std::thread::hardware_concurrency());
    std::fprintf(f, "    \"compiler\": \"%s\",\n", __VERSION__);
#ifdef NDEBUG
    std::fprintf(f, "    \"build\": \"release\"\n");
#else
    std::fprintf(f, "    \"build\": \"debug\"\n");
#endif
    std::fprintf(f, "  },\n");
    std::fprintf(f, "  \"total_wall_ms\": %.1f,\n", total_wall_ms);
    std::fprintf(f, "  \"job_wall_ms_total\": %.1f,\n",
                 job_wall_ms_total);
    std::fprintf(f, "  \"sim_ns_total\": %.0f,\n", sim_ns_total);
    // Compile amortization across the matrix: one miss per distinct
    // (kernel, options), every other job hits the shared PlanCache.
    std::fprintf(f,
                 "  \"plan_cache\": {\"hits\": %.0f, \"misses\": %.0f, "
                 "\"compile_ms\": %.2f, \"compile_ms_saved\": %.2f},\n",
                 plan_hits, plan_misses, plan_compile_ms,
                 plan_saved_ms);
    std::fprintf(f, "  \"runs\": [\n");
    for (std::size_t i = 0; i < results.size(); ++i) {
        const auto &r = results[i];
        std::fprintf(f,
                     "    {\"workload\": \"%s\", \"config\": \"%s\", "
                     "\"wall_ms\": %.2f, \"sim_ns\": %.0f, "
                     "\"sim_rate\": %.1f}%s\n",
                     r.workload.c_str(), r.label.c_str(), r.wallMs,
                     r.metrics.timeNs, r.metrics.simRate(),
                     i + 1 < results.size() ? "," : "");
    }
    std::fprintf(f, "  ]\n");
    std::fprintf(f, "}\n");
    std::fclose(f);

    std::printf("%zu runs in %.0f ms (%.0f ms of worker time) -> %s\n",
                results.size(), total_wall_ms, job_wall_ms_total,
                path.c_str());
    return 0;
}
