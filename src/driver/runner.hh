/**
 * @file
 * Experiment runner: builds a fresh system per (workload,
 * configuration) pair, executes the workload to completion, validates
 * outputs and returns the collected metrics.
 */

#ifndef DISTDA_DRIVER_RUNNER_HH
#define DISTDA_DRIVER_RUNNER_HH

#include <string>

#include "src/driver/config.hh"
#include "src/driver/metrics.hh"
#include "src/sim/ticks.hh"
#include "src/verify/diag.hh"

namespace distda::sim
{
class JsonWriter;
}

namespace distda::driver
{

/**
 * Observability outputs of one run. Both paths empty (the default)
 * means no probe is built and the simulation pays nothing beyond one
 * null-pointer test per instrumented site.
 */
struct ObsOptions
{
    /** Chrome trace-event timeline (Perfetto-loadable) output path. */
    std::string timelinePath;
    /** Machine-readable run report (metrics + stats tree) path. */
    std::string statsJsonPath;
    /** Counter-sampling coalescing interval (--stats-interval). */
    sim::Tick statsIntervalTicks = 1'000'000;

    /**
     * Build the probe even with no file outputs requested. The serve
     * daemon runs with this on when a request asks for a full report:
     * the probe's distributions/timeline counters (and the analysis
     * facts that ride along) then match a direct `--stats-json` run
     * section-for-section, without writing any file.
     */
    bool forceProbe = false;

    /**
     * When non-null, receives the complete run-report JSON document
     * (exactly what --stats-json would have written) after the run.
     * Independent of statsJsonPath; used by in-process consumers that
     * stream the report somewhere other than a file.
     */
    std::string *reportOut = nullptr;

    bool enabled() const
    {
        return forceProbe || !timelinePath.empty() ||
               !statsJsonPath.empty();
    }
};

/** Run options shared across sweeps. */
struct RunOptions
{
    double scale = 1.0; ///< problem-size multiplier
    ObsOptions obs;     ///< timeline/report outputs (off by default)
};

/** Run one workload under one configuration. */
Metrics runWorkload(const std::string &workload, const RunConfig &config,
                    const RunOptions &opts = RunOptions{});

/** Structured verification outcome of one kernel (for --verify-json). */
struct KernelVerifyResult
{
    std::string workload;
    std::string config;
    std::size_t partitions = 0;
    verify::Report report; ///< report.kernel names the kernel
};

/**
 * Compile every kernel of @p workload under @p config and statically
 * verify the resulting plans without executing anything. Prints each
 * diagnostic to stdout and returns the total error count (0 = clean).
 * @p collect (optional) additionally receives one structured result
 * per kernel for JSON export.
 */
int verifyWorkload(const std::string &workload, const RunConfig &config,
                   const RunOptions &opts = RunOptions{},
                   std::vector<KernelVerifyResult> *collect = nullptr);

/**
 * Run @p workload under @p config with invocation profiling on, then
 * run every verification pass against the recorded profiles
 * (src/verify/analysis.hh) over every compiled kernel. With @p json
 * null the facts and diagnostics print to stdout as text; otherwise
 * one {workload, config, kernels: [...]} object is appended to the
 * writer. Returns the total error count (every Violated fact is one).
 */
int analyzeWorkload(const std::string &workload, const RunConfig &config,
                    const RunOptions &opts = RunOptions{},
                    sim::JsonWriter *json = nullptr);

/** Geometric mean helper for the summary rows. */
double geomean(const std::vector<double> &values);

} // namespace distda::driver

#endif // DISTDA_DRIVER_RUNNER_HH
