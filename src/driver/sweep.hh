/**
 * @file
 * Declarative multi-run executor: every figure/table reproduction is a
 * sweep over independent (workload, configuration) simulations, so the
 * driver exposes them as a job list executed concurrently on a thread
 * pool. Results come back in job order regardless of completion order,
 * and — because each simulation is deterministic given its fixed RNG
 * seed — a sweep's metrics are bit-identical at any --jobs level;
 * parallelism is purely a wall-clock win.
 *
 * A job that panic()s or fatal()s is isolated: it surfaces as a failed
 * SweepResult (ok == false, error set) while its siblings run to
 * completion and the pool drains cleanly.
 */

#ifndef DISTDA_DRIVER_SWEEP_HH
#define DISTDA_DRIVER_SWEEP_HH

#include <string>
#include <vector>

#include "src/driver/metrics.hh"
#include "src/driver/runner.hh"

namespace distda::driver
{

/** One independent simulation in a sweep. */
struct SweepJob
{
    std::string workload;
    RunConfig config;
    RunOptions options;
    /**
     * Display name for this job's configuration (ablation variants
     * etc.); empty means the architecture model's name. Propagated
     * into Metrics::config on success.
     */
    std::string label;
};

/** Outcome of one SweepJob, in the same position as its job. */
struct SweepResult
{
    std::size_t index = 0; ///< position in the submitted job list
    std::string workload;
    std::string label;   ///< resolved job label (model name if unset)
    Metrics metrics;     ///< valid only when ok
    bool ok = false;
    std::string error;   ///< failure message when !ok
    double wallMs = 0.0; ///< wall-clock of this job on its worker
};

/** Executor knobs shared by every sweep entry point. */
struct SweepOptions
{
    /** Worker threads; <= 0 means defaultJobCount(). */
    int jobs = 0;
    /** Live "done/total + ETA" line on stderr while running. */
    bool progress = false;
    /**
     * When non-empty, every job writes its observability outputs into
     * this directory (created if missing) as
     * `<workload>_<label>.stats.json` / `<workload>_<label>.timeline.json`,
     * overriding any per-job ObsOptions paths. Stdout is untouched, so
     * CSV output stays byte-identical with reports enabled.
     */
    std::string reportDir;
};

/**
 * Worker-thread default: DISTDA_JOBS when set to a positive integer,
 * else std::thread::hardware_concurrency() (min 1).
 */
int defaultJobCount();

/**
 * Execute @p jobs concurrently and return one SweepResult per job, in
 * job order. Thread-safe to call from one thread at a time; the jobs
 * themselves may run on any worker. inform() is silenced for the
 * duration of the sweep and restored afterwards.
 */
std::vector<SweepResult> runSweep(const std::vector<SweepJob> &jobs,
                                  const SweepOptions &opts = {});

/** True when every result completed without failure. */
bool allOk(const std::vector<SweepResult> &results);

/**
 * Die (fatal) listing every failed job; no-op when all succeeded.
 * Drivers whose output is meaningless on partial sweeps use this.
 */
void dieOnFailures(const std::vector<SweepResult> &results);

/**
 * Consolidated CSV reporting for sweep results (one header + one row
 * per run; columns exclude wall-clock so output is --jobs-invariant).
 */
std::string csvHeader();
std::string csvRow(const Metrics &m);

} // namespace distda::driver

#endif // DISTDA_DRIVER_SWEEP_HH
