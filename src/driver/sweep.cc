#include "src/driver/sweep.hh"

#include <sys/stat.h>

#include <atomic>
#include <cctype>
#include <cerrno>
#include <chrono>
#include <cstdlib>
#include <mutex>
#include <thread>

#include "src/compiler/plan_cache.hh"
#include "src/driver/config.hh"
#include "src/driver/pool.hh"
#include "src/sim/logging.hh"

namespace distda::driver
{

namespace
{

using Clock = std::chrono::steady_clock;

double
msSince(Clock::time_point t0)
{
    return std::chrono::duration<double, std::milli>(Clock::now() - t0)
        .count();
}

/** Serialized stderr progress line: "[done/total] label ... eta". */
class ProgressReporter
{
  public:
    ProgressReporter(std::size_t total, bool enabled)
        : _total(total), _enabled(enabled), _start(Clock::now())
    {}

    ~ProgressReporter()
    {
        if (_enabled && _total > 0)
            std::fprintf(stderr, "\n");
    }

    void
    jobDone(const SweepResult &r)
    {
        if (!_enabled)
            return;
        std::lock_guard<std::mutex> lk(_mu);
        ++_done;
        const double elapsed_ms = msSince(_start);
        const double eta_s =
            _done > 0 ? elapsed_ms / 1000.0 *
                            static_cast<double>(_total - _done) /
                            static_cast<double>(_done)
                      : 0.0;
        std::fprintf(stderr,
                     "\r[%3zu/%3zu] %-24s %6.1fs elapsed, eta %5.1fs%s",
                     _done, _total,
                     (r.workload + "/" + r.label).c_str(),
                     elapsed_ms / 1000.0, eta_s,
                     r.ok ? "" : "  [FAILED]");
        std::fflush(stderr);
    }

  private:
    std::size_t _total;
    bool _enabled;
    Clock::time_point _start;
    std::mutex _mu;
    std::size_t _done = 0;
};

/** Report-file stem component: anything path-hostile becomes '-'. */
std::string
fileSafe(const std::string &s)
{
    std::string out = s;
    for (char &c : out) {
        if (!std::isalnum(static_cast<unsigned char>(c)) && c != '-' &&
            c != '_' && c != '.')
            c = '-';
    }
    return out;
}

} // namespace

int
defaultJobCount()
{
    if (const char *env = std::getenv("DISTDA_JOBS")) {
        // Strict parse: "4x", "abc" or "" must not silently become 0
        // (atoi) and fall through to hardware_concurrency as if unset.
        std::int64_t n = 0;
        bool parsed = false;
        try {
            ScopedFailureCapture capture;
            n = parseInt(env, "DISTDA_JOBS");
            parsed = true;
        } catch (const SimFailure &) {
        }
        if (parsed && n > 0)
            return static_cast<int>(n);
        warn("ignoring DISTDA_JOBS='%s' (want a positive integer)",
             env);
    }
    const unsigned hw = std::thread::hardware_concurrency();
    return hw > 0 ? static_cast<int>(hw) : 1;
}

std::vector<SweepResult>
runSweep(const std::vector<SweepJob> &jobs, const SweepOptions &opts)
{
    std::vector<SweepResult> results(jobs.size());
    if (jobs.empty())
        return results;

    const bool prior_inform = informEnabled();
    setInformEnabled(false);

    if (!opts.reportDir.empty() &&
        ::mkdir(opts.reportDir.c_str(), 0755) != 0 && errno != EEXIST) {
        warn("cannot create report dir '%s'", opts.reportDir.c_str());
    }

    ProgressReporter progress(jobs.size(), opts.progress);
    {
        const int workers =
            opts.jobs > 0 ? opts.jobs : defaultJobCount();
        ThreadPool pool(workers);
        for (std::size_t i = 0; i < jobs.size(); ++i) {
            pool.submit([&jobs, &results, &progress, &opts, i] {
                const SweepJob &job = jobs[i];
                SweepResult &r = results[i];
                r.index = i;
                r.workload = job.workload;
                r.label = job.label.empty()
                              ? archModelName(job.config.model)
                              : job.label;
                RunOptions run_opts = job.options;
                if (!opts.reportDir.empty()) {
                    const std::string stem =
                        opts.reportDir + "/" + fileSafe(r.workload) +
                        "_" + fileSafe(r.label);
                    run_opts.obs.timelinePath = stem + ".timeline.json";
                    run_opts.obs.statsJsonPath = stem + ".stats.json";
                }
                const auto t0 = Clock::now();
                try {
                    ScopedFailureCapture capture;
                    r.metrics =
                        runWorkload(job.workload, job.config,
                                    run_opts);
                    if (!job.label.empty())
                        r.metrics.config = job.label;
                    r.ok = true;
                } catch (const SimFailure &e) {
                    r.error = e.what();
                } catch (const std::exception &e) {
                    r.error = e.what();
                }
                r.wallMs = msSince(t0);
                progress.jobDone(r);
            });
        }
        pool.wait();
    }

    setInformEnabled(prior_inform);

    if (opts.progress) {
        double hits = 0.0, misses = 0.0, saved_ms = 0.0;
        for (const SweepResult &r : results) {
            if (!r.ok)
                continue;
            hits += r.metrics.planCacheHits;
            misses += r.metrics.planCacheMisses;
            saved_ms += r.metrics.planCompileMsSaved;
        }
        const auto cache = compiler::PlanCache::process().stats();
        std::fprintf(stderr,
                     "plan cache: %.0f hit(s), %.0f miss(es), "
                     "%.1f ms compile saved (%zu cached plan(s))\n",
                     hits, misses, saved_ms, cache.entries);
    }
    return results;
}

bool
allOk(const std::vector<SweepResult> &results)
{
    for (const SweepResult &r : results) {
        if (!r.ok)
            return false;
    }
    return true;
}

void
dieOnFailures(const std::vector<SweepResult> &results)
{
    std::size_t failed = 0;
    for (const SweepResult &r : results) {
        if (!r.ok) {
            ++failed;
            warn("sweep job %zu (%s under %s) failed: %s", r.index,
                 r.workload.c_str(), r.label.c_str(), r.error.c_str());
        }
    }
    if (failed > 0)
        fatal("%zu of %zu sweep job(s) failed", failed, results.size());
}

std::string
csvHeader()
{
    return "workload,config,validated,time_ns,energy_pj,"
           "host_insts,accel_insts,mem_ops,cache_accesses,"
           "data_movement_bytes,noc_ctrl,noc_data,noc_acc_ctrl,"
           "noc_acc_data,intra,da,aa,mmio";
}

std::string
csvRow(const Metrics &m)
{
    return strfmt("%s,%s,%d,%.0f,%.0f,%.0f,%.0f,%.0f,%.0f,%.0f,%.0f,"
                  "%.0f,%.0f,%.0f,%.0f,%.0f,%.0f,%.0f",
                  m.workload.c_str(), m.config.c_str(), m.validated,
                  m.timeNs, m.totalEnergyPj, m.hostInsts, m.accelInsts,
                  m.kernelMemOps, m.cacheAccesses, m.dataMovementBytes,
                  m.nocCtrlBytes, m.nocDataBytes, m.nocAccCtrlBytes,
                  m.nocAccDataBytes, m.intraBytes, m.daBytes, m.aaBytes,
                  m.mmioOps);
}

} // namespace distda::driver
