/**
 * @file
 * Sweep-engine tests: the thread pool, serial-vs-parallel metric
 * equality (the --jobs correctness bar), deterministic result
 * ordering, failure isolation of panicking/fatal()ing jobs,
 * run-to-run repeatability of runWorkload itself, and the quick-sweep
 * CSVs against the committed goldens.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <cstdlib>
#include <fstream>
#include <iterator>
#include <mutex>
#include <set>
#include <thread>

#include "src/driver/pool.hh"
#include "src/driver/sweep.hh"
#include "src/workloads/workload.hh"

using namespace distda;
using driver::ArchModel;
using driver::SweepJob;

namespace
{

/** Three cheap workloads x two configs at smoke scale. */
std::vector<SweepJob>
smokeJobs()
{
    std::vector<SweepJob> jobs;
    for (const char *w : {"sei", "adi", "nw"}) {
        for (ArchModel m : {ArchModel::OoO, ArchModel::DistDA_IO}) {
            SweepJob job;
            job.workload = w;
            job.config.model = m;
            job.options.scale = 0.25;
            jobs.push_back(job);
        }
    }
    return jobs;
}

/** One `--quick` run of @p workload under @p config. */
SweepJob
quickJob(const std::string &workload, const driver::RunConfig &config)
{
    SweepJob job;
    job.workload = workload;
    job.config = config;
    job.options.scale = 0.25;
    return job;
}

driver::RunConfig
modelConfig(ArchModel m)
{
    driver::RunConfig cfg;
    cfg.model = m;
    return cfg;
}

/** What `distda_run --csv` prints for @p jobs. */
std::string
sweepCsv(const std::vector<SweepJob> &jobs)
{
    std::string csv = driver::csvHeader() + "\n";
    for (const driver::SweepResult &r : driver::runSweep(jobs)) {
        EXPECT_TRUE(r.ok) << r.workload << "/" << r.label << ": "
                          << r.error;
        csv += driver::csvRow(r.metrics) + "\n";
    }
    return csv;
}

std::string
readGolden(const char *name)
{
    std::ifstream in(std::string(DISTDA_GOLDEN_DIR) + "/" + name);
    EXPECT_TRUE(in.good()) << name;
    return {std::istreambuf_iterator<char>(in),
            std::istreambuf_iterator<char>()};
}

} // namespace

TEST(Pool, RunsEverySubmittedTask)
{
    driver::ThreadPool pool(4);
    std::atomic<int> count{0};
    for (int i = 0; i < 200; ++i)
        pool.submit([&count] { ++count; });
    pool.wait();
    EXPECT_EQ(count.load(), 200);
    // The pool stays usable after a wait().
    pool.submit([&count] { ++count; });
    pool.wait();
    EXPECT_EQ(count.load(), 201);
}

TEST(Pool, DestructorDrainsOutstandingTasks)
{
    std::atomic<int> count{0};
    {
        driver::ThreadPool pool(2);
        for (int i = 0; i < 50; ++i)
            pool.submit([&count] { ++count; });
    }
    EXPECT_EQ(count.load(), 50);
}

TEST(Pool, TasksActuallyRunOffTheCallingThread)
{
    driver::ThreadPool pool(2);
    std::thread::id caller = std::this_thread::get_id();
    std::set<std::thread::id> seen;
    std::mutex mu;
    for (int i = 0; i < 32; ++i) {
        pool.submit([&] {
            std::lock_guard<std::mutex> lk(mu);
            seen.insert(std::this_thread::get_id());
        });
    }
    pool.wait();
    EXPECT_FALSE(seen.empty());
    EXPECT_EQ(seen.count(caller), 0u);
}

TEST(Sweep, DefaultJobCountHonorsEnvironment)
{
    ::setenv("DISTDA_JOBS", "3", 1);
    EXPECT_EQ(driver::defaultJobCount(), 3);
    ::setenv("DISTDA_JOBS", "nonsense", 1);
    EXPECT_GE(driver::defaultJobCount(), 1); // falls back, warns
    ::unsetenv("DISTDA_JOBS");
    EXPECT_GE(driver::defaultJobCount(), 1);
}

TEST(Sweep, DefaultJobCountRejectsMalformedValuesStrictly)
{
    ::unsetenv("DISTDA_JOBS");
    const int fallback = driver::defaultJobCount();

    // Trailing junk must not silently parse as its numeric prefix
    // (the old atoi behavior): "4x" warns and falls back, it does not
    // become 4 workers.
    for (const char *bad : {"4x", "0x10", "", " ", "1 2", "-2", "0"}) {
        ::setenv("DISTDA_JOBS", bad, 1);
        EXPECT_EQ(driver::defaultJobCount(), fallback)
            << "DISTDA_JOBS='" << bad << "'";
    }
    ::setenv("DISTDA_JOBS", "12", 1);
    EXPECT_EQ(driver::defaultJobCount(), 12);
    ::unsetenv("DISTDA_JOBS");
}

TEST(Sweep, SerialAndParallelMetricsAreIdentical)
{
    const auto jobs = smokeJobs();

    driver::SweepOptions serial;
    serial.jobs = 1;
    driver::SweepOptions parallel;
    parallel.jobs = 4;

    const auto a = driver::runSweep(jobs, serial);
    const auto b = driver::runSweep(jobs, parallel);
    ASSERT_EQ(a.size(), jobs.size());
    ASSERT_EQ(b.size(), jobs.size());

    for (std::size_t i = 0; i < jobs.size(); ++i) {
        ASSERT_TRUE(a[i].ok) << a[i].error;
        ASSERT_TRUE(b[i].ok) << b[i].error;
        // The CSV row covers every reported metric column; identical
        // rows are the tool-level "byte-identical output" guarantee.
        EXPECT_EQ(driver::csvRow(a[i].metrics),
                  driver::csvRow(b[i].metrics));
        EXPECT_DOUBLE_EQ(a[i].metrics.timeNs, b[i].metrics.timeNs);
        EXPECT_DOUBLE_EQ(a[i].metrics.totalEnergyPj,
                         b[i].metrics.totalEnergyPj);
        EXPECT_EQ(a[i].metrics.energyByComponent,
                  b[i].metrics.energyByComponent);
    }
}

TEST(Sweep, ResultsComeBackInJobOrder)
{
    const auto jobs = smokeJobs();
    driver::SweepOptions opts;
    opts.jobs = 4;
    const auto results = driver::runSweep(jobs, opts);
    ASSERT_EQ(results.size(), jobs.size());
    for (std::size_t i = 0; i < jobs.size(); ++i) {
        EXPECT_EQ(results[i].index, i);
        EXPECT_EQ(results[i].workload, jobs[i].workload);
        EXPECT_STREQ(results[i].label.c_str(),
                     archModelName(jobs[i].config.model));
    }
}

TEST(Sweep, FailingJobIsIsolatedAndPoolDrains)
{
    std::vector<SweepJob> jobs;
    SweepJob good;
    good.workload = "sei";
    good.config.model = ArchModel::OoO;
    good.options.scale = 0.25;

    SweepJob bad = good;
    bad.workload = "no-such-workload"; // fatal() inside makeWorkload

    jobs.push_back(good);
    jobs.push_back(bad);
    jobs.push_back(good);

    driver::SweepOptions opts;
    opts.jobs = 2;
    const auto results = driver::runSweep(jobs, opts);
    ASSERT_EQ(results.size(), 3u);
    EXPECT_TRUE(results[0].ok);
    EXPECT_FALSE(results[1].ok);
    EXPECT_NE(results[1].error.find("unknown workload"),
              std::string::npos);
    EXPECT_TRUE(results[2].ok);
    EXPECT_FALSE(driver::allOk(results));
    EXPECT_DEATH(driver::dieOnFailures(results), "sweep job");
}

TEST(Sweep, RunWorkloadIsRepeatable)
{
    driver::RunConfig cfg;
    cfg.model = ArchModel::DistDA_IO;
    driver::RunOptions opts;
    opts.scale = 0.25;
    const auto a = driver::runWorkload("sei", cfg, opts);
    const auto b = driver::runWorkload("sei", cfg, opts);
    EXPECT_EQ(driver::csvRow(a), driver::csvRow(b));
    EXPECT_DOUBLE_EQ(a.timeNs, b.timeNs);
    EXPECT_EQ(a.energyByComponent, b.energyByComponent);
}

TEST(Sweep, WallClockFieldsArePopulated)
{
    SweepJob job;
    job.workload = "sei";
    job.config.model = ArchModel::OoO;
    job.options.scale = 0.25;
    const auto results = driver::runSweep({job});
    ASSERT_TRUE(results[0].ok);
    EXPECT_GT(results[0].wallMs, 0.0);
    EXPECT_GT(results[0].metrics.wallMs, 0.0);
    EXPECT_GE(results[0].metrics.wallMs,
              results[0].metrics.setupWallMs);
    EXPECT_GT(results[0].metrics.simRate(), 0.0);
}

TEST(Sweep, LabelOverridesConfigName)
{
    SweepJob job;
    job.workload = "sei";
    job.config.model = ArchModel::DistDA_F;
    job.options.scale = 0.25;
    job.label = "ablation-variant";
    const auto results = driver::runSweep({job});
    ASSERT_TRUE(results[0].ok);
    EXPECT_EQ(results[0].label, "ablation-variant");
    EXPECT_EQ(results[0].metrics.config, "ablation-variant");
}

TEST(Sweep, CsvHeaderMatchesRowArity)
{
    driver::Metrics m;
    m.workload = "w";
    m.config = "c";
    const std::string header = driver::csvHeader();
    const std::string row = driver::csvRow(m);
    const auto commas = [](const std::string &s) {
        return std::count(s.begin(), s.end(), ',');
    };
    EXPECT_EQ(commas(header), commas(row));
}

TEST(Sweep, QuickSweepsMatchTheGoldens)
{
    // `distda_run --workload=all --config=all --quick --csv`.
    std::vector<SweepJob> sweep;
    for (const std::string &w : workloads::workloadNames()) {
        for (ArchModel m : driver::headlineModels())
            sweep.push_back(quickJob(w, modelConfig(m)));
    }
    EXPECT_EQ(sweepCsv(sweep), readGolden("quick_sweep.csv"));

    // Three `--workload=all --quick --csv` runs under one header:
    // software prefetching, locality-aware allocation, and the buffer
    // and channel overrides (--buffer=1024 --channel=4).
    driver::RunConfig overrides = modelConfig(ArchModel::DistDA_F);
    overrides.bufferBytesOverride = 1024;
    overrides.channelCapacityOverride = 4;
    std::vector<SweepJob> variants;
    for (const driver::RunConfig &cfg :
         {modelConfig(ArchModel::DistDA_IO_SW),
          modelConfig(ArchModel::DistDA_F_A), overrides}) {
        for (const std::string &w : workloads::workloadNames())
            variants.push_back(quickJob(w, cfg));
    }
    EXPECT_EQ(sweepCsv(variants), readGolden("quick_variants.csv"));
}

TEST(Logging, FailureCaptureConvertsFatalAndPanic)
{
    EXPECT_FALSE(ScopedFailureCapture::active());
    {
        ScopedFailureCapture capture;
        EXPECT_TRUE(ScopedFailureCapture::active());
        try {
            fatal("user error %d", 7);
            FAIL() << "fatal() returned";
        } catch (const SimFailure &e) {
            EXPECT_FALSE(e.isPanic());
            EXPECT_NE(std::string(e.what()).find("user error 7"),
                      std::string::npos);
        }
        try {
            panic("invariant %s", "broken");
            FAIL() << "panic() returned";
        } catch (const SimFailure &e) {
            EXPECT_TRUE(e.isPanic());
        }
    }
    EXPECT_FALSE(ScopedFailureCapture::active());
    // Without a capture guard fatal() still terminates the process.
    EXPECT_DEATH(fatal("boom"), "boom");
}
