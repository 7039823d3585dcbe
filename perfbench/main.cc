/**
 * @file
 * The simulator benchmark program. One process, one simulation at a
 * time, as a closed loop: each pass clears the process-wide PlanCache
 * and runs one workload's whole job list back to back on the sweep
 * engine (driver::runSweep, jobs=1), every job on a fresh System whose
 * modelled caches start empty. Passes repeat while the next one should
 * end within half a pass of --seconds (untraced: at least three). Host
 * times are scaled by a calibration timed between jobs; see
 * calibrate().
 *
 *   perfbench --workload <graph-mem|dense-offload|host-ooo> --seed <n>
 *             --seconds <s> --trace <0|1> [--reference <file>]
 *             [--trace-out <file>]
 *   perfbench --self-test [--reference <file>]
 *   perfbench --write-reference <file>
 *
 * --trace 0 reports the end-to-end metrics. --trace 1 alternates
 * untraced passes with traced ones, which replay driver::runWorkload's
 * calls into each layer under spans, then runs the replay probes, and
 * reports the per-layer metrics. The seed orders the jobs of each pass
 * and drives the replay probes; workload inputs are fixed by each
 * workload's own RNG. The last stdout line is one JSON object.
 */

#include <malloc.h>
#include <sched.h>
#include <sys/resource.h>

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <map>
#include <memory>
#include <set>
#include <string>
#include <vector>

#include "perfbench/jobs.hh"
#include "perfbench/probes.hh"
#include "perfbench/spans.hh"
#include "src/compiler/plan_cache.hh"
#include "src/driver/sweep.hh"
#include "src/sim/json.hh"
#include "src/sim/logging.hh"
#include "src/sim/rng.hh"
#include "src/sim/stats.hh"
#include "src/workloads/workload.hh"

namespace perfbench
{
namespace
{

using namespace distda;
using Clock = std::chrono::steady_clock;

constexpr std::size_t kMinPasses = 3;     ///< untraced, for medians
constexpr double kMaxRunSeconds = 150.0;  ///< stop starting passes
constexpr double kCalibrationRefMs = 7.0; ///< host times scale to this
constexpr int kProbeReps = 5;

double
secondsSince(Clock::time_point t0)
{
    return std::chrono::duration<double>(Clock::now() - t0).count();
}

/** Linear-interpolated quantile of @p v (copied, then sorted). */
double
quantile(std::vector<double> v, double q)
{
    if (v.empty())
        return 0.0;
    std::sort(v.begin(), v.end());
    const double pos = q * static_cast<double>(v.size() - 1);
    const auto lo = static_cast<std::size_t>(pos);
    const std::size_t hi = std::min(lo + 1, v.size() - 1);
    return v[lo] + (v[hi] - v[lo]) * (pos - static_cast<double>(lo));
}

double
median(const std::vector<double> &v)
{
    return quantile(v, 0.5);
}

double
ratio(double num, double den)
{
    return den > 0.0 ? num / den : 0.0;
}

/** The job list of pass @p pass, shuffled by the seed. */
std::vector<JobSpec>
passOrder(std::vector<JobSpec> jobs, std::uint64_t seed, std::uint64_t pass)
{
    sim::Rng rng(seed * 0x9e3779b97f4a7c15ULL + pass + 1);
    for (std::size_t i = jobs.size(); i > 1; --i)
        std::swap(jobs[i - 1], jobs[rng.nextBelow(i)]);
    return jobs;
}

/** What one pass measured. */
struct Pass
{
    /** Host seconds; untraced passes: the sum of the jobs' wall times. */
    double sweepS = 0.0;
    double insts = 0.0;
    /** Untraced passes: runWorkload wall ms of each job, their summed
     *  set-up ms, and the mean time of the pass's calibrations. */
    std::vector<double> jobMs;
    double setupMs = 0.0;
    double calibrationMs = 0.0;
    int attempted = 0;
    int failed = 0;
    Reference digests; ///< per job key
    /** Traced passes: per-layer counts and self times (ms). */
    std::map<std::string, double> counts;
    std::map<std::string, double> selfMs;
};

/** Checks job digests against the reference and counts failures. */
class Checker
{
  public:
    explicit Checker(const Reference *ref) : _ref(ref) {}

    void
    job(Pass &pass, const std::string &key, const driver::Metrics *m,
        const std::string &error)
    {
        ++pass.attempted;
        if (!m || !m->validated) {
            ++pass.failed;
            std::fprintf(stderr, "perfbench: job %s failed: %s\n",
                         key.c_str(),
                         m ? "validation mismatch" : error.c_str());
            if (!m)
                return;
        }
        const std::uint64_t d = statsDigest(*m);
        pass.digests[key] = d;
        if (_ref) {
            auto it = _ref->find(key);
            if ((it == _ref->end() || it->second != d) &&
                _changed.insert(key).second) {
                std::fprintf(stderr,
                             "perfbench: simulated statistics of %s differ "
                             "from the reference\n",
                             key.c_str());
            }
        }
    }

    std::size_t changed() const { return _changed.size(); }

  private:
    const Reference *_ref;
    std::set<std::string> _changed;
};

volatile std::size_t g_calibrationSink;

/**
 * Times a fixed piece of work that never touches the simulator: 20000
 * inserts and erases on a std::map of up to 20000 keys. Other tenants
 * of a shared host slow the simulator by up to 2x for seconds to
 * minutes at a time. Of the loops tried beside a job on one CPU (ALU
 * chains, unpredictable branches, pointer chases sized for L1, L2, L3
 * and DRAM, a 512-function code footprint), this one, with its
 * allocation, pointer chasing and branching, followed the job's time
 * most closely (correlation 0.92). Returns milliseconds.
 */
double
calibrate()
{
    const auto t0 = Clock::now();
    std::map<std::uint32_t, std::uint64_t> m;
    std::uint32_t x = 1;
    for (std::uint32_t k = 0; k < 20000; ++k) {
        x = x * 1103515245u + 12345u;
        m[x % 20000] += k;
        if (x & 1024)
            m.erase((x >> 3) % 20000);
    }
    g_calibrationSink = m.size();
    return secondsSince(t0) * 1e3;
}

Pass
untracedPass(const std::vector<JobSpec> &order, Checker &check)
{
    compiler::PlanCache::process().clear();
    driver::SweepOptions so;
    so.jobs = 1;
    Pass pass;
    // One job per runSweep call, so that a calibration runs before the
    // first job and after each one.
    double calibration_ms = calibrate();
    for (const JobSpec &spec : order) {
        driver::SweepJob job;
        job.workload = spec.workload;
        job.config.model = spec.model;
        job.options.scale = spec.scale;
        const driver::SweepResult r = driver::runSweep({job}, so).front();
        calibration_ms += calibrate();
        check.job(pass, spec.key(), r.ok ? &r.metrics : nullptr, r.error);
        if (!r.ok)
            continue;
        pass.jobMs.push_back(r.metrics.wallMs);
        pass.sweepS += r.metrics.wallMs / 1e3;
        pass.setupMs += r.metrics.setupWallMs;
        pass.insts += r.metrics.totalInsts();
    }
    pass.calibrationMs =
        calibration_ms / static_cast<double>(order.size() + 1);
    return pass;
}

/** Per-layer counts of one finished job, summed into @p c. */
void
addCounts(std::map<std::string, double> &c, const JobSpec &spec,
          const driver::Metrics &m, const mem::Hierarchy &hier)
{
    stats::Group g("mem");
    hier.exportStats(g);
    const auto stat = [&g](const char *name) {
        return g.get(name).value();
    };
    double packets = 0.0;
    for (int k = 0; k < static_cast<int>(noc::TrafficClass::NumClasses);
         ++k) {
        packets += stat(
            (std::string("noc_packets.") +
             noc::trafficClassName(static_cast<noc::TrafficClass>(k)))
                .c_str());
    }
    double invocations = 0.0;
    for (const driver::OffloadPhaseBreakdown &row : m.offloadBreakdown)
        invocations += row.invocations;

    c["compiler.plan_hits"] += m.planCacheHits;
    c["compiler.plan_misses"] += m.planCacheMisses;
    c["compiler.compile_ms"] += m.planCompileMs;
    if (spec.model != driver::ArchModel::OoO)
        c["offload.invocations"] += invocations;
    c["offload.mmio_ops"] += m.mmioOps;
    c["engine.host_insts"] += m.hostInsts;
    c["engine.accel_insts"] += m.accelInsts;
    c["engine.mem_ops"] += m.kernelMemOps;
    c["accel.intra_bytes"] += m.intraBytes;
    c["accel.da_bytes"] += m.daBytes;
    c["accel.aa_bytes"] += m.aaBytes;
    c["mem.l1d.accesses"] += stat("l1d.accesses");
    c["mem.l1d.misses"] += stat("l1d.misses");
    c["mem.l2.accesses"] += stat("l2.accesses");
    c["mem.l2.misses"] += stat("l2.misses");
    c["mem.l2.prefetches"] += stat("l2.prefetches");
    c["mem.l3.accesses"] += stat("l3.accesses");
    c["mem.l3.misses"] += stat("l3.misses");
    c["mem.acp.accesses"] += stat("acp.accesses");
    c["mem.cache_accesses"] += stat("cache_accesses_total");
    c["mem.dram.reads"] += stat("dram.reads");
    c["mem.dram.writes"] += stat("dram.writes");
    c["mem.dram.row_hits"] += stat("dram.row_hits");
    c["mem.dram.row_misses"] += stat("dram.row_misses");
    c["noc.packets"] += packets;
    c["noc.hop_flits"] += stat("noc_hop_flits");
    c["noc.bytes"] += stat("noc_bytes.total");
    c["sim.time_ns"] += m.timeNs;
}

/**
 * One job replayed call by call in driver::runWorkload's order, with a
 * span around each layer call. Kernels are compiled up front through
 * ExecContext::compileOnly so that plan acquisition and runtime
 * instantiation get their own span; Workload::run then reuses them.
 */
void
tracedJob(const JobSpec &spec, int id, Tracer &tracer, Pass &pass,
          Checker &check)
{
    ScopedSpan job_span(tracer, "job", id);
    driver::RunConfig cfg;
    cfg.model = spec.model;
    try {
        ScopedFailureCapture capture;
        std::unique_ptr<workloads::Workload> wl;
        {
            ScopedSpan s(tracer, "workloads.make", id);
            wl = workloads::makeWorkload(spec.workload, spec.scale);
        }
        driver::SystemParams sp;
        sp.arenaBytes = wl->arenaBytes();
        sp.allocAffinity = cfg.allocAffinity();
        std::unique_ptr<driver::System> sys;
        {
            ScopedSpan s(tracer, "driver.system", id);
            sys = std::make_unique<driver::System>(sp);
        }
        {
            ScopedSpan s(tracer, "workloads.setup", id);
            wl->setup(*sys);
        }
        driver::ExecContext ctx(*sys, cfg);
        {
            ScopedSpan s(tracer, "compiler.acquire", id);
            for (const compiler::Kernel *k : wl->kernels())
                ctx.compileOnly(*k);
        }
        {
            ScopedSpan s(tracer, "driver.run", id);
            wl->run(ctx);
        }
        driver::Metrics m;
        {
            ScopedSpan s(tracer, "driver.finish", id);
            m = ctx.finish();
        }
        m.workload = spec.workload;
        {
            ScopedSpan s(tracer, "workloads.validate", id);
            m.validated = wl->validate(*sys);
        }
        check.job(pass, spec.key(), &m, "");
        addCounts(pass.counts, spec, m, sys->hier());
    } catch (const std::exception &e) {
        check.job(pass, spec.key(), nullptr, e.what());
    }
}

Pass
tracedPass(const std::vector<JobSpec> &order, Tracer &tracer,
           Checker &check)
{
    compiler::PlanCache::process().clear();
    Pass pass;
    const std::size_t first = tracer.size();
    const auto t0 = Clock::now();
    {
        ScopedSpan s(tracer, "pass", -1);
        for (std::size_t i = 0; i < order.size(); ++i)
            tracedJob(order[i], static_cast<int>(i), tracer, pass, check);
    }
    pass.sweepS = secondsSince(t0);
    pass.selfMs = tracer.selfMs(first, tracer.size());
    return pass;
}

/** A reported metric: name, value, unit. */
struct Metric
{
    std::string name;
    double value = 0.0;
    std::string unit;
};

double
peakRssMb()
{
    struct rusage ru{};
    getrusage(RUSAGE_SELF, &ru);
    return static_cast<double>(ru.ru_maxrss) / 1024.0; // kB on Linux
}

/**
 * Host times of each pass are scaled by kCalibrationRefMs over the
 * pass's mean calibration time: what they would read at the host speed
 * where calibrate() takes kCalibrationRefMs. Then medians over passes
 * (over every job of every pass for job_ms_p50).
 */
std::vector<Metric>
endToEnd(const std::vector<Pass> &passes)
{
    std::vector<double> sweep, setup, rate, job_ms;
    for (const Pass &p : passes) {
        const double scale = kCalibrationRefMs / p.calibrationMs;
        sweep.push_back(p.sweepS * scale);
        setup.push_back(p.setupMs / 1e3 * scale);
        rate.push_back(p.insts / (p.sweepS * scale) / 1e6);
        for (const double ms : p.jobMs)
            job_ms.push_back(ms * scale);
    }
    return {
        {"sweep_s", median(sweep), "s"},
        {"job_ms_p50", median(job_ms), "ms"},
        {"sim_minst_per_s", median(rate), "Minst/s"},
        {"setup_s", median(setup), "s"},
        {"peak_rss_mb", peakRssMb(), "MB"},
    };
}

std::vector<Metric>
perLayer(const std::vector<Pass> &untraced, const std::vector<Pass> &traced,
         const std::map<std::string, ProbeResult> &probes,
         std::size_t changed)
{
    // Self times: median over traced passes, in ms per pass.
    const auto self = [&traced](const char *layer) {
        std::vector<double> v;
        for (const Pass &p : traced) {
            auto it = p.selfMs.find(layer);
            v.push_back(it == p.selfMs.end() ? 0.0 : it->second);
        }
        return median(v);
    };
    std::vector<double> u_sweep, t_sweep;
    for (const Pass &p : untraced)
        u_sweep.push_back(p.sweepS);
    for (const Pass &p : traced)
        t_sweep.push_back(p.sweepS);

    // Counts repeat exactly from pass to pass; take the last pass's.
    std::map<std::string, double> c = traced.back().counts;
    const double run_ms = self("driver.run");
    const double events = c["engine.host_insts"] +
                          c["engine.accel_insts"] +
                          c["mem.cache_accesses"] + c["noc.packets"] +
                          c["mem.dram.reads"] + c["mem.dram.writes"];

    std::vector<Metric> out = {
        {"driver.run_ms", run_ms, "ms"},
        {"driver.host_ns_per_event", ratio(run_ms * 1e6, events), "ns"},
        {"driver.system_ms", self("driver.system"), "ms"},
        {"driver.finish_ms", self("driver.finish"), "ms"},
        {"workloads.make_ms", self("workloads.make"), "ms"},
        {"workloads.setup_ms", self("workloads.setup"), "ms"},
        {"workloads.validate_ms", self("workloads.validate"), "ms"},
        {"compiler.acquire_ms", self("compiler.acquire"), "ms"},
        {"compiler.compile_ms", c["compiler.compile_ms"], "ms"},
        {"compiler.plan_misses", c["compiler.plan_misses"], "count"},
        {"compiler.plan_hit_ratio",
         ratio(c["compiler.plan_hits"],
               c["compiler.plan_hits"] + c["compiler.plan_misses"]),
         "ratio"},
        {"offload.invocations", c["offload.invocations"], "count"},
        {"offload.mmio_ops", c["offload.mmio_ops"], "count"},
        {"engine.accel_insts", c["engine.accel_insts"], "count"},
        {"engine.mem_ops", c["engine.mem_ops"], "count"},
        {"engine.host_insts", c["engine.host_insts"], "count"},
        {"accel.intra_bytes", c["accel.intra_bytes"], "B"},
        {"accel.da_bytes", c["accel.da_bytes"], "B"},
        {"accel.aa_bytes", c["accel.aa_bytes"], "B"},
        {"mem.l1d.accesses", c["mem.l1d.accesses"], "count"},
        {"mem.l1d.misses", c["mem.l1d.misses"], "count"},
        {"mem.l2.accesses", c["mem.l2.accesses"], "count"},
        {"mem.l2.misses", c["mem.l2.misses"], "count"},
        {"mem.l2.prefetches", c["mem.l2.prefetches"], "count"},
        {"mem.l3.accesses", c["mem.l3.accesses"], "count"},
        {"mem.l3.misses", c["mem.l3.misses"], "count"},
        {"mem.l3.miss_ratio",
         ratio(c["mem.l3.misses"], c["mem.l3.accesses"]), "ratio"},
        {"mem.acp.accesses", c["mem.acp.accesses"], "count"},
        {"mem.dram.reads", c["mem.dram.reads"], "count"},
        {"mem.dram.writes", c["mem.dram.writes"], "count"},
        {"mem.dram.row_hit_ratio",
         ratio(c["mem.dram.row_hits"],
               c["mem.dram.row_hits"] + c["mem.dram.row_misses"]),
         "ratio"},
        {"noc.packets", c["noc.packets"], "count"},
        {"noc.hop_flits", c["noc.hop_flits"], "count"},
        {"noc.bytes", c["noc.bytes"], "B"},
        {"sim.time_ns", c["sim.time_ns"], "ns"},
        {"sim.stats_changed", static_cast<double>(changed), "count"},
        {"trace.overhead_frac", median(t_sweep) / median(u_sweep) - 1.0,
         "frac"},
    };
    for (const auto &[name, res] : probes) {
        out.push_back({name, res.value,
                       name == "engine.replay.invoke_us" ? "us" : "ns"});
    }
    return out;
}

void
writeMetrics(sim::JsonWriter &w, const std::vector<Metric> &metrics)
{
    w.beginObject();
    for (const Metric &m : metrics) {
        w.key(m.name).beginObject();
        w.key("value").value(m.value);
        w.key("unit").value(m.unit);
        w.endObject();
    }
    w.endObject();
}

struct Args
{
    std::string workload;
    std::uint64_t seed = 1;
    double seconds = 10.0;
    int trace = 0;
    std::string reference;
    std::string traceOut;
    std::string writeReference;
    bool selfTest = false;
};

Args
parseArgs(int argc, char **argv)
{
    Args a;
    for (int i = 1; i < argc; ++i) {
        const std::string flag = argv[i];
        std::string val;
        if (flag != "--self-test") {
            if (i + 1 >= argc)
                fatal("flag %s needs a value", flag.c_str());
            val = argv[++i];
        }
        if (flag == "--workload")
            a.workload = val;
        else if (flag == "--seed")
            a.seed = static_cast<std::uint64_t>(
                driver::parseInt(val, "--seed"));
        else if (flag == "--seconds")
            a.seconds = driver::parseDouble(val, "--seconds");
        else if (flag == "--trace")
            a.trace = static_cast<int>(driver::parseInt(val, "--trace"));
        else if (flag == "--reference")
            a.reference = val;
        else if (flag == "--trace-out")
            a.traceOut = val;
        else if (flag == "--write-reference")
            a.writeReference = val;
        else if (flag == "--self-test")
            a.selfTest = true;
        else
            fatal("unknown flag %s", flag.c_str());
    }
    return a;
}

int
runBenchmark(const Args &args, const Reference *ref)
{
    const std::vector<JobSpec> jobs = jobsOf(args.workload);
    if (jobs.empty())
        fatal("unknown workload '%s'", args.workload.c_str());

    // Keep every thread on the CPU the run started on, so that
    // calibrate() measures the CPU the jobs run on.
    if (const int cpu = sched_getcpu(); cpu >= 0) {
        cpu_set_t one;
        CPU_ZERO(&one);
        CPU_SET(cpu, &one);
        sched_setaffinity(0, sizeof one, &one);
    }

    Checker check(ref);
    Tracer tracer;
    std::vector<Pass> untraced, traced;
    std::uint64_t pass_no = 0;
    double last_pass_s = 0.0;
    const auto t0 = Clock::now();
    // Once the minimum is met, a pass starts only if it should end
    // within half a pass of --seconds, so runs last --seconds on average.
    const auto more = [&] {
        const double el = secondsSince(t0);
        if (el + last_pass_s > kMaxRunSeconds)
            return false;
        if (args.trace ? traced.empty() : untraced.size() < kMinPasses)
            return true;
        return el + last_pass_s / 2 < args.seconds;
    };
    while (more()) {
        const std::vector<JobSpec> order =
            passOrder(jobs, args.seed, pass_no);
        // The traced run alternates so that both halves see the same
        // host conditions; trace.overhead_frac compares them.
        if (args.trace && pass_no % 2 == 1) {
            traced.push_back(tracedPass(order, tracer, check));
        } else {
            untraced.push_back(untracedPass(order, check));
        }
        last_pass_s = secondsSince(t0) / static_cast<double>(++pass_no);
    }

    int attempted = 0, failed = 0;
    for (const auto *set : {&untraced, &traced}) {
        for (const Pass &p : *set) {
            attempted += p.attempted;
            failed += p.failed;
        }
    }
    std::vector<Metric> metrics;
    bool repeatable = true;
    if (args.trace) {
        const auto probes = runProbes(args.seed, kProbeReps);
        for (const auto &[name, res] : probes)
            repeatable = repeatable && res.repeatable;
        metrics = perLayer(untraced, traced, probes, check.changed());
        if (!args.traceOut.empty())
            tracer.writeChromeTrace(args.traceOut);
    } else {
        metrics = endToEnd(untraced);
    }

    std::printf("perfbench %s: seed %llu, %zu untraced + %zu traced "
                "passes of %zu jobs, failed_frac %g (%d/%d), "
                "sim.stats_changed %zu\n",
                args.workload.c_str(),
                static_cast<unsigned long long>(args.seed),
                untraced.size(), traced.size(), jobs.size(),
                ratio(failed, attempted), failed, attempted,
                check.changed());
    for (const auto *set : {&untraced, &traced}) {
        std::printf("  %s pass s:", set == &untraced ? "untraced" : "traced");
        for (const Pass &p : *set)
            std::printf(" %.3f", p.sweepS);
        std::printf("\n");
    }
    std::printf("  calibration ms:");
    for (const Pass &p : untraced)
        std::printf(" %.3f", p.calibrationMs);
    std::printf("\n");
    for (const Metric &m : metrics)
        std::printf("  %-28s %14.6g %s\n", m.name.c_str(), m.value,
                    m.unit.c_str());

    sim::JsonWriter w;
    w.beginObject();
    w.key("correct").value(failed == 0 && check.changed() == 0 &&
                           repeatable);
    w.key("attempted").value(attempted);
    w.key("failed").value(failed);
    w.key("metrics");
    writeMetrics(w, metrics);
    w.endObject();
    std::printf("%s\n", w.str().c_str());
    return 0;
}

/**
 * Determinism checks: two passes of each workload in the same order
 * give identical digests, a traced pass gives the same digests as an
 * untraced one, and the replay probes repeat their simulated results.
 * Also emits every metric computed from those passes so the caller can
 * check names against BENCHMARK.json.
 */
int
selfTest(const Reference *ref)
{
    bool ok = true;
    const auto expect = [&ok](bool cond, const std::string &what) {
        std::printf("  %-4s %s\n", cond ? "ok" : "FAIL", what.c_str());
        ok = ok && cond;
    };
    sim::JsonWriter w;
    w.beginObject();
    w.key("workloads").beginObject();
    for (const std::string &name : benchWorkloads()) {
        std::printf("self-test %s\n", name.c_str());
        Checker check(ref);
        Tracer tracer;
        const std::vector<JobSpec> order = passOrder(jobsOf(name), 7, 0);
        std::vector<Pass> untraced = {untracedPass(order, check),
                                      untracedPass(order, check)};
        std::vector<Pass> traced = {tracedPass(order, tracer, check)};
        expect(untraced[0].failed + untraced[1].failed + traced[0].failed ==
                   0,
               "every job validates");
        expect(untraced[0].digests == untraced[1].digests,
               "two passes give identical simulated-stat digests");
        expect(traced[0].digests == untraced[0].digests,
               "the traced replay simulates what runWorkload does");
        expect(!ref || check.changed() == 0,
               "digests match the reference");
        const auto probes = runProbes(7, 2);
        const auto again = runProbes(7, 1);
        bool same = true;
        for (const auto &[probe, res] : probes)
            same = same && res.repeatable &&
                   res.simDigest == again.at(probe).simDigest;
        expect(same, "replay probes repeat their simulated results");
        w.key(name).beginObject();
        w.key("end_to_end");
        writeMetrics(w, endToEnd(untraced));
        w.key("per_layer");
        writeMetrics(w, perLayer(untraced, traced, probes, check.changed()));
        w.endObject();
    }
    w.endObject();
    w.key("ok").value(ok);
    w.endObject();
    std::printf("%s\n", w.str().c_str());
    return ok ? 0 : 1;
}

int
writeReference(const std::string &path)
{
    Reference all;
    for (const std::string &name : benchWorkloads()) {
        Checker check(nullptr);
        const Pass pass = untracedPass(jobsOf(name), check);
        if (pass.failed > 0)
            fatal("%d job(s) of %s failed; no reference written",
                  pass.failed, name.c_str());
        all.insert(pass.digests.begin(), pass.digests.end());
    }
    if (!saveReference(path, all))
        fatal("cannot write %s", path.c_str());
    std::printf("wrote %zu digests to %s\n", all.size(), path.c_str());
    return 0;
}

} // namespace
} // namespace perfbench

int
main(int argc, char **argv)
{
    using namespace perfbench;
    // Pin glibc's mmap threshold at its 128 KiB default. Left dynamic,
    // it grows after the first large free, so whether a job's arena is
    // fresh mmap or recycled heap (and how much freed heap stays
    // resident) would depend on the order of the jobs before it.
    // Pinned, every large block is returned to the OS when freed: job
    // cost and peak memory no longer depend on the seed's job order.
    mallopt(M_MMAP_THRESHOLD, 128 * 1024);
    const Args args = parseArgs(argc, argv);
    distda::setInformEnabled(false);
    if (!args.writeReference.empty())
        return writeReference(args.writeReference);

    Reference ref;
    if (!args.reference.empty() && !loadReference(args.reference, ref))
        distda::fatal("cannot read reference %s", args.reference.c_str());
    const Reference *ref_ptr = args.reference.empty() ? nullptr : &ref;
    if (args.selfTest)
        return selfTest(ref_ptr);
    return runBenchmark(args, ref_ptr);
}
