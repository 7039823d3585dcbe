#include "src/driver/runner.hh"

#include <chrono>
#include <cmath>
#include <cstdio>
#include <memory>

#include "src/driver/report.hh"
#include "src/sim/json.hh"
#include "src/sim/logging.hh"
#include "src/sim/probe.hh"
#include "src/verify/verify.hh"
#include "src/workloads/workload.hh"

namespace distda::driver
{

Metrics
runWorkload(const std::string &workload, const RunConfig &config,
            const RunOptions &opts)
{
    using Clock = std::chrono::steady_clock;
    const auto wall_ms = [](Clock::time_point a, Clock::time_point b) {
        return std::chrono::duration<double, std::milli>(b - a).count();
    };
    const auto t0 = Clock::now();

    auto wl = workloads::makeWorkload(workload, opts.scale);

    SystemParams sp;
    sp.arenaBytes = wl->arenaBytes();
    sp.allocAffinity = config.allocAffinity();
    System sys(sp);

    wl->setup(sys);
    const auto t_setup = Clock::now();

    // Observability is opt-in per run: with no output requested no
    // probe exists and every instrumented site sees a null pointer.
    std::unique_ptr<sim::Probe> probe;
    if (opts.obs.enabled()) {
        sim::Probe::Options po;
        po.intervalTicks = opts.obs.statsIntervalTicks;
        probe = std::make_unique<sim::Probe>(po);
        sys.hier().attachProbe(*probe);
    }

    ExecContext ctx(sys, config, probe.get());
    wl->run(ctx);

    Metrics m = ctx.finish();
    m.workload = workload;
    m.validated = wl->validate(sys);
    if (!m.validated) {
        warn("workload '%s' under %s failed validation",
             workload.c_str(), archModelName(config.model));
    }
    m.setupWallMs = wall_ms(t0, t_setup);
    m.wallMs = wall_ms(t0, Clock::now());

    if (probe) {
        if (probe->dropped() > 0) {
            warn("probe ring buffer overflowed: %llu event(s) dropped "
                 "for %s/%s (oldest-first); raise the ring capacity or "
                 "shorten the run for a complete timeline",
                 static_cast<unsigned long long>(probe->dropped()),
                 workload.c_str(), archModelName(config.model));
        }
        if (!opts.obs.timelinePath.empty())
            probe->writeChromeTrace(opts.obs.timelinePath);
    }
    if (probe || opts.obs.reportOut) {
        // The probe implies invocation profiles were recorded, so the
        // analysis section rides along for free; a report requested
        // without a probe (serve fast path) omits it.
        std::vector<verify::Report> reports;
        const std::vector<verify::Report> *reports_ptr = nullptr;
        if (probe) {
            reports = ctx.analyzeAll();
            reports_ptr = &reports;
        }
        if (!opts.obs.statsJsonPath.empty()) {
            writeRunReport(opts.obs.statsJsonPath, m, sys, probe.get(),
                           reports_ptr);
        }
        if (opts.obs.reportOut) {
            *opts.obs.reportOut =
                buildRunReport(m, sys, probe.get(), reports_ptr);
        }
    }
    return m;
}

int
verifyWorkload(const std::string &workload, const RunConfig &config,
               const RunOptions &opts,
               std::vector<KernelVerifyResult> *collect)
{
    auto wl = workloads::makeWorkload(workload, opts.scale);

    SystemParams sp;
    sp.arenaBytes = wl->arenaBytes();
    sp.allocAffinity = config.allocAffinity();
    System sys(sp);
    wl->setup(sys);

    int errors = 0;
    for (const compiler::Kernel *kernel : wl->kernels()) {
        // Compile without enforcement: the point here is to surface
        // every diagnostic, not to die on the first one.
        const compiler::OffloadPlan plan =
            compiler::compileKernel(*kernel, config.compileOptions());

        const verify::Report report =
            verify::verifyPlan(plan, config.verifyOptions());
        std::printf("%s/%s under %s: %zu partitions, %zu channels: "
                    "%d error(s), %d warning(s)\n",
                    workload.c_str(), kernel->name.c_str(),
                    archModelName(config.model), plan.partitions.size(),
                    plan.channels.size(), report.errorCount(),
                    report.warningCount());
        if (!report.empty())
            std::printf("%s", report.str().c_str());
        errors += report.errorCount();
        if (collect) {
            KernelVerifyResult r;
            r.workload = workload;
            r.config = archModelName(config.model);
            r.partitions = plan.partitions.size();
            r.report = report;
            collect->push_back(std::move(r));
        }
    }
    return errors;
}

int
analyzeWorkload(const std::string &workload, const RunConfig &config,
                const RunOptions &opts, sim::JsonWriter *json)
{
    RunConfig cfg = config;
    cfg.recordProfiles = true;

    auto wl = workloads::makeWorkload(workload, opts.scale);
    SystemParams sp;
    sp.arenaBytes = wl->arenaBytes();
    sp.allocAffinity = cfg.allocAffinity();
    System sys(sp);
    wl->setup(sys);

    ExecContext ctx(sys, cfg);
    wl->run(ctx);

    const std::vector<verify::Report> reports = ctx.analyzeAll();
    int errors = 0;
    for (const verify::Report &r : reports)
        errors += r.errorCount();

    if (json) {
        json->beginObject();
        json->key("workload").value(workload);
        json->key("config").value(archModelName(cfg.model));
        json->key("kernels").beginArray();
        for (const verify::Report &r : reports) {
            json->beginObject();
            r.jsonFields(*json);
            json->endObject();
        }
        json->endArray();
        json->endObject();
    } else {
        std::printf("%s under %s: %zu kernel(s) analyzed, "
                    "%d error(s)\n",
                    workload.c_str(), archModelName(cfg.model),
                    reports.size(), errors);
        for (const verify::Report &r : reports)
            std::printf("%s%s", r.factsStr().c_str(), r.str().c_str());
    }
    return errors;
}

double
geomean(const std::vector<double> &values)
{
    if (values.empty())
        return 0.0;
    double log_sum = 0.0;
    for (double v : values)
        log_sum += std::log(v);
    return std::exp(log_sum / static_cast<double>(values.size()));
}

} // namespace distda::driver
