/**
 * @file
 * Command-line runner: execute any Table IV workload under any tested
 * configuration — or sweep `--workload=all --config=all` through the
 * driver's parallel sweep engine — and print the full metrics records.
 *
 * Usage:
 *   distda_run [--list] [--workload=<name>|all] [--config=<model>|all]
 *              [--scale=<f>] [--ghz=<f>] [--csv] [--jobs=<n>]
 *              [--quick] [--paper]
 *              [--no-combining] [--no-retention]
 *              [--buffer=<bytes>] [--channel=<elems>]
 *              [--verify-only] [--verify-json=<file>] [--analyze[=json]]
 *              [--breakdown[=text|json|off]]
 *              [--timeline=<file>] [--stats-json=<file>]
 *              [--stats-interval=<ticks>] [--report-dir=<dir>]
 *              [--plan-dir=<dir>]
 *
 * --jobs=<n> runs the sweep's independent simulations on n worker
 * threads (default: DISTDA_JOBS, else hardware_concurrency). Results
 * are reported in deterministic job order and each simulation is
 * deterministic, so output is byte-identical at every --jobs level.
 *
 * Every run verifies each plan once, when it acquires it (compiled,
 * cached or loaded from --plan-dir), with every verification pass
 * under the plan's own channel and buffer parameters and, on CGRA
 * models, the fabric: an error stops the run. --verify-only compiles
 * every kernel, prints all verifier diagnostics and exits without
 * simulating; the exit status is nonzero iff any error-severity
 * finding exists.
 * --verify-json=<file> implies --verify-only and additionally writes
 * one structured verification report per kernel (diagnostics plus
 * the static facts; the --analyze=json kernel schema) to the file.
 *
 * --analyze runs each selected (workload, config) pair once with
 * invocation profiling on and prints every verification pass's facts
 * (bounds, channel liveness, purity; see DESIGN.md §6) and
 * diagnostics per kernel against the recorded profiles;
 * --analyze=json emits one JSON document instead. The exit status is
 * nonzero iff any error is found (every Violated fact is one).
 *
 * --breakdown prints a Table-VI-style per-kernel offload-lifecycle
 * phase table after every run: per-phase latency share (enqueue,
 * decode, buffer-alloc, dispatch, execute, writeback, complete — the
 * shares always sum to 100% by the conservation invariant) plus
 * end-to-end mean/p50/p95/p99 per invocation. Under --csv the text
 * table goes to stderr so CSV output stays byte-identical;
 * --breakdown=json owns stdout — exactly one JSON document, pipeable
 * to json.tool, with the human records on stderr — and refuses to
 * combine with --csv.
 *
 * Observability (all off by default, zero overhead when off):
 * --timeline= writes a Chrome trace-event JSON timeline (open in
 * Perfetto / chrome://tracing) and --stats-json= a machine-readable
 * run report; both are single-run flags — a multi-job sweep must use
 * --report-dir=<dir>, which writes one pair of files per job into the
 * directory instead. --stats-interval= sets the counter-sampling
 * coalescing interval in simulated ticks (picoseconds; default 1e6).
 * Reports go to files only: stdout (CSV or human records) is
 * byte-identical with or without these flags.
 *
 * Plan artifacts (the compile→execute split): --plan-dir=<dir> loads
 * each kernel's serialized plan artifact from the directory when a
 * matching one exists (same kernel and compile options, checked by
 * fingerprint) and dumps freshly compiled plans into it otherwise, so
 * a second run skips compilation entirely. Use tools/distda_plan to
 * inspect artifacts.
 *
 * Examples:
 *   distda_run --workload=fdt --config=Dist-DA-F
 *   distda_run --workload=bfs --config=all --csv
 *   distda_run --workload=all --config=all --csv --jobs=8
 *   distda_run --workload=cho --config=Dist-DA-F --verify-only
 *   distda_run --workload=pr --config=Dist-DA-F --quick \
 *       --timeline=pr.timeline.json --stats-json=pr.stats.json
 *   distda_run --workload=all --config=all --quick --csv \
 *       --report-dir=reports
 */

#include <sys/stat.h>
#include <unistd.h>

#include <cerrno>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <string>
#include <vector>

#include "src/driver/config.hh"
#include "src/driver/report.hh"
#include "src/driver/sweep.hh"
#include "src/offload/lifecycle.hh"
#include "src/sim/json.hh"
#include "src/workloads/workload.hh"

using namespace distda;

namespace
{

void
printList()
{
    std::printf("workloads (--workload=; 'all' sweeps the core 12):\n");
    for (const auto &w : workloads::workloadNames())
        std::printf("  %s\n", w.c_str());
    std::printf("  spmv (case study; not part of 'all')\n");
    std::printf("configs (--config=; 'all' sweeps the headline 6):\n");
    for (driver::ArchModel m : driver::allArchModels())
        std::printf("  %s\n", driver::archModelName(m));
    std::printf("  all\n");
}

void
printHuman(std::FILE *out, const driver::Metrics &m)
{
    std::fprintf(out, "== %s under %s ==\n", m.workload.c_str(),
                 m.config.c_str());
    std::fprintf(out, "  validated:        %s\n",
                 m.validated ? "yes" : "NO");
    std::fprintf(out, "  time:             %.3f us\n", m.timeNs / 1000.0);
    std::fprintf(out, "  energy:           %.3f uJ\n",
                 m.totalEnergyPj / 1e6);
    std::fprintf(out, "  instructions:     host %.0f, accel %.0f "
                 "(%.1f%% coverage)\n",
                 m.hostInsts, m.accelInsts, m.codeCoverage());
    std::fprintf(out, "  memory ops:       %.0f offloaded (%.2f%% dc), "
                 "%.0f host\n",
                 m.kernelMemOps, m.dataCoverage(), m.hostMemOps);
    std::fprintf(out, "  cache accesses:   %.0f\n", m.cacheAccesses);
    std::fprintf(out, "  data movement:    %.3f MB\n",
                 m.dataMovementBytes / 1e6);
    std::fprintf(out, "  NoC bytes:        ctrl %.0f, data %.0f, acc_ctrl "
                 "%.0f, acc_data %.0f\n",
                 m.nocCtrlBytes, m.nocDataBytes, m.nocAccCtrlBytes,
                 m.nocAccDataBytes);
    std::fprintf(out, "  accel traffic:    intra %.0f, D-A %.0f, A-A %.0f "
                 "bytes\n",
                 m.intraBytes, m.daBytes, m.aaBytes);
    std::fprintf(out, "  MMIO intrinsics:  %.0f (%.3f%% init overhead)\n",
                 m.mmioOps, m.initOverhead());
    std::fprintf(out, "  energy breakdown:");
    for (const auto &[name, pj] : m.energyByComponent) {
        if (pj > 0.0)
            std::fprintf(out, " %s=%.1fuJ", name.c_str(), pj / 1e6);
    }
    std::fprintf(out, "\n");
}

void
printBreakdownText(std::FILE *out, const driver::Metrics &m)
{
    std::fprintf(out, "== offload breakdown: %s under %s ==\n",
                 m.workload.c_str(), m.config.c_str());
    if (m.offloadBreakdown.empty()) {
        std::fprintf(out, "  (no offload invocations recorded)\n");
        return;
    }
    std::fprintf(out, "  %-18s %8s", "kernel", "invokes");
    for (std::size_t p = 0; p < offload::kNumPhases; ++p) {
        std::fprintf(out, " %11s%%",
                     offload::phaseName(
                         static_cast<offload::Phase>(p)));
    }
    std::fprintf(out, " %12s %10s %10s %10s\n", "e2e_mean_ns",
                 "p50_ns", "p95_ns", "p99_ns");
    for (const driver::OffloadPhaseBreakdown &row :
         m.offloadBreakdown) {
        std::fprintf(out, "  %-18s %8.0f", row.kernel.c_str(),
                     row.invocations);
        for (std::size_t p = 0; p < offload::kNumPhases; ++p) {
            const double share =
                row.e2eTicks > 0.0
                    ? 100.0 * row.phaseTicks[p] / row.e2eTicks
                    : 0.0;
            std::fprintf(out, " %12.2f", share);
        }
        const double mean_ns =
            row.invocations > 0.0
                ? row.e2eTicks / row.invocations / 1000.0
                : 0.0;
        std::fprintf(out, " %12.3f %10.3f %10.3f %10.3f\n", mean_ns,
                     row.p50 / 1000.0, row.p95 / 1000.0,
                     row.p99 / 1000.0);
    }
}

} // namespace

int
main(int argc, char **argv)
{
    std::string workload = "fdt";
    std::string config = "Dist-DA-F";
    driver::RunConfig cfg;
    driver::RunOptions opts;
    driver::SweepOptions sweep_opts;
    bool csv = false;
    driver::BreakdownMode breakdown = driver::BreakdownMode::Off;
    bool verify_only = false;
    std::string verify_json;
    bool analyze = false;
    bool analyze_json = false;

    for (int i = 1; i < argc; ++i) {
        const std::string arg = argv[i];
        if (arg == "--list") {
            printList();
            return 0;
        } else if (arg.rfind("--workload=", 0) == 0) {
            workload = arg.substr(11);
        } else if (arg.rfind("--config=", 0) == 0) {
            config = arg.substr(9);
        } else if (arg.rfind("--scale=", 0) == 0) {
            opts.scale = driver::parseDouble(arg.substr(8), "--scale");
        } else if (arg == "--quick") {
            opts.scale = 0.25;
        } else if (arg == "--paper") {
            opts.scale = 2.0;
        } else if (arg.rfind("--jobs=", 0) == 0) {
            sweep_opts.jobs = static_cast<int>(
                driver::parseInt(arg.substr(7), "--jobs"));
        } else if (arg.rfind("--ghz=", 0) == 0) {
            cfg.accelGHz = driver::parseDouble(arg.substr(6), "--ghz");
        } else if (arg == "--csv") {
            csv = true;
        } else if (arg == "--breakdown") {
            breakdown = driver::BreakdownMode::Text;
        } else if (arg.rfind("--breakdown=", 0) == 0) {
            breakdown = driver::parseBreakdownMode(arg.substr(12),
                                                   "--breakdown");
        } else if (arg == "--no-combining") {
            cfg.disableCombining = true;
        } else if (arg == "--no-retention") {
            cfg.disableRetention = true;
        } else if (arg.rfind("--buffer=", 0) == 0) {
            cfg.bufferBytesOverride = static_cast<std::uint32_t>(
                driver::parseInt(arg.substr(9), "--buffer"));
        } else if (arg.rfind("--channel=", 0) == 0) {
            cfg.channelCapacityOverride = static_cast<int>(
                driver::parseInt(arg.substr(10), "--channel"));
        } else if (arg == "--verify-only") {
            verify_only = true;
        } else if (arg.rfind("--verify-json=", 0) == 0) {
            verify_json = arg.substr(14);
            verify_only = true;
        } else if (arg == "--analyze") {
            analyze = true;
        } else if (arg == "--analyze=json") {
            analyze = true;
            analyze_json = true;
        } else if (arg.rfind("--timeline=", 0) == 0) {
            opts.obs.timelinePath = arg.substr(11);
        } else if (arg.rfind("--stats-json=", 0) == 0) {
            opts.obs.statsJsonPath = arg.substr(13);
        } else if (arg.rfind("--stats-interval=", 0) == 0) {
            opts.obs.statsIntervalTicks = static_cast<sim::Tick>(
                driver::parseInt(arg.substr(17), "--stats-interval"));
        } else if (arg.rfind("--report-dir=", 0) == 0) {
            sweep_opts.reportDir = arg.substr(13);
        } else if (arg.rfind("--plan-dir=", 0) == 0) {
            cfg.planDir = arg.substr(11);
        } else {
            fatal("unknown flag '%s'", arg.c_str());
        }
    }

    if (!cfg.planDir.empty() &&
        ::mkdir(cfg.planDir.c_str(), 0755) != 0 && errno != EEXIST)
        fatal("cannot create plan dir '%s'", cfg.planDir.c_str());

    // JSON breakdown owns stdout; the CSV table would interleave.
    if (breakdown == driver::BreakdownMode::Json && csv)
        fatal("--breakdown=json writes stdout; combine with --csv is "
              "ambiguous (use --breakdown for a stderr table)");

    setInformEnabled(false);
    std::vector<std::string> workload_names;
    if (workload == "all")
        workload_names = workloads::workloadNames();
    else
        workload_names.push_back(workload);

    std::vector<driver::ArchModel> models;
    if (config == "all")
        models = driver::headlineModels();
    else
        models.push_back(driver::parseArchModel(config));

    if (verify_only) {
        // Verification prints per-kernel diagnostics as it goes, so it
        // stays serial; it compiles without simulating and is fast.
        int errors = 0;
        std::vector<driver::KernelVerifyResult> collected;
        for (const std::string &w : workload_names) {
            for (driver::ArchModel m : models) {
                cfg.model = m;
                errors += driver::verifyWorkload(
                    w, cfg, opts,
                    verify_json.empty() ? nullptr : &collected);
            }
        }
        if (!verify_json.empty()) {
            sim::JsonWriter jw;
            jw.beginObject();
            jw.key("results").beginArray();
            for (const driver::KernelVerifyResult &r : collected) {
                jw.beginObject();
                jw.key("workload").value(r.workload);
                jw.key("config").value(r.config);
                jw.key("partitions").value(
                    static_cast<std::uint64_t>(r.partitions));
                r.report.jsonFields(jw);
                jw.endObject();
            }
            jw.endArray();
            jw.endObject();
            if (!sim::writeTextFile(verify_json, jw.str()))
                return 2;
        }
        return errors ? 1 : 0;
    }

    if (analyze) {
        // Analysis executes each pair once (profiles need real
        // invocations) and prints facts serially in job order.
        int errors = 0;
        sim::JsonWriter jw;
        if (analyze_json) {
            jw.beginObject();
            jw.key("analysis").beginArray();
        }
        for (const std::string &w : workload_names) {
            for (driver::ArchModel m : models) {
                cfg.model = m;
                errors += driver::analyzeWorkload(
                    w, cfg, opts, analyze_json ? &jw : nullptr);
            }
        }
        if (analyze_json) {
            jw.endArray();
            jw.key("violations").value(errors);
            jw.endObject();
            std::printf("%s\n", jw.str().c_str());
        }
        return errors ? 1 : 0;
    }

    std::vector<driver::SweepJob> jobs;
    for (const std::string &w : workload_names) {
        for (driver::ArchModel m : models) {
            driver::SweepJob job;
            job.workload = w;
            job.config = cfg;
            job.config.model = m;
            job.options = opts;
            jobs.push_back(job);
        }
    }

    // Single-file observability outputs cannot serve a multi-run
    // sweep — the jobs would race on one path; --report-dir= fans the
    // reports out per job instead.
    if (jobs.size() > 1 && opts.obs.enabled()) {
        fatal("--timeline=/--stats-json= name single files; use "
              "--report-dir=<dir> for a %zu-job sweep", jobs.size());
    }

    // Progress/ETA on stderr for interactive multi-run sweeps; never
    // when redirected, so captured output is --jobs-invariant.
    sweep_opts.progress = jobs.size() > 1 && ::isatty(2) != 0;

    const auto results = driver::runSweep(jobs, sweep_opts);

    // Consolidated report in deterministic job order: one CSV header
    // then data rows, or the human-readable records. --breakdown=json
    // owns stdout (one parseable document, pipeable to json.tool), so
    // the human records ride stderr there.
    const bool human_to_stderr =
        breakdown == driver::BreakdownMode::Json;
    if (csv)
        std::printf("%s\n", driver::csvHeader().c_str());
    for (const auto &r : results) {
        if (!r.ok)
            continue;
        if (csv)
            std::printf("%s\n", driver::csvRow(r.metrics).c_str());
        else
            printHuman(human_to_stderr ? stderr : stdout, r.metrics);
    }
    if (breakdown == driver::BreakdownMode::Text) {
        // Under --csv the table rides stderr so machine-read stdout
        // (and the golden sweep CSV) stays byte-identical.
        std::FILE *out = csv ? stderr : stdout;
        for (const auto &r : results) {
            if (r.ok)
                printBreakdownText(out, r.metrics);
        }
    } else if (breakdown == driver::BreakdownMode::Json) {
        sim::JsonWriter jw;
        jw.beginObject();
        jw.key("breakdown").beginArray();
        for (const auto &r : results) {
            if (!r.ok)
                continue;
            jw.beginObject();
            jw.key("workload").value(r.metrics.workload);
            jw.key("config").value(r.metrics.config);
            jw.key("kernels");
            driver::breakdownJson(jw, r.metrics);
            jw.endObject();
        }
        jw.endArray();
        jw.endObject();
        std::printf("%s\n", jw.str().c_str());
    }
    if (!driver::allOk(results))
        driver::dieOnFailures(results);
    return 0;
}
