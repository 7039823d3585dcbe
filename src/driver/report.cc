#include "src/driver/report.hh"

#include "src/offload/lifecycle.hh"
#include "src/sim/json.hh"
#include "src/sim/probe.hh"
#include "src/sim/stats.hh"

namespace distda::driver
{

void
breakdownJson(sim::JsonWriter &w, const Metrics &m)
{
    w.beginArray();
    for (const OffloadPhaseBreakdown &row : m.offloadBreakdown) {
        w.beginObject();
        w.key("kernel").value(row.kernel);
        w.key("invocations").value(row.invocations);
        w.key("phases").beginObject();
        for (std::size_t p = 0; p < offload::kNumPhases; ++p) {
            w.key(offload::phaseName(static_cast<offload::Phase>(p)))
                .value(row.phaseTicks[p]);
        }
        w.endObject();
        w.key("e2e_ticks").value(row.e2eTicks);
        w.key("p50_ticks").value(row.p50);
        w.key("p95_ticks").value(row.p95);
        w.key("p99_ticks").value(row.p99);
        w.key("min_ticks").value(row.minTicks);
        w.key("max_ticks").value(row.maxTicks);
        w.endObject();
    }
    w.endArray();
}

namespace
{

void
metricsJson(sim::JsonWriter &w, const Metrics &m)
{
    w.beginObject();
    w.key("time_ns").value(m.timeNs);
    w.key("energy_pj").value(m.totalEnergyPj);
    w.key("host_insts").value(m.hostInsts);
    w.key("accel_insts").value(m.accelInsts);
    w.key("kernel_mem_ops").value(m.kernelMemOps);
    w.key("host_mem_ops").value(m.hostMemOps);
    w.key("mmio_ops").value(m.mmioOps);
    w.key("cache_accesses").value(m.cacheAccesses);
    w.key("data_movement_bytes").value(m.dataMovementBytes);
    w.key("clock_ghz").value(m.clockGHz);
    w.key("ipc").value(m.ipc());
    w.key("mem_op_rate").value(m.memOpRate());
    w.key("code_coverage_pct").value(m.codeCoverage());
    w.key("data_coverage_pct").value(m.dataCoverage());
    w.key("init_overhead_pct").value(m.initOverhead());
    w.key("noc_bytes").beginObject();
    w.key("ctrl").value(m.nocCtrlBytes);
    w.key("data").value(m.nocDataBytes);
    w.key("acc_ctrl").value(m.nocAccCtrlBytes);
    w.key("acc_data").value(m.nocAccDataBytes);
    w.endObject();
    w.key("accel_traffic_bytes").beginObject();
    w.key("intra").value(m.intraBytes);
    w.key("da").value(m.daBytes);
    w.key("aa").value(m.aaBytes);
    w.endObject();
    w.key("energy_by_component").beginObject();
    for (const auto &[name, pj] : m.energyByComponent)
        w.key(name).value(pj);
    w.endObject();
    w.key("wall_ms").value(m.wallMs);
    w.key("plan_cache").beginObject();
    w.key("hits").value(m.planCacheHits);
    w.key("misses").value(m.planCacheMisses);
    w.key("compile_ms").value(m.planCompileMs);
    w.key("compile_ms_saved").value(m.planCompileMsSaved);
    w.endObject();
    w.endObject();
}

} // namespace

std::string
buildRunReport(const Metrics &m, System &sys, const sim::Probe *probe,
               const std::vector<verify::Report> *analysis)
{
    // Fresh groups per report: exportStats() registers stat names, and
    // Group panics on duplicates, so the tree must not be reused.
    stats::Group root("run");
    stats::Group hier("hier");
    stats::Group energy("energy");
    sys.hier().exportStats(hier);
    sys.acct().exportStats(energy);
    root.addChild(&hier);
    root.addChild(&energy);

    stats::Group dists("dist");
    if (probe) {
        probe->exportDists(dists);
        root.addChild(&dists);
    }

    sim::JsonWriter w;
    w.beginObject();
    w.key("workload").value(m.workload);
    w.key("config").value(m.config);
    w.key("validated").value(m.validated);
    w.key("metrics");
    metricsJson(w, m);
    w.key("offload_breakdown");
    breakdownJson(w, m);
    // Ring-buffer losses, surfaced whether or not a probe ran so the
    // key is always present for schema consumers.
    w.key("dropped_events")
        .value(probe ? probe->dropped() : std::uint64_t{0});
    w.key("stats");
    root.jsonDump(w);
    if (probe) {
        w.key("timeline").beginObject();
        w.key("events").value(
            static_cast<std::uint64_t>(probe->eventCount()));
        w.key("dropped").value(probe->dropped());
        w.key("tracks").value(
            static_cast<std::uint64_t>(probe->numTracks()));
        w.endObject();
    }
    if (analysis) {
        w.key("analysis").beginArray();
        for (const verify::Report &r : *analysis) {
            w.beginObject();
            r.jsonFields(w);
            w.endObject();
        }
        w.endArray();
    }
    w.endObject();
    return w.str();
}

bool
writeRunReport(const std::string &path, const Metrics &m, System &sys,
               const sim::Probe *probe,
               const std::vector<verify::Report> *analysis)
{
    return sim::writeTextFile(path,
                              buildRunReport(m, sys, probe, analysis));
}

} // namespace distda::driver
