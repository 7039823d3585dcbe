/**
 * @file
 * Machine-readable run reports: one JSON document per run combining
 * the headline Metrics, the full stats tree (memory hierarchy, NoC,
 * energy accountant) and every probe-registered distribution. This is
 * the `--stats-json=` / `--report-dir=` output format; `--timeline=`
 * is handled by sim::Probe's Chrome-trace export directly.
 */

#ifndef DISTDA_DRIVER_REPORT_HH
#define DISTDA_DRIVER_REPORT_HH

#include <string>
#include <vector>

#include "src/driver/metrics.hh"
#include "src/driver/system.hh"
#include "src/verify/diag.hh"

namespace distda::sim
{
class JsonWriter;
class Probe;
}

namespace distda::driver
{

/**
 * Write @p m's per-kernel offload-lifecycle rows (phases, end-to-end
 * ticks and quantiles) as one JSON array: the run report's
 * "offload_breakdown" and each run's "kernels" under
 * `distda_run --breakdown=json`.
 */
void breakdownJson(sim::JsonWriter &w, const Metrics &m);

/**
 * Serialize a run report as JSON text. @p probe may be null (report
 * without timeline-derived distributions); @p sys supplies the
 * hierarchy and energy stats trees. @p analysis (optional) adds an
 * "analysis" section with one verification report (diagnostics and
 * facts) per analyzed kernel.
 */
std::string
buildRunReport(const Metrics &m, System &sys, const sim::Probe *probe,
               const std::vector<verify::Report> *analysis = nullptr);

/** buildRunReport() written to @p path; false (with warn) on error. */
bool
writeRunReport(const std::string &path, const Metrics &m, System &sys,
               const sim::Probe *probe,
               const std::vector<verify::Report> *analysis = nullptr);

} // namespace distda::driver

#endif // DISTDA_DRIVER_REPORT_HH
