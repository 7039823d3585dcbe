/**
 * @file
 * Wire protocol of the offload service (tools/distda_serve).
 *
 * Transport is newline-delimited JSON over a stream socket: a client
 * sends one request object per line and receives exactly one response
 * object per line, in order, on the same connection. The request is a
 * declarative description of one offload run — workload name plus a
 * RunConfig — in the spirit of DFI's flow/source/target API: the
 * client says *what* to run, the daemon owns scheduling, plan-cache
 * reuse and execution.
 *
 * Request schema (all keys optional unless marked required):
 *
 *   {
 *     "id": 7,                      // echoed in the response
 *     "workload": "fdt",            // required: Table IV name
 *     "config": {                   // required: object or model name
 *       "model": "Dist-DA-F",       // required: archModelName()
 *       "ghz": 1.0,                 // accel clock override (0=default)
 *       "no_combining": false,
 *       "no_retention": false,
 *       "buffer_bytes": 0,
 *       "channel_capacity": 0
 *     },
 *     "scale": 0.25,                // problem-size multiplier
 *     "probe": false                // full report (timeline dists +
 *   }                               // analysis facts), costs more
 *
 * `"config": "Dist-DA-F"` is accepted as shorthand for an object with
 * only "model". Unknown keys anywhere are errors: a typo'd knob must
 * be a diagnostic, never a silently ignored default.
 *
 * Success response:
 *   { "id": 7, "ok": true, "workload": ..., "config": ...,
 *     "service": { "run_ms": ..., "plan_cache_hits": ...,
 *                  "plan_cache_misses": ... },
 *     "server": { "plan_cache": { hits/misses/entries/... } },
 *     "report": { <the --stats-json run report, verbatim> } }
 *
 * Error response (the daemon never dies on a bad request):
 *   { "id": 7, "ok": false, "kind": "parse|request|oversize|timeout|
 *     busy|run|shutdown", "error": "<position-annotated message>" }
 */

#ifndef DISTDA_SERVE_PROTOCOL_HH
#define DISTDA_SERVE_PROTOCOL_HH

#include <cstdint>
#include <string>

#include "src/compiler/plan_cache.hh"
#include "src/driver/config.hh"
#include "src/driver/metrics.hh"

namespace distda::serve
{

/** One parsed offload request. */
struct ServeRequest
{
    std::uint64_t id = 0;
    std::string workload;
    driver::RunConfig config;
    double scale = 1.0;
    bool probe = false;
};

/**
 * Parse one request line (strict sim::json underneath). On failure
 * returns false with a position-annotated message in @p err; @p out.id
 * is still filled when the document parsed far enough to name one, so
 * error replies can echo it.
 */
bool parseServeRequest(const std::string &line, ServeRequest &out,
                       std::string &err);

/** Serialize @p req as one request line (no trailing newline). */
std::string buildRequestLine(const ServeRequest &req);

/** Error reply of the given kind (no trailing newline). */
std::string buildErrorResponse(std::uint64_t id, const char *kind,
                               const std::string &message);

/**
 * Success reply embedding the (already serialized) run report
 * produced by driver::buildRunReport, plus per-request service
 * accounting and the daemon-wide plan-cache counters.
 */
std::string buildRunResponse(const ServeRequest &req,
                             const driver::Metrics &metrics,
                             const std::string &report, double run_ms,
                             const compiler::PlanCache::Stats &cache);

} // namespace distda::serve

#endif // DISTDA_SERVE_PROTOCOL_HH
