/**
 * @file
 * Replay probes: seeded loops over one public function of one layer
 * (an engine invocation, a cache-hierarchy access, a DRAM access, a
 * mesh transfer), timed on fresh simulator state. The seed drives the
 * address streams and the kernel operands; equal seeds give equal
 * simulated results, which each probe folds into a digest.
 */

#ifndef PERFBENCH_PROBES_HH
#define PERFBENCH_PROBES_HH

#include <cstdint>
#include <map>
#include <string>

namespace perfbench
{

struct ProbeResult
{
    /** Median host time per operation over the reps, in the unit the
     *  metric name states (us for invoke_us, ns otherwise). */
    double value = 0.0;
    /** Digest of the simulated results (latencies, hits, outputs). */
    std::uint64_t simDigest = 0;
    /** False when the reps disagreed on the simulated results. */
    bool repeatable = true;
};

/** Run every replay probe @p reps times; keyed by metric name. */
std::map<std::string, ProbeResult> runProbes(std::uint64_t seed, int reps);

} // namespace perfbench

#endif // PERFBENCH_PROBES_HH
