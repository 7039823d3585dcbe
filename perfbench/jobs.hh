/**
 * @file
 * The benchmark's three workloads as fixed (workload, scale, model)
 * job lists, and the digest of a job's simulated statistics that is
 * checked against the reference kept beside this file.
 */

#ifndef PERFBENCH_JOBS_HH
#define PERFBENCH_JOBS_HH

#include <cstdint>
#include <map>
#include <string>
#include <vector>

#include "src/driver/config.hh"
#include "src/driver/metrics.hh"

namespace perfbench
{

/** One simulation of a pass: a registered workload at a fixed scale. */
struct JobSpec
{
    std::string workload;
    double scale = 1.0;
    distda::driver::ArchModel model = distda::driver::ArchModel::OoO;

    /** Reference key, e.g. "pr@0.25/Mono-CA". */
    std::string key() const;
};

/** Names of the benchmark workloads, in BENCHMARK.json order. */
const std::vector<std::string> &benchWorkloads();

/** Job list of one pass of @p workload; empty for an unknown name. */
std::vector<JobSpec> jobsOf(const std::string &workload);

/**
 * Stable 64-bit digest of every simulated statistic in @p m: simulated
 * time, energy (total and per component), instruction, memory, cache,
 * data-movement (which folds in DRAM reads and writes), NoC and
 * accelerator traffic counts, and the validation flag. Host wall times
 * are excluded, so a pure simulator speed-up leaves it unchanged.
 */
std::uint64_t statsDigest(const distda::driver::Metrics &m);

/** Job key -> digest, as stored in the reference file. */
using Reference = std::map<std::string, std::uint64_t>;

/** Load a reference file; false when it cannot be read or parsed. */
bool loadReference(const std::string &path, Reference &out);

/** Write @p ref as one "key digest" line per job. */
bool saveReference(const std::string &path, const Reference &ref);

} // namespace perfbench

#endif // PERFBENCH_JOBS_HH
