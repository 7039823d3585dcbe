#include "perfbench/jobs.hh"

#include <fstream>
#include <sstream>

#include "src/sim/logging.hh"

namespace perfbench
{

using distda::driver::ArchModel;

namespace
{

/** Workloads dominated by offloads, all at the suite-default scale. */
const std::vector<std::string> kDense = {"dis", "tra", "fdt", "cho", "adi",
                                         "sei", "pf",  "nw",  "pca"};

/** Memory-bound graph workloads with their fixed scales. */
const std::vector<std::pair<std::string, double>> kGraph = {
    {"pr", 0.25}, {"pch", 1.0}, {"bfs", 1.0}};

std::uint64_t
fnv1a(const std::string &text)
{
    std::uint64_t h = 0xcbf29ce484222325ULL;
    for (const unsigned char c : text) {
        h ^= c;
        h *= 0x100000001b3ULL;
    }
    return h;
}

} // namespace

std::string
JobSpec::key() const
{
    return distda::strfmt("%s@%g/%s", workload.c_str(), scale,
                          distda::driver::archModelName(model));
}

const std::vector<std::string> &
benchWorkloads()
{
    static const std::vector<std::string> names = {"graph-mem",
                                                   "dense-offload",
                                                   "host-ooo"};
    return names;
}

std::vector<JobSpec>
jobsOf(const std::string &workload)
{
    std::vector<JobSpec> jobs;
    if (workload == "graph-mem") {
        for (const auto &[name, scale] : kGraph) {
            for (const ArchModel m : {ArchModel::MonoCA,
                                      ArchModel::DistDA_IO,
                                      ArchModel::DistDA_F})
                jobs.push_back({name, scale, m});
        }
    } else if (workload == "dense-offload") {
        for (const std::string &name : kDense) {
            for (const ArchModel m : distda::driver::headlineModels()) {
                if (m != ArchModel::OoO)
                    jobs.push_back({name, 1.0, m});
            }
        }
    } else if (workload == "host-ooo") {
        for (const auto &[name, scale] : kGraph)
            jobs.push_back({name, scale, ArchModel::OoO});
        for (const std::string &name : kDense)
            jobs.push_back({name, 1.0, ArchModel::OoO});
    }
    return jobs;
}

std::uint64_t
statsDigest(const distda::driver::Metrics &m)
{
    // %a prints every bit of a double, so any change in any statistic
    // changes the record.
    std::string rec = distda::strfmt(
        "%s %s %d %a %a %a %a %a %a %a %a %a %a %a %a %a %a %a %a",
        m.workload.c_str(), m.config.c_str(), m.validated ? 1 : 0,
        m.timeNs, m.totalEnergyPj, m.hostInsts, m.accelInsts,
        m.kernelMemOps, m.hostMemOps, m.mmioOps, m.cacheAccesses,
        m.dataMovementBytes, m.nocCtrlBytes, m.nocDataBytes,
        m.nocAccCtrlBytes, m.nocAccDataBytes, m.intraBytes, m.daBytes,
        m.aaBytes);
    for (const auto &[component, pj] : m.energyByComponent)
        rec += distda::strfmt(" %s=%a", component.c_str(), pj);
    return fnv1a(rec);
}

bool
loadReference(const std::string &path, Reference &out)
{
    std::ifstream in(path);
    if (!in)
        return false;
    std::string line;
    while (std::getline(in, line)) {
        if (line.empty() || line[0] == '#')
            continue;
        std::istringstream fields(line);
        std::string key, hex;
        if (!(fields >> key >> hex))
            return false;
        try {
            out[key] = std::stoull(hex, nullptr, 16);
        } catch (const std::exception &) {
            return false;
        }
    }
    return true;
}

bool
saveReference(const std::string &path, const Reference &ref)
{
    std::ofstream out(path);
    out << "# Simulated-statistics digest of every benchmark job "
           "(perfbench --write-reference).\n";
    for (const auto &[key, digest] : ref)
        out << key << ' ' << distda::strfmt("%016llx",
                                            static_cast<unsigned long long>(
                                                digest))
            << '\n';
    return static_cast<bool>(out);
}

} // namespace perfbench
