/**
 * @file
 * Plan-artifact utility: inspect, check and compare the serialized
 * OffloadPlan artifacts that `distda_run --plan-dir=` produces and
 * consumes.
 *
 * Usage:
 *   distda_plan dump --workload=<name> [--config=<model>]
 *                    [--scale=<f>] [--out=<dir>]
 *   distda_plan validate <file.plan>...
 *   distda_plan diff <a.plan> <b.plan>
 *   distda_plan fingerprint --workload=<name> [--config=<model>]
 *                           [--scale=<f>]
 *   distda_plan fingerprint <file.plan>...
 *
 * dump compiles every kernel of the workload under the chosen
 * configuration and prints each plan artifact to stdout, or writes
 * one "<kernel>-<fingerprint>.plan" file per kernel into --out=<dir>
 * (creating the directory), exactly as the runner's --plan-dir does.
 *
 * validate parses each artifact, checks its kernel and fingerprint
 * (compiler::validatePlanArtifact), runs every verification pass
 * under the artifact's own options (verify::verifyPlan; no fabric, as
 * the artifact does not name a substrate) and checks the
 * serialize→parse→serialize round trip is byte-identical.
 * Exit status is nonzero iff any file fails.
 *
 * diff compares two artifacts line by line and prints the first
 * divergence plus a summary; exit status 1 when they differ.
 *
 * fingerprint prints "<kernel> <fingerprint>" per kernel — from a
 * fresh compile of a workload, or as recorded in artifact files (with
 * a recomputation check). Fingerprints are stable across processes,
 * so they can be compared between machines and runs.
 */

#include <sys/stat.h>

#include <algorithm>
#include <cerrno>
#include <cstdio>
#include <fstream>
#include <sstream>
#include <string>
#include <vector>

#include "src/compiler/plan_io.hh"
#include "src/driver/config.hh"
#include "src/driver/system.hh"
#include "src/sim/logging.hh"
#include "src/verify/verify.hh"
#include "src/workloads/workload.hh"

using namespace distda;

namespace
{

struct Args
{
    std::string command;
    std::string workload;
    std::string config = "Dist-DA-F";
    std::string outDir;
    double scale = 1.0;
    std::vector<std::string> files;
};

/** Compile every kernel of the selected workload. */
std::vector<compiler::OffloadPlan>
compileWorkload(const Args &args)
{
    auto wl = workloads::makeWorkload(args.workload, args.scale);
    driver::SystemParams sp;
    sp.arenaBytes = wl->arenaBytes();
    driver::RunConfig cfg;
    cfg.model = driver::parseArchModel(args.config);
    sp.allocAffinity = cfg.allocAffinity();
    driver::System sys(sp);
    wl->setup(sys);

    std::vector<compiler::OffloadPlan> plans;
    for (const compiler::Kernel *kernel : wl->kernels())
        plans.push_back(
            compiler::compileKernel(*kernel, cfg.compileOptions()));
    return plans;
}

int
cmdDump(const Args &args)
{
    if (args.workload.empty())
        fatal("dump needs --workload=<name>");
    const std::vector<compiler::OffloadPlan> plans =
        compileWorkload(args);
    if (args.outDir.empty()) {
        for (const compiler::OffloadPlan &plan : plans)
            std::fputs(compiler::serializePlan(plan).c_str(), stdout);
        return 0;
    }
    if (::mkdir(args.outDir.c_str(), 0755) != 0 && errno != EEXIST)
        fatal("cannot create plan dir '%s'", args.outDir.c_str());
    for (const compiler::OffloadPlan &plan : plans) {
        const std::string path =
            args.outDir + "/" +
            compiler::planArtifactFile(plan.kernel.name,
                                       plan.fingerprint);
        compiler::savePlan(plan, path);
        std::printf("%s\n", path.c_str());
    }
    return 0;
}

int
cmdValidate(const Args &args)
{
    if (args.files.empty())
        fatal("validate needs at least one <file.plan>");
    int failures = 0;
    for (const std::string &path : args.files) {
        std::string defect;
        try {
            ScopedFailureCapture capture;
            const compiler::OffloadPlan plan =
                compiler::loadPlan(path);
            defect = compiler::validatePlanArtifact(plan);
            if (defect.empty())
                defect = verify::verifyPlan(plan).firstError();
            if (defect.empty()) {
                const std::string text =
                    compiler::serializePlan(plan);
                const compiler::OffloadPlan reparsed =
                    compiler::parsePlan(text);
                if (compiler::serializePlan(reparsed) != text)
                    defect = "round trip is not byte-identical";
            }
        } catch (const SimFailure &e) {
            defect = e.what();
        }
        if (defect.empty()) {
            std::printf("%s: ok\n", path.c_str());
        } else {
            std::printf("%s: FAIL: %s\n", path.c_str(),
                        defect.c_str());
            ++failures;
        }
    }
    return failures ? 1 : 0;
}

std::vector<std::string>
readLines(const std::string &path)
{
    std::ifstream in(path);
    if (!in)
        fatal("cannot read '%s'", path.c_str());
    std::vector<std::string> lines;
    std::string line;
    while (std::getline(in, line))
        lines.push_back(line);
    return lines;
}

int
cmdDiff(const Args &args)
{
    if (args.files.size() != 2)
        fatal("diff needs exactly two <file.plan> arguments");
    const std::vector<std::string> a = readLines(args.files[0]);
    const std::vector<std::string> b = readLines(args.files[1]);
    const std::size_t n = std::max(a.size(), b.size());
    std::size_t differing = 0;
    for (std::size_t i = 0; i < n; ++i) {
        const std::string *la = i < a.size() ? &a[i] : nullptr;
        const std::string *lb = i < b.size() ? &b[i] : nullptr;
        if (la && lb && *la == *lb)
            continue;
        if (differing == 0) {
            std::printf("first divergence at line %zu:\n", i + 1);
            std::printf("  -%s\n", la ? la->c_str() : "<eof>");
            std::printf("  +%s\n", lb ? lb->c_str() : "<eof>");
        }
        ++differing;
    }
    if (differing == 0) {
        std::printf("identical (%zu lines)\n", a.size());
        return 0;
    }
    std::printf("%zu differing line(s) of %zu\n", differing, n);
    return 1;
}

int
cmdFingerprint(const Args &args)
{
    if (!args.workload.empty()) {
        for (const compiler::OffloadPlan &plan :
             compileWorkload(args)) {
            std::printf("%s %s\n", plan.kernel.name.c_str(),
                        plan.fingerprint.c_str());
        }
        return 0;
    }
    if (args.files.empty())
        fatal("fingerprint needs --workload=<name> or <file.plan>...");
    int failures = 0;
    for (const std::string &path : args.files) {
        try {
            ScopedFailureCapture capture;
            const compiler::OffloadPlan plan =
                compiler::loadPlan(path);
            const std::string recomputed = compiler::planFingerprint(
                plan.kernel, plan.options);
            if (recomputed == plan.fingerprint) {
                std::printf("%s %s\n", plan.kernel.name.c_str(),
                            plan.fingerprint.c_str());
            } else {
                std::printf("%s: recorded %s but recomputed %s\n",
                            path.c_str(), plan.fingerprint.c_str(),
                            recomputed.c_str());
                ++failures;
            }
        } catch (const SimFailure &e) {
            std::printf("%s: FAIL: %s\n", path.c_str(), e.what());
            ++failures;
        }
    }
    return failures ? 1 : 0;
}

} // namespace

int
main(int argc, char **argv)
{
    Args args;
    for (int i = 1; i < argc; ++i) {
        const std::string arg = argv[i];
        if (args.command.empty() && arg[0] != '-') {
            args.command = arg;
        } else if (arg.rfind("--workload=", 0) == 0) {
            args.workload = arg.substr(11);
        } else if (arg.rfind("--config=", 0) == 0) {
            args.config = arg.substr(9);
        } else if (arg.rfind("--scale=", 0) == 0) {
            args.scale = driver::parseDouble(arg.substr(8), "--scale");
        } else if (arg.rfind("--out=", 0) == 0) {
            args.outDir = arg.substr(6);
        } else if (arg[0] != '-') {
            args.files.push_back(arg);
        } else {
            fatal("unknown flag '%s'", arg.c_str());
        }
    }

    setInformEnabled(false);
    if (args.command == "dump")
        return cmdDump(args);
    if (args.command == "validate")
        return cmdValidate(args);
    if (args.command == "diff")
        return cmdDiff(args);
    if (args.command == "fingerprint")
        return cmdFingerprint(args);
    fatal("usage: distda_plan dump|validate|diff|fingerprint ... "
          "(see file header)");
}
