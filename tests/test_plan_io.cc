/**
 * @file
 * Plan artifact and PlanCache tests: exact serialize→parse→serialize
 * round trips across every paper workload and both accelerator
 * families, fingerprint stability and collision sanity, structural
 * validation of corrupted artifacts, file save/load, cache hit/miss
 * accounting, and cached-vs-fresh execution metric equality (the
 * correctness bar for the compile→execute split).
 */

#include <gtest/gtest.h>

#include <cstdio>
#include <set>
#include <string>
#include <thread>
#include <vector>

#include "death_helpers.hh"
#include "src/compiler/plan_cache.hh"
#include "src/compiler/plan_io.hh"
#include "src/driver/context.hh"
#include "src/driver/runner.hh"
#include "src/driver/system.hh"
#include "src/sim/logging.hh"
#include "src/verify/verify.hh"
#include "src/workloads/workload.hh"

using namespace distda;
using compiler::CompileOptions;
using compiler::Kernel;
using compiler::OffloadPlan;
using compiler::PlanCache;
using driver::ArchModel;

namespace
{

/** Every kernel of every paper workload, compiled under @p model. */
std::vector<OffloadPlan>
compileAllKernels(ArchModel model)
{
    std::vector<OffloadPlan> plans;
    for (const std::string &name : workloads::workloadNames()) {
        auto wl = workloads::makeWorkload(name, 0.25);
        driver::SystemParams sp;
        sp.arenaBytes = wl->arenaBytes();
        driver::RunConfig cfg;
        cfg.model = model;
        sp.allocAffinity = cfg.allocAffinity();
        driver::System sys(sp);
        wl->setup(sys);
        for (const Kernel *k : wl->kernels())
            plans.push_back(
                compiler::compileKernel(*k, cfg.compileOptions()));
    }
    return plans;
}

/** One representative compiled plan for corruption/file tests. */
OffloadPlan
samplePlan()
{
    auto wl = workloads::makeWorkload("fdt", 0.25);
    driver::SystemParams sp;
    sp.arenaBytes = wl->arenaBytes();
    driver::RunConfig cfg;
    cfg.model = ArchModel::DistDA_IO;
    sp.allocAffinity = cfg.allocAffinity();
    driver::System sys(sp);
    wl->setup(sys);
    return compiler::compileKernel(*wl->kernels().front(),
                                   cfg.compileOptions());
}

/** Fields that must be identical between cached and fresh runs. */
const std::vector<std::pair<const char *, double driver::Metrics::*>> &
comparableMetricFields()
{
    using M = driver::Metrics;
    static const std::vector<
        std::pair<const char *, double M::*>>
        fields = {
            {"timeNs", &M::timeNs},
            {"hostInsts", &M::hostInsts},
            {"accelInsts", &M::accelInsts},
            {"kernelMemOps", &M::kernelMemOps},
            {"hostMemOps", &M::hostMemOps},
            {"mmioOps", &M::mmioOps},
            {"cacheAccesses", &M::cacheAccesses},
            {"dataMovementBytes", &M::dataMovementBytes},
            {"totalEnergyPj", &M::totalEnergyPj},
            {"nocCtrlBytes", &M::nocCtrlBytes},
            {"nocDataBytes", &M::nocDataBytes},
            {"intraBytes", &M::intraBytes},
            {"daBytes", &M::daBytes},
            {"aaBytes", &M::aaBytes},
        };
    return fields;
}

/** A register index just past @p prog's register file. */
std::uint16_t
pastRegs(const compiler::MicroProgram &prog)
{
    return static_cast<std::uint16_t>(prog.numRegs + 5);
}

/** First memory (@p memory) or non-memory instruction of @p prog. */
compiler::MicroInst &
firstInst(compiler::MicroProgram &prog, bool memory)
{
    using compiler::MicroKind;
    for (compiler::MicroInst &inst : prog.insts) {
        const bool mem = inst.kind == MicroKind::LoadStream ||
                         inst.kind == MicroKind::StoreStream ||
                         inst.kind == MicroKind::LoadIdx ||
                         inst.kind == MicroKind::StoreIdx;
        if (mem == memory)
            return inst;
    }
    return prog.insts.front();
}

} // namespace

TEST(PlanIo, RoundTripIsByteIdenticalAcrossWorkloadsAndModels)
{
    for (ArchModel model :
         {ArchModel::MonoDA_IO, ArchModel::DistDA_IO}) {
        for (const OffloadPlan &plan : compileAllKernels(model)) {
            const std::string text = compiler::serializePlan(plan);
            const OffloadPlan back = compiler::parsePlan(text);
            EXPECT_EQ(compiler::serializePlan(back), text)
                << "kernel " << plan.kernel.name << " under model "
                << driver::archModelName(model);
            EXPECT_EQ(compiler::validatePlanArtifact(back), "");
        }
    }
}

TEST(PlanIo, FingerprintIsStableAndRecordedInThePlan)
{
    const OffloadPlan a = samplePlan();
    const OffloadPlan b = samplePlan();
    ASSERT_EQ(a.fingerprint.size(), 16u);
    EXPECT_EQ(a.fingerprint, b.fingerprint);
    EXPECT_EQ(a.fingerprint,
              compiler::planFingerprint(a.kernel, a.options));
}

TEST(PlanIo, FingerprintSeparatesKernelsAndOptions)
{
    // Distinct (kernel, options) pairs must not collide across the
    // whole suite — the cache key and artifact name depend on it.
    std::set<std::string> fps;
    std::size_t plans = 0;
    for (ArchModel model :
         {ArchModel::MonoDA_IO, ArchModel::DistDA_IO}) {
        for (const OffloadPlan &plan : compileAllKernels(model)) {
            fps.insert(plan.fingerprint);
            ++plans;
        }
    }
    EXPECT_EQ(fps.size(), plans);

    // Every CompileOptions knob participates in the fingerprint.
    const OffloadPlan base = samplePlan();
    CompileOptions opts = base.options;
    opts.channelCapacity += 1;
    EXPECT_NE(compiler::planFingerprint(base.kernel, opts),
              base.fingerprint);
    opts = base.options;
    opts.bufferBytes *= 2;
    EXPECT_NE(compiler::planFingerprint(base.kernel, opts),
              base.fingerprint);
}

TEST(PlanIo, ParseRejectsTruncatedAndMangledArtifacts)
{
    const std::string text = compiler::serializePlan(samplePlan());

    auto parse_fails = [](const std::string &t) {
        try {
            ScopedFailureCapture capture;
            compiler::parsePlan(t);
        } catch (const SimFailure &) {
            return true;
        }
        return false;
    };

    EXPECT_TRUE(parse_fails(""));
    EXPECT_TRUE(parse_fails("not a plan\n"));
    // Drop the trailing "end\n": truncation must not parse.
    EXPECT_TRUE(parse_fails(text.substr(0, text.size() - 4)));
    EXPECT_TRUE(parse_fails(text.substr(0, text.size() / 2)));
    // Unknown trailing token after a complete document.
    EXPECT_TRUE(parse_fails(text + "garbage\n"));
}

TEST(PlanIo, ValidatorFlagsCorruptedFields)
{
    // One corruption per defect class, applied to every distributed
    // plan with a channel: each is written into an artifact, parsed
    // back, and must be rejected by the identity check
    // (validatePlanArtifact) or by the verification every acquired
    // plan gets (verify::verifyPlan).
    struct Corruption
    {
        const char *what;
        void (*apply)(OffloadPlan &plan);
    };
    const std::vector<Corruption> table = {
        {"partition id", [](OffloadPlan &p) { p.partitions[1].id = 7; }},
        {"unknown node",
         [](OffloadPlan &p) {
             p.partitions[0].nodes.push_back(
                 static_cast<int>(p.kernel.nodes.size()) + 10);
         }},
        {"duplicate node",
         [](OffloadPlan &p) {
             p.partitions[1].nodes.push_back(p.partitions[0].nodes[0]);
         }},
        {"in-channel id",
         [](OffloadPlan &p) { p.partitions[1].inChannels.push_back(99); }},
        {"out-channel id",
         [](OffloadPlan &p) { p.partitions[0].outChannels.push_back(99); }},
        {"accessor node",
         [](OffloadPlan &p) { p.partitions[0].accessors[0].node = 9999; }},
        {"accessor object",
         [](OffloadPlan &p) { p.partitions[0].accessors[0].objId = 99; }},
        {"ivReg",
         [](OffloadPlan &p) {
             compiler::MicroProgram &prog = p.partitions[0].program;
             prog.ivReg = pastRegs(prog);
         }},
        {"inst register",
         [](OffloadPlan &p) {
             compiler::MicroProgram &prog = p.partitions[0].program;
             firstInst(prog, false).dst = pastRegs(prog);
         }},
        {"inst slot",
         [](OffloadPlan &p) {
             firstInst(p.partitions[0].program, true).slot = 99;
         }},
        {"param preload",
         [](OffloadPlan &p) {
             p.partitions[0].program.paramRegs.emplace_back(
                 static_cast<int>(p.kernel.paramNames.size()) + 3,
                 static_cast<std::uint16_t>(0));
         }},
        {"const preload",
         [](OffloadPlan &p) {
             compiler::MicroProgram &prog = p.partitions[0].program;
             compiler::MicroProgram::ConstReg cr;
             cr.reg = pastRegs(prog);
             prog.constRegs.push_back(cr);
         }},
        {"carry preload",
         [](OffloadPlan &p) {
             compiler::MicroProgram &prog = p.partitions[0].program;
             compiler::CarrySlot cs;
             cs.reg = pastRegs(prog);
             prog.carries.push_back(cs);
         }},
        {"channel source",
         [](OffloadPlan &p) { p.channels[0].srcPartition = 99; }},
        {"channel destination",
         [](OffloadPlan &p) { p.channels[0].dstPartition = 99; }},
        {"channel srcNode",
         [](OffloadPlan &p) { p.channels[0].srcNode = 99999; }},
        {"channel bits", [](OffloadPlan &p) { p.channels[0].bits = 0; }},
        {"characteristics partitions",
         [](OffloadPlan &p) { p.characteristics.numPartitions += 1; }},
        {"characteristics insts(B)",
         [](OffloadPlan &p) { p.characteristics.maxInstBytes += 8; }},
        {"characteristics max insts",
         [](OffloadPlan &p) {
             p.characteristics.maxInsts += 1;
             p.characteristics.maxInstBytes =
                 p.characteristics.maxInsts * 8;
         }},
        {"fingerprint",
         [](OffloadPlan &p) {
             p.fingerprint[0] = p.fingerprint[0] == '0' ? '1' : '0';
         }},
    };
    int checked = 0;
    for (const OffloadPlan &plan : compileAllKernels(ArchModel::DistDA_IO)) {
        if (plan.partitions.size() < 2 || plan.channels.empty() ||
            plan.partitions[0].accessors.empty() ||
            plan.partitions[0].program.insts.empty())
            continue;
        ++checked;
        for (const Corruption &c : table) {
            OffloadPlan bad = plan;
            c.apply(bad);
            const OffloadPlan back =
                compiler::parsePlan(compiler::serializePlan(bad));
            EXPECT_TRUE(compiler::validatePlanArtifact(back) != "" ||
                        !verify::verifyPlan(back).ok())
                << plan.kernel.name << ": " << c.what;
        }
        // The untouched artifact stays clean.
        const OffloadPlan back =
            compiler::parsePlan(compiler::serializePlan(plan));
        EXPECT_EQ(compiler::validatePlanArtifact(back), "")
            << plan.kernel.name;
        EXPECT_TRUE(verify::verifyPlan(back).ok()) << plan.kernel.name;
    }
    EXPECT_GE(checked, 4);
}

TEST(PlanIo, SaveAndLoadRoundTripThroughAFile)
{
    const OffloadPlan plan = samplePlan();
    const std::string path =
        ::testing::TempDir() + "/" +
        compiler::planArtifactFile(plan.kernel.name, plan.fingerprint);
    // Concurrent writers of one artifact (sweep jobs sharing a
    // --plan-dir) must all succeed and leave a whole file behind.
    std::vector<std::thread> writers;
    for (int t = 0; t < 4; ++t) {
        writers.emplace_back([&plan, &path] {
            for (int i = 0; i < 25; ++i)
                compiler::savePlan(plan, path);
        });
    }
    for (std::thread &w : writers)
        w.join();
    const OffloadPlan back = compiler::loadPlan(path);
    EXPECT_EQ(compiler::serializePlan(back),
              compiler::serializePlan(plan));
    EXPECT_EQ(back.fingerprint, plan.fingerprint);
    std::remove(path.c_str());
}

TEST(PlanIo, ArtifactFileNameSanitizesHostileKernelNames)
{
    EXPECT_EQ(compiler::planArtifactFile("a b/c", "0123456789abcdef"),
              "a_b-c-0123456789abcdef.plan");
}

TEST(PlanCacheTest, HitsAndMissesAreCounted)
{
    PlanCache cache;
    const OffloadPlan sample = samplePlan();

    const PlanCache::Lookup miss =
        cache.getOrCompile(sample.kernel, sample.options);
    ASSERT_NE(miss.plan, nullptr);
    EXPECT_FALSE(miss.hit);
    EXPECT_GE(miss.compileMs, 0.0);

    const PlanCache::Lookup hit =
        cache.getOrCompile(sample.kernel, sample.options);
    ASSERT_NE(hit.plan, nullptr);
    EXPECT_TRUE(hit.hit);
    EXPECT_EQ(hit.plan.get(), miss.plan.get()); // shared instance
    EXPECT_EQ(hit.compileMs, 0.0);

    const PlanCache::Stats st = cache.stats();
    EXPECT_EQ(st.hits, 1u);
    EXPECT_EQ(st.misses, 1u);
    EXPECT_EQ(st.entries, 1u);
    EXPECT_EQ(st.savedMs, miss.compileMs);

    cache.clear();
    EXPECT_EQ(cache.stats().entries, 0u);
    EXPECT_EQ(cache.stats().hits, 0u);
}

TEST(PlanCacheTest, InsertedPlansAreFoundByFingerprint)
{
    PlanCache cache;
    auto plan = std::make_shared<const OffloadPlan>(samplePlan());
    cache.insert(plan);
    // First insert wins: a second copy under the same fingerprint is
    // dropped.
    cache.insert(std::make_shared<const OffloadPlan>(samplePlan()));
    EXPECT_EQ(cache.stats().entries, 1u);

    // A subsequent lookup of the same (kernel, options) is a hit on
    // the inserted instance — no recompilation.
    const PlanCache::Lookup hit =
        cache.getOrCompile(plan->kernel, plan->options);
    EXPECT_TRUE(hit.hit);
    EXPECT_EQ(hit.plan.get(), plan.get());
    EXPECT_EQ(cache.stats().misses, 0u);
}

TEST(PlanCacheTest, CacheHitsAreVerifiedWhenAcquired)
{
    // The fingerprint covers the kernel and options, not the compiled
    // contents: a corrupted plan under a valid fingerprint is found
    // only by verifying the plan a run acquires from the cache.
    auto wl = workloads::makeWorkload("fdt", 0.25);
    driver::SystemParams sp;
    sp.arenaBytes = wl->arenaBytes();
    driver::System sys(sp);
    wl->setup(sys);
    const Kernel &kernel = *wl->kernels().front();
    driver::RunConfig cfg;
    cfg.model = ArchModel::DistDA_IO;

    OffloadPlan bad = compiler::compileKernel(kernel, cfg.compileOptions());
    bad.characteristics.numPartitions += 1;
    PlanCache::process().clear();
    PlanCache::process().insert(
        std::make_shared<const OffloadPlan>(std::move(bad)));
    driver::ExecContext ctx(sys, cfg);
    EXPECT_PANIC((void)ctx.compileOnly(kernel), "static verification");
    PlanCache::process().clear();
}

TEST(PlanCacheTest, CachedAndFreshRunsProduceIdenticalMetrics)
{
    driver::RunOptions opts;
    opts.scale = 0.25;

    driver::RunConfig cfg;
    cfg.model = ArchModel::DistDA_IO;

    PlanCache::process().clear();
    const driver::Metrics warm = driver::runWorkload("sei", cfg, opts);
    const driver::Metrics hit = driver::runWorkload("sei", cfg, opts);
    PlanCache::process().clear();
    const driver::Metrics cold = driver::runWorkload("sei", cfg, opts);

    // The second run hits for every kernel the first compiled; the run
    // after clear() compiles every kernel afresh.
    EXPECT_GT(warm.planCacheMisses, 0.0);
    EXPECT_EQ(warm.planCacheHits, 0.0);
    EXPECT_GT(hit.planCacheHits, 0.0);
    EXPECT_EQ(hit.planCacheMisses, 0.0);
    EXPECT_GT(hit.planCompileMsSaved, 0.0);
    EXPECT_EQ(cold.planCacheHits, 0.0);
    EXPECT_GT(cold.planCacheMisses, 0.0);

    for (const auto &[name, field] : comparableMetricFields()) {
        EXPECT_EQ(warm.*field, hit.*field) << name;
        EXPECT_EQ(warm.*field, cold.*field) << name;
    }
    PlanCache::process().clear();
}

TEST(PlanCacheTest, RoundTrippedPlansRunIdentically)
{
    driver::RunOptions opts;
    opts.scale = 0.25;
    driver::RunConfig direct;
    direct.model = ArchModel::DistDA_IO;
    driver::RunConfig replan = direct;
    replan.planRoundTrip = true;

    PlanCache::process().clear();
    const driver::Metrics a = driver::runWorkload("nw", direct, opts);
    const driver::Metrics b = driver::runWorkload("nw", replan, opts);
    for (const auto &[name, field] : comparableMetricFields())
        EXPECT_EQ(a.*field, b.*field) << name;
    PlanCache::process().clear();
}
