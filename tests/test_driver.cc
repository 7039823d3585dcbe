/**
 * @file
 * Driver-layer tests: the architecture-model-to-configuration mapping
 * of §VI-A, metrics arithmetic, ablation-knob plumbing, the system
 * facade (slab-backed allocation, affinity striping) and the static
 * verification entry points (--verify-only, --analyze, the run
 * report's analysis section).
 */

#include <gtest/gtest.h>

#include <cstdio>
#include <fstream>
#include <iterator>

#include "death_helpers.hh"
#include "src/driver/runner.hh"
#include "src/driver/system.hh"
#include "src/sim/json.hh"

using namespace distda;
using driver::ArchModel;
using driver::RunConfig;

TEST(Config, ModelsMapToPaperConfigurations)
{
    RunConfig ooo;
    ooo.model = ArchModel::OoO;
    EXPECT_FALSE(ooo.usesAccelerator());

    RunConfig ca;
    ca.model = ArchModel::MonoCA;
    auto ca_engine = ca.engineConfig();
    EXPECT_TRUE(ca_engine.centralizedAccess);
    EXPECT_EQ(ca_engine.privateCacheBytes, 8u * 1024u);
    EXPECT_FALSE(ca.compileOptions().partition);
    EXPECT_EQ(ca_engine.accelClockHz, 2'000'000'000ULL);

    RunConfig mono_f;
    mono_f.model = ArchModel::MonoDA_F;
    auto mf = mono_f.engineConfig();
    EXPECT_EQ(mf.kind, engine::ActorKind::Cgra);
    EXPECT_EQ(mf.fabric.rows, 8); // the large Mono-DA-F fabric
    EXPECT_EQ(mf.accelClockHz, 1'000'000'000ULL);
    EXPECT_FALSE(mono_f.compileOptions().partition);
    EXPECT_FALSE(mf.distributedCompute);

    RunConfig dist_io;
    dist_io.model = ArchModel::DistDA_IO;
    auto di = dist_io.engineConfig();
    EXPECT_EQ(di.kind, engine::ActorKind::InOrder);
    EXPECT_EQ(di.accelClockHz, 2'000'000'000ULL);
    EXPECT_TRUE(dist_io.compileOptions().partition);
    EXPECT_TRUE(di.distributedCompute);

    RunConfig sw;
    sw.model = ArchModel::DistDA_IO_SW;
    EXPECT_EQ(sw.engineConfig().issueWidth, 4);
    EXPECT_TRUE(sw.compileOptions().swPrefetch);

    RunConfig fa;
    fa.model = ArchModel::DistDA_F_A;
    EXPECT_TRUE(fa.allocAffinity());
}

TEST(Config, ClockOverrideApplies)
{
    RunConfig cfg;
    cfg.model = ArchModel::DistDA_IO;
    cfg.accelGHz = 3.0;
    EXPECT_EQ(cfg.engineConfig().accelClockHz, 3'000'000'000ULL);
}

TEST(Config, AblationKnobsReachBothLayers)
{
    RunConfig cfg;
    cfg.model = ArchModel::DistDA_F;
    cfg.disableCombining = true;
    cfg.disableRetention = true;
    cfg.bufferBytesOverride = 1024;
    cfg.channelCapacityOverride = 4;
    // Buffer bytes and channel depth reach the engine through the
    // plan's options only.
    const compiler::CompileOptions co = cfg.compileOptions();
    EXPECT_FALSE(co.enableCombining);
    EXPECT_EQ(co.bufferBytes, 1024u);
    EXPECT_EQ(co.channelCapacity, 4);
    EXPECT_FALSE(cfg.engineConfig().retainBuffers);
}

TEST(Config, HeadlineModelListMatchesPaperOrder)
{
    const auto models = driver::headlineModels();
    ASSERT_EQ(models.size(), 6u);
    EXPECT_STREQ(archModelName(models.front()), "OoO");
    EXPECT_STREQ(archModelName(models.back()), "Dist-DA-F");
}

TEST(Metrics, DerivedQuantities)
{
    driver::Metrics m;
    m.timeNs = 1000.0;
    m.hostInsts = 500.0;
    m.accelInsts = 1500.0;
    m.kernelMemOps = 900.0;
    m.hostMemOps = 100.0;
    m.mmioOps = 10.0;
    EXPECT_DOUBLE_EQ(m.totalInsts(), 2000.0);
    EXPECT_DOUBLE_EQ(m.ipc(), 1.0); // 2000 insts / 2000 cycles @2GHz
    EXPECT_DOUBLE_EQ(m.codeCoverage(), 75.0);
    EXPECT_DOUBLE_EQ(m.dataCoverage(), 90.0);
    EXPECT_DOUBLE_EQ(m.initOverhead(), 1.0);

    driver::Metrics base;
    base.timeNs = 2000.0;
    base.totalEnergyPj = 400.0;
    m.totalEnergyPj = 100.0;
    EXPECT_DOUBLE_EQ(m.speedupVs(base), 2.0);
    EXPECT_DOUBLE_EQ(m.energyEfficiencyVs(base), 4.0);
}

TEST(Runner, GeomeanBasics)
{
    EXPECT_DOUBLE_EQ(driver::geomean({4.0, 1.0}), 2.0);
    EXPECT_DOUBLE_EQ(driver::geomean({3.0}), 3.0);
    EXPECT_DOUBLE_EQ(driver::geomean({}), 0.0);
}

TEST(System, AllocationsAreDisjointAndTracked)
{
    driver::System sys{driver::SystemParams{}};
    auto a = sys.alloc("a", 1024, 8, true);
    auto b = sys.alloc("b", 1024, 4, false);
    EXPECT_GE(b.base, a.base + a.sizeBytes());
    EXPECT_EQ(sys.objects().size(), 2u);
    EXPECT_EQ(sys.slab().liveAllocations(), 2u);
    // The backend serves both.
    a.setF(0, 1.5);
    b.setI(0, -3);
    EXPECT_DOUBLE_EQ(a.getF(0), 1.5);
    EXPECT_EQ(b.getI(0), -3);
}

TEST(System, AffinityStripesAcrossClusters)
{
    driver::SystemParams sp;
    sp.allocAffinity = true;
    driver::System sys(sp);
    auto big = sys.alloc("big", 1 << 16, 8, true); // 512KB
    std::set<int> clusters;
    for (std::uint64_t off = 0; off < big.sizeBytes();
         off += 32 * 1024)
        clusters.insert(sys.hier().l3().clusterOf(big.base + off));
    // 32KB striping: a 512KB object touches many clusters, never one.
    EXPECT_GE(clusters.size(), 4u);
}

TEST(Runner, InvalidWorkloadIsFatal)
{
    RunConfig cfg;
    EXPECT_DEATH((void)driver::runWorkload("bogus", cfg), "unknown");
}

TEST(Config, ParseIntAcceptsExactIntegers)
{
    EXPECT_EQ(driver::parseInt("0", "--n"), 0);
    EXPECT_EQ(driver::parseInt("42", "--n"), 42);
    EXPECT_EQ(driver::parseInt("-7", "--n"), -7);
    EXPECT_EQ(driver::parseInt("9223372036854775807", "--n"),
              9223372036854775807LL);
}

TEST(Config, ParseIntRejectsGarbageInsteadOfDefaultingToZero)
{
    // atoi-style parsing silently turned typos into 0; every one of
    // these must be a hard error.
    EXPECT_PANIC((void)driver::parseInt("", "--jobs"), "empty value");
    EXPECT_PANIC((void)driver::parseInt("four", "--jobs"),
                 "not an integer");
    EXPECT_PANIC((void)driver::parseInt("4x", "--jobs"),
                 "not an integer");
    EXPECT_PANIC((void)driver::parseInt("4.5", "--jobs"),
                 "not an integer");
    EXPECT_PANIC((void)driver::parseInt("99999999999999999999",
                                        "--jobs"),
                 "out of range");
}

TEST(Config, ParseDoubleAcceptsNumbers)
{
    EXPECT_DOUBLE_EQ(driver::parseDouble("0.25", "--scale"), 0.25);
    EXPECT_DOUBLE_EQ(driver::parseDouble("-3", "--scale"), -3.0);
    EXPECT_DOUBLE_EQ(driver::parseDouble("1e3", "--scale"), 1000.0);
}

TEST(Config, ParseDoubleRejectsGarbageInsteadOfDefaultingToZero)
{
    EXPECT_PANIC((void)driver::parseDouble("", "--scale"),
                 "empty value");
    EXPECT_PANIC((void)driver::parseDouble("fast", "--scale"),
                 "not a number");
    EXPECT_PANIC((void)driver::parseDouble("1.5x", "--scale"),
                 "not a number");
}

TEST(Config, ParseBreakdownModeAcceptsKnownModes)
{
    EXPECT_EQ(driver::parseBreakdownMode("", "--breakdown"),
              driver::BreakdownMode::Text);
    EXPECT_EQ(driver::parseBreakdownMode("text", "--breakdown"),
              driver::BreakdownMode::Text);
    EXPECT_EQ(driver::parseBreakdownMode("json", "--breakdown"),
              driver::BreakdownMode::Json);
    EXPECT_EQ(driver::parseBreakdownMode("off", "--breakdown"),
              driver::BreakdownMode::Off);
}

TEST(Config, ParseBreakdownModeRejectsGarbage)
{
    EXPECT_PANIC(
        (void)driver::parseBreakdownMode("yaml", "--breakdown"),
        "not a breakdown mode");
    EXPECT_PANIC(
        (void)driver::parseBreakdownMode("Text", "--breakdown"),
        "not a breakdown mode");
}

TEST(Runner, VerifyWorkloadIsCleanUnderTheFabric)
{
    RunConfig cfg;
    cfg.model = ArchModel::DistDA_F;
    const verify::Options vo = cfg.verifyOptions();
    ASSERT_TRUE(vo.fabric.has_value()); // the cgra pass runs
    EXPECT_EQ(vo.fabric->tiles(), cfg.engineConfig().fabric.tiles());

    driver::RunOptions opts;
    opts.scale = 0.25;
    std::vector<driver::KernelVerifyResult> results;
    EXPECT_EQ(driver::verifyWorkload("fdt", cfg, opts, &results), 0);
    ASSERT_FALSE(results.empty());
    for (const driver::KernelVerifyResult &r : results) {
        EXPECT_EQ(r.config, "Dist-DA-F");
        EXPECT_TRUE(r.report.empty()) << r.report.str();
    }
}

TEST(Runner, AnalyzeWorkloadProvesLiveness)
{
    RunConfig cfg;
    cfg.model = ArchModel::DistDA_IO;
    driver::RunOptions opts;
    opts.scale = 0.25;
    sim::JsonWriter w;
    w.beginArray();
    EXPECT_EQ(driver::analyzeWorkload("nw", cfg, opts, &w), 0);
    w.endArray();
    const std::string json = w.str();
    EXPECT_NE(json.find("\"deadlock_free\":\"proven\""), std::string::npos)
        << json;
    EXPECT_EQ(json.find("\"deadlock_free\":\"unknown\""), std::string::npos);
    EXPECT_EQ(json.find("\"deadlock_free\":\"violated\""),
              std::string::npos);
}

TEST(Runner, StatsJsonWithProbeCarriesAnalysis)
{
    RunConfig cfg;
    cfg.model = ArchModel::DistDA_IO;
    driver::RunOptions opts;
    opts.scale = 0.25;
    opts.obs.statsJsonPath = ::testing::TempDir() + "/nw.stats.json";
    const driver::Metrics m = driver::runWorkload("nw", cfg, opts);
    EXPECT_TRUE(m.validated);

    std::ifstream in(opts.obs.statsJsonPath);
    const std::string report((std::istreambuf_iterator<char>(in)),
                             std::istreambuf_iterator<char>());
    std::remove(opts.obs.statsJsonPath.c_str());
    EXPECT_NE(report.find("\"analysis\":["), std::string::npos);
    EXPECT_NE(report.find("\"diagnostics\":[]"), std::string::npos);
    EXPECT_NE(report.find("\"deadlock_free\":\"proven\""),
              std::string::npos);
}
