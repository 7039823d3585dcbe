/**
 * @file
 * Workload-level tests: every Table IV benchmark builds well-formed
 * kernels, its compiled plans satisfy the partitioning invariants
 * (every node placed once, at most one memory object per partition,
 * channels consistent), runs are deterministic, and the classification
 * of known kernels matches the paper's taxonomy.
 */

#include <gtest/gtest.h>

#include "src/compiler/classify.hh"
#include "src/driver/runner.hh"
#include "src/workloads/workload.hh"

using namespace distda;

namespace
{

class EveryWorkload : public testing::TestWithParam<std::string>
{
};

std::string
name(const testing::TestParamInfo<std::string> &info)
{
    return info.param;
}

} // namespace

TEST_P(EveryWorkload, PlansSatisfyInvariants)
{
    setInformEnabled(false);
    auto wl = workloads::makeWorkload(GetParam(), 0.25);
    driver::SystemParams sp;
    sp.arenaBytes = wl->arenaBytes();
    driver::System sys(sp);
    wl->setup(sys);

    ASSERT_FALSE(wl->kernels().empty());
    for (const compiler::Kernel *k : wl->kernels()) {
        k->verify();
        const auto plan = compiler::compileKernel(*k);

        // Every node lives in exactly one partition.
        std::vector<int> seen(k->nodes.size(), 0);
        for (const auto &part : plan.partitions)
            for (int n : part.nodes)
                ++seen[static_cast<std::size_t>(n)];
        for (int s : seen)
            EXPECT_EQ(s, 1);

        // At most one memory object per partition (§IV-A).
        for (const auto &part : plan.partitions) {
            std::set<int> objs;
            for (const auto &ad : part.accessors)
                objs.insert(ad.objId);
            EXPECT_LE(objs.size(), 1u) << k->name;
        }

        // Channel endpoints reference real partitions and the
        // in/out lists agree with the channel table.
        for (const auto &ch : plan.channels) {
            ASSERT_GE(ch.srcPartition, 0);
            ASSERT_LT(ch.srcPartition,
                      static_cast<int>(plan.partitions.size()));
            const auto &src = plan.partitions[static_cast<std::size_t>(
                ch.srcPartition)];
            EXPECT_NE(std::find(src.outChannels.begin(),
                                src.outChannels.end(), ch.id),
                      src.outChannels.end());
            if (ch.dstPartition >= 0) {
                const auto &dst =
                    plan.partitions[static_cast<std::size_t>(
                        ch.dstPartition)];
                EXPECT_NE(std::find(dst.inChannels.begin(),
                                    dst.inChannels.end(), ch.id),
                          dst.inChannels.end());
            }
        }

        // Table VI invariants.
        EXPECT_GE(plan.characteristics.maxInsts, 1);
        EXPECT_EQ(plan.characteristics.maxInstBytes,
                  plan.characteristics.maxInsts * 8);
        EXPECT_GE(plan.characteristics.avgBuffers, 0.0);
    }
}

TEST_P(EveryWorkload, MetricsAreDeterministic)
{
    setInformEnabled(false);
    driver::RunConfig cfg;
    cfg.model = driver::ArchModel::DistDA_IO;
    driver::RunOptions opts;
    opts.scale = 0.25;
    const auto a = driver::runWorkload(GetParam(), cfg, opts);
    const auto b = driver::runWorkload(GetParam(), cfg, opts);
    EXPECT_TRUE(a.validated);
    EXPECT_DOUBLE_EQ(a.timeNs, b.timeNs);
    EXPECT_DOUBLE_EQ(a.totalEnergyPj, b.totalEnergyPj);
    EXPECT_DOUBLE_EQ(a.cacheAccesses, b.cacheAccesses);
    EXPECT_DOUBLE_EQ(a.nocTotalBytes(), b.nocTotalBytes());
}

TEST_P(EveryWorkload, AccelConfigCutsCacheAccesses)
{
    setInformEnabled(false);
    driver::RunOptions opts;
    opts.scale = 0.25;
    driver::RunConfig ooo;
    ooo.model = driver::ArchModel::OoO;
    driver::RunConfig dist;
    dist.model = driver::ArchModel::DistDA_F;
    const auto base = driver::runWorkload(GetParam(), ooo, opts);
    const auto acc = driver::runWorkload(GetParam(), dist, opts);
    // The Fig 8 effect: decentralized accesses reduce cache accesses.
    // Column-stride workloads (adi, pca, cho) make one bank access per
    // element where the OoO buffers a line in L1, so they may exceed
    // the baseline slightly at this small scale; everything else must
    // not regress.
    EXPECT_LE(acc.cacheAccesses, base.cacheAccesses * 1.30)
        << GetParam();
}

INSTANTIATE_TEST_SUITE_P(TableIV, EveryWorkload,
                         testing::ValuesIn(workloads::workloadNames()),
                         name);

TEST(WorkloadTaxonomy, MatchesPaperClassification)
{
    setInformEnabled(false);
    // Pointer chase is the canonical non-partitionable case-2 kernel;
    // seidel/nw/adi carry dependences (case 3); streaming kernels in
    // disparity are case-1 parallelizable.
    auto classify_first = [](const std::string &w) {
        auto wl = workloads::makeWorkload(w, 0.25);
        driver::SystemParams sp;
        sp.arenaBytes = wl->arenaBytes();
        driver::System sys(sp);
        wl->setup(sys);
        return compiler::classifyKernel(*wl->kernels().front()).cls;
    };
    EXPECT_EQ(classify_first("pch"),
              compiler::DfgClass::NonPartitionable);
    EXPECT_EQ(classify_first("sei"), compiler::DfgClass::Pipelinable);
    EXPECT_EQ(classify_first("nw"), compiler::DfgClass::Pipelinable);
    EXPECT_EQ(classify_first("adi"), compiler::DfgClass::Pipelinable);
    EXPECT_EQ(classify_first("dis"),
              compiler::DfgClass::Parallelizable);
    EXPECT_EQ(classify_first("tra"),
              compiler::DfgClass::Parallelizable);
}

TEST(WorkloadRegistry, TwelveBenchmarksPlusSpmv)
{
    const auto names = workloads::workloadNames();
    EXPECT_EQ(names.size(), 12u);
    EXPECT_NE(workloads::makeWorkload("spmv", 0.25), nullptr);
    EXPECT_DEATH((void)workloads::makeWorkload("nope", 1.0), "unknown");
}

TEST(WorkloadScaling, ScaleChangesProblemSize)
{
    setInformEnabled(false);
    driver::RunConfig cfg;
    cfg.model = driver::ArchModel::OoO;
    driver::RunOptions small, big;
    small.scale = 0.25;
    big.scale = 0.5;
    const auto a = driver::runWorkload("sei", cfg, small);
    const auto b = driver::runWorkload("sei", cfg, big);
    EXPECT_GT(b.kernelMemOps, a.kernelMemOps * 2.0);
}

TEST(Workloads, PointerChaseIsOneCycle)
{
    // pch validates against the closed form "n steps from node 0 end
    // at node 0", which holds only if Sattolo's shuffle built a single
    // n-cycle. Walk it at quick scale and at the 1024-node minimum.
    setInformEnabled(false);
    for (const auto &[scale, n] :
         {std::pair{0.25, std::uint64_t{1} << 18},
          std::pair{1e-6, std::uint64_t{1024}}}) {
        auto wl = workloads::makeWorkload("pch", scale);
        driver::SystemParams sp;
        sp.arenaBytes = wl->arenaBytes();
        driver::System sys(sp);
        wl->setup(sys);
        ASSERT_EQ(wl->kernels().at(0)->objects.at(0).elemCount, n);

        std::vector<bool> seen(n, false);
        std::uint64_t node = 0;
        for (std::uint64_t step = 0; step < n; ++step) {
            ASSERT_LT(node, n);
            ASSERT_FALSE(seen[node]) << "node " << node << " revisited";
            seen[node] = true;
            node = static_cast<std::uint64_t>(
                sys.backend()
                    .load(sys.objects().addrOf(0, node), 8, false)
                    .i);
        }
        EXPECT_EQ(node, 0u) << "scale " << scale;
    }
}
