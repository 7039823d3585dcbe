/**
 * @file
 * Equivalence of the predecoded execution stream and the raw microcode
 * interpreter: every registered workload must produce bit-identical
 * metrics on both paths. The predecode pass only hoists indirections
 * (accessor defs, register slots, channel topology) and batches
 * integer-exact counters per run() slice, so any observable difference
 * is a bug, including in floating-point energy totals.
 */

#include <gtest/gtest.h>

#include "src/driver/context.hh"
#include "src/driver/runner.hh"
#include "src/driver/system.hh"
#include "src/workloads/workload.hh"

namespace
{

using namespace distda;

void
expectSameMetrics(const driver::Metrics &a, const driver::Metrics &b,
                  const std::string &what)
{
    EXPECT_EQ(a.timeNs, b.timeNs) << what;
    EXPECT_EQ(a.hostInsts, b.hostInsts) << what;
    EXPECT_EQ(a.accelInsts, b.accelInsts) << what;
    EXPECT_EQ(a.kernelMemOps, b.kernelMemOps) << what;
    EXPECT_EQ(a.hostMemOps, b.hostMemOps) << what;
    EXPECT_EQ(a.mmioOps, b.mmioOps) << what;
    EXPECT_EQ(a.cacheAccesses, b.cacheAccesses) << what;
    EXPECT_EQ(a.dataMovementBytes, b.dataMovementBytes) << what;
    EXPECT_EQ(a.totalEnergyPj, b.totalEnergyPj) << what;
    // Per component, bit for bit: the predecoded loop keeps the
    // IOCore/Cgra charge in a register and stores it back per slice,
    // which is exact only if it replays the interpreter's adds.
    EXPECT_EQ(a.energyByComponent, b.energyByComponent) << what;
    EXPECT_FALSE(a.energyByComponent.empty()) << what;
    EXPECT_EQ(a.nocCtrlBytes, b.nocCtrlBytes) << what;
    EXPECT_EQ(a.nocDataBytes, b.nocDataBytes) << what;
    EXPECT_EQ(a.nocAccCtrlBytes, b.nocAccCtrlBytes) << what;
    EXPECT_EQ(a.nocAccDataBytes, b.nocAccDataBytes) << what;
    EXPECT_EQ(a.intraBytes, b.intraBytes) << what;
    EXPECT_EQ(a.daBytes, b.daBytes) << what;
    EXPECT_EQ(a.aaBytes, b.aaBytes) << what;
}

driver::Metrics
runWith(bool predecode, const std::string &workload,
        driver::ArchModel model)
{
    driver::RunConfig config;
    config.model = model;
    config.predecode = predecode;
    driver::RunOptions opts;
    opts.scale = 0.25;
    return driver::runWorkload(workload, config, opts);
}

/**
 * Every workload, on both accelerator substrates (in-order microcoded
 * cores and CGRA fabrics, which take different pacing paths through
 * the actor loop).
 */
TEST(Predecode, MatchesInterpreterOnEveryWorkload)
{
    for (const std::string &w : workloads::workloadNames()) {
        for (driver::ArchModel m : {driver::ArchModel::DistDA_IO,
                                    driver::ArchModel::DistDA_F}) {
            const auto slow = runWith(false, w, m);
            const auto fast = runWith(true, w, m);
            expectSameMetrics(
                fast, slow,
                w + " / " + driver::archModelName(m));
        }
    }
}

/**
 * The private-cache (Mono-CA) and forwarding (Mono-DA) port paths:
 * pr plus the nine dense-offload workloads, whose Mono-DA streams
 * forward every operand over the mesh.
 */
TEST(Predecode, MatchesInterpreterOnMonolithicConfigs)
{
    for (const char *w : {"pr", "dis", "tra", "fdt", "cho", "adi", "sei",
                          "pf", "nw", "pca"}) {
        for (driver::ArchModel m :
             {driver::ArchModel::MonoCA, driver::ArchModel::MonoDA_IO,
              driver::ArchModel::MonoDA_F}) {
            const auto slow = runWith(false, w, m);
            const auto fast = runWith(true, w, m);
            expectSameMetrics(fast, slow,
                              std::string(w) + " / " +
                                  driver::archModelName(m));
        }
    }
}

/**
 * Multi-kernel equivalence with warm plan caches: two distinct
 * kernels, each invoked three times in one context, so
 * re-invocations hit the cached CompiledKernel and the cached
 * predecoded streams. Metrics and memory must stay
 * bit-identical between the interpreter and predecode paths.
 */
TEST(Predecode, MatchesInterpreterOnMultiKernelWarmCacheRuns)
{
    const std::uint64_t n = 192;
    auto runOnce = [n](bool predecode, std::vector<double> &out) {
        driver::SystemParams sp;
        driver::System sys(sp);
        auto a = sys.alloc("a", n, 8, false);
        auto b = sys.alloc("b", n, 8, false);
        for (std::uint64_t i = 0; i < n; ++i) {
            a.setI(i, static_cast<std::int64_t>(i) - 40);
            b.setI(i, 3 * static_cast<std::int64_t>(i % 17));
        }

        compiler::KernelBuilder scale("warm_scale");
        int sa = scale.object("a", n, 8, false);
        int sb = scale.object("b", n, 8, false);
        scale.loopStatic(static_cast<std::int64_t>(n));
        scale.store(sb, scale.affine(0, 1),
                    scale.iadd(scale.load(sa, scale.affine(0, 1)),
                               scale.load(sb, scale.affine(0, 1))));
        const compiler::Kernel k1 = scale.build();

        compiler::KernelBuilder reduce("warm_reduce");
        int ra = reduce.object("a", n, 8, false);
        reduce.loopStatic(static_cast<std::int64_t>(n));
        compiler::Word zero;
        zero.i = 0;
        auto acc = reduce.carry(zero, false, "acc");
        reduce.setCarry(
            acc, reduce.iadd(acc, reduce.load(ra, reduce.affine(0, 1))));
        reduce.markResult(acc);
        const compiler::Kernel k2 = reduce.build();

        driver::RunConfig cfg;
        cfg.model = driver::ArchModel::DistDA_IO;
        cfg.predecode = predecode;
        driver::ExecContext ctx(sys, cfg);
        std::int64_t sum = 0;
        for (int rep = 0; rep < 3; ++rep) {
            ctx.invoke(k1, {a, b}, {});
            ctx.invoke(k2, {a}, {});
            sum += ctx.resultI(0);
        }
        const driver::Metrics m = ctx.finish();
        out = {m.timeNs,        m.hostInsts,    m.accelInsts,
               m.kernelMemOps,  m.hostMemOps,   m.mmioOps,
               m.cacheAccesses, m.totalEnergyPj, m.nocCtrlBytes,
               m.nocDataBytes,  m.intraBytes,   m.daBytes,
               static_cast<double>(sum)};
        for (std::uint64_t i = 0; i < n; ++i)
            out.push_back(static_cast<double>(b.getI(i)));
    };

    std::vector<double> interp;
    std::vector<double> pre;
    runOnce(false, interp);
    runOnce(true, pre);
    ASSERT_EQ(interp.size(), pre.size());
    for (std::size_t i = 0; i < interp.size(); ++i)
        EXPECT_EQ(interp[i], pre[i]) << "field " << i;
}

} // namespace
