/**
 * @file
 * Unit tests for the compiler: the kernel builder and DFG invariants,
 * dependence classification (§V-A-2's three cases), the multilevel
 * partitioner's invariants, multi-access combining, channel creation,
 * microcode generation rules and the Table V/VI outputs.
 */

#include <gtest/gtest.h>

#include "death_helpers.hh"
#include "src/compiler/classify.hh"
#include "src/compiler/partitioner.hh"
#include "src/compiler/plan.hh"
#include "src/sim/rng.hh"

using namespace distda;
using namespace distda::compiler;

namespace
{

/** A two-object streaming kernel: C[i] = A[i] + A[i+1]. */
Kernel
makeStreamKernel()
{
    KernelBuilder kb("stream");
    const int a = kb.object("A", 1024, 8, true);
    const int c = kb.object("C", 1024, 8, true);
    kb.loopStatic(512);
    auto x = kb.load(a, kb.affine(0, 1));
    auto y = kb.load(a, kb.affine(1, 1));
    kb.store(c, kb.affine(0, 1), kb.fadd(x, y));
    return kb.build();
}

/** Reduction kernel with a carried FP sum. */
Kernel
makeReduceKernel()
{
    KernelBuilder kb("reduce");
    const int a = kb.object("A", 1024, 8, true);
    kb.loopStatic(512);
    auto sum = kb.carry(Word{.f = 0.0}, true);
    auto x = kb.load(a, kb.affine(0, 1));
    kb.setCarry(sum, kb.fadd(sum, x));
    kb.markResult(sum);
    return kb.build();
}

/** Pointer-chase kernel: memory recurrence (§V-A-2 case 2). */
Kernel
makeChaseKernel()
{
    KernelBuilder kb("chase");
    const int next = kb.object("next", 1024, 8, false);
    kb.loopStatic(256);
    auto ptr = kb.carry(Word{0}, false);
    auto v = kb.loadIdx(next, ptr);
    kb.setCarry(ptr, v);
    kb.markResult(ptr);
    return kb.build();
}

/** In-place stencil with an in-row carried store->load dependence. */
Kernel
makeSeidelKernel()
{
    KernelBuilder kb("seidelish");
    const int a = kb.object("A", 4096, 8, true);
    kb.loopStatic(512);
    auto l = kb.load(a, kb.affine(0, 1));
    auto r = kb.load(a, kb.affine(2, 1));
    kb.store(a, kb.affine(1, 1),
             kb.fdiv(kb.fadd(l, r), kb.constFloat(2.0)));
    return kb.build();
}

} // namespace

TEST(Builder, VerifyCatchesMissingLoop)
{
    KernelBuilder kb("bad");
    const int a = kb.object("A", 16, 8, true);
    kb.store(a, kb.affine(0, 1), kb.constFloat(0.0));
    EXPECT_PANIC((void)kb.build(), "extent");
}

TEST(Builder, VerifyCatchesUnsetCarry)
{
    KernelBuilder kb("bad");
    const int a = kb.object("A", 16, 8, true);
    kb.loopStatic(4);
    auto c = kb.carry(Word{0}, false);
    kb.store(a, kb.affine(0, 1), c);
    EXPECT_PANIC((void)kb.build(), "never updated");
}

TEST(Builder, VerifyCatchesBadCarryUpdateAndResult)
{
    // Parsed kernels (plan artifacts, .repro cases) reach verify()
    // with node ids nothing has checked yet.
    KernelBuilder kb("k");
    const int a = kb.object("A", 16, 8, false);
    kb.loopStatic(4);
    auto c = kb.carry(Word{0}, false);
    kb.setCarry(c, kb.iadd(c, kb.load(a, kb.affine(0, 1))));
    kb.markResult(c);
    const Kernel good = kb.build();
    EXPECT_EQ(good.defect(), "");

    Kernel bad_update = good;
    bad_update.node(c.node).carryUpdate = 99;
    EXPECT_NE(bad_update.defect().find("bad update 99"), std::string::npos);

    Kernel bad_result = good;
    bad_result.resultCarries = {99};
    EXPECT_NE(bad_result.defect().find("result 99 is not a carry"),
              std::string::npos);
    bad_result.resultCarries = {good.node(c.node).carryUpdate};
    EXPECT_NE(bad_result.defect().find("is not a carry"),
              std::string::npos);
}

TEST(Builder, TopoOrderRespectsDependencies)
{
    Kernel k = makeStreamKernel();
    const auto order = k.topoOrder();
    std::vector<int> pos(k.nodes.size());
    for (std::size_t i = 0; i < order.size(); ++i)
        pos[static_cast<std::size_t>(order[i])] = static_cast<int>(i);
    for (const Node &n : k.nodes) {
        for (int in : n.valueInputs())
            EXPECT_LT(pos[static_cast<std::size_t>(in)],
                      pos[static_cast<std::size_t>(n.id)]);
    }
}

TEST(Builder, InstCountExcludesPseudoNodes)
{
    Kernel k = makeStreamKernel();
    // 2 loads + 1 add + 1 store.
    EXPECT_EQ(k.instCount(), 4);
}

TEST(Classify, StreamKernelIsParallelizable)
{
    const auto dep = classifyKernel(makeStreamKernel());
    EXPECT_EQ(dep.cls, DfgClass::Parallelizable);
    EXPECT_FALSE(dep.hasCarry);
    EXPECT_EQ(dep.carryChainCycles, 0);
}

TEST(Classify, ReductionIsPipelinable)
{
    const auto dep = classifyKernel(makeReduceKernel());
    EXPECT_EQ(dep.cls, DfgClass::Pipelinable);
    EXPECT_TRUE(dep.hasCarry);
    EXPECT_EQ(dep.carryChainCycles, 3); // one FP add
}

TEST(Classify, PointerChaseIsNonPartitionable)
{
    const auto dep = classifyKernel(makeChaseKernel());
    EXPECT_EQ(dep.cls, DfgClass::NonPartitionable);
    EXPECT_TRUE(dep.hasMemoryRecurrence);
}

TEST(Classify, SeidelCarriedMemDepDetected)
{
    const auto dep = classifyKernel(makeSeidelKernel());
    EXPECT_EQ(dep.cls, DfgClass::Pipelinable);
    EXPECT_TRUE(dep.hasCarriedMemDep);
}

TEST(Classify, CarriedDistanceArithmetic)
{
    AffinePattern store;
    store.constBase = 1;
    store.ivCoeff = 1;
    AffinePattern load;
    load.constBase = 0;
    load.ivCoeff = 1;
    std::int64_t d = 0;
    EXPECT_TRUE(carriedDistance(store, load, d));
    EXPECT_EQ(d, 1);

    // Load ahead of the store: no carried dependence.
    load.constBase = 5;
    EXPECT_FALSE(carriedDistance(store, load, d));

    // Different strides: conservative dependence.
    load.ivCoeff = 2;
    EXPECT_TRUE(carriedDistance(store, load, d));
}

TEST(Partitioner, CutCostZeroForSinglePartition)
{
    PartitionGraph g;
    g.addVertex(1.0, 0);
    g.addVertex(1.0, 1);
    g.addEdge(0, 1, 8.0);
    const auto sol = partitionGraph(g, 1);
    EXPECT_DOUBLE_EQ(sol.cutCost, 0.0);
}

TEST(Partitioner, SweepPrefersOneObjectPerPartition)
{
    PartitionGraph g;
    const int o0 = g.addVertex(1.0, 0);
    const int o1 = g.addVertex(1.0, 1);
    const int c = g.addVertex(1.0);
    g.addEdge(o0, c, 8.0);
    g.addEdge(c, o1, 2.0);
    const auto sol = sweepPartition(g);
    EXPECT_EQ(sol.maxObjectsPerPartition, 1);
    // The compute vertex should side with its heavier edge.
    EXPECT_EQ(sol.assignment[static_cast<std::size_t>(c)],
              sol.assignment[static_cast<std::size_t>(o0)]);
}

TEST(Partitioner, AllVerticesAssigned)
{
    sim::Rng rng(5);
    PartitionGraph g;
    for (int i = 0; i < 40; ++i)
        g.addVertex(1.0, i < 3 ? i : -1);
    for (int i = 3; i < 40; ++i)
        g.addEdge(static_cast<int>(rng.nextBelow(
                      static_cast<std::uint64_t>(i))),
                  i, 1.0 + static_cast<double>(i % 5));
    for (int k = 1; k <= 3; ++k) {
        const auto sol = partitionGraph(g, k);
        ASSERT_EQ(sol.assignment.size(), g.vertices.size());
        for (int p : sol.assignment) {
            EXPECT_GE(p, 0);
            EXPECT_LT(p, k);
        }
    }
}

TEST(Partitioner, CutNeverExceedsTotalEdgeWeight)
{
    sim::Rng rng(6);
    for (int trial = 0; trial < 10; ++trial) {
        PartitionGraph g;
        const int n = 16 + trial * 8;
        for (int i = 0; i < n; ++i)
            g.addVertex(1.0, i < 4 ? i : -1);
        double total = 0.0;
        for (int i = 1; i < n; ++i) {
            const double w = 1.0 + static_cast<double>(rng.nextBelow(9));
            g.addEdge(static_cast<int>(rng.nextBelow(
                          static_cast<std::uint64_t>(i))),
                      i, w);
            total += w;
        }
        const auto sol = sweepPartition(g);
        EXPECT_LE(sol.cutCost, total);
        EXPECT_EQ(sol.maxObjectsPerPartition, 1);
    }
}

TEST(Partitioner, CoarseningHandlesLargeGraphs)
{
    sim::Rng rng(8);
    PartitionGraph g;
    for (int i = 0; i < 400; ++i)
        g.addVertex(1.0, i < 4 ? i : -1);
    for (int i = 1; i < 400; ++i)
        g.addEdge(static_cast<int>(
                      rng.nextBelow(static_cast<std::uint64_t>(i))),
                  i, 1.0);
    const auto sol = partitionGraph(g, 4);
    EXPECT_EQ(sol.assignment.size(), 400u);
    EXPECT_EQ(sol.maxObjectsPerPartition, 1);
}

TEST(Compile, MonoOptionForcesSinglePartition)
{
    CompileOptions opts;
    opts.partition = false;
    const auto plan = compileKernel(makeStreamKernel(), opts);
    EXPECT_EQ(plan.characteristics.numPartitions, 1);
    EXPECT_TRUE(plan.channels.empty());
}

TEST(Compile, DistSplitsTwoObjectKernel)
{
    const auto plan = compileKernel(makeStreamKernel());
    EXPECT_EQ(plan.characteristics.numPartitions, 2);
    ASSERT_EQ(plan.channels.size(), 1u);
    EXPECT_FALSE(plan.channels[0].control);
    // Every node lives in exactly one partition.
    std::vector<int> seen(plan.kernel.nodes.size(), 0);
    for (const auto &part : plan.partitions)
        for (int n : part.nodes)
            ++seen[static_cast<std::size_t>(n)];
    for (int s : seen)
        EXPECT_EQ(s, 1);
}

TEST(Compile, PartitionsHaveAtMostOneObject)
{
    for (const Kernel &k :
         {makeStreamKernel(), makeReduceKernel(), makeSeidelKernel()}) {
        const auto plan = compileKernel(k);
        for (const auto &part : plan.partitions) {
            std::set<int> objs;
            for (const auto &ad : part.accessors)
                objs.insert(ad.objId);
            EXPECT_LE(objs.size(), 1u);
        }
    }
}

TEST(Compile, CombiningMergesNearbyTaps)
{
    const auto plan = compileKernel(makeSeidelKernel());
    // Loads at distance 1/2 and the store combine into one buffer.
    ASSERT_EQ(plan.partitions.size(), 1u);
    const auto &part = plan.partitions[0];
    EXPECT_EQ(part.streamBuffers, 1);
    int followers = 0;
    for (const auto &ad : part.accessors)
        followers += ad.combinedWithSlot >= 0;
    EXPECT_EQ(followers, 2);
}

TEST(Compile, DistantTapsGetOwnBuffers)
{
    KernelBuilder kb("far");
    const int a = kb.object("A", 1 << 20, 8, true);
    const int c = kb.object("C", 1 << 20, 8, true);
    kb.loopStatic(1024);
    auto x = kb.load(a, kb.affine(0, 1));
    auto y = kb.load(a, kb.affine(1 << 16, 1)); // 512KB apart
    kb.store(c, kb.affine(0, 1), kb.fadd(x, y));
    const auto plan = compileKernel(kb.build());
    for (const auto &part : plan.partitions) {
        if (part.objId == 0)
            EXPECT_EQ(part.streamBuffers, 2);
    }
}

TEST(Compile, MicrocodeConsumesBeforeUseAndCarriesLast)
{
    const auto plan = compileKernel(makeReduceKernel());
    for (const auto &part : plan.partitions) {
        bool saw_carry_write = false;
        std::set<std::uint16_t> defined;
        for (const auto &c : part.program.constRegs)
            defined.insert(c.reg);
        for (const auto &[pi, reg] : part.program.paramRegs)
            defined.insert(reg);
        for (const auto &c : part.program.carries)
            defined.insert(c.reg);
        if (part.program.ivReg != noReg)
            defined.insert(part.program.ivReg);
        for (const auto &inst : part.program.insts) {
            if (inst.kind == MicroKind::CarryWrite)
                saw_carry_write = true;
            else
                EXPECT_FALSE(saw_carry_write)
                    << "instruction after CarryWrite";
            for (std::uint16_t r : {inst.a, inst.b, inst.c}) {
                if (r != noReg)
                    EXPECT_TRUE(defined.count(r))
                        << "register used before definition";
            }
            if (inst.dst != noReg)
                defined.insert(inst.dst);
        }
    }
}

TEST(Compile, MicrocodeSizeIsEightBytesPerInst)
{
    const auto plan = compileKernel(makeStreamKernel());
    for (const auto &part : plan.partitions) {
        EXPECT_EQ(part.program.byteSize(),
                  part.program.insts.size() * 8);
    }
    EXPECT_EQ(plan.characteristics.maxInstBytes,
              plan.characteristics.maxInsts * 8);
}

TEST(Compile, PredicateChannelsAreControl)
{
    KernelBuilder kb("pred");
    const int a = kb.object("A", 1024, 8, false);
    const int b = kb.object("B", 1024, 8, false);
    kb.loopStatic(256);
    auto x = kb.load(a, kb.affine(0, 1));
    auto flag = kb.compute(OpCode::ICmpLt, x, kb.constInt(5));
    kb.storeIf(flag, b, kb.affine(0, 1), kb.constInt(1));
    const auto plan = compileKernel(kb.build());
    ASSERT_EQ(plan.channels.size(), 1u);
    EXPECT_TRUE(plan.channels[0].control);
}

TEST(Compile, MechanismsMatchKernelShape)
{
    const auto stream_plan = compileKernel(makeStreamKernel());
    auto has = [](const OffloadPlan &p, Mechanism m) {
        return p.mechanisms[static_cast<std::size_t>(m)];
    };
    EXPECT_TRUE(has(stream_plan, Mechanism::CpConfigStream));
    EXPECT_FALSE(has(stream_plan, Mechanism::CpRead));

    const auto chase_plan = compileKernel(makeChaseKernel());
    EXPECT_TRUE(has(chase_plan, Mechanism::CpRead));
    EXPECT_TRUE(has(chase_plan, Mechanism::CpConfigRandom));
    EXPECT_TRUE(has(chase_plan, Mechanism::CpLoadRf));
}

TEST(Compile, ChaseHasNoStreamBuffers)
{
    // Table VI: pch has #buf = 0 (only the random-access path).
    const auto plan = compileKernel(makeChaseKernel());
    ASSERT_EQ(plan.partitions.size(), 1u);
    EXPECT_EQ(plan.partitions[0].streamBuffers, 0);
}

TEST(Compile, CarryCycleStaysInOnePartition)
{
    // sum accumulates values from a remote object: the carry cycle
    // must not split across partitions.
    KernelBuilder kb("xacc");
    const int a = kb.object("A", 1024, 8, true);
    const int b = kb.object("B", 1024, 8, true);
    kb.loopStatic(256);
    auto x = kb.load(a, kb.affine(0, 1));
    auto y = kb.load(b, kb.affine(0, 1));
    auto sum = kb.carry(Word{.f = 0.0}, true);
    kb.setCarry(sum, kb.fadd(sum, kb.fmul(x, y)));
    kb.markResult(sum);
    const auto plan = compileKernel(kb.build());
    int carry_part = -1, update_part = -1;
    for (const Node &n : plan.kernel.nodes) {
        if (n.kind == NodeKind::Carry) {
            carry_part = plan.partitionIndexOf(n.id);
            update_part = plan.partitionIndexOf(n.carryUpdate);
        }
    }
    EXPECT_EQ(carry_part, update_part);
}

TEST(Compile, NearHostPlacementForSmallIrregular)
{
    KernelBuilder kb("smallrand");
    const int idx = kb.object("idx", 256, 8, false);
    kb.loopStatic(128);
    auto iv = kb.iv();
    auto v = kb.loadIdx(idx, iv);
    auto sum = kb.carry(Word{0}, false);
    kb.setCarry(sum, kb.iadd(sum, v));
    kb.markResult(sum);
    const auto plan = compileKernel(kb.build());
    ASSERT_EQ(plan.partitions.size(), 1u);
    EXPECT_EQ(plan.partitions[0].level, PlacementLevel::NearHost);
}

TEST(Compile, DfgDimensionsArePositive)
{
    for (const Kernel &k : {makeStreamKernel(), makeSeidelKernel()}) {
        const auto plan = compileKernel(k);
        EXPECT_GE(plan.characteristics.dfgLevels, 2);
        EXPECT_GE(plan.characteristics.dfgWidth, 1);
    }
}
