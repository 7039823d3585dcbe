/**
 * @file
 * Plan-analysis tests: the abstract domain's lattice algebra, and one
 * positive plus one negative case per analysis — provable, unprovable
 * and violated bounds; a capacity-deadlock cycle vs a pipelined live
 * plan; the purity classes plus the aliasing escape hatch. The
 * soundness contract itself is fuzzed continuously (src/fuzz/diff.cc);
 * these tests pin the exact verdicts and numbers the fuzzer only checks
 * for consistency.
 */

#include <gtest/gtest.h>

#include <limits>

#include "src/compiler/plan.hh"
#include "src/sim/json.hh"
#include "src/verify/analysis.hh"
#include "src/verify/token_graph.hh"
#include "src/verify/verify.hh"

using namespace distda;
using namespace distda::compiler;
using verify::Interval;
using verify::InvocationProfile;
using verify::PurityClass;
using verify::Verdict;

namespace
{

constexpr std::int64_t intMin = std::numeric_limits<std::int64_t>::min();
constexpr std::int64_t intMax = std::numeric_limits<std::int64_t>::max();

/** C[i] = A[i] + A[i+1] with a static 512-iteration loop. */
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

/** Same shape, but the trip count arrives in parameter 0. */
Kernel
makeParamStreamKernel()
{
    KernelBuilder kb("pstream");
    const int a = kb.object("A", 1024, 8, true);
    const int c = kb.object("C", 1024, 8, true);
    const int n = kb.param("n");
    kb.loopFromParam(n);
    auto x = kb.load(a, kb.affine(0, 1));
    auto y = kb.load(a, kb.affine(1, 1));
    kb.store(c, kb.affine(0, 1), kb.fadd(x, y));
    return kb.build();
}

/** Pure FP reduction: results leave through a carry only. */
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

/**
 * Run the registered pass @p name alone: hand-built plans fail the
 * structural passes by design.
 */
verify::Report
runPass(const char *name, const OffloadPlan &plan)
{
    verify::Report report;
    for (const verify::Pass &pass : verify::passes()) {
        if (std::string(pass.name) == name)
            pass.run(plan, verify::Options{}, report);
    }
    return report;
}

/**
 * Two-channel burst plan: partition 0 produces channel 0 twice and
 * then channel 1 once; partition 1 consumes channel 1 first. With
 * channel 0 at capacity 1 the second produce waits on a consume that
 * waits on channel 1, which is produced only later — a capacity
 * deadlock that depth 2 resolves. Built by hand because the compiler
 * never emits two tokens per iteration on one channel.
 */
OffloadPlan
burstPlan()
{
    OffloadPlan plan;
    plan.kernel.name = "burst";

    ChannelDef ch0;
    ch0.id = 0;
    ch0.srcPartition = 0;
    ch0.dstPartition = 1;
    ch0.bits = 64;
    ChannelDef ch1 = ch0;
    ch1.id = 1;
    plan.channels = {ch0, ch1};

    auto produce = [](int slot) {
        MicroInst m;
        m.kind = MicroKind::Produce;
        m.a = 0;
        m.slot = slot;
        return m;
    };
    auto consume = [](int slot) {
        MicroInst m;
        m.kind = MicroKind::Consume;
        m.dst = 0;
        m.slot = slot;
        return m;
    };

    Partition a;
    a.id = 0;
    a.outChannels = {0, 1};
    a.program.numRegs = 1;
    a.program.insts = {produce(0), produce(0), produce(1)};
    Partition b;
    b.id = 1;
    b.inChannels = {0, 1};
    b.program.numRegs = 1;
    b.program.insts = {consume(1), consume(0), consume(0)};
    plan.partitions = {a, b};
    return plan;
}

} // namespace

// --- The abstract domain. ---

TEST(AnalysisDomain, IntervalLatticeBasics)
{
    const Interval bottom;
    EXPECT_TRUE(bottom.isBottom());
    EXPECT_TRUE(bottom.within(1));       // vacuous
    EXPECT_FALSE(bottom.disjointFrom(1)); // not certainly outside

    const Interval a = Interval::of(2, 5);
    EXPECT_EQ(bottom.join(a), a);
    EXPECT_EQ(a.join(Interval::of(7, 9)), Interval::of(2, 9));
    EXPECT_TRUE(a.within(6));
    EXPECT_FALSE(a.within(5));
    EXPECT_TRUE(a.disjointFrom(2));
    EXPECT_FALSE(a.disjointFrom(3));

    // Widening sends escaping bounds to the infinities.
    const Interval w = a.widen(Interval::of(2, 6));
    EXPECT_EQ(w.lo, 2);
    EXPECT_EQ(w.hi, intMax);
    EXPECT_TRUE(Interval::top().isTop());
}

TEST(AnalysisDomain, SaturatingArithmetic)
{
    const Interval big = Interval::of(intMax - 1, intMax);
    // Finite operands that overflow wrap at run time: only top holds.
    EXPECT_TRUE(big.add(Interval::exact(10)).isTop());
    EXPECT_TRUE(Interval::of(-3, 1LL << 40)
                    .mul(Interval::exact(1LL << 30))
                    .isTop());
    EXPECT_EQ(Interval::of(0, intMax).add(Interval::exact(1)).hi,
              intMax); // an unbounded bound stays unbounded
    EXPECT_EQ(big.mul(Interval::exact(0)), Interval::exact(0));
    EXPECT_EQ(Interval::top().mul(Interval::exact(0)),
              Interval::exact(0)); // zero absorbs infinity
    EXPECT_EQ(Interval::of(-3, 4).absVal(), Interval::of(0, 4));
    EXPECT_TRUE(Interval::of(intMin, 4).absVal().isTop()); // |MIN| wraps
    EXPECT_EQ(Interval::of(1, 2).neg(), Interval::of(-2, -1));
    EXPECT_EQ(Interval::of(intMin, 5).neg().hi, intMax);
}

TEST(AnalysisDomain, ProfileJoinsInvocations)
{
    const Kernel k = makeParamStreamKernel();
    InvocationProfile p;
    p.record(k, {100}, {1024, 1024}, false);
    p.record(k, {50}, {512, 2048}, false);

    EXPECT_EQ(p.invocations, 2);
    EXPECT_EQ(p.trip, Interval::of(50, 100));
    ASSERT_EQ(p.params.size(), 1u);
    EXPECT_EQ(p.params[0], Interval::of(50, 100));
    ASSERT_EQ(p.objectElems.size(), 2u);
    EXPECT_EQ(p.objectElems[0], 512u); // min across invocations
    EXPECT_EQ(p.objectElems[1], 1024u);

    // Exact per-invocation access ranges join across invocations and
    // never exceed the largest trip.
    EXPECT_FALSE(p.accessRanges.empty());
    for (const auto &[node, range] : p.accessRanges) {
        EXPECT_GE(range.lo, 0) << "node " << node;
        EXPECT_LE(range.hi, 100) << "node " << node;
    }

    EXPECT_FALSE(p.aliasedBindings);
    p.record(k, {1}, {8, 8}, true);
    EXPECT_TRUE(p.aliasedBindings);
}

// --- Bounds analysis. ---

TEST(AnalysisBounds, ProvesStaticAffineAccesses)
{
    const auto facts = verify::verifyPlan(compileKernel(makeStreamKernel()));
    ASSERT_EQ(facts.bounds.size(), 3u);
    EXPECT_EQ(facts.boundsCount(Verdict::Proven), 3);
    EXPECT_EQ(facts.errorCount(), 0);
    for (const auto &f : facts.bounds) {
        EXPECT_TRUE(f.affine);
        EXPECT_TRUE(f.rangeKnown);
        EXPECT_GE(f.lo, 0);
        EXPECT_LE(f.hi, 512); // A[i+1] reaches element 512
        EXPECT_EQ(f.objectElems, 1024u);
    }
}

TEST(AnalysisBounds, ParamTripWithoutProfileIsUnknown)
{
    // No profile and no static extent: the induction variable is
    // unbounded above, so nothing is provable — and nothing Violated.
    const auto facts =
        verify::verifyPlan(compileKernel(makeParamStreamKernel()));
    ASSERT_EQ(facts.bounds.size(), 3u);
    EXPECT_EQ(facts.boundsCount(Verdict::Unknown), 3);
    EXPECT_EQ(facts.errorCount(), 0);
}

TEST(AnalysisBounds, ProfileMakesParamTripProvable)
{
    const Kernel k = makeParamStreamKernel();
    InvocationProfile p;
    p.record(k, {512}, {1024, 1024}, false);
    verify::Options vo;
    vo.profile = &p;
    const auto facts = verify::verifyPlan(compileKernel(k), vo);
    EXPECT_EQ(facts.boundsCount(Verdict::Proven), 3);
}

TEST(AnalysisBounds, ProfileProvesViolation)
{
    // 512 iterations against 16-element bindings: the exact profile
    // ranges leave the objects on every invocation, so the verdict is
    // Violated, not merely Unknown.
    const Kernel k = makeParamStreamKernel();
    InvocationProfile p;
    p.record(k, {512}, {16, 16}, false);
    verify::Options vo;
    vo.profile = &p;
    const auto facts = verify::verifyPlan(compileKernel(k), vo);
    EXPECT_EQ(facts.boundsCount(Verdict::Violated), 3);
    // Each Violated fact is one error from the bounds pass.
    EXPECT_EQ(facts.errorCount(), 3);
    EXPECT_TRUE(facts.hasErrorFrom("bounds")) << facts.str();
}

TEST(AnalysisBounds, ClampedIndirectIsProven)
{
    // off = max(min(I[i], 15), 0): the ALU transfer functions bound
    // the memory-derived index, proving the 16-element gather.
    KernelBuilder kb("gather");
    const int d = kb.object("D", 16, 8, false);
    const int ix = kb.object("I", 256, 8, false);
    const int o = kb.object("O", 256, 8, false);
    kb.loopStatic(256);
    auto idx = kb.load(ix, kb.affine(0, 1));
    auto off = kb.imax(kb.imin(idx, kb.constInt(15)), kb.constInt(0));
    kb.store(o, kb.affine(0, 1), kb.loadIdx(d, off));
    const auto facts = verify::verifyPlan(compileKernel(kb.build()));

    bool found = false;
    for (const auto &f : facts.bounds) {
        if (f.affine)
            continue;
        found = true;
        EXPECT_EQ(f.verdict, Verdict::Proven);
        ASSERT_TRUE(f.rangeKnown);
        EXPECT_EQ(f.lo, 0);
        EXPECT_EQ(f.hi, 15);
    }
    EXPECT_TRUE(found) << "no indirect bounds fact produced";
}

TEST(AnalysisBounds, UnclampedIndirectIsUnknown)
{
    // The same gather without the clamp: a memory-derived index is
    // outside the domain, so the sound verdict is Unknown.
    KernelBuilder kb("gather_raw");
    const int d = kb.object("D", 16, 8, false);
    const int ix = kb.object("I", 256, 8, false);
    const int o = kb.object("O", 256, 8, false);
    kb.loopStatic(256);
    auto idx = kb.load(ix, kb.affine(0, 1));
    kb.store(o, kb.affine(0, 1), kb.loadIdx(d, idx));
    const auto facts = verify::verifyPlan(compileKernel(kb.build()));

    bool found = false;
    for (const auto &f : facts.bounds) {
        if (f.affine)
            continue;
        found = true;
        EXPECT_EQ(f.verdict, Verdict::Unknown);
    }
    EXPECT_TRUE(found);
    EXPECT_EQ(facts.errorCount(), 0);
}

TEST(AnalysisBounds, CarryFixpointConverges)
{
    // An index-chase carry (acc = D[clamp(acc)]) forces the channel/
    // carry fixpoint through widening; the clamp still bounds the
    // access afterwards.
    KernelBuilder kb("chase");
    const int d = kb.object("D", 16, 8, false);
    kb.loopStatic(100);
    auto acc = kb.carry(Word{.i = 0}, false);
    auto off = kb.imax(kb.imin(acc, kb.constInt(15)), kb.constInt(0));
    auto v = kb.loadIdx(d, off);
    kb.setCarry(acc, v);
    kb.markResult(acc);
    const auto facts = verify::verifyPlan(compileKernel(kb.build()));

    bool found = false;
    for (const auto &f : facts.bounds) {
        if (f.affine)
            continue;
        found = true;
        EXPECT_EQ(f.verdict, Verdict::Proven);
    }
    EXPECT_TRUE(found);
}

// --- Channel liveness analysis. ---

TEST(AnalysisChannels, PipelinedPlanLiveAtCapacityOne)
{
    // One token per iteration per channel: live at any depth >= 1.
    OffloadPlan plan = compileKernel(makeStreamKernel());
    ASSERT_EQ(plan.channels.size(), 1u);
    plan.options.channelCapacity = 1;
    const auto facts = runPass("channels", plan);
    EXPECT_TRUE(facts.ok()) << facts.str();
    EXPECT_EQ(facts.deadlockFree, Verdict::Proven);
    ASSERT_EQ(facts.channels.size(), 1u);
    EXPECT_EQ(facts.channels[0].tokensPerIter, 1);
    EXPECT_EQ(facts.channels[0].minSafeCapacity, 1);
    EXPECT_EQ(facts.channels[0].configuredCapacity, 1);
}

TEST(AnalysisChannels, BurstPlanNeedsCapacityTwo)
{
    OffloadPlan plan = burstPlan();
    const verify::TokenGraph graph(plan);
    EXPECT_TRUE(graph.balanced());
    EXPECT_FALSE(graph.structuralDeadlock());
    EXPECT_EQ(graph.tokensPerIter(0), 2);
    EXPECT_EQ(graph.minSafeCapacity(0), 2);
    EXPECT_EQ(graph.minSafeCapacity(1), 1);

    plan.options.channelCapacity = 1;
    const auto shallow = runPass("channels", plan);
    EXPECT_EQ(shallow.deadlockFree, Verdict::Violated);
    EXPECT_EQ(shallow.errorCount(), 1);

    plan.options.channelCapacity = 2;
    const auto deep = runPass("channels", plan);
    EXPECT_EQ(deep.deadlockFree, Verdict::Proven);
    EXPECT_TRUE(deep.ok()) << deep.str();
    ASSERT_EQ(deep.channels.size(), 2u);
    EXPECT_EQ(deep.channels[0].minSafeCapacity, 2);
    EXPECT_EQ(deep.channels[1].minSafeCapacity, 1);
}

TEST(AnalysisChannels, VerifyPassReportsCapacityDeadlock)
{
    // One run of the channels pass yields both the Violated liveness
    // fact and the error naming the channel and the depth it needs.
    OffloadPlan plan = burstPlan();
    plan.options.channelCapacity = 1;
    const auto report = runPass("channels", plan);
    EXPECT_EQ(report.deadlockFree, Verdict::Violated);
    EXPECT_TRUE(report.hasErrorFrom("channels"));
    EXPECT_TRUE(report.mentions("capacity deadlock")) << report.str();
    EXPECT_TRUE(report.mentions("capacity >= 2")) << report.str();
}

// --- Purity analysis. ---

TEST(AnalysisPurity, ReductionIsPureAndMemoizable)
{
    const auto facts = verify::verifyPlan(compileKernel(makeReduceKernel()));
    EXPECT_EQ(facts.purity.cls, PurityClass::Pure);
    EXPECT_TRUE(facts.purity.memoizable);
    EXPECT_TRUE(facts.purity.writtenObjects.empty());
    EXPECT_EQ(facts.purity.readObjects.size(), 1u);
}

TEST(AnalysisPurity, StreamIsIdempotent)
{
    const auto facts = verify::verifyPlan(compileKernel(makeStreamKernel()));
    EXPECT_EQ(facts.purity.cls, PurityClass::Idempotent);
    EXPECT_TRUE(facts.purity.memoizable);
}

TEST(AnalysisPurity, ReadWriteObjectIsStateful)
{
    // A[i+1] = A[i] + A[i+1]: the written object is also read.
    KernelBuilder kb("inplace");
    const int a = kb.object("A", 1024, 8, true);
    kb.loopStatic(512);
    auto x = kb.load(a, kb.affine(0, 1));
    auto y = kb.load(a, kb.affine(1, 1));
    kb.store(a, kb.affine(1, 1), kb.fadd(x, y));
    const auto facts = verify::verifyPlan(compileKernel(kb.build()));
    EXPECT_EQ(facts.purity.cls, PurityClass::Stateful);
    EXPECT_FALSE(facts.purity.memoizable);
}

TEST(AnalysisPurity, AliasedProfileBlocksMemoization)
{
    // Structure alone says Idempotent, but an observed invocation with
    // overlapping bindings voids the no-aliasing contract.
    const Kernel k = makeStreamKernel();
    InvocationProfile p;
    p.record(k, {}, {1024, 1024}, true);
    verify::Options vo;
    vo.profile = &p;
    const auto facts = verify::verifyPlan(compileKernel(k), vo);
    EXPECT_EQ(facts.purity.cls, PurityClass::Idempotent);
    EXPECT_FALSE(facts.purity.memoizable);
}

// --- Framework plumbing. ---

TEST(AnalysisFramework, ReportSerializesAndSummarizes)
{
    const auto facts = verify::verifyPlan(compileKernel(makeStreamKernel()));
    sim::JsonWriter w;
    w.beginObject();
    facts.jsonFields(w);
    w.endObject();
    const std::string json = w.str();
    EXPECT_NE(json.find("\"kernel\":\"stream\""), std::string::npos)
        << json;
    EXPECT_NE(json.find("\"errors\":0"), std::string::npos) << json;
    EXPECT_NE(json.find("\"diagnostics\":[]"), std::string::npos)
        << json;
    EXPECT_NE(json.find("\"bounds\""), std::string::npos);
    EXPECT_NE(json.find("\"deadlock_free\":\"proven\""),
              std::string::npos)
        << json;
    EXPECT_NE(json.find("\"memoizable\":true"), std::string::npos);

    const std::string text = facts.factsStr();
    EXPECT_NE(text.find("purity:"), std::string::npos) << text;
    EXPECT_NE(text.find("bounds:"), std::string::npos) << text;
}
