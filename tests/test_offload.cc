/**
 * @file
 * Unit tests for the Table II interface layer: MMIO accounting, the
 * hardware scheduler's buffer allocation table and Fig 2d combining
 * rule, posted-vs-synchronous intrinsic latency, and the runtime's
 * per-invocation orchestration (allocation once, parameters and run
 * per invocation, done token, result read-back).
 */

#include <gtest/gtest.h>

#include "death_helpers.hh"

#include "src/driver/context.hh"
#include "src/driver/system.hh"
#include "src/offload/interface.hh"
#include "src/offload/lifecycle.hh"
#include "src/offload/runtime.hh"

using namespace distda;
using compiler::KernelBuilder;
using compiler::Word;
using offload::AccelScheduler;
using offload::CoprocessorInterface;

TEST(Scheduler, StreamAllocationPopulatesTable)
{
    AccelScheduler sched;
    const int buf = sched.allocStream(7, 2, 0x1000, 8, 4096, 4096);
    EXPECT_EQ(sched.bufOf(7), buf);
    EXPECT_EQ(sched.table().at(buf).cluster, 2);
    EXPECT_EQ(sched.liveBuffers(), 1u);
}

TEST(Scheduler, CombinesOverlappingStrides)
{
    // Fig 2d case 1: same stride, distance within the buffer window.
    AccelScheduler sched;
    const int b1 = sched.allocStream(0, 1, 0x1000, 8, 65536, 4096);
    const int b2 = sched.allocStream(1, 1, 0x1010, 8, 65536, 4096);
    EXPECT_EQ(b1, b2);
    EXPECT_EQ(sched.liveBuffers(), 1u);
}

TEST(Scheduler, DistributesDistantAccesses)
{
    // Fig 2d case 2: distance exceeds the buffer overflow limit.
    AccelScheduler sched;
    const int b1 = sched.allocStream(0, 1, 0x1000, 8, 65536, 4096);
    const int b2 =
        sched.allocStream(1, 1, 0x1000 + 64 * 1024, 8, 65536, 4096);
    EXPECT_NE(b1, b2);
}

TEST(Scheduler, NoCombiningAcrossClustersOrStrides)
{
    AccelScheduler sched;
    const int b1 = sched.allocStream(0, 1, 0x1000, 8, 65536, 4096);
    const int b2 = sched.allocStream(1, 2, 0x1008, 8, 65536, 4096);
    const int b3 = sched.allocStream(2, 1, 0x1008, 16, 65536, 4096);
    EXPECT_NE(b1, b2);
    EXPECT_NE(b1, b3);
}

TEST(Scheduler, FreeRemovesMappings)
{
    AccelScheduler sched;
    const int buf = sched.allocStream(0, 1, 0x1000, 8, 65536, 4096);
    sched.free(buf);
    EXPECT_EQ(sched.bufOf(0), -1);
    EXPECT_EQ(sched.liveBuffers(), 0u);
    EXPECT_DEATH(sched.free(buf), "unknown");
}

TEST(Scheduler, CombineRuleBoundary)
{
    EXPECT_TRUE(AccelScheduler::shouldCombine(0, 4096));
    EXPECT_TRUE(AccelScheduler::shouldCombine(4096 - 64, 4096));
    EXPECT_FALSE(AccelScheduler::shouldCombine(4096, 4096));
    EXPECT_FALSE(AccelScheduler::shouldCombine(-1, 4096));
}

TEST(Interface, MmioOpsAndEnergyCounted)
{
    energy::Accountant acct;
    mem::Hierarchy hier(mem::HierarchyParams{}, &acct);
    CoprocessorInterface iface(&hier, &acct);
    sim::Tick t = 0;
    t = iface.cpConfig(3, 128, t);
    t = iface.cpSetRf(3, 0, Word{}, t);
    t = iface.cpRun(3, t);
    EXPECT_DOUBLE_EQ(iface.mmioOps(), 3.0);
    EXPECT_DOUBLE_EQ(acct.componentPj(energy::Component::Mmio),
                     3.0 * acct.params().mmioPj);
    EXPECT_DOUBLE_EQ(iface.configBytes(), 128.0);
}

TEST(Interface, PostedWritesAreCheapSyncOpsWait)
{
    energy::Accountant acct;
    mem::Hierarchy hier(mem::HierarchyParams{}, &acct);
    CoprocessorInterface iface(&hier, &acct);
    const sim::Tick posted = iface.cpSetRf(7, 0, Word{}, 0);
    EXPECT_EQ(posted, 500u); // one host issue cycle
    const sim::Tick sync = iface.cpRun(7, 1000000);
    EXPECT_GT(sync - 1000000, 500u); // round trip over the NoC
}

TEST(Interface, ConfigTrafficRidesCtrlClass)
{
    energy::Accountant acct;
    mem::Hierarchy hier(mem::HierarchyParams{}, &acct);
    CoprocessorInterface iface(&hier, &acct);
    iface.cpConfig(5, 256, 0);
    EXPECT_GT(hier.mesh().bytesInClass(noc::TrafficClass::Ctrl),
              256.0);
    EXPECT_DOUBLE_EQ(hier.mesh().bytesInClass(noc::TrafficClass::Data),
                     0.0);
}

namespace
{

compiler::Kernel
makeTinyKernel()
{
    KernelBuilder kb("tiny");
    const int a = kb.object("A", 512, 8, true);
    const int b = kb.object("B", 512, 8, true);
    const int ps = kb.param("s");
    kb.loopStatic(256);
    kb.store(b, kb.affine(0, 1),
             kb.fmul(kb.paramValue(ps), kb.load(a, kb.affine(0, 1))));
    return kb.build();
}

} // namespace

TEST(Runtime, AllocatesOnceParamsEveryInvocation)
{
    setInformEnabled(false);
    driver::SystemParams sp;
    driver::System sys(sp);
    auto arr_a = sys.alloc("A", 512, 8, true);
    auto arr_b = sys.alloc("B", 512, 8, true);
    for (std::uint64_t i = 0; i < 512; ++i)
        arr_a.setF(i, 1.0);

    const auto plan = compiler::compileKernel(makeTinyKernel());
    driver::RunConfig cfg;
    cfg.model = driver::ArchModel::DistDA_IO;
    offload::OffloadRuntime rt(plan, cfg.engineConfig(), &sys.hier(),
                               &sys.backend(), &sys.acct());

    auto r1 = rt.invoke({arr_a, arr_b},
                        {driver::ExecContext::wf(2.0)}, 0);
    const double after_first = rt.mmioOps();
    auto r2 = rt.invoke({arr_a, arr_b}, {driver::ExecContext::wf(3.0)},
                        r1.endTick);
    const double per_invoke = rt.mmioOps() - after_first;
    // The first invocation also pays cp_config / cp_config_stream.
    EXPECT_GT(after_first, per_invoke);
    EXPECT_GT(per_invoke, 0.0);
    EXPECT_GT(r2.endTick, r1.endTick);
    EXPECT_EQ(arr_b.getF(0), 3.0);
}

TEST(Runtime, ResultCarriesReadBack)
{
    setInformEnabled(false);
    KernelBuilder kb("dotk");
    const int a = kb.object("A", 256, 8, true);
    kb.loopStatic(256);
    auto sum = kb.carry(Word{.f = 0.0}, true);
    kb.setCarry(sum, kb.fadd(sum, kb.load(a, kb.affine(0, 1))));
    kb.markResult(sum);
    const auto plan = compiler::compileKernel(kb.build());

    driver::SystemParams sp;
    driver::System sys(sp);
    auto arr = sys.alloc("A", 256, 8, true);
    for (std::uint64_t i = 0; i < 256; ++i)
        arr.setF(i, 0.5);
    driver::RunConfig cfg;
    cfg.model = driver::ArchModel::DistDA_IO;
    offload::OffloadRuntime rt(plan, cfg.engineConfig(), &sys.hier(),
                               &sys.backend(), &sys.acct());
    auto res = rt.invoke({arr}, {}, 0);
    ASSERT_EQ(res.results.size(), 1u);
    EXPECT_DOUBLE_EQ(res.results[0].second.f, 128.0);
}

TEST(Lifecycle, RecordConservationInvariant)
{
    offload::OffloadRecord rec;
    rec.start = 1000;
    rec.end = 1000;
    EXPECT_TRUE(rec.conserved()); // zero-length, zero phases

    rec.end = 1600;
    rec.add(offload::Phase::Enqueue, 100);
    rec.add(offload::Phase::Execute, 400);
    EXPECT_FALSE(rec.conserved()); // 100 ticks unaccounted
    rec.add(offload::Phase::Writeback, 100);
    EXPECT_TRUE(rec.conserved());
    EXPECT_EQ(rec.endToEnd(), 600u);
    EXPECT_EQ(rec.phaseSum(), 600u);
    EXPECT_EQ(rec.ticksIn(offload::Phase::Execute), 400u);

    // end < start is never conserved.
    offload::OffloadRecord bad;
    bad.start = 10;
    bad.end = 5;
    EXPECT_FALSE(bad.conserved());

    // A negative-delta bug wraps the unsigned phase duration to a
    // huge value; the per-phase bound must catch it even when a
    // second wrap makes the *sum* come out right again.
    offload::OffloadRecord wrap;
    wrap.start = 0;
    wrap.end = 100;
    wrap.add(offload::Phase::Enqueue,
             static_cast<sim::Tick>(0) - 50); // -50 wrapped
    wrap.add(offload::Phase::Execute, 150);
    EXPECT_EQ(wrap.phaseSum(), 100u); // sum wrapped back to "correct"
    EXPECT_FALSE(wrap.conserved());
}

TEST(Lifecycle, StatsAggregateRecords)
{
    offload::LifecycleStats ls;
    EXPECT_DOUBLE_EQ(ls.invocations(), 0.0);

    offload::OffloadRecord rec;
    rec.start = 0;
    rec.end = 1000;
    rec.add(offload::Phase::Dispatch, 250);
    rec.add(offload::Phase::Execute, 750);
    ls.add(rec);
    ls.add(rec);

    EXPECT_DOUBLE_EQ(ls.invocations(), 2.0);
    EXPECT_DOUBLE_EQ(ls.phaseTicks(offload::Phase::Dispatch), 500.0);
    EXPECT_DOUBLE_EQ(ls.phaseTicks(offload::Phase::Execute), 1500.0);
    EXPECT_DOUBLE_EQ(ls.phaseTicks(offload::Phase::Enqueue), 0.0);
    EXPECT_DOUBLE_EQ(ls.e2eTicks(), 2000.0);
    EXPECT_DOUBLE_EQ(ls.e2eDist().p50(), 1000.0);
}

TEST(Lifecycle, StatsRejectUnconservedRecord)
{
    offload::LifecycleStats ls;
    offload::OffloadRecord rec;
    rec.start = 0;
    rec.end = 100;
    rec.add(offload::Phase::Execute, 99); // one tick unaccounted
    EXPECT_PANIC(ls.add(rec), "conservation");
}

TEST(Runtime, LifecycleRecordsCoverEveryPhaseAndConserve)
{
    setInformEnabled(false);
    driver::SystemParams sp;
    driver::System sys(sp);
    auto arr_a = sys.alloc("A", 512, 8, true);
    auto arr_b = sys.alloc("B", 512, 8, true);

    const auto plan = compiler::compileKernel(makeTinyKernel());
    driver::RunConfig cfg;
    cfg.model = driver::ArchModel::DistDA_IO;
    offload::OffloadRuntime rt(plan, cfg.engineConfig(), &sys.hier(),
                               &sys.backend(), &sys.acct());

    auto r1 = rt.invoke({arr_a, arr_b},
                        {driver::ExecContext::wf(2.0)}, 0);
    const offload::OffloadRecord &rec1 = r1.record;
    EXPECT_TRUE(rec1.conserved());
    EXPECT_EQ(rec1.start, 0u);
    EXPECT_EQ(rec1.end, r1.endTick);
    // First invocation pays descriptor decode and buffer allocation
    // on top of the per-invocation phases.
    EXPECT_GT(rec1.ticksIn(offload::Phase::Decode), 0u);
    EXPECT_GT(rec1.ticksIn(offload::Phase::BufferAlloc), 0u);
    EXPECT_GT(rec1.ticksIn(offload::Phase::Enqueue), 0u);
    EXPECT_GT(rec1.ticksIn(offload::Phase::Execute), 0u);

    auto r2 = rt.invoke({arr_a, arr_b}, {driver::ExecContext::wf(3.0)},
                        r1.endTick);
    const offload::OffloadRecord &rec2 = r2.record;
    EXPECT_TRUE(rec2.conserved());
    EXPECT_EQ(rec2.start, r1.endTick);
    // Retained allocation: no decode, no buffer allocation.
    EXPECT_EQ(rec2.ticksIn(offload::Phase::Decode), 0u);
    EXPECT_EQ(rec2.ticksIn(offload::Phase::BufferAlloc), 0u);
    EXPECT_GT(rec2.ticksIn(offload::Phase::Execute), 0u);
    EXPECT_LT(rec2.endToEnd(), rec1.endToEnd());
}

TEST(Runtime, LifecycleCompletePhaseCoversResultReadback)
{
    setInformEnabled(false);
    KernelBuilder kb("dotk");
    const int a = kb.object("A", 256, 8, true);
    kb.loopStatic(256);
    auto sum = kb.carry(Word{.f = 0.0}, true);
    kb.setCarry(sum, kb.fadd(sum, kb.load(a, kb.affine(0, 1))));
    kb.markResult(sum);
    const auto plan = compiler::compileKernel(kb.build());

    driver::SystemParams sp;
    driver::System sys(sp);
    auto arr = sys.alloc("A", 256, 8, true);
    for (int i = 0; i < 256; ++i)
        arr.setF(i, 0.5);
    driver::RunConfig cfg;
    cfg.model = driver::ArchModel::DistDA_IO;
    offload::OffloadRuntime rt(plan, cfg.engineConfig(), &sys.hier(),
                               &sys.backend(), &sys.acct());
    auto res = rt.invoke({arr}, {}, 0);
    EXPECT_TRUE(res.record.conserved());
    // The sync phases (Dispatch, Complete) and the done-token wait
    // (Writeback) can legitimately be zero here: a partition placed
    // on the host's own cluster pays no NoC hops. Their nonzero
    // attribution is covered by Interface.SyncIntrinsicsAttribute...
    // below, which targets a far cluster explicitly.
    EXPECT_GT(res.record.endToEnd(), 0u);
}

TEST(Interface, SyncIntrinsicsAttributePhasesAtDistance)
{
    setInformEnabled(false);
    driver::SystemParams sp;
    driver::System sys(sp);
    CoprocessorInterface iface(&sys.hier(), &sys.acct());

    // Pick the cluster farthest from the host so every synchronous
    // MMIO pays NoC hops in both directions.
    const auto &mesh = sys.hier().mesh();
    const int host = mesh.hostNode();
    int far = host;
    for (int n = 0; n < mesh.numNodes(); ++n) {
        if (mesh.hops(host, n) > mesh.hops(host, far))
            far = n;
    }
    ASSERT_GT(mesh.hops(host, far), 0);

    offload::OffloadRecord rec;
    rec.start = 0;
    iface.setRecord(&rec);
    sim::Tick t = 0;
    t = iface.cpRun(far, t);
    EXPECT_GT(rec.ticksIn(offload::Phase::Dispatch), 0u);
    t = iface.cpLoadRf(far, 0, t);
    EXPECT_GT(rec.ticksIn(offload::Phase::Complete), 0u);
    // Posted writes cost one host cycle regardless of distance.
    const sim::Tick before = t;
    t = iface.cpSetRf(far, 0, Word{.f = 1.0}, t);
    EXPECT_EQ(t - before, 500u);
    EXPECT_EQ(rec.ticksIn(offload::Phase::Enqueue), 500u);
    iface.setRecord(nullptr);

    // Every intrinsic delta telescopes over the same timeline.
    rec.end = t;
    EXPECT_TRUE(rec.conserved());
}
