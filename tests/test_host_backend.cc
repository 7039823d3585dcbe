/**
 * @file
 * Tests for the functional memory backend (typed element storage the
 * whole suite's validation rests on) and the analytical OoO host
 * executor (issue bounds, memory-port bounds, recurrence floors,
 * pointer-chase serialization), and the predecoded executor against a
 * copy of the interpreter it replaced.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <cstring>
#include <memory>

#include "src/compiler/classify.hh"
#include "src/compiler/dfg.hh"
#include "src/compiler/eval.hh"
#include "src/driver/system.hh"
#include "src/engine/backend.hh"
#include "src/engine/host_exec.hh"
#include "src/fuzz/gen.hh"
#include "src/sim/json.hh"
#include "src/sim/logging.hh"

using namespace distda;
using compiler::KernelBuilder;
using compiler::Word;
using engine::HostExecutor;
using engine::MemBackend;

TEST(Backend, RoundTripsEveryElementWidth)
{
    MemBackend mem(0x1000, 4096);
    // 8/4/2/1-byte integers, sign extension included.
    for (std::uint32_t bytes : {1u, 2u, 4u, 8u}) {
        Word w;
        w.i = -5;
        mem.store(0x1000, w, bytes, false);
        EXPECT_EQ(mem.load(0x1000, bytes, false).i, -5)
            << bytes << " bytes";
        w.i = 100;
        mem.store(0x1000, w, bytes, false);
        EXPECT_EQ(mem.load(0x1000, bytes, false).i, 100);
    }
    // 4-byte float narrows; 8-byte double is exact.
    Word f;
    f.f = 1.0 / 3.0;
    mem.store(0x1100, f, 8, true);
    EXPECT_EQ(mem.load(0x1100, 8, true).f, 1.0 / 3.0);
    mem.store(0x1108, f, 4, true);
    EXPECT_EQ(mem.load(0x1108, 4, true).f,
              static_cast<double>(static_cast<float>(1.0 / 3.0)));
}

TEST(Backend, NarrowIntegersTruncate)
{
    MemBackend mem(0, 64);
    Word w;
    w.i = 0x1FF;
    mem.store(0, w, 1, false);
    EXPECT_EQ(mem.load(0, 1, false).i, -1); // 0xFF sign-extended
}

TEST(Backend, OutOfArenaPanics)
{
    MemBackend mem(0x1000, 64);
    Word w{};
    EXPECT_DEATH(mem.store(0x0800, w, 8, false), "outside");
    EXPECT_DEATH((void)mem.load(0x1000 + 60, 8, false), "outside");
}

TEST(ArrayRef, TypedViews)
{
    MemBackend mem(0x2000, 4096);
    engine::ArrayRef arr;
    arr.base = 0x2000;
    arr.count = 16;
    arr.elemBytes = 4;
    arr.isFloat = false;
    arr.mem = &mem;
    arr.setI(3, -17);
    EXPECT_EQ(arr.getI(3), -17);
    EXPECT_EQ(arr.addrOf(3), 0x2000u + 12);
    EXPECT_EQ(arr.sizeBytes(), 64u);
}

namespace
{

/** Streaming kernel: out[i] = a[i] + b[i]. */
compiler::Kernel
streamKernel(std::int64_t trip)
{
    KernelBuilder kb("hx_stream");
    const int a = kb.object("A", 4096, 8, true);
    const int b = kb.object("B", 4096, 8, true);
    const int c = kb.object("C", 4096, 8, true);
    kb.loopStatic(trip);
    kb.store(c, kb.affine(0, 1),
             kb.fadd(kb.load(a, kb.affine(0, 1)),
                     kb.load(b, kb.affine(0, 1))));
    return kb.build();
}

/** FP reduction kernel with a 2-op carried chain. */
compiler::Kernel
reduceKernel(std::int64_t trip)
{
    KernelBuilder kb("hx_reduce");
    const int a = kb.object("A", 4096, 8, true);
    kb.loopStatic(trip);
    auto s = kb.carry(Word{.f = 0.0}, true);
    kb.setCarry(
        s, kb.fadd(s, kb.fmul(kb.load(a, kb.affine(0, 1)),
                              kb.constFloat(2.0))));
    kb.markResult(s);
    return kb.build();
}

struct HostRun
{
    double nsPerIter;
    engine::HostRunResult res;
};

HostRun
runOnHost(const compiler::Kernel &kernel, std::int64_t trip)
{
    driver::SystemParams sp;
    driver::System sys(sp);
    std::vector<engine::ArrayRef> arrays;
    for (const auto &obj : kernel.objects) {
        auto arr = sys.alloc(obj.name, obj.elemCount, obj.elemBytes,
                             obj.isFloat);
        for (std::uint64_t i = 0; i < arr.count; ++i)
            arr.setF(i, 1.0);
        arrays.push_back(arr);
    }
    HostExecutor exec(kernel, &sys.hier(), &sys.backend(),
                      &sys.acct());
    HostRun r;
    r.res = exec.run(arrays, {}, 0);
    r.nsPerIter = static_cast<double>(r.res.endTick) / 1000.0 /
                  static_cast<double>(trip);
    return r;
}

} // namespace

TEST(HostExec, IssueWidthBoundsThroughput)
{
    const auto run = runOnHost(streamKernel(2048), 2048);
    // 3 accesses + 1 add + 4 overhead = 8 ops at sustained IPC 1.2
    // (~6.7 cycles = 3.3ns), plus memory-port and stall terms.
    EXPECT_GT(run.nsPerIter, 3.0);
    EXPECT_LT(run.nsPerIter, 8.0);
    EXPECT_DOUBLE_EQ(run.res.memOps, 3.0 * 2048);
}

TEST(HostExec, RecurrenceFloorsIterationTime)
{
    // fadd+fmul carried chain: >= 6 cycles = 3ns per iteration even
    // though the op count alone would allow less.
    const auto run = runOnHost(reduceKernel(2048), 2048);
    EXPECT_GE(run.nsPerIter, 2.9);
    ASSERT_EQ(run.res.results.size(), 1u);
    EXPECT_DOUBLE_EQ(run.res.results[0].second.f, 2.0 * 2048);
}

TEST(HostExec, PointerChaseSerializesOnMemory)
{
    KernelBuilder kb("hx_chase");
    const std::uint64_t n = 1 << 16; // 512KB, far beyond L1/L2
    const int next = kb.object("next", n, 8, false);
    kb.loopStatic(512);
    auto p = kb.carry(Word{0}, false);
    kb.setCarry(p, kb.loadIdx(next, p));
    kb.markResult(p);
    const auto kernel = kb.build();

    driver::SystemParams sp;
    driver::System sys(sp);
    auto arr = sys.alloc("next", n, 8, false);
    // A full-cycle permutation with large jumps: every hop leaves the
    // private caches.
    for (std::uint64_t i = 0; i < n; ++i)
        arr.setI(i, static_cast<std::int64_t>((i + 8191) % n));
    HostExecutor exec(kernel, &sys.hier(), &sys.backend(),
                      &sys.acct());
    const auto res = exec.run({arr}, {}, 0);
    // Every iteration pays a full dependent memory latency: far above
    // the issue bound of ~5 cycles.
    EXPECT_GT(static_cast<double>(res.endTick) / 512.0, 5000.0);
}

TEST(HostExec, ChargesOooEnergyPerInstruction)
{
    driver::SystemParams sp;
    driver::System sys(sp);
    auto arr = sys.alloc("A", 4096, 8, true);
    const auto kernel = reduceKernel(256);
    HostExecutor exec(kernel, &sys.hier(), &sys.backend(),
                      &sys.acct());
    exec.run({arr}, {}, 0);
    EXPECT_GT(sys.acct().componentPj(energy::Component::OoOCore), 0.0);
    EXPECT_DOUBLE_EQ(sys.acct().componentPj(energy::Component::IOCore),
                     0.0);
}

TEST(HostExec, ParamExtentControlsTrip)
{
    KernelBuilder kb("hx_param");
    const int a = kb.object("A", 4096, 8, true);
    const int pt = kb.param("trip");
    kb.loopFromParam(pt);
    auto s = kb.carry(Word{.f = 0.0}, true);
    kb.setCarry(s, kb.fadd(s, kb.load(a, kb.affine(0, 1))));
    kb.markResult(s);
    const auto kernel = kb.build();

    driver::SystemParams sp;
    driver::System sys(sp);
    auto arr = sys.alloc("A", 4096, 8, true);
    for (std::uint64_t i = 0; i < arr.count; ++i)
        arr.setF(i, 1.0);
    HostExecutor exec(kernel, &sys.hier(), &sys.backend(),
                      &sys.acct());
    Word t;
    t.i = 77;
    const auto res = exec.run({arr}, {t}, 0);
    EXPECT_DOUBLE_EQ(res.results[0].second.f, 77.0);
}

namespace
{

using compiler::AccessDir;
using compiler::Node;
using compiler::NodeKind;
using compiler::PatternKind;

/**
 * The host executor as it was before predecoding: it walks the kernel's
 * nodes in topological order on every iteration. Kept verbatim, apart
 * from being a free function, as the timing oracle for the predecoded
 * loop.
 */
engine::HostRunResult
referenceRun(const compiler::Kernel &kernel, mem::Hierarchy *hier,
             MemBackend *backend, energy::Accountant *acct,
             const std::vector<engine::ArrayRef> &bindings,
             const std::vector<Word> &params, sim::Tick start_tick)
{
    const engine::HostParams hp;
    const compiler::DependenceInfo dep = compiler::classifyKernel(kernel);
    const std::vector<int> topo = kernel.topoOrder();
    DISTDA_ASSERT(bindings.size() == kernel.objects.size(),
                  "host run: binding count mismatch");
    const sim::ClockDomain clock(hp.clockHz);
    const sim::Tick cycle = clock.period();

    std::int64_t trip = kernel.loop.staticExtent;
    if (kernel.loop.extentParam >= 0)
        trip = params[static_cast<std::size_t>(kernel.loop.extentParam)]
                   .i;

    int ops = hp.loopOverheadOps;
    for (const Node &n : kernel.nodes) {
        if (n.kind == NodeKind::Compute || n.kind == NodeKind::Access)
            ++ops;
    }
    int mem_ops_static = 0;
    for (const Node &n : kernel.nodes) {
        if (n.kind == NodeKind::Access)
            ++mem_ops_static;
    }
    const double issue_cycles = std::max(
        {static_cast<double>(ops) /
             std::min<double>(hp.issueWidth, hp.sustainedIpc),
         static_cast<double>(mem_ops_static) / hp.memPortsPerCycle,
         static_cast<double>(dep.carryChainCycles)});
    const auto compute_ticks = static_cast<sim::Tick>(
        issue_cycles * static_cast<double>(cycle));

    std::vector<int> depth(kernel.nodes.size(), 0);
    int num_loads = 0;
    for (int id : topo) {
        const Node &n = kernel.node(id);
        int d = 0;
        for (int in : n.valueInputs())
            d = std::max(d, depth[static_cast<std::size_t>(in)]);
        if (n.kind == NodeKind::Access && n.dir == AccessDir::Load) {
            ++d;
            ++num_loads;
        }
        depth[static_cast<std::size_t>(id)] = d;
    }

    const double mlp =
        std::min<double>(hp.maxMlp, std::max(1, num_loads * 2));

    engine::HostRunResult result;
    std::vector<Word> vals(kernel.nodes.size(), Word{});
    const auto valueOf = [&vals](int node) {
        return node != compiler::noNode
                   ? vals[static_cast<std::size_t>(node)]
                   : Word{};
    };
    std::vector<Word> carry_state(kernel.nodes.size(), Word{});
    for (const Node &n : kernel.nodes) {
        if (n.kind == NodeKind::Carry)
            carry_state[static_cast<std::size_t>(n.id)] = n.carryInit;
    }

    sim::Tick now = start_tick;
    std::vector<double> level_max(
        static_cast<std::size_t>(dep.loadChainDepth) + 1, 0.0);
    for (std::int64_t it = 0; it < trip; ++it) {
        double load_lat_sum = 0.0;
        double chain_lat = 0.0;
        std::fill(level_max.begin(), level_max.end(), 0.0);

        for (int id : topo) {
            const Node &n = kernel.node(id);
            switch (n.kind) {
              case NodeKind::IndVar:
                vals[static_cast<std::size_t>(id)].i = it;
                break;
              case NodeKind::Param:
                vals[static_cast<std::size_t>(id)] =
                    params[static_cast<std::size_t>(n.paramIdx)];
                break;
              case NodeKind::ConstInt:
              case NodeKind::ConstFloat:
                vals[static_cast<std::size_t>(id)] = n.imm;
                break;
              case NodeKind::Carry:
                vals[static_cast<std::size_t>(id)] =
                    carry_state[static_cast<std::size_t>(id)];
                break;
              case NodeKind::Compute:
                vals[static_cast<std::size_t>(id)] = compiler::evalOp(
                    n.op, valueOf(n.inputA), valueOf(n.inputB),
                    valueOf(n.inputC));
                break;
              case NodeKind::Access: {
                  const engine::ArrayRef &arr =
                      bindings[static_cast<std::size_t>(n.objId)];
                  std::int64_t off = 0;
                  if (n.pattern == PatternKind::Affine) {
                      off = n.affine.constBase + n.affine.ivCoeff * it;
                      for (std::size_t k = 0;
                           k < n.affine.paramCoeffs.size(); ++k) {
                          if (n.affine.paramCoeffs[k] != 0)
                              off += n.affine.paramCoeffs[k] *
                                     params[k].i;
                      }
                  } else {
                      off = vals[static_cast<std::size_t>(n.addrInput)]
                                .i;
                  }
                  if (n.dir == AccessDir::Load) {
                      DISTDA_ASSERT(
                          off >= 0 && static_cast<std::uint64_t>(off) <
                                          arr.count,
                          "host load out of bounds: obj %d off %lld",
                          n.objId, static_cast<long long>(off));
                      const mem::Addr addr =
                          arr.addrOf(static_cast<std::uint64_t>(off));
                      vals[static_cast<std::size_t>(id)] =
                          backend->load(addr, n.bits / 8,
                                        n.elemIsFloat);
                      const auto res =
                          hier->hostAccess(addr, n.bits / 8, false, now);
                      load_lat_sum += static_cast<double>(res.latency);
                      const auto lvl = static_cast<std::size_t>(
                          depth[static_cast<std::size_t>(id)]);
                      if (lvl < level_max.size())
                          level_max[lvl] =
                              std::max(level_max[lvl],
                                       static_cast<double>(res.latency));
                      result.memOps += 1.0;
                  } else {
                      const bool pred =
                          n.predInput == compiler::noNode ||
                          vals[static_cast<std::size_t>(n.predInput)]
                                  .i != 0;
                      if (pred) {
                          DISTDA_ASSERT(
                              off >= 0 &&
                                  static_cast<std::uint64_t>(off) <
                                      arr.count,
                              "host store out of bounds: obj %d off "
                              "%lld",
                              n.objId, static_cast<long long>(off));
                          const mem::Addr addr = arr.addrOf(
                              static_cast<std::uint64_t>(off));
                          backend->store(
                              addr,
                              vals[static_cast<std::size_t>(
                                  n.valueInput)],
                              n.bits / 8, n.elemIsFloat);
                          hier->hostAccess(addr, n.bits / 8, true, now);
                      }
                      result.memOps += 1.0;
                  }
                  break;
              }
              default:
                break;
            }
        }
        for (const Node &n : kernel.nodes) {
            if (n.kind == NodeKind::Carry &&
                n.carryUpdate != compiler::noNode)
                carry_state[static_cast<std::size_t>(n.id)] =
                    vals[static_cast<std::size_t>(n.carryUpdate)];
        }

        for (std::size_t lvl = 2; lvl < level_max.size(); ++lvl)
            chain_lat += level_max[lvl];

        sim::Tick mem_ticks;
        if (dep.hasMemoryRecurrence) {
            mem_ticks = static_cast<sim::Tick>(load_lat_sum);
        } else {
            mem_ticks = static_cast<sim::Tick>(
                chain_lat + (load_lat_sum - chain_lat) / mlp);
        }
        now += std::max(compute_ticks, mem_ticks);
        result.insts += ops;
        if (acct)
            acct->addEvents(energy::Component::OoOCore, ops);
    }

    for (int node : kernel.resultCarries) {
        result.results.push_back(
            {node, carry_state[static_cast<std::size_t>(node)]});
    }
    result.endTick = now;
    result.record.start = start_tick;
    result.record.end = now;
    result.record.add(offload::Phase::Execute, now - start_tick);
    return result;
}

std::uint64_t
bitsOf(double v)
{
    std::uint64_t b;
    std::memcpy(&b, &v, sizeof(b));
    return b;
}

/** A fresh System holding the case's objects, initialized as the
 *  differential fuzzer initializes them. */
struct Twin
{
    std::unique_ptr<driver::System> sys;
    std::vector<engine::ArrayRef> arrays;

    explicit Twin(const fuzz::FuzzCase &c)
    {
        driver::SystemParams sp;
        std::uint64_t bytes = 64 * 1024;
        for (const fuzz::CaseObject &o : c.objects)
            bytes += (o.elemCount * o.elemBytes + 4095) / 4096 * 4096 +
                     2 * 4096;
        sp.arenaBytes = bytes;
        sys = std::make_unique<driver::System>(sp);
        for (std::size_t i = 0; i < c.objects.size(); ++i) {
            const fuzz::CaseObject &o = c.objects[i];
            arrays.push_back(sys->alloc(o.name, o.elemCount, o.elemBytes,
                                        o.isFloat));
            fuzz::initCaseObject(c, i, arrays.back());
        }
    }

    std::vector<engine::ArrayRef>
    bindings(const fuzz::Invocation &inv) const
    {
        std::vector<engine::ArrayRef> out;
        for (int co : inv.objects)
            out.push_back(arrays[static_cast<std::size_t>(co)]);
        return out;
    }

    std::string
    hierarchyStats() const
    {
        stats::Group g("hier");
        sys->hier().exportStats(g);
        sim::JsonWriter w;
        g.jsonDump(w);
        return w.str();
    }
};

/**
 * Run every invocation of @p c through the reference interpreter and
 * the predecoded executor on twin systems, then compare results,
 * timing, energy, memory-system statistics and final memory bit for
 * bit. One executor per kernel serves all of its invocations, as in
 * ExecContext. Returns false when both sides trapped.
 */
bool
expectMatchesReference(const fuzz::FuzzCase &c, const std::string &label)
{
    Twin ref(c), dut(c);
    std::vector<std::unique_ptr<HostExecutor>> execs(c.kernels.size());
    sim::Tick ref_now = 0, dut_now = 0;
    for (std::size_t i = 0; i < c.invocations.size(); ++i) {
        const fuzz::Invocation &inv = c.invocations[i];
        const compiler::Kernel &k =
            c.kernels[static_cast<std::size_t>(inv.kernel)];
        std::vector<Word> params;
        for (std::uint64_t bits : inv.paramBits) {
            Word w;
            std::memcpy(&w, &bits, sizeof(w));
            params.push_back(w);
        }
        auto &exec = execs[static_cast<std::size_t>(inv.kernel)];
        if (!exec) {
            exec = std::make_unique<HostExecutor>(
                k, &dut.sys->hier(), &dut.sys->backend(),
                &dut.sys->acct());
        }

        engine::HostRunResult r, d;
        bool r_trapped = false, d_trapped = false;
        {
            ScopedFailureCapture capture;
            try {
                r = referenceRun(k, &ref.sys->hier(), &ref.sys->backend(),
                                 &ref.sys->acct(), ref.bindings(inv),
                                 params, ref_now);
            } catch (const SimFailure &) {
                r_trapped = true;
            }
            try {
                d = exec->run(dut.bindings(inv), params, dut_now);
            } catch (const SimFailure &) {
                d_trapped = true;
            }
        }
        EXPECT_EQ(r_trapped, d_trapped) << label << " invocation " << i;
        if (r_trapped || d_trapped)
            return false;
        EXPECT_EQ(r.endTick, d.endTick) << label << " invocation " << i;
        EXPECT_EQ(bitsOf(r.insts), bitsOf(d.insts)) << label;
        EXPECT_EQ(bitsOf(r.memOps), bitsOf(d.memOps)) << label;
        EXPECT_EQ(r.record.ticksIn(offload::Phase::Execute),
                  d.record.ticksIn(offload::Phase::Execute))
            << label;
        EXPECT_EQ(r.results.size(), d.results.size()) << label;
        for (std::size_t j = 0;
             j < std::min(r.results.size(), d.results.size()); ++j) {
            EXPECT_EQ(r.results[j].first, d.results[j].first) << label;
            EXPECT_EQ(r.results[j].second.i, d.results[j].second.i)
                << label << " invocation " << i << " result " << j;
        }
        ref_now = r.endTick;
        dut_now = d.endTick;
    }
    for (std::size_t comp = 0;
         comp < static_cast<std::size_t>(energy::Component::NumComponents);
         ++comp) {
        const auto cc = static_cast<energy::Component>(comp);
        EXPECT_EQ(bitsOf(ref.sys->acct().componentPj(cc)),
                  bitsOf(dut.sys->acct().componentPj(cc)))
            << label << " energy " << energy::componentName(cc);
    }
    EXPECT_EQ(ref.hierarchyStats(), dut.hierarchyStats()) << label;
    for (std::size_t i = 0; i < c.objects.size(); ++i) {
        const engine::ArrayRef &ra = ref.arrays[i];
        const engine::ArrayRef &da = dut.arrays[i];
        std::vector<std::uint8_t> rb(ra.sizeBytes()), db(da.sizeBytes());
        ra.mem->copyOut(ra.base, rb.data(), rb.size());
        da.mem->copyOut(da.base, db.data(), db.size());
        EXPECT_EQ(std::memcmp(rb.data(), db.data(), rb.size()), 0)
            << label << " object " << c.objects[i].name;
    }
    return true;
}

/** Wrap a hand-built kernel as a one-kernel case. */
fuzz::FuzzCase
singleKernelCase(compiler::Kernel kernel,
                 std::vector<std::vector<std::uint64_t>> param_sets,
                 std::uint64_t index_bound = 0)
{
    fuzz::FuzzCase c;
    c.dataSeed = 7;
    for (const compiler::MemObjectDecl &o : kernel.objects) {
        fuzz::CaseObject co;
        co.name = o.name;
        co.elemCount = o.elemCount;
        co.elemBytes = o.elemBytes;
        co.isFloat = o.isFloat;
        co.indexBound = o.isFloat ? 0 : index_bound;
        c.objects.push_back(co);
    }
    for (auto &params : param_sets) {
        fuzz::Invocation inv;
        for (std::size_t i = 0; i < kernel.objects.size(); ++i)
            inv.objects.push_back(static_cast<int>(i));
        inv.paramBits = std::move(params);
        c.invocations.push_back(std::move(inv));
    }
    c.kernels.push_back(std::move(kernel));
    return c;
}

} // namespace

TEST(HostExec, PredecodedMatchesReference)
{
    // The kernels of the tests above, each invoked more than once so
    // the per-run rebinding of the predecoded stream is exercised.
    KernelBuilder chase("hx_chase");
    const int next = chase.object("next", 1 << 12, 8, false);
    chase.loopStatic(300);
    auto p = chase.carry(Word{0}, false);
    chase.setCarry(p, chase.loadIdx(next, p));
    chase.markResult(p);

    KernelBuilder ptrip("hx_param");
    const int a = ptrip.object("A", 4096, 8, true);
    const int pt = ptrip.param("trip");
    const int pb = ptrip.param("base");
    ptrip.loopFromParam(pt);
    auto s = ptrip.carry(Word{.f = 0.0}, true);
    ptrip.setCarry(
        s, ptrip.fadd(s, ptrip.load(a, ptrip.affineP(0, 1, {{pb, 2}}))));
    ptrip.markResult(s);

    // Carries that update from each other: a latch must read every
    // update before it writes any carry.
    KernelBuilder swap("hx_swap");
    const int sw = swap.object("A", 64, 8, false);
    swap.loopStatic(5);
    auto x = swap.carry(Word{1}, false);
    auto y = swap.carry(Word{2}, false);
    swap.setCarry(x, y);
    swap.setCarry(y, x);
    swap.store(sw, swap.affine(0, 1), swap.iadd(x, swap.imul(y, y)));
    swap.markResult(x);
    swap.markResult(y);

    expectMatchesReference(singleKernelCase(swap.build(), {{}}),
                           "hx_swap");
    expectMatchesReference(singleKernelCase(streamKernel(2048), {{}, {}}),
                           "hx_stream");
    expectMatchesReference(singleKernelCase(reduceKernel(2048), {{}, {}}),
                           "hx_reduce");
    expectMatchesReference(
        singleKernelCase(chase.build(), {{}, {}}, 1 << 12), "hx_chase");
    expectMatchesReference(
        singleKernelCase(ptrip.build(), {{77, 0}, {0, 5}, {500, 1000}}),
        "hx_param");

    // Seeded random kernels of every generator shape.
    const fuzz::Shape shapes[] = {
        fuzz::Shape::Parallel,         fuzz::Shape::Pipeline,
        fuzz::Shape::NonPartitionable, fuzz::Shape::MultiKernel,
        fuzz::Shape::CrossCluster,     fuzz::Shape::Mixed};
    int compared = 0;
    for (const fuzz::Shape shape : shapes) {
        for (std::uint64_t seed = 1; seed <= 50; ++seed) {
            fuzz::GenOptions opts;
            opts.shape = shape;
            const fuzz::FuzzCase c = fuzz::generateCase(seed, opts);
            compared += expectMatchesReference(
                c, std::string(fuzz::shapeName(shape)) + " seed " +
                       std::to_string(seed));
        }
    }
    // Generated cases are trap-free by construction.
    EXPECT_EQ(compared, 300);
}
