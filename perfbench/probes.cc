#include "perfbench/probes.hh"

#include <algorithm>
#include <chrono>
#include <cstring>
#include <functional>
#include <vector>

#include "src/compiler/dfg.hh"
#include "src/driver/context.hh"
#include "src/driver/system.hh"
#include "src/mem/hierarchy.hh"
#include "src/sim/rng.hh"

namespace perfbench
{

using namespace distda;

namespace
{

using Clock = std::chrono::steady_clock;

/** FNV-1a over 64-bit words: folds simulated results into a digest. */
struct Digest
{
    std::uint64_t h = 0xcbf29ce484222325ULL;

    void
    add(std::uint64_t v)
    {
        for (int i = 0; i < 8; ++i) {
            h ^= (v >> (8 * i)) & 0xff;
            h *= 0x100000001b3ULL;
        }
    }

    void
    add(double v)
    {
        std::uint64_t bits = 0;
        std::memcpy(&bits, &v, sizeof bits);
        add(bits);
    }
};

/** One timed rep: host ns spent, operations done, simulated digest. */
struct Rep
{
    double ns = 0.0;
    double ops = 0.0;
    std::uint64_t sim = 0;
};

constexpr mem::Addr kBase = 0x1000'0000;
constexpr sim::Tick kIssueGap = 1000; ///< ticks between probe requests

/** B[i] = (A[i] + A[i+1] + A[i+2]) / 3 over @p n iterations. */
compiler::Kernel
stencilKernel(std::int64_t n)
{
    compiler::KernelBuilder kb("replay_stencil_" + std::to_string(n));
    const int a = kb.object("A", static_cast<std::uint64_t>(n) + 2, 8,
                            true);
    const int b = kb.object("B", static_cast<std::uint64_t>(n), 8, true);
    kb.loopStatic(n);
    auto x = kb.load(a, kb.affine(0, 1));
    auto y = kb.load(a, kb.affine(1, 1));
    auto z = kb.load(a, kb.affine(2, 1));
    kb.store(b, kb.affine(0, 1),
             kb.fdiv(kb.fadd(kb.fadd(x, y), z), kb.constFloat(3.0)));
    return kb.build();
}

/**
 * Invoke the @p n-iteration stencil @p calls times through
 * ExecContext::invoke on a fresh system; the first (compiling) call is
 * not timed. Operands come from @p seed.
 */
Rep
invokeRep(std::uint64_t seed, driver::ArchModel model, std::int64_t n,
          int calls)
{
    driver::SystemParams sp;
    sp.arenaBytes = 1 << 20;
    driver::System sys(sp);
    engine::ArrayRef a =
        sys.alloc("A", static_cast<std::uint64_t>(n) + 2, 8, true);
    engine::ArrayRef b = sys.alloc("B", static_cast<std::uint64_t>(n), 8,
                                   true);
    sim::Rng rng(seed);
    for (std::uint64_t i = 0; i < a.count; ++i)
        a.setF(i, rng.nextDouble());
    const compiler::Kernel kernel = stencilKernel(n);
    driver::RunConfig cfg;
    cfg.model = model;
    driver::ExecContext ctx(sys, cfg);
    ctx.invoke(kernel, {a, b}, {});

    const auto t0 = Clock::now();
    for (int c = 0; c < calls; ++c)
        ctx.invoke(kernel, {a, b}, {});
    const auto t1 = Clock::now();

    Digest d;
    d.add(static_cast<std::uint64_t>(ctx.nowTick()));
    for (std::uint64_t i = 0; i < b.count; ++i)
        d.add(b.getF(i));
    return {std::chrono::duration<double, std::nano>(t1 - t0).count(),
            static_cast<double>(calls), d.h};
}

/** Fresh hierarchy (caches empty) driven by a seeded request stream. */
using HierStream = std::function<mem::CacheResult(
    mem::Hierarchy &, sim::Rng &, std::uint64_t i, sim::Tick now)>;

Rep
hierRep(std::uint64_t seed, std::uint64_t ops, const HierStream &next)
{
    energy::Accountant acct;
    mem::Hierarchy hier(mem::HierarchyParams{}, &acct);
    sim::Rng rng(seed);
    Digest d;
    sim::Tick now = 0;
    const auto t0 = Clock::now();
    for (std::uint64_t i = 0; i < ops; ++i) {
        const mem::CacheResult r = next(hier, rng, i, now);
        d.add(static_cast<std::uint64_t>(r.latency) * 2 + (r.hit ? 1 : 0));
        now += kIssueGap;
    }
    const auto t1 = Clock::now();
    d.add(hier.cacheAccesses());
    d.add(hier.dram().reads());
    return {std::chrono::duration<double, std::nano>(t1 - t0).count(),
            static_cast<double>(ops), d.h};
}

Rep
dramRep(std::uint64_t seed, std::uint64_t ops)
{
    energy::Accountant acct;
    mem::Dram dram(mem::DramParams{}, &acct);
    sim::Rng rng(seed);
    Digest d;
    sim::Tick now = 0;
    const auto t0 = Clock::now();
    for (std::uint64_t i = 0; i < ops; ++i) {
        // Random lines over 64 MB, one write in four.
        const mem::Addr a =
            kBase + rng.nextBelow((64ULL << 20) / mem::lineBytes) *
                        mem::lineBytes;
        d.add(static_cast<std::uint64_t>(dram.access(a, i % 4 == 3, now)));
        now += kIssueGap;
    }
    const auto t1 = Clock::now();
    d.add(dram.rowHits());
    return {std::chrono::duration<double, std::nano>(t1 - t0).count(),
            static_cast<double>(ops), d.h};
}

Rep
meshRep(std::uint64_t seed, std::uint64_t ops)
{
    energy::Accountant acct;
    noc::Mesh mesh(noc::MeshParams{}, &acct);
    const auto nodes = static_cast<std::uint64_t>(mesh.numNodes());
    sim::Rng rng(seed);
    Digest d;
    sim::Tick now = 0;
    const auto t0 = Clock::now();
    for (std::uint64_t i = 0; i < ops; ++i) {
        const int src = static_cast<int>(rng.nextBelow(nodes));
        const int dst = static_cast<int>(rng.nextBelow(nodes));
        const auto cls = static_cast<noc::TrafficClass>(rng.nextBelow(
            static_cast<std::uint64_t>(noc::TrafficClass::NumClasses)));
        const noc::TransferResult r = mesh.transfer(
            src, dst, i % 2 ? 64 : 8, cls, now);
        d.add(static_cast<std::uint64_t>(r.latency));
        now += kIssueGap / 4;
    }
    const auto t1 = Clock::now();
    d.add(mesh.hopFlits());
    return {std::chrono::duration<double, std::nano>(t1 - t0).count(),
            static_cast<double>(ops), d.h};
}

/** Median per-op time of @p reps runs of @p rep, scaled by @p unit. */
ProbeResult
measure(int reps, double unit, const std::function<Rep()> &rep)
{
    ProbeResult res;
    std::vector<double> per_op;
    for (int r = 0; r < reps; ++r) {
        const Rep one = rep();
        per_op.push_back(one.ns / one.ops / unit);
        if (r == 0)
            res.simDigest = one.sim;
        else if (one.sim != res.simDigest)
            res.repeatable = false;
    }
    std::sort(per_op.begin(), per_op.end());
    const std::size_t n = per_op.size();
    res.value = n % 2 ? per_op[n / 2]
                      : (per_op[n / 2 - 1] + per_op[n / 2]) / 2.0;
    return res;
}

} // namespace

std::map<std::string, ProbeResult>
runProbes(std::uint64_t seed, int reps)
{
    using driver::ArchModel;
    // Each probe draws its own stream from the seed.
    const auto sub = [seed](std::uint64_t probe) {
        return seed * 0x9e3779b97f4a7c15ULL + probe + 1;
    };
    const std::uint64_t clusters =
        static_cast<std::uint64_t>(mem::HierarchyParams{}.l3.clusters);
    constexpr std::uint64_t kMemOps = 1 << 18;

    std::map<std::string, ProbeResult> out;
    out["engine.replay.invoke_us"] = measure(reps, 1e3, [&] {
        return invokeRep(sub(0), ArchModel::DistDA_IO, 16, 512);
    });
    out["engine.replay.iter_ns"] = measure(reps, 1.0, [&] {
        Rep r = invokeRep(sub(1), ArchModel::DistDA_IO, 4096, 16);
        r.ops *= 4096;
        return r;
    });
    out["engine.replay.host_iter_ns"] = measure(reps, 1.0, [&] {
        Rep r = invokeRep(sub(2), ArchModel::OoO, 4096, 16);
        r.ops *= 4096;
        return r;
    });
    out["mem.replay.accel_rand_ns"] = measure(reps, 1.0, [&] {
        return hierRep(sub(3), kMemOps,
                       [clusters](mem::Hierarchy &h, sim::Rng &rng,
                                  std::uint64_t, sim::Tick now) {
                           const mem::Addr a =
                               kBase + rng.nextBelow((8ULL << 20) / 8) * 8;
                           const int c =
                               static_cast<int>(rng.nextBelow(clusters));
                           return h.accelAccess(a, 8, false, c, now);
                       });
    });
    out["mem.replay.accel_seq_ns"] = measure(reps, 1.0, [&] {
        const std::uint64_t start = sim::Rng(sub(4)).nextBelow(1 << 17);
        const int c = static_cast<int>(start % clusters);
        return hierRep(sub(4), kMemOps,
                       [start, c](mem::Hierarchy &h, sim::Rng &,
                                  std::uint64_t i, sim::Tick now) {
                           const mem::Addr a =
                               kBase + ((start + i) % (1 << 17)) * 8;
                           return h.accelAccess(a, 8, false, c, now);
                       });
    });
    out["mem.replay.host_seq_ns"] = measure(reps, 1.0, [&] {
        const std::uint64_t start = sim::Rng(sub(5)).nextBelow(1 << 17);
        return hierRep(sub(5), kMemOps,
                       [start](mem::Hierarchy &h, sim::Rng &,
                               std::uint64_t i, sim::Tick now) {
                           const mem::Addr a =
                               kBase + ((start + i) % (1 << 17)) * 8;
                           return h.hostAccess(a, 8, i % 4 == 3, now);
                       });
    });
    out["mem.replay.host_rand_ns"] = measure(reps, 1.0, [&] {
        return hierRep(sub(6), kMemOps,
                       [](mem::Hierarchy &h, sim::Rng &rng, std::uint64_t i,
                          sim::Tick now) {
                           const mem::Addr a =
                               kBase + rng.nextBelow((8ULL << 20) / 8) * 8;
                           return h.hostAccess(a, 8, i % 4 == 3, now);
                       });
    });
    out["mem.replay.dram_ns"] =
        measure(reps, 1.0, [&] { return dramRep(sub(7), kMemOps); });
    out["noc.replay.transfer_ns"] =
        measure(reps, 1.0, [&] { return meshRep(sub(8), 4 * kMemOps); });
    return out;
}

} // namespace perfbench
