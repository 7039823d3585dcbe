/**
 * @file
 * google-benchmark microbenchmarks of the simulator's primitives: the
 * cache model, NoC transfers, the multilevel partitioner, kernel
 * compilation and a small end-to-end engine invocation. These guard
 * the simulator's own performance (wall-clock per simulated event),
 * not the paper's metrics.
 */

#include <benchmark/benchmark.h>

#include <atomic>

#include "src/compiler/partitioner.hh"
#include "src/compiler/plan.hh"
#include "src/driver/context.hh"
#include "src/driver/pool.hh"
#include "src/driver/system.hh"
#include "src/mem/hierarchy.hh"
#include "src/sim/rng.hh"

using namespace distda;

namespace
{

void
BM_CacheAccess(benchmark::State &state)
{
    energy::Accountant acct;
    mem::CacheParams cp;
    cp.sizeBytes = 32 * 1024;
    mem::Cache cache(cp, &acct,
                     mem::Cache::Downstream(
                         [](void *, mem::Addr, bool, sim::Tick) {
                             return sim::Tick(20000);
                         },
                         nullptr));
    sim::Rng rng(1);
    sim::Tick now = 0;
    for (auto _ : state) {
        const mem::Addr a = rng.nextBelow(1 << 20) * 8;
        benchmark::DoNotOptimize(cache.access(a, 8, false, now));
        now += 500;
    }
}
BENCHMARK(BM_CacheAccess);

void
BM_MeshTransfer(benchmark::State &state)
{
    energy::Accountant acct;
    noc::Mesh mesh(noc::MeshParams{}, &acct);
    sim::Rng rng(2);
    sim::Tick now = 0;
    for (auto _ : state) {
        const int src = static_cast<int>(rng.nextBelow(8));
        const int dst = static_cast<int>(rng.nextBelow(8));
        benchmark::DoNotOptimize(
            mesh.transfer(src, dst, 64, noc::TrafficClass::Data, now));
        now += 1000;
    }
}
BENCHMARK(BM_MeshTransfer);

void
BM_Partitioner(benchmark::State &state)
{
    // A synthetic 64-vertex DFG-shaped graph with 4 object vertices.
    compiler::PartitionGraph g;
    for (int i = 0; i < 64; ++i)
        g.addVertex(1.0, i < 4 ? i : -1);
    sim::Rng rng(3);
    for (int i = 4; i < 64; ++i) {
        g.addEdge(static_cast<int>(rng.nextBelow(4)), i, 8.0);
        g.addEdge(i, static_cast<int>(rng.nextBelow(
                         static_cast<std::uint64_t>(i))),
                  4.0);
    }
    for (auto _ : state)
        benchmark::DoNotOptimize(compiler::sweepPartition(g));
}
BENCHMARK(BM_Partitioner);

compiler::Kernel
makeStencilKernel()
{
    compiler::KernelBuilder kb("bm_stencil");
    const int obj = kb.object("A", 1 << 16, 8, true);
    kb.loopStatic(1 << 10);
    auto a = kb.load(obj, kb.affine(0, 1));
    auto b = kb.load(obj, kb.affine(1, 1));
    auto c = kb.load(obj, kb.affine(2, 1));
    kb.store(obj, kb.affine(1, 1),
             kb.fdiv(kb.fadd(kb.fadd(a, b), c), kb.constFloat(3.0)));
    return kb.build();
}

void
BM_CompileKernel(benchmark::State &state)
{
    const compiler::Kernel kernel = makeStencilKernel();
    for (auto _ : state)
        benchmark::DoNotOptimize(compiler::compileKernel(kernel));
}
BENCHMARK(BM_CompileKernel);

void
BM_EngineInvoke(benchmark::State &state)
{
    driver::SystemParams sp;
    sp.arenaBytes = 16 << 20;
    driver::System sys(sp);
    auto arr = sys.alloc("A", 1 << 16, 8, true);
    for (std::uint64_t i = 0; i < arr.count; ++i)
        arr.setF(i, 1.0);
    const compiler::Kernel kernel = makeStencilKernel();
    driver::RunConfig cfg;
    cfg.model = driver::ArchModel::DistDA_IO;
    driver::ExecContext ctx(sys, cfg);
    for (auto _ : state)
        ctx.invoke(kernel, {arr}, {});
    state.SetItemsProcessed(state.iterations() * (1 << 10));
}
BENCHMARK(BM_EngineInvoke);

void
BM_ThreadPoolDispatch(benchmark::State &state)
{
    // Submit/drain overhead of the sweep executor's pool; one sweep
    // job costs milliseconds-to-seconds, so dispatch must stay micro.
    driver::ThreadPool pool(2);
    std::atomic<int> done{0};
    for (auto _ : state) {
        for (int i = 0; i < 64; ++i) {
            pool.submit([&done] {
                done.fetch_add(1, std::memory_order_relaxed);
            });
        }
        pool.wait();
    }
    benchmark::DoNotOptimize(done.load());
    state.SetItemsProcessed(state.iterations() * 64);
}
BENCHMARK(BM_ThreadPoolDispatch);

} // namespace

BENCHMARK_MAIN();
