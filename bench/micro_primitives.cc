/**
 * @file
 * google-benchmark microbenchmarks of simulator primitives that
 * perfbench's replay probes do not cover: the multilevel partitioner,
 * kernel compilation and the sweep thread pool. The cache, NoC and
 * engine-invocation primitives are measured by perfbench
 * (`mem.replay.*`, `noc.replay.transfer_ns`,
 * `engine.replay.invoke_us`) on seeded, digest-checked state.
 */

#include <benchmark/benchmark.h>

#include <atomic>

#include "src/compiler/partitioner.hh"
#include "src/compiler/plan.hh"
#include "src/driver/pool.hh"
#include "src/sim/rng.hh"

using namespace distda;

namespace
{

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
