/**
 * @file
 * The dataflow engine: instantiates one actor per compiled partition,
 * wires access units and channels according to the architecture model
 * under evaluation, and runs the decoupled actors to completion.
 *
 * The same compiled OffloadPlan executes under every architecture
 * configuration — the engine only changes *where* compute and access
 * units sit (Fig 1b-d):
 *  - centralized access (Mono-CA): units at the host-side node, fills
 *    through an 8KB private cache;
 *  - decentralized access, monolithic compute (Mono-DA): units at each
 *    object's home cluster forwarding operands to one compute node;
 *  - decentralized access, distributed compute (Dist-DA): partitions
 *    co-located with their objects, communicating through channels.
 */

#ifndef DISTDA_ENGINE_ENGINE_HH
#define DISTDA_ENGINE_ENGINE_HH

#include <memory>
#include <vector>

#include "src/cgra/cgra.hh"
#include "src/engine/actor.hh"
#include "src/mem/cache.hh"

namespace distda::engine
{

/**
 * Architecture-model knobs for one engine run. Access-unit buffer
 * bytes, channel depth and software prefetching are not here: they are
 * part of the plan (OffloadPlan::options), the offload descriptor the
 * engine is configured with.
 */
struct EngineConfig
{
    ActorKind kind = ActorKind::InOrder;
    std::uint64_t accelClockHz = 2'000'000'000ULL;
    int issueWidth = 1;
    /**
     * Energy events charged per instruction relative to the substrate
     * default (Mono-CA's unconstrained monolithic accelerator burns
     * more per instruction than a minimal in-order core).
     */
    double instEnergyScale = 1.0;
    /** Mono-CA: all access units sit with the compute node. */
    bool centralizedAccess = false;
    /**
     * Dist-DA: partitions (with their access units) co-locate at
     * their object's home cluster; remote lines arrive through the
     * memory interface at line granularity. When false (Mono-DA), the
     * single compute node is fed by data-anchored access units that
     * forward operands per element over the NoC (Fig 1c vs 1d).
     */
    bool distributedCompute = false;
    /** Mono-CA private cache size (0 = none). */
    std::uint32_t privateCacheBytes = 0;
    cgra::CgraParams fabric; ///< used when kind == Cgra
    /** Retain stream windows across invocations (§V-B reuse). */
    bool retainBuffers = true;
    /**
     * Run actors on the predecoded stream (default); false forces the
     * raw microcode interpreter. Per engine, so interpreter and
     * predecoded runs can share one thread pool.
     */
    bool predecode = true;
    /**
     * Per-run timeline probe (null = observability off). The engine
     * threads it into every actor, stream unit and channel it builds;
     * the caller owns the probe and must keep it alive across invoke().
     */
    sim::Probe *probe = nullptr;
};

/** Outcome of one kernel invocation. */
struct InvokeResult
{
    sim::Tick endTick = 0;
    /** (carry DFG node, final value) for kernel result carries. */
    std::vector<std::pair<int, compiler::Word>> results;
    double accelInsts = 0.0;
    double memOps = 0.0;
};

/** Executes one OffloadPlan under one architecture configuration. */
class DataflowEngine
{
  public:
    DataflowEngine(const compiler::OffloadPlan &plan,
                   const EngineConfig &config, mem::Hierarchy *hier,
                   MemBackend *backend, energy::Accountant *acct);

    /**
     * Run the offload once: @p bindings maps kernel object ids to
     * arrays, @p params supplies the host-set scalars.
     */
    InvokeResult invoke(const std::vector<ArrayRef> &bindings,
                        const std::vector<compiler::Word> &params,
                        sim::Tick start_tick);

    /** Accumulated Fig 9 access-distribution counters. */
    const accel::AccessStats &accessStats() const { return _stats; }

  private:
    /**
     * Buffer retention across invocations (§V-B: resources are not
     * deallocated while outer-loop reuse exists): an accessor whose
     * stream configuration is unchanged reuses its window, so rereads
     * of a fully buffered range are buffer hits.
     */
    accel::StreamUnit *retainedStream(int node,
                                      const accel::StreamParams &sp,
                                      accel::MemPort port,
                                      sim::Tick now);

    const compiler::OffloadPlan &_plan;
    EngineConfig _config;
    mem::Hierarchy *_hier;
    MemBackend *_backend;
    energy::Accountant *_acct;
    accel::AccessStats _stats;
    std::vector<cgra::CgraMapping> _mappings;
    std::unique_ptr<mem::Cache> _privateCache; ///< Mono-CA only
    std::map<int, std::unique_ptr<accel::StreamUnit>> _retained;
};

} // namespace distda::engine

#endif // DISTDA_ENGINE_ENGINE_HH
