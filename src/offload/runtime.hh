/**
 * @file
 * The offload runtime (§V-B execution flow): at the first invocation it
 * identifies home nodes, allocates and configures the accelerator
 * resources through the Table II intrinsics; every invocation transfers
 * scalar parameters (cp_set_rf), launches the partitions (cp_run),
 * blocks on the done token (cp_consume) and reads back result registers
 * (cp_load_rf). Resources stay allocated across outer-loop iterations.
 */

#ifndef DISTDA_OFFLOAD_RUNTIME_HH
#define DISTDA_OFFLOAD_RUNTIME_HH

#include <vector>

#include "src/engine/engine.hh"
#include "src/offload/interface.hh"

namespace distda::offload
{

/** Outcome of one offloaded invocation, host-visible. */
struct OffloadRunResult
{
    sim::Tick endTick = 0;
    std::vector<std::pair<int, compiler::Word>> results;
    double accelInsts = 0.0;
    double memOps = 0.0;
    /**
     * Phase timing of this invocation (src/offload/lifecycle.hh);
     * always conserved: the phases telescope over the host timeline,
     * so they sum exactly to endTick - start_tick.
     */
    OffloadRecord record;
};

/** Drives one compiled plan through the interface, per invocation. */
class OffloadRuntime
{
  public:
    /** Binds @p plan, which must outlive the runtime. */
    OffloadRuntime(const compiler::OffloadPlan &plan,
                   const engine::EngineConfig &config,
                   mem::Hierarchy *hier, engine::MemBackend *backend,
                   energy::Accountant *acct);

    OffloadRunResult invoke(const std::vector<engine::ArrayRef> &bindings,
                            const std::vector<compiler::Word> &params,
                            sim::Tick start_tick);

    const accel::AccessStats &accessStats() const
    {
        return _engine.accessStats();
    }

    double mmioOps() const { return _iface.mmioOps(); }

  private:
    const compiler::OffloadPlan &_plan;
    engine::DataflowEngine _engine;
    CoprocessorInterface _iface;
    mem::Hierarchy *_hier;
    bool _allocated = false;
};

} // namespace distda::offload

#endif // DISTDA_OFFLOAD_RUNTIME_HH
