/**
 * @file
 * Baseline execution of a kernel on the out-of-order host (the OoO
 * configuration): every load/store walks the L1/L2/L3/DRAM hierarchy
 * and per-iteration time follows an analytical OoO model — issue-width
 * bound on the instruction stream, MSHR/window bound on memory-level
 * parallelism, and full serialization for pointer-chasing recurrences.
 */

#ifndef DISTDA_ENGINE_HOST_EXEC_HH
#define DISTDA_ENGINE_HOST_EXEC_HH

#include <vector>

#include "src/compiler/classify.hh"
#include "src/compiler/dfg.hh"
#include "src/energy/energy_model.hh"
#include "src/engine/backend.hh"
#include "src/mem/hierarchy.hh"
#include "src/offload/lifecycle.hh"

namespace distda::engine
{

/** OoO pipeline parameters (Table III: 5-way Ice-Lake-class @2GHz). */
struct HostParams
{
    int issueWidth = 5;
    /**
     * Sustained IPC ceiling. The 5-way front end rarely extracts full
     * width on these loop bodies (FP dependence chains, load-use
     * delays, branches); calibrated to the ~1.2 sustained IPC a
     * gem5-class X86 O3 model achieves here, which the paper's own
     * ratios imply (its Mono-DA-IO 1-issue accelerators run close to
     * the OoO baseline).
     */
    double sustainedIpc = 1.2;
    double memPortsPerCycle = 2.0; ///< L1 load/store ports
    std::uint64_t clockHz = 2'000'000'000ULL;
    int maxMlp = 8;          ///< L1 MSHRs bound outstanding misses
    int loopOverheadOps = 4; ///< loop control per iteration
};

/** Outcome of a host-side kernel execution. */
struct HostRunResult
{
    sim::Tick endTick = 0;
    double insts = 0.0;
    double memOps = 0.0;
    std::vector<std::pair<int, compiler::Word>> results;
    /**
     * Lifecycle record of this run: the host path has no interface
     * traffic, so the whole end-to-end latency is Execute and the
     * other six phases are zero (trivially conserved).
     */
    offload::OffloadRecord record;
};

/** Executes kernels directly on the host core. */
class HostExecutor
{
  public:
    HostExecutor(const compiler::Kernel &kernel, mem::Hierarchy *hier,
                 MemBackend *backend, energy::Accountant *acct,
                 const HostParams &params = HostParams{});

    HostRunResult run(const std::vector<ArrayRef> &bindings,
                      const std::vector<compiler::Word> &params,
                      sim::Tick start_tick);

  private:
    const compiler::Kernel &_kernel;
    mem::Hierarchy *_hier;
    MemBackend *_backend;
    energy::Accountant *_acct;
    HostParams _params;
    compiler::DependenceInfo _dep;
    std::vector<int> _topo;
};

} // namespace distda::engine

#endif // DISTDA_ENGINE_HOST_EXEC_HH
