/**
 * @file
 * Baseline execution of a kernel on the out-of-order host (the OoO
 * configuration): every load/store walks the L1/L2/L3/DRAM hierarchy
 * and per-iteration time follows an analytical OoO model — issue-width
 * bound on the instruction stream, MSHR/window bound on memory-level
 * parallelism, and full serialization for pointer-chasing recurrences.
 *
 * The executor is predecoded (DESIGN.md §4, "The host executor loop"):
 * the constructor flattens the kernel's topological node walk into a
 * compact op stream and computes every per-kernel constant of the
 * timing model once, so run() walks only the ops that do work each
 * iteration.
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
    enum class OpKind : std::uint8_t { Compute, Load, Store };

    /**
     * One per-iteration op: a compute node or an access, in
     * topological order. Slots index the value array, which holds one
     * Word per node plus two constant slots, so an absent input reads
     * the always-zero slot and an unpredicated store tests the
     * always-one slot. Every access computes its element offset as
     * base + ivCoeff * it + value[addr]: an affine access reads the
     * zero slot, an indirect one has base and ivCoeff 0.
     */
    struct Op
    {
        OpKind kind = OpKind::Compute;
        compiler::OpCode opcode = compiler::OpCode::Mov; ///< Compute
        bool isFloat = false;    ///< access element type
        std::uint32_t bytes = 0; ///< access width
        std::uint32_t level = 0; ///< load-chain depth of a Load
        int node = compiler::noNode;
        /**
         * Compute: the three inputs. Load: a = address. Store: a =
         * address, b = stored value, c = predicate.
         */
        int a = 0, b = 0, c = 0;
        int obj = -1;
        std::int64_t ivCoeff = 0;

        // Bound at the top of each run from the bindings and params.
        std::int64_t base = 0; ///< constBase plus the param terms
        mem::Addr arrBase = 0;
        std::uint64_t count = 0;
        std::uint32_t stride = 0;

        std::int64_t constBase = 0;
        /** Affine param coefficients; null for indirect accesses. */
        const std::vector<std::int64_t> *paramCoeffs = nullptr;
    };

    /** A carry slot and the node it latches at iteration end. */
    struct CarryLatch
    {
        int slot;
        int update;
    };

    const compiler::Kernel &_kernel;
    mem::Hierarchy *_hier;
    MemBackend *_backend;
    energy::Accountant *_acct;

    std::vector<Op> _ops;
    /** Value array at run start: constants and carry inits set. */
    std::vector<compiler::Word> _initVals;
    std::vector<std::pair<int, int>> _paramSlots; ///< (slot, param)
    std::vector<int> _ivSlots;
    std::vector<CarryLatch> _carries;

    int _opsPerIter = 0;  ///< issued ops, loop overhead included
    int _memOpsPerIter = 0;
    sim::Tick _computeTicks = 0;
    double _mlp = 1.0;
    std::size_t _levels = 0; ///< loadChainDepth + 1
    bool _memoryRecurrence = false;
};

} // namespace distda::engine

#endif // DISTDA_ENGINE_HOST_EXEC_HH
