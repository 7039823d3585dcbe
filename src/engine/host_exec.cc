#include "src/engine/host_exec.hh"

#include <algorithm>

#include "src/compiler/eval.hh"
#include "src/sim/logging.hh"

namespace distda::engine
{

using compiler::AccessDir;
using compiler::Kernel;
using compiler::Node;
using compiler::NodeKind;
using compiler::PatternKind;
using compiler::Word;

HostExecutor::HostExecutor(const Kernel &kernel, mem::Hierarchy *hier,
                           MemBackend *backend,
                           energy::Accountant *acct,
                           const HostParams &params)
    : _kernel(kernel), _hier(hier), _backend(backend), _acct(acct)
{
    const compiler::DependenceInfo dep = compiler::classifyKernel(kernel);
    const std::vector<int> depth = compiler::loadDepths(kernel);
    _levels = static_cast<std::size_t>(dep.loadChainDepth) + 1;
    _memoryRecurrence = dep.hasMemoryRecurrence;

    const int zero_slot = static_cast<int>(kernel.nodes.size());
    const int one_slot = zero_slot + 1;
    _initVals.assign(kernel.nodes.size() + 2, Word{});
    _initVals[static_cast<std::size_t>(one_slot)].i = 1;
    const auto slot = [zero_slot](int node) {
        return node != compiler::noNode ? node : zero_slot;
    };

    int num_loads = 0;
    for (int id : kernel.topoOrder()) {
        const Node &n = kernel.node(id);
        switch (n.kind) {
          case NodeKind::IndVar:
            _ivSlots.push_back(id);
            break;
          case NodeKind::Param:
            _paramSlots.push_back({id, n.paramIdx});
            break;
          case NodeKind::ConstInt:
          case NodeKind::ConstFloat:
            _initVals[static_cast<std::size_t>(id)] = n.imm;
            break;
          case NodeKind::Carry:
            _initVals[static_cast<std::size_t>(id)] = n.carryInit;
            _carries.push_back({id, n.carryUpdate});
            break;
          case NodeKind::Compute: {
              Op op;
              op.opcode = n.op;
              op.node = id;
              op.a = slot(n.inputA);
              op.b = slot(n.inputB);
              op.c = slot(n.inputC);
              _ops.push_back(op);
              break;
          }
          case NodeKind::Access: {
              Op op;
              op.node = id;
              op.isFloat = n.elemIsFloat;
              op.bytes = n.bits / 8;
              op.obj = n.objId;
              if (n.pattern == PatternKind::Affine) {
                  op.a = zero_slot;
                  op.ivCoeff = n.affine.ivCoeff;
                  op.constBase = n.affine.constBase;
                  op.paramCoeffs = &n.affine.paramCoeffs;
              } else {
                  op.a = slot(n.addrInput);
              }
              if (n.dir == AccessDir::Load) {
                  op.kind = OpKind::Load;
                  const auto lvl = static_cast<std::size_t>(
                      depth[static_cast<std::size_t>(id)]);
                  DISTDA_ASSERT(lvl < _levels,
                                "host load %d at chain level %zu of %zu",
                                id, lvl, _levels);
                  op.level = static_cast<std::uint32_t>(lvl);
                  ++num_loads;
              } else {
                  op.kind = OpKind::Store;
                  op.b = slot(n.valueInput);
                  op.c = n.predInput != compiler::noNode ? n.predInput
                                                         : one_slot;
              }
              _ops.push_back(op);
              ++_memOpsPerIter;
              break;
          }
          default:
            break;
        }
    }

    // Per-iteration issue bound: the op stream, the memory ports and
    // the loop-carried compute recurrence.
    _opsPerIter = params.loopOverheadOps + static_cast<int>(_ops.size());
    const double issue_cycles = std::max(
        {static_cast<double>(_opsPerIter) /
             std::min<double>(params.issueWidth, params.sustainedIpc),
         static_cast<double>(_memOpsPerIter) / params.memPortsPerCycle,
         static_cast<double>(dep.carryChainCycles)});
    _computeTicks = static_cast<sim::Tick>(
        issue_cycles *
        static_cast<double>(sim::ClockDomain(params.clockHz).period()));
    _mlp = std::min<double>(params.maxMlp, std::max(1, num_loads * 2));
}

HostRunResult
HostExecutor::run(const std::vector<ArrayRef> &bindings,
                  const std::vector<Word> &params, sim::Tick start_tick)
{
    DISTDA_ASSERT(bindings.size() == _kernel.objects.size(),
                  "host run: binding count mismatch");
    std::int64_t trip = _kernel.loop.staticExtent;
    if (_kernel.loop.extentParam >= 0)
        trip = params[static_cast<std::size_t>(
                          _kernel.loop.extentParam)]
                   .i;

    std::vector<Word> vals = _initVals;
    if (trip > 0) {
        for (const auto &[node, param] : _paramSlots)
            vals[static_cast<std::size_t>(node)] =
                params[static_cast<std::size_t>(param)];
        for (Op &op : _ops) {
            if (op.kind == OpKind::Compute)
                continue;
            const ArrayRef &arr =
                bindings[static_cast<std::size_t>(op.obj)];
            op.arrBase = arr.base;
            op.count = arr.count;
            op.stride = arr.elemBytes;
            op.base = op.constBase;
            if (op.paramCoeffs) {
                for (std::size_t k = 0; k < op.paramCoeffs->size(); ++k) {
                    if ((*op.paramCoeffs)[k] != 0)
                        op.base += (*op.paramCoeffs)[k] * params[k].i;
                }
            }
        }
    }

    // Everything the loop touches lives in locals: the cache walk is
    // an out-of-line call, after which members would be reloaded.
    Word *const v = vals.data();
    const Op *const ops_begin = _ops.data();
    const Op *const ops_end = ops_begin + _ops.size();
    mem::Hierarchy *const hier = _hier;
    MemBackend *const backend = _backend;
    std::vector<double> level_max(_levels, 0.0);
    std::vector<Word> latched(_carries.size());
    const sim::Tick compute_ticks = _computeTicks;
    const double mlp = _mlp;
    const bool memory_recurrence = _memoryRecurrence;

    // Only this loop charges OoOCore during a run, so its running
    // total can stay in a register: the same adds, in the same order,
    // as one addEvents() per iteration.
    energy::Accountant::Tally tally{nullptr, 0.0};
    double ooo_pj = 0.0;
    double ooo_charge = 0.0;
    if (_acct) {
        tally = _acct->tally(energy::Component::OoOCore);
        ooo_pj = *tally.totalPj;
        ooo_charge = tally.perEventPj * static_cast<double>(_opsPerIter);
    }

    sim::Tick now = start_tick;
    for (std::int64_t it = 0; it < trip; ++it) {
        for (int s : _ivSlots)
            v[s].i = it;
        double load_lat_sum = 0.0;
        std::fill(level_max.begin(), level_max.end(), 0.0);

        for (const Op *op = ops_begin; op != ops_end; ++op) {
            if (op->kind == OpKind::Compute) {
                v[op->node] =
                    compiler::evalOp(op->opcode, v[op->a], v[op->b],
                                     v[op->c]);
                continue;
            }
            if (op->kind == OpKind::Store && v[op->c].i == 0)
                continue; // predicated off
            const std::int64_t off =
                op->base + op->ivCoeff * it + v[op->a].i;
            DISTDA_ASSERT(
                off >= 0 && static_cast<std::uint64_t>(off) < op->count,
                "host %s out of bounds: obj %d off %lld",
                op->kind == OpKind::Load ? "load" : "store", op->obj,
                static_cast<long long>(off));
            const mem::Addr addr =
                op->arrBase + static_cast<std::uint64_t>(off) * op->stride;
            if (op->kind == OpKind::Load) {
                v[op->node] = backend->load(addr, op->bytes, op->isFloat);
                const auto lat = static_cast<double>(
                    hier->hostAccess(addr, op->bytes, false, now)
                        .latency);
                load_lat_sum += lat;
                level_max[op->level] =
                    std::max(level_max[op->level], lat);
            } else {
                backend->store(addr, v[op->b], op->bytes, op->isFloat);
                // Store latency is hidden by the store buffer;
                // traffic/energy still counted.
                hier->hostAccess(addr, op->bytes, true, now);
            }
        }
        // Latch carries in two phases: an update may read another
        // carry, which must still hold this iteration's value.
        for (std::size_t k = 0; k < _carries.size(); ++k)
            latched[k] = v[_carries[k].update];
        for (std::size_t k = 0; k < _carries.size(); ++k)
            v[_carries[k].slot] = latched[k];

        double chain_lat = 0.0; // deepest dependent-load chain
        for (std::size_t lvl = 2; lvl < level_max.size(); ++lvl)
            chain_lat += level_max[lvl];

        sim::Tick mem_ticks;
        if (memory_recurrence) {
            // Pointer chasing: the next address needs this load.
            mem_ticks = static_cast<sim::Tick>(load_lat_sum);
        } else {
            mem_ticks = static_cast<sim::Tick>(
                chain_lat + (load_lat_sum - chain_lat) / mlp);
        }
        now += std::max(compute_ticks, mem_ticks);
        ooo_pj += ooo_charge;
    }
    if (_acct)
        *tally.totalPj = ooo_pj;

    HostRunResult result;
    // Integer counts below 2^53: the products equal the per-iteration
    // sums.
    const double iters = trip > 0 ? static_cast<double>(trip) : 0.0;
    result.insts = static_cast<double>(_opsPerIter) * iters;
    result.memOps = static_cast<double>(_memOpsPerIter) * iters;
    for (int node : _kernel.resultCarries)
        result.results.push_back(
            {node, vals[static_cast<std::size_t>(node)]});
    result.endTick = now;
    result.record.start = start_tick;
    result.record.end = now;
    result.record.add(offload::Phase::Execute, now - start_tick);
    return result;
}

} // namespace distda::engine
