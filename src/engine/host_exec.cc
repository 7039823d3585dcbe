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
    : _kernel(kernel), _hier(hier), _backend(backend), _acct(acct),
      _params(params), _dep(compiler::classifyKernel(kernel)),
      _topo(kernel.topoOrder())
{
}

HostRunResult
HostExecutor::run(const std::vector<ArrayRef> &bindings,
                  const std::vector<Word> &params, sim::Tick start_tick)
{
    DISTDA_ASSERT(bindings.size() == _kernel.objects.size(),
                  "host run: binding count mismatch");
    const sim::ClockDomain clock(_params.clockHz);
    const sim::Tick cycle = clock.period();

    std::int64_t trip = _kernel.loop.staticExtent;
    if (_kernel.loop.extentParam >= 0)
        trip = params[static_cast<std::size_t>(
                          _kernel.loop.extentParam)]
                   .i;

    // Per-iteration static op count.
    int ops = _params.loopOverheadOps;
    for (const Node &n : _kernel.nodes) {
        if (n.kind == NodeKind::Compute || n.kind == NodeKind::Access)
            ++ops;
    }
    int mem_ops_static = 0;
    for (const Node &n : _kernel.nodes) {
        if (n.kind == NodeKind::Access)
            ++mem_ops_static;
    }
    const double issue_cycles = std::max(
        {static_cast<double>(ops) /
             std::min<double>(_params.issueWidth, _params.sustainedIpc),
         static_cast<double>(mem_ops_static) / _params.memPortsPerCycle,
         static_cast<double>(_dep.carryChainCycles)});
    const auto compute_ticks = static_cast<sim::Tick>(
        issue_cycles * static_cast<double>(cycle));

    // Load dependence depths (indirect chains serialize).
    std::vector<int> depth(_kernel.nodes.size(), 0);
    int num_loads = 0;
    for (int id : _topo) {
        const Node &n = _kernel.node(id);
        int d = 0;
        for (int in : n.valueInputs())
            d = std::max(d, depth[static_cast<std::size_t>(in)]);
        if (n.kind == NodeKind::Access && n.dir == AccessDir::Load) {
            ++d;
            ++num_loads;
        }
        depth[static_cast<std::size_t>(id)] = d;
    }

    const double mlp = std::min<double>(
        _params.maxMlp, std::max(1, num_loads * 2));

    HostRunResult result;
    std::vector<Word> vals(_kernel.nodes.size(), Word{});
    const auto valueOf = [&vals](int node) {
        return node != compiler::noNode
                   ? vals[static_cast<std::size_t>(node)]
                   : Word{};
    };
    std::vector<Word> carry_state(_kernel.nodes.size(), Word{});
    for (const Node &n : _kernel.nodes) {
        if (n.kind == NodeKind::Carry)
            carry_state[static_cast<std::size_t>(n.id)] = n.carryInit;
    }

    sim::Tick now = start_tick;
    std::vector<double> level_max(
        static_cast<std::size_t>(_dep.loadChainDepth) + 1, 0.0);
    for (std::int64_t it = 0; it < trip; ++it) {
        double load_lat_sum = 0.0;
        double chain_lat = 0.0; // deepest dependent-load chain
        std::fill(level_max.begin(), level_max.end(), 0.0);

        for (int id : _topo) {
            const Node &n = _kernel.node(id);
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
                  const ArrayRef &arr =
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
                      const mem::Addr addr = arr.addrOf(
                          static_cast<std::uint64_t>(off));
                      vals[static_cast<std::size_t>(id)] =
                          _backend->load(addr, n.bits / 8,
                                         n.elemIsFloat);
                      const auto res = _hier->hostAccess(
                          addr, n.bits / 8, false, now);
                      load_lat_sum +=
                          static_cast<double>(res.latency);
                      const auto lvl = static_cast<std::size_t>(
                          depth[static_cast<std::size_t>(id)]);
                      if (lvl < level_max.size())
                          level_max[lvl] = std::max(
                              level_max[lvl],
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
                          _backend->store(
                              addr,
                              vals[static_cast<std::size_t>(
                                  n.valueInput)],
                              n.bits / 8, n.elemIsFloat);
                          // Store latency is hidden by the store
                          // buffer; traffic/energy still counted.
                          _hier->hostAccess(addr, n.bits / 8, true,
                                            now);
                      }
                      result.memOps += 1.0;
                  }
                  break;
              }
              default:
                break;
            }
        }
        // Latch carries.
        for (const Node &n : _kernel.nodes) {
            if (n.kind == NodeKind::Carry && n.carryUpdate != compiler::noNode)
                carry_state[static_cast<std::size_t>(n.id)] =
                    vals[static_cast<std::size_t>(n.carryUpdate)];
        }

        for (std::size_t lvl = 2; lvl < level_max.size(); ++lvl)
            chain_lat += level_max[lvl];

        sim::Tick mem_ticks;
        if (_dep.hasMemoryRecurrence) {
            // Pointer chasing: the next address needs this load.
            mem_ticks = static_cast<sim::Tick>(load_lat_sum);
        } else {
            mem_ticks = static_cast<sim::Tick>(
                chain_lat + (load_lat_sum - chain_lat) / mlp);
        }
        now += std::max(compute_ticks, mem_ticks);
        result.insts += ops;
        if (_acct)
            _acct->addEvents(energy::Component::OoOCore, ops);
    }

    for (int node : _kernel.resultCarries) {
        result.results.push_back(
            {node, carry_state[static_cast<std::size_t>(node)]});
    }
    result.endTick = now;
    result.record.start = start_tick;
    result.record.end = now;
    result.record.add(offload::Phase::Execute, now - start_tick);
    return result;
}

} // namespace distda::engine
