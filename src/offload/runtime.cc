#include "src/offload/runtime.hh"

#include <algorithm>

namespace distda::offload
{

using compiler::AccessorDef;
using compiler::Partition;
using compiler::PatternKind;
using compiler::Word;

OffloadRuntime::OffloadRuntime(const compiler::OffloadPlan &plan,
                               const engine::EngineConfig &config,
                               mem::Hierarchy *hier,
                               engine::MemBackend *backend,
                               energy::Accountant *acct)
    : _plan(plan), _engine(plan, config, hier, backend, acct),
      _iface(hier, acct), _hier(hier)
{
}

OffloadRunResult
OffloadRuntime::invoke(const std::vector<engine::ArrayRef> &bindings,
                       const std::vector<Word> &params,
                       sim::Tick start_tick)
{
    sim::Tick t = start_tick;

    // Per-invocation lifecycle record: the interface attributes each
    // intrinsic's host-time delta to its phase; execution and the
    // done-token wait are attributed below. All deltas telescope over
    // the single monotone timeline, so conservation holds by
    // construction.
    OffloadRecord rec;
    rec.start = start_tick;
    _iface.setRecord(&rec);

    // Home clusters for MMIO targeting (greedy by object base).
    auto cluster_of = [&](const Partition &part) {
        if (part.level == compiler::PlacementLevel::NearHost ||
            part.objId < 0)
            return _hier->mesh().hostNode();
        return _hier->l3().clusterOf(
            bindings[static_cast<std::size_t>(part.objId)].base);
    };

    if (!_allocated) {
        // One-time allocation and configuration (§V-B step 1-3).
        for (const Partition &part : _plan.partitions) {
            const int cluster = cluster_of(part);
            t = _iface.cpConfig(cluster, part.program.byteSize(), t);
            bool random_done = false;
            for (const AccessorDef &ad : part.accessors) {
                if (ad.pattern == PatternKind::Affine &&
                    ad.bufferSlot >= 0 && ad.combinedWithSlot < 0) {
                    const auto &arr =
                        bindings[static_cast<std::size_t>(ad.objId)];
                    t = _iface.cpConfigStream(
                        cluster, ad.accessId, arr.base,
                        ad.affine.ivCoeff *
                            static_cast<std::int64_t>(ad.elemBytes),
                        static_cast<std::uint32_t>(
                            std::min<std::uint64_t>(arr.sizeBytes(),
                                                    ~std::uint32_t(0))),
                        4096, t, nullptr);
                } else if (ad.pattern == PatternKind::Indirect &&
                           !random_done) {
                    const auto &arr =
                        bindings[static_cast<std::size_t>(ad.objId)];
                    t = _iface.cpConfigRandom(cluster, ad.accessId,
                                              arr.base,
                                              arr.base + arr.sizeBytes(),
                                              t, nullptr);
                    random_done = true;
                }
            }
        }
        _allocated = true;
    }

    // Scalar parameters reach each partition that consumes them —
    // whether read by an instruction (paramRegs), folded into a stream
    // base (affine coefficients), or bounding the orchestrator loop.
    for (const Partition &part : _plan.partitions) {
        const int cluster = cluster_of(part);
        std::vector<bool> sent(params.size(), false);
        auto send = [&](int param_idx) {
            if (param_idx < 0 ||
                param_idx >= static_cast<int>(params.size()) ||
                sent[static_cast<std::size_t>(param_idx)])
                return;
            sent[static_cast<std::size_t>(param_idx)] = true;
            t = _iface.cpSetRf(
                cluster, param_idx,
                params[static_cast<std::size_t>(param_idx)], t);
        };
        for (const auto &[param_idx, reg] : part.program.paramRegs) {
            (void)reg;
            send(param_idx);
        }
        for (const AccessorDef &ad : part.accessors) {
            for (std::size_t k = 0; k < ad.affine.paramCoeffs.size();
                 ++k) {
                if (ad.affine.paramCoeffs[k] != 0)
                    send(static_cast<int>(k));
            }
        }
        send(_plan.kernel.loop.extentParam);
    }

    // Launch every partition.
    for (const Partition &part : _plan.partitions)
        t = _iface.cpRun(cluster_of(part), t);

    // Concurrent decoupled execution.
    engine::InvokeResult inv = _engine.invoke(bindings, params, t);
    rec.add(Phase::Execute, inv.endTick - t);

    // The host blocks consuming the done token from each sink.
    sim::Tick done = inv.endTick;
    for (const Partition &part : _plan.partitions) {
        if (part.outChannels.empty())
            done = std::max(done, _iface.cpConsumeDone(cluster_of(part),
                                                       inv.endTick, t));
    }
    rec.add(Phase::Writeback, done - inv.endTick);

    // Read back result registers.
    for (const auto &[node, value] : inv.results) {
        (void)value;
        const int pidx = _plan.partitionIndexOf(node);
        done = _iface.cpLoadRf(
            cluster_of(_plan.partitions[static_cast<std::size_t>(pidx)]),
            0, done);
    }

    _iface.setRecord(nullptr);
    rec.end = done;

    OffloadRunResult result;
    result.endTick = done;
    result.results = std::move(inv.results);
    result.accelInsts = inv.accelInsts;
    result.memOps = inv.memOps;
    result.record = rec;
    return result;
}

} // namespace distda::offload
