#include "src/engine/engine.hh"

#include <algorithm>
#include <map>
#include <string>

#include "src/sim/logging.hh"
#include "src/sim/probe.hh"

namespace distda::engine
{

using compiler::AccessDir;
using compiler::AccessorDef;
using compiler::OffloadPlan;
using compiler::Partition;
using compiler::PatternKind;
using compiler::Word;

DataflowEngine::DataflowEngine(const OffloadPlan &plan,
                               const EngineConfig &config,
                               mem::Hierarchy *hier, MemBackend *backend,
                               energy::Accountant *acct)
    : _plan(plan), _config(config), _hier(hier), _backend(backend),
      _acct(acct)
{
    if (config.kind == ActorKind::Cgra) {
        _mappings.reserve(plan.partitions.size());
        for (const Partition &part : plan.partitions)
            _mappings.push_back(
                cgra::mapProgram(part.program, config.fabric));
    }
    if (config.privateCacheBytes > 0) {
        mem::CacheParams pp;
        pp.name = "accel_private";
        pp.sizeBytes = config.privateCacheBytes;
        pp.assoc = 8;
        pp.latencyCycles = 1;
        pp.mshrs = 8;
        pp.component = energy::Component::Acp;
        _privateCache = std::make_unique<mem::Cache>(
            pp, acct,
            mem::Cache::Downstream(
                [](void *ctx, mem::Addr a, bool w, sim::Tick t) {
                    auto *self = static_cast<DataflowEngine *>(ctx);
                    return self->_hier->l3()
                        .access(a, mem::lineBytes, w,
                                self->_hier->mesh().hostNode(), t,
                                mem::TrafficTag{
                                    noc::TrafficClass::AccCtrl,
                                    noc::TrafficClass::AccData})
                        .latency;
                },
                this));
    }
}

namespace
{

bool
sameStreamConfig(const accel::StreamParams &a,
                 const accel::StreamParams &b)
{
    return a.base == b.base && a.strideBytes == b.strideBytes &&
           a.elemBytes == b.elemBytes && a.hasLoads == b.hasLoads &&
           a.hasStores == b.hasStores &&
           a.unitCluster == b.unitCluster &&
           a.consumerCluster == b.consumerCluster &&
           a.capacityBytes == b.capacityBytes &&
           a.totalElems == b.totalElems;
}

} // namespace

accel::StreamUnit *
DataflowEngine::retainedStream(int node, const accel::StreamParams &sp,
                               accel::MemPort port, sim::Tick now)
{
    auto it = _retained.find(node);
    if (_config.retainBuffers && it != _retained.end() &&
        sameStreamConfig(it->second->params(), sp)) {
        it->second->rewind(now);
        return it->second.get();
    }
    sim::Probe *probe = _config.probe;
    int track = -1;
    stats::Distribution *fill_dist = nullptr;
    if (probe) {
        track = probe->addTrack(sp.unitCluster,
                                "stream" + std::to_string(node));
        fill_dist = &probe->addDist("stream.fill_latency_ticks", 0.0,
                                    100'000.0, 20);
    }
    auto unit = std::make_unique<accel::StreamUnit>(
        sp, std::move(port), &_hier->mesh(), &_stats, probe, track,
        fill_dist);
    _retained[node] = std::move(unit);
    return _retained[node].get();
}

InvokeResult
DataflowEngine::invoke(const std::vector<ArrayRef> &bindings,
                       const std::vector<Word> &params,
                       sim::Tick start_tick)
{
    const compiler::Kernel &kernel = _plan.kernel;
    DISTDA_ASSERT(bindings.size() == kernel.objects.size(),
                  "kernel '%s': %zu bindings for %zu objects",
                  kernel.name.c_str(), bindings.size(),
                  kernel.objects.size());

    // Trip count.
    std::int64_t trip = kernel.loop.staticExtent;
    if (kernel.loop.extentParam >= 0) {
        DISTDA_ASSERT(kernel.loop.extentParam <
                          static_cast<int>(params.size()),
                      "missing extent param");
        trip = params[static_cast<std::size_t>(kernel.loop.extentParam)].i;
    }

    const sim::ClockDomain accel_clock(_config.accelClockHz);
    const sim::Tick cycle = accel_clock.period();

    // Evaluate each accessor's element-0 offset under these params.
    auto base_offset = [&params](const AccessorDef &ad) {
        std::int64_t off = ad.affine.constBase;
        for (std::size_t k = 0; k < ad.affine.paramCoeffs.size(); ++k) {
            if (ad.affine.paramCoeffs[k] != 0) {
                DISTDA_ASSERT(k < params.size(), "missing param %zu", k);
                off += ad.affine.paramCoeffs[k] * params[k].i;
            }
        }
        return off;
    };

    // --- Home-node placement (runtime greedy, §V-B). ---
    const int host_node = _hier->mesh().hostNode();
    std::vector<int> part_cluster(_plan.partitions.size(), host_node);
    for (const Partition &part : _plan.partitions) {
        int cluster = host_node;
        if (_config.centralizedAccess) {
            cluster = host_node; // monolithic on the L3 bus
        } else if (part.level == compiler::PlacementLevel::NearHost) {
            cluster = host_node;
        } else if (part.objId >= 0) {
            // Greedy: the cluster holding the first address this
            // partition's object window touches.
            mem::Addr first = bindings[static_cast<std::size_t>(
                                           part.objId)]
                                  .base;
            for (const AccessorDef &ad : part.accessors) {
                if (ad.objId == part.objId &&
                    ad.pattern == PatternKind::Affine) {
                    const std::int64_t off = base_offset(ad);
                    first = bindings[static_cast<std::size_t>(part.objId)]
                                .addrOf(static_cast<std::uint64_t>(
                                    std::max<std::int64_t>(off, 0)));
                    break;
                }
            }
            cluster = _hier->l3().clusterOf(first);
        }
        part_cluster[static_cast<std::size_t>(part.id)] = cluster;
    }
    // --- Count stream buffers per cluster for capacity sharing. ---
    std::map<int, int> buffers_in_cluster;
    auto unit_cluster_of = [&](const Partition &part,
                               const AccessorDef &ad) {
        // Mono-CA: centralized units at the compute node; Dist-DA:
        // units co-located with their partition at its home cluster;
        // Mono-DA: units anchored at the data, forwarding operands to
        // the single remote compute node (Fig 1c vs 1d).
        if (_config.centralizedAccess || _config.distributedCompute)
            return part_cluster[static_cast<std::size_t>(part.id)];
        const std::int64_t off = std::max<std::int64_t>(
            base_offset(ad), 0);
        const mem::Addr addr =
            bindings[static_cast<std::size_t>(ad.objId)].addrOf(
                static_cast<std::uint64_t>(off));
        return _hier->l3().clusterOf(addr);
    };
    for (const Partition &part : _plan.partitions) {
        for (const AccessorDef &ad : part.accessors) {
            if (ad.bufferSlot >= 0 && ad.combinedWithSlot < 0)
                ++buffers_in_cluster[unit_cluster_of(part, ad)];
        }
    }

    // --- Channels. ---
    std::vector<std::unique_ptr<Channel>> channels;
    channels.reserve(_plan.channels.size());
    for (const compiler::ChannelDef &cd : _plan.channels) {
        const int src =
            part_cluster[static_cast<std::size_t>(cd.srcPartition)];
        const int dst =
            cd.dstPartition >= 0
                ? part_cluster[static_cast<std::size_t>(cd.dstPartition)]
                : host_node;
        channels.push_back(std::make_unique<Channel>(
            static_cast<std::size_t>(_plan.options.channelCapacity),
            cd.bits / 8, cd.control, src, dst));
    }

    // --- Memory port shared by units (ACP or Mono-CA private cache).
    // Both routes end in a plain Cache::access, so a port is just the
    // target cache plus one shared thunk. ---
    constexpr accel::MemPort::Fn cache_port =
        [](void *ctx, mem::Addr a, std::uint32_t s, bool w,
           sim::Tick t) {
            return static_cast<mem::Cache *>(ctx)->access(a, s, w, t)
                .latency;
        };
    auto port_at = [this](int cluster) -> accel::MemPort {
        mem::Cache &target =
            _privateCache ? *_privateCache : _hier->acp(cluster);
        return accel::MemPort(cache_port, &target);
    };

    // --- Build actors. ---
    std::vector<std::unique_ptr<PartitionActor>> actors;

    std::vector<Word> param_values = params;

    for (const Partition &part : _plan.partitions) {
        const int compute_cluster =
            part_cluster[static_cast<std::size_t>(part.id)];

        // Stream units: create every leader first, then wire follower
        // taps (program order may interleave them).
        std::map<int, accel::StreamUnit *> slot_stream;
        std::vector<AccessorRuntime> ars(part.accessors.size());
        for (int pass = 0; pass < 2; ++pass) {
        for (std::size_t ai = 0; ai < part.accessors.size(); ++ai) {
            const AccessorDef &ad = part.accessors[ai];
            const bool leader_pass =
                ad.bufferSlot >= 0 && ad.combinedWithSlot < 0;
            if ((pass == 0) != leader_pass)
                continue;
            AccessorRuntime ar;
            ar.def = &ad;
            ar.array = bindings[static_cast<std::size_t>(ad.objId)];
            ar.baseElemOffset = base_offset(ad);
            if (ad.bufferSlot >= 0 && ad.combinedWithSlot < 0) {
                const int uc = unit_cluster_of(part, ad);
                accel::StreamParams sp;
                const std::int64_t off =
                    std::max<std::int64_t>(ar.baseElemOffset, 0);
                sp.base = ar.array.addrOf(
                    static_cast<std::uint64_t>(off));
                sp.strideBytes = ad.affine.ivCoeff *
                                 static_cast<std::int64_t>(ad.elemBytes);
                sp.elemBytes = ad.elemBytes;
                // Combined buffers are read-modify-write when the
                // group mixes loads and stores (Fig 2d).
                sp.hasLoads = false;
                sp.hasStores = false;
                for (const AccessorDef &other : part.accessors) {
                    if (other.bufferSlot == ad.bufferSlot) {
                        if (other.dir == AccessDir::Load)
                            sp.hasLoads = true;
                        else
                            sp.hasStores = true;
                    }
                }
                sp.unitCluster = uc;
                sp.consumerCluster = compute_cluster;
                sp.totalElems = static_cast<std::uint64_t>(
                    std::max<std::int64_t>(trip, 1));
                sp.cycleTick = cycle;
                const int nbuf =
                    std::max(buffers_in_cluster[uc], 1);
                sp.capacityBytes = std::max<std::uint32_t>(
                    _plan.options.bufferBytes /
                        static_cast<std::uint32_t>(nbuf),
                    256);
                ar.stream = retainedStream(ad.node, sp, port_at(uc),
                                           start_tick);
                slot_stream[ad.bufferSlot] = ar.stream;
                ar.tapDistance = 0;
            } else if (ad.bufferSlot >= 0) {
                // Follower tap on the leader's buffer.
                auto it = slot_stream.find(ad.combinedWithSlot);
                DISTDA_ASSERT(it != slot_stream.end(),
                              "follower before leader in partition %d",
                              part.id);
                ar.stream = it->second;
                const std::int64_t stride_elems = std::max<std::int64_t>(
                    std::llabs(ad.affine.ivCoeff), 1);
                ar.tapDistance = ad.combineDistance / stride_elems;
            }
            ars[ai] = ar;
        }
        }

        auto random = std::make_unique<accel::RandomUnit>(
            port_at(compute_cluster), &_stats, cycle);

        std::vector<Channel *> ins, outs;
        ins.reserve(part.inChannels.size());
        for (int ch : part.inChannels)
            ins.push_back(channels[static_cast<std::size_t>(ch)].get());
        outs.reserve(part.outChannels.size());
        for (int ch : part.outChannels)
            outs.push_back(channels[static_cast<std::size_t>(ch)].get());

        PartitionActor::Config ac;
        ac.part = &part;
        ac.kind = _config.kind;
        ac.cycleTick = cycle;
        ac.issueWidth = _config.issueWidth;
        ac.instEnergyScale = _config.instEnergyScale;
        if (_config.kind == ActorKind::Cgra) {
            const cgra::CgraMapping &m =
                _mappings[static_cast<std::size_t>(part.id)];
            ac.ii = m.ii;
            ac.scheduleDepth = m.scheduleDepth;
            ac.energyComp = energy::Component::Cgra;
        } else {
            ac.energyComp = energy::Component::IOCore;
        }
        ac.cluster = compute_cluster;
        ac.trip = trip;
        ac.swPrefetch = _plan.options.swPrefetch;
        // Indirect accesses run ahead of the consumer when the index
        // is itself streamable (B[A[i]]); software prefetching widens
        // the window; pointer-chasing recurrences cannot run ahead.
        if (_plan.dep.hasMemoryRecurrence) {
            ac.hideTicks = 0;
        } else {
            const sim::Tick depth = ac.swPrefetch ? 96 : 48;
            ac.hideTicks = depth * cycle;
        }
        ac.startTick = start_tick;
        ac.predecode = _config.predecode;
        if (_config.probe) {
            ac.probe = _config.probe;
            ac.track = _config.probe->addTrack(
                compute_cluster, "part" + std::to_string(part.id));
            ac.sliceInsts = &_config.probe->addDist(
                "actor.slice_insts", 0.0, 8192.0, 32);
        }

        actors.push_back(std::make_unique<PartitionActor>(
            ac, std::move(ars), std::move(random), std::move(ins),
            std::move(outs), param_values, _backend, _acct,
            &_hier->mesh(), &_stats));
    }

    // Channel occupancy counter tracks: one counter per channel on its
    // source cluster's track, sampled once per round-robin round (the
    // probe coalesces to the configured interval).
    std::vector<int> ch_counters;
    if (_config.probe) {
        ch_counters.reserve(channels.size());
        for (std::size_t ci = 0; ci < channels.size(); ++ci) {
            const int track = _config.probe->addTrack(
                channels[ci]->srcCluster(),
                "ch" + std::to_string(_plan.channels[ci].id));
            ch_counters.push_back(
                _config.probe->addCounter(track, "occupancy"));
        }
    }

    // --- Round-robin decoupled execution until quiescence. ---
    constexpr std::int64_t chunk = 1024;
    bool all_done = false;
    while (!all_done) {
        all_done = true;
        double progress = 0.0;
        for (auto &actor : actors) {
            const double before = actor->instsExecuted();
            const ActorStatus st = actor->run(chunk);
            progress += actor->instsExecuted() - before;
            if (st != ActorStatus::Finished)
                all_done = false;
        }
        if (!all_done && progress == 0.0) {
            panic("dataflow deadlock in kernel '%s'",
                  kernel.name.c_str());
        }
        if (_config.probe) {
            sim::Tick round_now = start_tick;
            for (const auto &actor : actors)
                round_now = std::max(round_now, actor->now());
            for (std::size_t ci = 0; ci < channels.size(); ++ci) {
                _config.probe->counter(
                    ch_counters[ci], round_now,
                    static_cast<double>(channels[ci]->occupancy()),
                    all_done);
            }
        }
    }

    // Token conservation at quiescence: every dataflow channel must be
    // closed by its producer and fully drained by its consumer — a
    // leftover or missing token means partitions disagreed about the
    // iteration space, which execution-time backpressure can mask.
    for (std::size_t ci = 0; ci < channels.size(); ++ci) {
        const Channel &ch = *channels[ci];
        DISTDA_ASSERT(ch.closed(),
                      "kernel '%s': channel %d not closed at quiescence",
                      kernel.name.c_str(), _plan.channels[ci].id);
        DISTDA_ASSERT(ch.pushed() == ch.popped() && ch.empty(),
                      "kernel '%s': channel %d tokens not conserved "
                      "(pushed %llu, popped %llu, %zu in flight)",
                      kernel.name.c_str(), _plan.channels[ci].id,
                      static_cast<unsigned long long>(ch.pushed()),
                      static_cast<unsigned long long>(ch.popped()),
                      ch.occupancy());
    }

    if (_config.probe) {
        stats::Distribution &occ = _config.probe->addDist(
            "channel.max_occupancy", 0.0,
            static_cast<double>(_plan.options.channelCapacity) + 1.0,
            16);
        for (const auto &ch : channels)
            occ.sample(static_cast<double>(ch->maxOccupancy()));
    }

    InvokeResult result;
    for (const auto &actor : actors) {
        result.endTick = std::max(result.endTick, actor->finishTick());
        result.accelInsts += actor->instsExecuted();
        result.memOps += actor->memOps();
    }

    // Result carries read back by the host (cp_load_rf).
    for (int node : kernel.resultCarries) {
        for (const auto &actor : actors) {
            const auto &slots = actor->carrySlots();
            for (std::size_t i = 0; i < slots.size(); ++i) {
                if (slots[i].node == node)
                    result.results.push_back(
                        {node, actor->carryValue(i)});
            }
        }
    }
    return result;
}

} // namespace distda::engine
