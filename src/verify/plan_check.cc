/**
 * @file
 * The plan linter: re-checks the partitioner's invariants (SSV-A)
 * statically — node coverage, one memory object per partition, accessor
 * placement against the buffer-allocation table, cut-edge
 * materialization as channels, carry cycles staying intra-partition —
 * plus Table VI characteristics consistency.
 */

#include <algorithm>
#include <map>
#include <set>

#include "src/mem/addr.hh"
#include "src/verify/checks.hh"

namespace distda::verify
{

using compiler::AccessorDef;
using compiler::ChannelDef;
using compiler::Kernel;
using compiler::Node;
using compiler::NodeKind;
using compiler::OffloadPlan;
using compiler::Partition;
using compiler::PatternKind;

namespace
{

constexpr const char *passName = "plan";

/** True when a value of this node kind replicates for free (no edge). */
bool
replicable(NodeKind kind)
{
    return kind == NodeKind::ConstInt || kind == NodeKind::ConstFloat ||
           kind == NodeKind::Param || kind == NodeKind::IndVar ||
           kind == NodeKind::MemObject;
}

void
checkNodeCoverage(const OffloadPlan &plan, Report &report)
{
    const std::size_t n = plan.kernel.nodes.size();
    std::vector<int> seen(n, 0);
    for (const Partition &part : plan.partitions) {
        for (int id : part.nodes) {
            if (id < 0 || id >= static_cast<int>(n)) {
                report.add(Severity::Error, passName,
                           partLoc(plan, part.id),
                           "partition references nonexistent DFG node %d",
                           id);
                continue;
            }
            ++seen[static_cast<std::size_t>(id)];
        }
    }
    for (std::size_t i = 0; i < n; ++i) {
        if (seen[i] == 0) {
            report.add(Severity::Error, passName, kernelLoc(plan),
                       "DFG node %zu ('%s') lost: not in any partition",
                       i, plan.kernel.nodes[i].name.c_str());
        } else if (seen[i] > 1) {
            report.add(Severity::Error, passName, kernelLoc(plan),
                       "DFG node %zu ('%s') duplicated across %d "
                       "partitions",
                       i, plan.kernel.nodes[i].name.c_str(), seen[i]);
        }
    }
}

void
checkObjectConstraint(const OffloadPlan &plan, Report &report)
{
    // The <=1-objects-per-partition rule only binds partitioned plans;
    // a monolithic plan legitimately folds every object together.
    if (plan.partitions.size() <= 1)
        return;
    for (const Partition &part : plan.partitions) {
        std::set<int> objs;
        for (const AccessorDef &ad : part.accessors)
            objs.insert(ad.objId);
        if (objs.size() > 1) {
            report.add(Severity::Error, passName, partLoc(plan, part.id),
                       "partition touches %zu memory objects "
                       "(at most one allowed)",
                       objs.size());
        }
    }
}

void
checkAccessorPlacement(const OffloadPlan &plan, Report &report)
{
    const Kernel &kernel = plan.kernel;
    std::set<int> access_ids;
    for (const Partition &part : plan.partitions) {
        std::set<int> placed;
        std::map<int, const AccessorDef *> leader_of_slot;
        for (const AccessorDef &ad : part.accessors) {
            const std::string loc = partLoc(plan, part.id);
            if (ad.node < 0 ||
                ad.node >= static_cast<int>(kernel.nodes.size()) ||
                kernel.node(ad.node).kind != NodeKind::Access) {
                report.add(Severity::Error, passName, loc,
                           "accessor bound to node %d which is not an "
                           "access node",
                           ad.node);
                continue;
            }
            if (std::none_of(kernel.objects.begin(), kernel.objects.end(),
                             [&ad](const compiler::MemObjectDecl &o) {
                                 return o.id == ad.objId;
                             })) {
                report.add(Severity::Error, passName, loc,
                           "accessor (node %d) on undeclared memory "
                           "object %d",
                           ad.node, ad.objId);
            }
            if (!placed.insert(ad.node).second) {
                report.add(Severity::Error, passName, loc,
                           "access node %d has duplicate accessors",
                           ad.node);
            }
            if (!access_ids.insert(ad.accessId).second) {
                report.add(Severity::Error, passName, loc,
                           "access-id %d reused across accessors",
                           ad.accessId);
            }
            if (ad.pattern == PatternKind::Affine) {
                if (ad.bufferSlot < 0 ||
                    ad.bufferSlot >= part.streamBuffers) {
                    report.add(Severity::Error, passName, loc,
                               "stream accessor (node %d) slot %d "
                               "outside buffer-allocation table [0, %d)",
                               ad.node, ad.bufferSlot,
                               part.streamBuffers);
                }
                if (ad.combinedWithSlot < 0)
                    leader_of_slot[ad.bufferSlot] = &ad;
            } else if (ad.bufferSlot >= 0) {
                report.add(Severity::Error, passName, loc,
                           "random-access accessor (node %d) holds "
                           "stream buffer slot %d",
                           ad.node, ad.bufferSlot);
            }
        }
        // Followers tap a leader's buffer on the same object with a
        // window-bounded distance (Fig 2d).
        for (const AccessorDef &ad : part.accessors) {
            if (ad.combinedWithSlot < 0)
                continue;
            const std::string loc = partLoc(plan, part.id);
            if (ad.combinedWithSlot != ad.bufferSlot) {
                report.add(Severity::Error, passName, loc,
                           "follower accessor (node %d) slot %d differs "
                           "from its leader slot %d",
                           ad.node, ad.bufferSlot, ad.combinedWithSlot);
                continue;
            }
            auto it = leader_of_slot.find(ad.combinedWithSlot);
            if (it == leader_of_slot.end()) {
                report.add(Severity::Error, passName, loc,
                           "follower accessor (node %d) has no leader "
                           "for slot %d",
                           ad.node, ad.combinedWithSlot);
                continue;
            }
            const AccessorDef &leader = *it->second;
            if (leader.objId != ad.objId ||
                !leader.affine.sameStrideAs(ad.affine)) {
                report.add(Severity::Error, passName, loc,
                           "follower accessor (node %d) combined with a "
                           "leader on another object/stride",
                           ad.node);
            }
            const std::uint64_t span =
                static_cast<std::uint64_t>(std::llabs(ad.combineDistance)) *
                    ad.elemBytes +
                mem::lineBytes;
            if (span > plan.options.bufferBytes) {
                report.add(Severity::Error, passName, loc,
                           "follower accessor (node %d) tap distance "
                           "%lld exceeds the %u-byte buffer window",
                           ad.node,
                           static_cast<long long>(ad.combineDistance),
                           plan.options.bufferBytes);
            }
        }
        // Every access node mapped here must have been specialized.
        for (int id : part.nodes) {
            if (id < 0 || id >= static_cast<int>(kernel.nodes.size()))
                continue;
            if (kernel.node(id).kind == NodeKind::Access &&
                !placed.count(id)) {
                report.add(Severity::Error, passName,
                           partLoc(plan, part.id),
                           "access node %d has no specialized accessor",
                           id);
            }
        }
    }
}

void
checkChannelMaterialization(const OffloadPlan &plan, Report &report)
{
    const Kernel &kernel = plan.kernel;
    const std::size_t n = kernel.nodes.size();

    // Node -> partition map (tolerates coverage errors reported above).
    std::vector<int> node_part(n, -1);
    for (const Partition &part : plan.partitions) {
        for (int id : part.nodes) {
            if (id >= 0 && id < static_cast<int>(n))
                node_part[static_cast<std::size_t>(id)] = part.id;
        }
    }

    // Channel lookup by (srcNode, dstPartition).
    std::map<std::pair<int, int>, const ChannelDef *> by_edge;
    for (const ChannelDef &ch : plan.channels)
        by_edge[{ch.srcNode, ch.dstPartition}] = &ch;

    std::set<std::pair<int, int>> needed;
    for (const Node &node : kernel.nodes) {
        const int dst = node_part[static_cast<std::size_t>(node.id)];
        for (int in : node.valueInputs()) {
            if (in < 0 || in >= static_cast<int>(n) ||
                replicable(kernel.node(in).kind))
                continue;
            const int src = node_part[static_cast<std::size_t>(in)];
            if (src < 0 || dst < 0 || src == dst)
                continue;
            needed.insert({in, dst});
            auto it = by_edge.find({in, dst});
            if (it == by_edge.end()) {
                report.add(Severity::Error, passName, kernelLoc(plan),
                           "cut edge node %d (partition %d) -> node %d "
                           "(partition %d) has no channel",
                           in, src, node.id, dst);
                continue;
            }
            const ChannelDef &ch = *it->second;
            if (ch.srcPartition != src) {
                report.add(Severity::Error, passName, kernelLoc(plan),
                           "channel %d source partition %d does not "
                           "match producer node %d's partition %d",
                           ch.id, ch.srcPartition, in, src);
            }
            if (ch.bits != kernel.node(in).bits) {
                report.add(Severity::Error, passName, kernelLoc(plan),
                           "channel %d width %u bits does not match "
                           "producer node %d width %u",
                           ch.id, ch.bits, in, kernel.node(in).bits);
            }
        }
    }
    for (const ChannelDef &ch : plan.channels) {
        if (ch.dstPartition >= 0 &&
            !needed.count({ch.srcNode, ch.dstPartition})) {
            report.add(Severity::Error, passName, kernelLoc(plan),
                       "channel %d (node %d -> partition %d) matches no "
                       "cross-partition DFG edge",
                       ch.id, ch.srcNode, ch.dstPartition);
        }
    }

    // Carry recurrences must not cross partitions (no back-edges).
    for (const Node &node : kernel.nodes) {
        if (node.kind != NodeKind::Carry ||
            node.carryUpdate == compiler::noNode)
            continue;
        if (node.carryUpdate < 0 ||
            node.carryUpdate >= static_cast<int>(n))
            continue;
        const int cp = node_part[static_cast<std::size_t>(node.id)];
        const int up =
            node_part[static_cast<std::size_t>(node.carryUpdate)];
        if (cp >= 0 && up >= 0 && cp != up) {
            report.add(Severity::Error, passName, kernelLoc(plan),
                       "carry node %d (partition %d) updated from "
                       "partition %d: recurrence crosses partitions",
                       node.id, cp, up);
        }
    }
}

void
checkWiring(const OffloadPlan &plan, Report &report)
{
    const int nparts = static_cast<int>(plan.partitions.size());
    for (std::size_t i = 0; i < plan.channels.size(); ++i) {
        const ChannelDef &ch = plan.channels[i];
        const std::string loc = kernelLoc(plan);
        if (ch.id != static_cast<int>(i)) {
            report.add(Severity::Error, passName, loc,
                       "channel at index %zu carries id %d", i, ch.id);
        }
        if (ch.srcPartition < 0 || ch.srcPartition >= nparts) {
            report.add(Severity::Error, passName, loc,
                       "channel %d source partition %d out of range",
                       ch.id, ch.srcPartition);
            continue;
        }
        if (ch.dstPartition >= nparts) {
            report.add(Severity::Error, passName, loc,
                       "channel %d destination partition %d out of range",
                       ch.id, ch.dstPartition);
            continue;
        }
        auto count_in = [](const std::vector<int> &v, int id) {
            int c = 0;
            for (int x : v)
                c += x == id;
            return c;
        };
        const Partition &src =
            plan.partitions[static_cast<std::size_t>(ch.srcPartition)];
        if (count_in(src.outChannels, ch.id) != 1) {
            report.add(Severity::Error, passName, partLoc(plan, src.id),
                       "channel %d appears %d times in source partition's "
                       "out-channel list (expected once)",
                       ch.id, count_in(src.outChannels, ch.id));
        }
        if (ch.dstPartition >= 0) {
            const Partition &dst = plan.partitions[static_cast<std::size_t>(
                ch.dstPartition)];
            if (count_in(dst.inChannels, ch.id) != 1) {
                report.add(Severity::Error, passName,
                           partLoc(plan, dst.id),
                           "channel %d appears %d times in destination "
                           "partition's in-channel list (expected once)",
                           ch.id, count_in(dst.inChannels, ch.id));
            }
        }
    }
    // No partition may list a channel the channel table disagrees with.
    for (const Partition &part : plan.partitions) {
        for (int id : part.inChannels) {
            if (id < 0 || id >= static_cast<int>(plan.channels.size()) ||
                plan.channels[static_cast<std::size_t>(id)].dstPartition !=
                    part.id) {
                report.add(Severity::Error, passName,
                           partLoc(plan, part.id),
                           "in-channel %d is not a channel into this "
                           "partition",
                           id);
            }
        }
        for (int id : part.outChannels) {
            if (id < 0 || id >= static_cast<int>(plan.channels.size()) ||
                plan.channels[static_cast<std::size_t>(id)].srcPartition !=
                    part.id) {
                report.add(Severity::Error, passName,
                           partLoc(plan, part.id),
                           "out-channel %d is not a channel out of this "
                           "partition",
                           id);
            }
        }
    }
}

void
checkCharacteristics(const OffloadPlan &plan, Report &report)
{
    const auto &ch = plan.characteristics;
    if (ch.numPartitions != static_cast<int>(plan.partitions.size())) {
        report.add(Severity::Error, passName, kernelLoc(plan),
                   "characteristics claim %d partitions, plan has %zu",
                   ch.numPartitions, plan.partitions.size());
    }
    if (ch.maxInstBytes !=
        ch.maxInsts * static_cast<int>(compiler::microInstBytes)) {
        report.add(Severity::Error, passName, kernelLoc(plan),
                   "Table VI insts(B) %d != 8 * %d static insts",
                   ch.maxInstBytes, ch.maxInsts);
    }
    std::size_t longest = 0;
    for (const Partition &part : plan.partitions)
        longest = std::max(longest, part.program.insts.size());
    if (ch.maxInsts != static_cast<int>(longest)) {
        report.add(Severity::Error, passName, kernelLoc(plan),
                   "characteristics claim at most %d insts per "
                   "partition, the longest program has %zu",
                   ch.maxInsts, longest);
    }
}

} // namespace

void
checkPlan(const OffloadPlan &plan, const Options &opts, Report &report)
{
    (void)opts;
    if (plan.partitions.empty()) {
        report.add(Severity::Error, passName, kernelLoc(plan),
                   "plan has no partitions");
        return;
    }
    checkNodeCoverage(plan, report);
    checkObjectConstraint(plan, report);
    checkAccessorPlacement(plan, report);
    checkChannelMaterialization(plan, report);
    checkWiring(plan, report);
    checkCharacteristics(plan, report);
}

} // namespace distda::verify
