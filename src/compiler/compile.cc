/**
 * @file
 * The compilation pipeline of Fig 6: DFG classification, constraint
 * grouping (object clustering and carry cycles), Metis-style
 * partitioning, access-node placement, access specialization with
 * multi-access combining, and microcode generation.
 */

#include <algorithm>
#include <functional>
#include <map>
#include <numeric>
#include <set>

#include "src/mem/addr.hh"

#include "src/compiler/classify.hh"
#include "src/compiler/partitioner.hh"
#include "src/compiler/plan.hh"
#include "src/compiler/plan_io.hh"
#include "src/sim/logging.hh"

namespace distda::compiler
{

const char *
dfgClassName(DfgClass c)
{
    switch (c) {
      case DfgClass::Parallelizable: return "parallelizable";
      case DfgClass::Pipelinable: return "pipelinable";
      case DfgClass::NonPartitionable: return "non-partitionable";
      default: return "?";
    }
}

const char *
mechanismName(Mechanism m)
{
    switch (m) {
      case Mechanism::CpProduce: return "cp_produce";
      case Mechanism::CpConsume: return "cp_consume";
      case Mechanism::CpWrite: return "cp_write";
      case Mechanism::CpRead: return "cp_read";
      case Mechanism::CpStep: return "cp_step";
      case Mechanism::CpFillBuf: return "cp_fill_buf";
      case Mechanism::CpDrainBuf: return "cp_drain_buf";
      case Mechanism::CpFillRa: return "cp_fill_ra";
      case Mechanism::CpDrainRa: return "cp_drain_ra";
      case Mechanism::CpConfig: return "cp_config";
      case Mechanism::CpConfigStream: return "cp_config_stream";
      case Mechanism::CpConfigRandom: return "cp_config_random";
      case Mechanism::CpSetRf: return "cp_set_rf";
      case Mechanism::CpLoadRf: return "cp_load_rf";
      case Mechanism::CpRun: return "cp_run";
      default: return "?";
    }
}

int
OffloadPlan::partitionIndexOf(int node) const
{
    for (const Partition &p : partitions) {
        if (std::find(p.nodes.begin(), p.nodes.end(), node) !=
            p.nodes.end())
            return p.id;
    }
    return -1;
}

namespace
{

/** Union-find over kernel nodes. */
class UnionFind
{
  public:
    explicit UnionFind(std::size_t n) : _parent(n)
    {
        std::iota(_parent.begin(), _parent.end(), 0);
    }

    int
    find(int x)
    {
        while (_parent[static_cast<std::size_t>(x)] != x) {
            _parent[static_cast<std::size_t>(x)] =
                _parent[static_cast<std::size_t>(
                    _parent[static_cast<std::size_t>(x)])];
            x = _parent[static_cast<std::size_t>(x)];
        }
        return x;
    }

    void
    merge(int a, int b)
    {
        _parent[static_cast<std::size_t>(find(a))] = find(b);
    }

  private:
    std::vector<int> _parent;
};

/** True when a value of this node kind replicates for free. */
bool
replicable(NodeKind kind)
{
    return kind == NodeKind::ConstInt || kind == NodeKind::ConstFloat ||
           kind == NodeKind::Param || kind == NodeKind::IndVar ||
           kind == NodeKind::MemObject;
}

/**
 * Grouping constraints (§IV-A, §III): all accessors of one object
 * cluster with that object (the per-object serializing point), and
 * every carry cycle stays within one partition so no cross-partition
 * back-edge arises.
 */
UnionFind
buildGroups(const Kernel &kernel)
{
    UnionFind uf(kernel.nodes.size());

    for (const MemObjectDecl &obj : kernel.objects) {
        int obj_node = noNode;
        for (const Node &n : kernel.nodes) {
            if (n.kind == NodeKind::MemObject && n.objId == obj.id)
                obj_node = n.id;
        }
        for (int a : kernel.accessesOf(obj.id))
            uf.merge(obj_node, a);
    }

    for (const Node &n : kernel.nodes) {
        if (n.kind != NodeKind::Carry || n.carryUpdate == noNode)
            continue;
        // Nodes on a path carry -> ... -> update form the recurrence
        // cycle: X depends on the carry and the update depends on X.
        for (const Node &x : kernel.nodes) {
            if (x.id == n.id)
                continue;
            if (dependsOn(kernel, x.id, n.id) &&
                dependsOn(kernel, n.carryUpdate, x.id))
                uf.merge(n.id, x.id);
        }
        uf.merge(n.id, n.carryUpdate);
    }
    return uf;
}

/** Bytes communicated per iteration for one value edge. */
double
edgeBytes(const Node &producer)
{
    return static_cast<double>(producer.bits) / 8.0;
}

} // namespace

OffloadPlan
compileKernel(const Kernel &kernel, const CompileOptions &opts)
{
    kernel.verify();

    OffloadPlan plan;
    plan.kernel = kernel;
    plan.options = opts;
    plan.fingerprint = planFingerprint(kernel, opts);
    plan.dep = classifyKernel(kernel);

    const std::size_t n = kernel.nodes.size();
    UnionFind uf = buildGroups(kernel);

    // --- Build the partitioning graph over constraint groups. ---
    std::map<int, int> root_to_vertex;
    PartitionGraph graph;
    std::vector<int> node_vertex(n, -1);
    for (std::size_t i = 0; i < n; ++i) {
        const int root = uf.find(static_cast<int>(i));
        auto it = root_to_vertex.find(root);
        if (it == root_to_vertex.end()) {
            const int v = graph.addVertex(0.0, -1);
            it = root_to_vertex.emplace(root, v).first;
        }
        node_vertex[i] = it->second;
        auto &vtx =
            graph.vertices[static_cast<std::size_t>(it->second)];
        vtx.weight += 1.0;
        const Node &node = kernel.nodes[i];
        if (node.kind == NodeKind::MemObject && vtx.objId < 0)
            vtx.objId = node.objId;
    }
    for (const Node &node : kernel.nodes) {
        for (int in : node.valueInputs()) {
            if (replicable(kernel.node(in).kind))
                continue;
            const int va = node_vertex[static_cast<std::size_t>(in)];
            const int vb = node_vertex[static_cast<std::size_t>(node.id)];
            if (va != vb)
                graph.addEdge(va, vb, edgeBytes(kernel.node(in)));
        }
    }

    // --- Partition (Mono configurations and case-2 DFGs skip it). ---
    std::vector<int> vertex_part(graph.vertices.size(), 0);
    if (opts.partition && plan.dep.cls != DfgClass::NonPartitionable &&
        graph.numObjects() > 1) {
        PartitionSolution sol = sweepPartition(graph);
        vertex_part = sol.assignment;
    }

    // Renumber to dense partition ids in first-use order.
    std::map<int, int> dense;
    std::vector<int> node_part(n, -1);
    for (int id : kernel.topoOrder()) {
        const int raw =
            vertex_part[static_cast<std::size_t>(
                node_vertex[static_cast<std::size_t>(id)])];
        auto it = dense.find(raw);
        if (it == dense.end())
            it = dense.emplace(raw, static_cast<int>(dense.size())).first;
        node_part[static_cast<std::size_t>(id)] = it->second;
    }
    const int num_parts = static_cast<int>(dense.size());

    plan.partitions.resize(static_cast<std::size_t>(num_parts));
    for (int p = 0; p < num_parts; ++p)
        plan.partitions[static_cast<std::size_t>(p)].id = p;
    for (int id : kernel.topoOrder()) {
        plan.partitions[static_cast<std::size_t>(
                            node_part[static_cast<std::size_t>(id)])]
            .nodes.push_back(id);
    }

    // Partition object id: the object with the most accesses mapped
    // here (used for home-cluster placement).
    for (Partition &part : plan.partitions) {
        std::map<int, int> access_count;
        for (int id : part.nodes) {
            const Node &node = kernel.node(id);
            if (node.kind == NodeKind::Access)
                ++access_count[node.objId];
        }
        int best = -1, best_count = 0;
        for (const auto &[obj, count] : access_count) {
            if (count > best_count) {
                best_count = count;
                best = obj;
            }
        }
        part.objId = best;
    }

    // --- Channels for cross-partition value edges. ---
    std::map<std::pair<int, int>, int> channel_ids; // (srcNode, dstPart)
    auto users = kernel.userLists();
    auto channel_for = [&](int src_node, int dst_part) -> int {
        auto key = std::make_pair(src_node, dst_part);
        auto it = channel_ids.find(key);
        if (it != channel_ids.end())
            return it->second;
        ChannelDef ch;
        ch.id = static_cast<int>(plan.channels.size());
        ch.srcPartition = node_part[static_cast<std::size_t>(src_node)];
        ch.dstPartition = dst_part;
        ch.srcNode = src_node;
        ch.bits = kernel.node(src_node).bits;
        ch.control = true; // refined below: data once any non-pred use
        plan.channels.push_back(ch);
        channel_ids[key] = ch.id;
        plan.partitions[static_cast<std::size_t>(ch.srcPartition)]
            .outChannels.push_back(ch.id);
        plan.partitions[static_cast<std::size_t>(dst_part)]
            .inChannels.push_back(ch.id);
        return ch.id;
    };

    for (const Node &node : kernel.nodes) {
        const int dst_part =
            node_part[static_cast<std::size_t>(node.id)];
        auto classify_use = [&](int in, bool pred_use) {
            if (in == noNode || replicable(kernel.node(in).kind))
                return;
            const int src_part =
                node_part[static_cast<std::size_t>(in)];
            if (src_part == dst_part)
                return;
            const int ch = channel_for(in, dst_part);
            if (!pred_use)
                plan.channels[static_cast<std::size_t>(ch)].control =
                    false;
        };
        if (node.kind == NodeKind::Access) {
            classify_use(node.addrInput, false);
            classify_use(node.valueInput, false);
            classify_use(node.predInput, true);
        } else if (node.kind == NodeKind::Compute) {
            classify_use(node.inputA, false);
            classify_use(node.inputB, false);
            classify_use(node.inputC, false);
        } else if (node.kind == NodeKind::Carry &&
                   node.carryUpdate != noNode) {
            classify_use(node.carryUpdate, false);
        }
    }

    // --- Placement (§V-A-4): vertical level per partition. ---
    for (Partition &part : plan.partitions) {
        bool has_large_stream = false;
        bool has_irregular = false;
        std::uint64_t irregular_footprint = 0;
        for (int id : part.nodes) {
            const Node &node = kernel.node(id);
            if (node.kind != NodeKind::Access)
                continue;
            const MemObjectDecl &obj =
                kernel.objects[static_cast<std::size_t>(node.objId)];
            if (node.pattern == PatternKind::Affine &&
                node.affine.ivCoeff != 0) {
                has_large_stream = true;
            } else if (node.pattern == PatternKind::Indirect) {
                has_irregular = true;
                irregular_footprint = std::max(
                    irregular_footprint,
                    obj.elemCount * obj.elemBytes);
            }
        }
        // Long strided accesses anchor at the LLC; short irregular
        // sequences stay near the host where offload control is cheap.
        if (!has_large_stream && has_irregular &&
            irregular_footprint <= 64 * 1024) {
            part.level = PlacementLevel::NearHost;
        } else {
            part.level = PlacementLevel::Llc;
        }
    }

    // --- Access specialization with multi-access combining. ---
    int next_access_id = 0;
    for (Partition &part : plan.partitions) {
        // Collect accessors in topological (program) order.
        for (int id : part.nodes) {
            const Node &node = kernel.node(id);
            if (node.kind != NodeKind::Access)
                continue;
            const MemObjectDecl &obj =
                kernel.objects[static_cast<std::size_t>(node.objId)];
            AccessorDef ad;
            ad.node = id;
            ad.objId = node.objId;
            ad.dir = node.dir;
            ad.pattern = node.pattern;
            ad.affine = node.affine;
            ad.elemBytes = obj.elemBytes;
            ad.elemIsFloat = obj.isFloat;
            ad.accessId = next_access_id++;
            part.accessors.push_back(ad);
        }

        // Multi-access combining (Fig 2d): affine accesses on one
        // object with equal strides and a constant access distance
        // within the buffer window share one buffer — loads and stores
        // alike, so a read-modify-write of a window lives in one
        // buffer. The leader (the tap that reaches each element first)
        // drives the fill FSM; followers are taps behind it.
        int next_slot = 0;
        std::vector<bool> handled(part.accessors.size(), false);
        for (std::size_t i = 0; i < part.accessors.size(); ++i) {
            AccessorDef &a = part.accessors[i];
            if (handled[i])
                continue;
            if (a.pattern != PatternKind::Affine) {
                handled[i] = true;
                continue; // random-access path; no stream buffer
            }
            // Collect the stride-equal group on this object.
            std::vector<std::size_t> group{i};
            for (std::size_t j = i + 1; j < part.accessors.size(); ++j) {
                const AccessorDef &b = part.accessors[j];
                if (handled[j] || b.pattern != PatternKind::Affine)
                    continue;
                if (b.objId != a.objId)
                    continue;
                if (!b.affine.sameStrideAs(a.affine))
                    continue;
                group.push_back(j);
            }
            // Leader: for a positive stride, the largest constBase tap
            // touches each element first.
            const bool forward = a.affine.ivCoeff >= 0;
            std::size_t leader = group[0];
            for (std::size_t g : group) {
                const auto &cand = part.accessors[g].affine.constBase;
                const auto &cur =
                    part.accessors[leader].affine.constBase;
                if ((forward && cand > cur) || (!forward && cand < cur))
                    leader = g;
            }
            const int slot = next_slot++;
            part.accessors[leader].bufferSlot = slot;
            handled[leader] = true;
            for (std::size_t g : group) {
                if (g == leader)
                    continue;
                AccessorDef &f = part.accessors[g];
                const std::int64_t dist = std::llabs(
                    part.accessors[leader].affine.constBase -
                    f.affine.constBase);
                if (opts.enableCombining &&
                    static_cast<std::uint64_t>(dist) * f.elemBytes +
                            mem::lineBytes <=
                        opts.bufferBytes) {
                    f.bufferSlot = slot;
                    f.combinedWithSlot = slot;
                    f.combineDistance = dist;
                } else {
                    f.bufferSlot = next_slot++;
                }
                handled[g] = true;
            }
        }
        part.streamBuffers = next_slot;
    }

    // --- Codegen: one microprogram per partition. ---
    for (Partition &part : plan.partitions) {
        MicroProgram prog;
        std::map<int, std::uint16_t> reg_of;
        std::map<int, std::uint16_t> channel_reg;
        std::uint16_t next_reg = 0;
        auto alloc = [&next_reg]() { return next_reg++; };

        std::map<int, int> accessor_index; // node -> accessor position
        for (std::size_t i = 0; i < part.accessors.size(); ++i)
            accessor_index[part.accessors[i].node] =
                static_cast<int>(i);

        auto in_channel_slot = [&part](int ch_id) {
            for (std::size_t i = 0; i < part.inChannels.size(); ++i)
                if (part.inChannels[i] == ch_id)
                    return static_cast<int>(i);
            panic("channel %d not an input of partition %d", ch_id,
                  part.id);
        };
        auto out_channel_slot = [&part](int ch_id) {
            for (std::size_t i = 0; i < part.outChannels.size(); ++i)
                if (part.outChannels[i] == ch_id)
                    return static_cast<int>(i);
            panic("channel %d not an output of partition %d", ch_id,
                  part.id);
        };

        // Resolve (or materialize) the register holding node's value.
        std::function<std::uint16_t(int)> reg_for =
            [&](int node_id) -> std::uint16_t {
            auto it = reg_of.find(node_id);
            if (it != reg_of.end())
                return it->second;
            const Node &node = kernel.node(node_id);
            const int src_part =
                node_part[static_cast<std::size_t>(node_id)];
            std::uint16_t reg;
            if (node.kind == NodeKind::IndVar) {
                if (prog.ivReg == noReg)
                    prog.ivReg = alloc();
                reg = prog.ivReg;
            } else if (node.kind == NodeKind::Param) {
                reg = alloc();
                prog.paramRegs.push_back({node.paramIdx, reg});
            } else if (node.kind == NodeKind::ConstInt) {
                reg = alloc();
                prog.constRegs.push_back({reg, node.imm, false});
            } else if (node.kind == NodeKind::ConstFloat) {
                reg = alloc();
                prog.constRegs.push_back({reg, node.imm, true});
            } else if (node.kind == NodeKind::Carry &&
                       src_part == part.id) {
                reg = alloc();
                prog.carries.push_back(CarrySlot{
                    reg, node.carryInit, node.carryIsFloat, node_id});
            } else if (src_part != part.id) {
                // Remote producer: consume from the channel.
                auto key = std::make_pair(node_id, part.id);
                auto cit = channel_ids.find(key);
                DISTDA_ASSERT(cit != channel_ids.end(),
                              "missing channel for node %d -> part %d",
                              node_id, part.id);
                reg = alloc();
                MicroInst mi;
                mi.kind = MicroKind::Consume;
                mi.dst = reg;
                mi.slot = in_channel_slot(cit->second);
                prog.insts.push_back(mi);
            } else {
                panic("node %d value demanded before definition in "
                      "partition %d", node_id, part.id);
            }
            reg_of[node_id] = reg;
            return reg;
        };

        std::set<int> local(part.nodes.begin(), part.nodes.end());
        for (int id : kernel.topoOrder()) {
            if (!local.count(id))
                continue;
            const Node &node = kernel.node(id);
            switch (node.kind) {
              case NodeKind::Compute: {
                  MicroInst mi;
                  mi.kind = MicroKind::Alu;
                  mi.op = node.op;
                  mi.a = reg_for(node.inputA);
                  if (node.inputB != noNode)
                      mi.b = reg_for(node.inputB);
                  if (node.inputC != noNode)
                      mi.c = reg_for(node.inputC);
                  mi.dst = alloc();
                  reg_of[id] = mi.dst;
                  prog.insts.push_back(mi);
                  break;
              }
              case NodeKind::Access: {
                  MicroInst mi;
                  mi.slot = accessor_index.at(id);
                  if (node.dir == AccessDir::Load) {
                      if (node.pattern == PatternKind::Affine) {
                          mi.kind = MicroKind::LoadStream;
                      } else {
                          mi.kind = MicroKind::LoadIdx;
                          mi.a = reg_for(node.addrInput);
                      }
                      mi.dst = alloc();
                      reg_of[id] = mi.dst;
                  } else {
                      if (node.pattern == PatternKind::Affine) {
                          mi.kind = MicroKind::StoreStream;
                          mi.a = reg_for(node.valueInput);
                      } else {
                          mi.kind = MicroKind::StoreIdx;
                          mi.a = reg_for(node.addrInput);
                          mi.b = reg_for(node.valueInput);
                      }
                      if (node.predInput != noNode)
                          mi.c = reg_for(node.predInput);
                  }
                  prog.insts.push_back(mi);
                  break;
              }
              default:
                break;
            }
            // Produce for consumers in other partitions.
            for (int u : users[static_cast<std::size_t>(id)]) {
                (void)u;
            }
            auto key_begin = channel_ids.lower_bound({id, -1});
            for (auto it2 = key_begin;
                 it2 != channel_ids.end() && it2->first.first == id;
                 ++it2) {
                const ChannelDef &ch =
                    plan.channels[static_cast<std::size_t>(it2->second)];
                if (ch.srcPartition != part.id)
                    continue;
                MicroInst mi;
                mi.kind = MicroKind::Produce;
                mi.a = reg_for(id);
                mi.slot = out_channel_slot(ch.id);
                prog.insts.push_back(mi);
            }
        }

        // Carry write-backs happen last so same-iteration readers of
        // the carry register observe the pre-update value.
        for (std::size_t c = 0; c < prog.carries.size(); ++c) {
            const Node &cn = kernel.node(prog.carries[c].node);
            MicroInst mi;
            mi.kind = MicroKind::CarryWrite;
            mi.a = reg_for(cn.carryUpdate);
            mi.slot = static_cast<int>(c);
            prog.insts.push_back(mi);
        }

        prog.numRegs = next_reg;
        part.program = std::move(prog);
    }

    // --- Mechanism coverage (Table V). ---
    auto set_mech = [&plan](Mechanism m) {
        plan.mechanisms[static_cast<std::size_t>(m)] = true;
    };
    set_mech(Mechanism::CpConfig);
    set_mech(Mechanism::CpSetRf);
    set_mech(Mechanism::CpRun);
    set_mech(Mechanism::CpProduce);
    set_mech(Mechanism::CpConsume);
    if (!kernel.resultCarries.empty())
        set_mech(Mechanism::CpLoadRf);
    for (const Partition &part : plan.partitions) {
        bool streams = false, indirect = false, combined = false;
        bool store_streams = false;
        for (const AccessorDef &ad : part.accessors) {
            if (ad.pattern == PatternKind::Affine) {
                streams = true;
                if (ad.dir == AccessDir::Store)
                    store_streams = true;
                if (ad.combinedWithSlot >= 0)
                    combined = true;
            } else {
                indirect = true;
                if (ad.dir == AccessDir::Load)
                    set_mech(Mechanism::CpRead);
                else
                    set_mech(Mechanism::CpWrite);
            }
        }
        if (streams) {
            set_mech(Mechanism::CpConfigStream);
            set_mech(Mechanism::CpFillBuf);
        }
        if (store_streams)
            set_mech(Mechanism::CpDrainBuf);
        if (indirect)
            set_mech(Mechanism::CpConfigRandom);
        if (combined || indirect || !part.inChannels.empty())
            set_mech(Mechanism::CpStep);
    }

    // --- Characteristics (Table VI). ---
    OffloadCharacteristics &ch = plan.characteristics;
    ch.numPartitions = num_parts;
    double total_bufs = 0.0;
    for (const Partition &part : plan.partitions) {
        ch.maxInsts = std::max(
            ch.maxInsts, static_cast<int>(part.program.insts.size()));
        total_bufs += part.streamBuffers;
    }
    ch.maxInstBytes = ch.maxInsts * static_cast<int>(microInstBytes);
    ch.avgBuffers = total_bufs / std::max(num_parts, 1);
    for (const ChannelDef &c : plan.channels)
        ch.commBytesPerIter += static_cast<double>(c.bits) / 8.0;

    // DFG dimensions: topological depth x max width over compute and
    // access nodes.
    {
        std::vector<int> level(n, 0);
        int max_level = 0;
        for (int id : kernel.topoOrder()) {
            const Node &node = kernel.node(id);
            int lvl = 0;
            for (int in : node.valueInputs())
                lvl = std::max(lvl,
                               level[static_cast<std::size_t>(in)] + 1);
            level[static_cast<std::size_t>(id)] = lvl;
            if (node.kind == NodeKind::Compute ||
                node.kind == NodeKind::Access)
                max_level = std::max(max_level, lvl);
        }
        std::map<int, int> width;
        for (const Node &node : kernel.nodes) {
            if (node.kind == NodeKind::Compute ||
                node.kind == NodeKind::Access)
                ++width[level[static_cast<std::size_t>(node.id)]];
        }
        ch.dfgLevels = max_level + 1;
        for (const auto &[lvl, w] : width)
            ch.dfgWidth = std::max(ch.dfgWidth, w);
    }

    return plan;
}

} // namespace distda::compiler
