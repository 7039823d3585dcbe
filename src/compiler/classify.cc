#include "src/compiler/classify.hh"

#include <algorithm>
#include <vector>

namespace distda::compiler
{

bool
dependsOn(const Kernel &kernel, int node, int candidate)
{
    if (node == noNode)
        return false;
    std::vector<int> work{node};
    std::vector<bool> seen(kernel.nodes.size(), false);
    while (!work.empty()) {
        const int cur = work.back();
        work.pop_back();
        if (cur == candidate)
            return true;
        if (seen[static_cast<std::size_t>(cur)])
            continue;
        seen[static_cast<std::size_t>(cur)] = true;
        for (int in : kernel.node(cur).valueInputs())
            work.push_back(in);
    }
    return false;
}

bool
carriedDistance(const AffinePattern &store_pat,
                const AffinePattern &load_pat, std::int64_t &d)
{
    if (!store_pat.sameStrideAs(load_pat)) {
        // Different strides: conservatively dependent at distance 1.
        d = 1;
        return true;
    }
    const std::int64_t diff = load_pat.constBase - store_pat.constBase;
    if (store_pat.ivCoeff == 0) {
        // Loop-invariant location touched every iteration.
        d = (diff == 0) ? 1 : -1;
        return diff == 0;
    }
    if (diff % store_pat.ivCoeff != 0)
        return false;
    // store@i hits the element load reads at i + d where
    // base_s + c*i == base_l + c*(i + d)  =>  d = -diff / c.
    d = -diff / store_pat.ivCoeff;
    return d > 0;
}

std::vector<int>
loadDepths(const Kernel &kernel)
{
    std::vector<int> depth(kernel.nodes.size(), 0);
    for (int id : kernel.topoOrder()) {
        const Node &n = kernel.node(id);
        int in_depth = 0;
        for (int in : n.valueInputs())
            in_depth = std::max(in_depth,
                                depth[static_cast<std::size_t>(in)]);
        depth[static_cast<std::size_t>(id)] =
            in_depth + ((n.kind == NodeKind::Access &&
                         n.dir == AccessDir::Load)
                            ? 1
                            : 0);
    }
    return depth;
}

DependenceInfo
classifyKernel(const Kernel &kernel)
{
    DependenceInfo info;

    std::vector<int> loads, stores, carries;
    for (const Node &n : kernel.nodes) {
        if (n.kind == NodeKind::Carry) {
            carries.push_back(n.id);
            info.hasCarry = true;
        } else if (n.kind == NodeKind::Access) {
            if (n.dir == AccessDir::Load)
                loads.push_back(n.id);
            else
                stores.push_back(n.id);
        }
    }

    for (int s : stores) {
        const Node &sn = kernel.node(s);
        if (sn.pattern == PatternKind::Indirect)
            info.hasIndirectWrite = true;
    }

    // Affine store -> affine load carried dependences on one object.
    for (int s : stores) {
        const Node &sn = kernel.node(s);
        for (int l : loads) {
            const Node &ln = kernel.node(l);
            if (ln.objId != sn.objId)
                continue;
            if (sn.pattern == PatternKind::Indirect ||
                ln.pattern == PatternKind::Indirect) {
                // Unresolvable at compile time: conservative carried
                // dependence (kept legal by object-level clustering).
                info.hasCarriedMemDep = true;
                continue;
            }
            std::int64_t d = 0;
            if (carriedDistance(sn.affine, ln.affine, d))
                info.hasCarriedMemDep = true;
        }
    }

    // Memory recurrence: an indirect load whose address chain passes
    // through a carry that is in turn updated from that load (pointer
    // chasing) — §V-A-2's case 2.
    for (int l : loads) {
        const Node &ln = kernel.node(l);
        if (ln.pattern != PatternKind::Indirect)
            continue;
        for (int c : carries) {
            const Node &cn = kernel.node(c);
            if (dependsOn(kernel, ln.addrInput, c) &&
                cn.carryUpdate != noNode &&
                dependsOn(kernel, cn.carryUpdate, l)) {
                info.hasMemoryRecurrence = true;
            }
        }
    }

    // Dependent-load chain depth within one iteration (feeds the OoO
    // and software-prefetch models).
    for (int d : loadDepths(kernel))
        info.loadChainDepth = std::max(info.loadChainDepth, d);

    // Loop-carried compute recurrence latency: ops on a carry cycle
    // execute serially across iterations.
    for (int c : carries) {
        const Node &cn = kernel.node(c);
        if (cn.carryUpdate == noNode)
            continue;
        int cycles = 0;
        for (const Node &x : kernel.nodes) {
            if (x.kind != NodeKind::Compute)
                continue;
            if (dependsOn(kernel, x.id, c) &&
                dependsOn(kernel, cn.carryUpdate, x.id)) {
                switch (fuClassOf(x.op)) {
                  case FuClass::Complex: cycles += 8; break;
                  case FuClass::Float: cycles += 3; break;
                  default: cycles += 1; break;
                }
            }
        }
        info.carryChainCycles = std::max(info.carryChainCycles, cycles);
    }

    if (info.hasMemoryRecurrence)
        info.cls = DfgClass::NonPartitionable;
    else if (info.hasCarry || info.hasIndirectWrite ||
             info.hasCarriedMemDep)
        info.cls = DfgClass::Pipelinable;
    else
        info.cls = DfgClass::Parallelizable;
    return info;
}

} // namespace distda::compiler
