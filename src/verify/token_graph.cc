/**
 * @file
 * The TokenGraph engine (src/verify/token_graph.hh) behind the
 * channels pass: builds the marked graph of a plan's channel ops and
 * decides liveness under FIFO capacities.
 */

#include "src/verify/token_graph.hh"

#include <algorithm>

namespace distda::verify
{

using compiler::ChannelDef;
using compiler::MicroInst;
using compiler::MicroKind;
using compiler::OffloadPlan;
using compiler::Partition;

namespace
{

/** One channel endpoint operation in some partition's program. */
struct ChanOp
{
    int partition = -1;
    int channel = -1; ///< -1 for malformed slots (microcode pass reports)
    bool isProduce = false;
};

/** Channel-op list per partition, in program order. */
std::vector<std::vector<ChanOp>>
collectChannelOps(const OffloadPlan &plan)
{
    std::vector<std::vector<ChanOp>> ops(plan.partitions.size());
    for (const Partition &part : plan.partitions) {
        for (const MicroInst &inst : part.program.insts) {
            if (inst.kind != MicroKind::Consume &&
                inst.kind != MicroKind::Produce)
                continue;
            ChanOp op;
            op.partition = part.id;
            op.isProduce = inst.kind == MicroKind::Produce;
            const auto &table =
                op.isProduce ? part.outChannels : part.inChannels;
            if (inst.slot >= 0 &&
                inst.slot < static_cast<int>(table.size()))
                op.channel = table[static_cast<std::size_t>(inst.slot)];
            if (op.channel >= 0 &&
                op.channel >= static_cast<int>(plan.channels.size()))
                op.channel = -1; // bad slot: microcode pass reports it
            if (part.id >= 0 &&
                part.id < static_cast<int>(ops.size()))
                ops[static_cast<std::size_t>(part.id)].push_back(op);
        }
    }
    return ops;
}

} // namespace

TokenGraph::TokenGraph(const OffloadPlan &plan)
{
    const auto ops = collectChannelOps(plan);

    _producers.resize(plan.channels.size());
    _consumers.resize(plan.channels.size());
    _hostSink.assign(plan.channels.size(), false);
    for (const ChannelDef &ch : plan.channels) {
        if (ch.id >= 0 && ch.id < static_cast<int>(_hostSink.size()))
            _hostSink[static_cast<std::size_t>(ch.id)] =
                ch.dstPartition < 0;
    }

    // Flatten ops into node ids, keeping per-partition program order.
    for (const auto &part_ops : ops) {
        int prev = -1;
        for (const ChanOp &op : part_ops) {
            const int id = static_cast<int>(_numOps++);
            _opPartition.push_back(op.partition);
            _opChannel.push_back(op.channel);
            if (prev >= 0)
                _structural.push_back(Edge{prev, id});
            prev = id;
            if (op.channel < 0) {
                _balanced = false;
                continue;
            }
            auto &table = op.isProduce ? _producers : _consumers;
            table[static_cast<std::size_t>(op.channel)].push_back(id);
        }
    }

    // Data edges: the j-th consume of a channel waits on its j-th
    // produce (zero initial tokens). Host-sunk channels have no
    // microcode consume; the host drains them outside the graph.
    for (std::size_t ch = 0; ch < _producers.size(); ++ch) {
        const auto &prod = _producers[ch];
        const auto &cons = _consumers[ch];
        if (!_hostSink[ch] && prod.size() != cons.size())
            _balanced = false;
        const std::size_t n = std::min(prod.size(), cons.size());
        for (std::size_t j = 0; j < n; ++j)
            _structural.push_back(Edge{prod[j], cons[j]});
    }
}

int
TokenGraph::tokensPerIter(int channel) const
{
    if (channel < 0 ||
        channel >= static_cast<int>(_producers.size()))
        return 0;
    return static_cast<int>(
        _producers[static_cast<std::size_t>(channel)].size());
}

int
TokenGraph::consumesPerIter(int channel) const
{
    if (channel < 0 ||
        channel >= static_cast<int>(_consumers.size()))
        return 0;
    return static_cast<int>(
        _consumers[static_cast<std::size_t>(channel)].size());
}

bool
TokenGraph::cyclic(const std::vector<std::vector<int>> &succ,
                   int *witness) const
{
    // Iterative DFS (colors: 0 white, 1 grey, 2 black).
    std::vector<int> color(_numOps, 0);
    std::vector<int> stack;
    for (std::size_t root = 0; root < _numOps; ++root) {
        if (color[root] != 0)
            continue;
        stack.push_back(static_cast<int>(root));
        while (!stack.empty()) {
            const int v = stack.back();
            if (color[static_cast<std::size_t>(v)] == 0) {
                color[static_cast<std::size_t>(v)] = 1;
                for (int w : succ[static_cast<std::size_t>(v)]) {
                    if (color[static_cast<std::size_t>(w)] == 1) {
                        if (witness)
                            *witness = w;
                        return true;
                    }
                    if (color[static_cast<std::size_t>(w)] == 0)
                        stack.push_back(w);
                }
            } else {
                color[static_cast<std::size_t>(v)] = 2;
                stack.pop_back();
            }
        }
    }
    return false;
}

bool
TokenGraph::structuralDeadlock(int *partition) const
{
    std::vector<std::vector<int>> succ(_numOps);
    for (const Edge &e : _structural)
        succ[static_cast<std::size_t>(e.from)].push_back(e.to);
    int witness = -1;
    if (!cyclic(succ, &witness))
        return false;
    if (partition)
        *partition = witness >= 0
                         ? _opPartition[static_cast<std::size_t>(witness)]
                         : -1;
    return true;
}

bool
TokenGraph::deadlocksWith(const std::vector<int> &capacities,
                          int *channel) const
{
    std::vector<std::vector<int>> succ(_numOps);
    for (const Edge &e : _structural)
        succ[static_cast<std::size_t>(e.from)].push_back(e.to);

    // Capacity back-edges: produce number n*p + j blocks until consume
    // number n*p + j - K has retired. In marked-graph form that is an
    // edge consume_{j'} -> produce_j with (j' - j + K) / p initial
    // tokens, j' = ((j - K) mod p + p) mod p; only zero-token edges
    // (K <= j, i.e. K < p) can close a deadlock cycle.
    for (std::size_t ch = 0; ch < _producers.size(); ++ch) {
        if (_hostSink[ch])
            continue; // drained promptly by the host
        const auto &prod = _producers[ch];
        const auto &cons = _consumers[ch];
        if (prod.empty() || prod.size() != cons.size())
            continue;
        const int cap = ch < capacities.size()
                            ? capacities[ch]
                            : unboundedCapacity;
        if (cap >= unboundedCapacity)
            continue;
        const int k = std::max(cap, 0);
        const int p = static_cast<int>(prod.size());
        for (int j = k; j < p; ++j) {
            const int jp = j - k; // zero-token source consume
            succ[static_cast<std::size_t>(
                     cons[static_cast<std::size_t>(jp)])]
                .push_back(prod[static_cast<std::size_t>(j)]);
        }
    }

    int witness = -1;
    if (!cyclic(succ, &witness))
        return false;
    if (channel)
        *channel = witness >= 0
                       ? _opChannel[static_cast<std::size_t>(witness)]
                       : -1;
    return true;
}

int
TokenGraph::minSafeCapacity(int channel) const
{
    if (channel < 0 ||
        channel >= static_cast<int>(_producers.size()))
        return -1;
    const int p = tokensPerIter(channel);
    if (p == 0)
        return 1; // no producers: any depth is trivially safe
    std::vector<int> caps(_producers.size(), unboundedCapacity);
    for (int k = 1; k <= p; ++k) {
        caps[static_cast<std::size_t>(channel)] = k;
        if (!deadlocksWith(caps, nullptr))
            return k;
    }
    return -1;
}

} // namespace distda::verify
