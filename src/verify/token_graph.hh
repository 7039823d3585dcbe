/**
 * @file
 * Marked-graph model of a plan's channel-op structure, the liveness
 * engine of the channels pass (src/verify/channel_check.cc).
 *
 * Nodes are the Produce/Consume micro-ops of every partition; edges
 * carry initial token counts: program order within a partition (zero
 * tokens; the wrap from last op to first carries one token and is
 * therefore never part of a deadlock cycle), the j-th produce of a
 * channel to its j-th consume (zero tokens), and — under a finite
 * FIFO capacity K — a back-edge from a consume to the produce it
 * unblocks, carrying (j' - j + K) / p tokens. By Commoner's theorem a
 * marked graph deadlocks iff some directed cycle carries zero tokens
 * in total, i.e. iff the zero-token edge subgraph has a cycle — which
 * is what this class tests.
 */

#ifndef DISTDA_VERIFY_TOKEN_GRAPH_HH
#define DISTDA_VERIFY_TOKEN_GRAPH_HH

#include <climits>
#include <cstddef>
#include <vector>

#include "src/compiler/plan.hh"

namespace distda::verify
{

/** Sentinel capacity meaning "unbounded FIFO: no back-pressure". */
constexpr int unboundedCapacity = INT_MAX;

class TokenGraph
{
  public:
    explicit TokenGraph(const compiler::OffloadPlan &plan);

    /**
     * True when every inter-partition channel's produce and consume
     * counts match and no op had a malformed slot. Liveness verdicts
     * on an unbalanced graph are meaningless (occupancy drifts).
     */
    bool balanced() const { return _balanced; }

    /** Produce ops per iteration on @p channel (0 when out of range). */
    int tokensPerIter(int channel) const;
    /** Consume ops per iteration on @p channel (0 when out of range). */
    int consumesPerIter(int channel) const;

    /**
     * Zero-token cycle using only program-order and data edges: the
     * involved actors all wait before ever producing, so no FIFO
     * depth helps. Optionally reports one involved partition.
     */
    bool structuralDeadlock(int *partition = nullptr) const;

    /**
     * Deadlock under per-channel capacities (indexed by channel id;
     * values <= 0 mean a zero-depth FIFO, unboundedCapacity removes
     * the back-pressure edges). Optionally reports one channel whose
     * capacity edge closes the cycle (-1 for a structural cycle).
     */
    bool deadlocksWith(const std::vector<int> &capacities,
                       int *channel = nullptr) const;

    /**
     * Smallest capacity K >= 1 making the graph live when @p channel
     * has capacity K and every other channel is unbounded; -1 when no
     * finite capacity helps (structural deadlock or malformed graph).
     * K never needs to exceed the channel's tokens per iteration.
     */
    int minSafeCapacity(int channel) const;

  private:
    struct Edge
    {
        int from;
        int to;
    };

    bool cyclic(const std::vector<std::vector<int>> &succ,
                int *witness) const;

    std::size_t _numOps = 0;
    bool _balanced = true;
    /** Zero-token structural edges (program order + data). */
    std::vector<Edge> _structural;
    /** Per channel: producing op ids in program order. */
    std::vector<std::vector<int>> _producers;
    /** Per channel: consuming op ids in program order. */
    std::vector<std::vector<int>> _consumers;
    /** True when the channel's consumer is the host (dst < 0). */
    std::vector<bool> _hostSink;
    /** Op id -> partition, for diagnostics. */
    std::vector<int> _opPartition;
    /** Op id -> channel, for diagnostics. */
    std::vector<int> _opChannel;
};

} // namespace distda::verify

#endif // DISTDA_VERIFY_TOKEN_GRAPH_HH
