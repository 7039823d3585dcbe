/**
 * @file
 * Channel-graph liveness: checks the SSIV-B decoupling contract on the
 * actor/channel graph implied by the partition plan. Per channel, the
 * producer and consumer must agree on the per-iteration token count
 * (otherwise occupancy drifts until the FIFO wedges or starves); no
 * channel may have zero capacity; and the marked-graph model of the
 * channel ops (src/verify/token_graph.hh) must be live — a zero-token
 * cycle through program-order and data edges alone is a
 * first-iteration deadlock no FIFO depth can fix, while a cycle that
 * closes only through a capacity back-edge means the configured
 * decoupling depth is too shallow for this plan's token schedule.
 * The same graph yields the facts: deadlock freedom under the
 * configured (per-channel) capacities, and each channel's tokens per
 * iteration and minimum safe capacity.
 */

#include "src/verify/checks.hh"
#include "src/verify/token_graph.hh"

namespace distda::verify
{

using compiler::ChannelDef;
using compiler::OffloadPlan;

namespace
{

constexpr const char *passName = "channels";

void
checkTokenBalance(const OffloadPlan &plan, const TokenGraph &graph,
                  Report &report)
{
    for (const ChannelDef &ch : plan.channels) {
        if (ch.dstPartition < 0) {
            // Host-consumed channel: only the producer side is
            // microcode; the host drains it via cp_consume.
            continue;
        }
        const int p = graph.tokensPerIter(ch.id);
        const int c = graph.consumesPerIter(ch.id);
        if (p == 0 && c == 0) {
            report.add(Severity::Warning, passName, kernelLoc(plan),
                       "channel %d (partition %d -> %d) is never "
                       "produced or consumed",
                       ch.id, ch.srcPartition, ch.dstPartition);
        } else if (p != c) {
            report.add(Severity::Error, passName, kernelLoc(plan),
                       "channel %d (partition %d -> %d) produce/consume "
                       "count mismatch: %d produced vs %d consumed per "
                       "iteration",
                       ch.id, ch.srcPartition, ch.dstPartition, p, c);
        }
    }
}

} // namespace

void
checkChannels(const OffloadPlan &plan, const Options &opts,
              Report &report)
{
    (void)opts;
    const TokenGraph graph(plan);
    const int cap = plan.options.channelCapacity;
    for (const ChannelDef &ch : plan.channels) {
        ChannelFact f;
        f.channel = ch.id;
        f.tokensPerIter = graph.tokensPerIter(ch.id);
        f.configuredCapacity = cap;
        f.minSafeCapacity =
            graph.balanced() ? graph.minSafeCapacity(ch.id) : -1;
        report.channels.push_back(f);
    }

    if (plan.channels.empty()) {
        // Single-actor plan: nothing to wait on.
        report.deadlockFree = Verdict::Proven;
        return;
    }
    if (cap <= 0) {
        report.add(Severity::Error, passName, kernelLoc(plan),
                   "%zu channels with zero decoupling capacity: every "
                   "produce blocks forever",
                   plan.channels.size());
        report.deadlockFree = Verdict::Violated;
        return; // the liveness model degenerates at capacity zero
    }
    checkTokenBalance(plan, graph, report);

    int partition = -1;
    if (graph.structuralDeadlock(&partition)) {
        report.add(Severity::Error, passName, partLoc(plan, partition),
                   "channel-dependence cycle: partitions wait "
                   "on each other before any token is "
                   "produced (first-iteration deadlock)");
        report.deadlockFree = Verdict::Violated;
        return;
    }
    if (!graph.balanced()) {
        // Token-balance errors already explain the drift; liveness
        // verdicts on an unbalanced graph are meaningless.
        report.deadlockFree = Verdict::Unknown;
        return;
    }
    int channel = -1;
    if (!graph.deadlocksWith(
            std::vector<int>(plan.channels.size(), cap), &channel)) {
        report.deadlockFree = Verdict::Proven;
        return;
    }
    report.deadlockFree = Verdict::Violated;
    report.add(Severity::Error, passName, kernelLoc(plan),
               "channel-dependence cycle under capacity %d "
               "(capacity deadlock): channel %d needs capacity >= %d",
               cap, channel, graph.minSafeCapacity(channel));
}

} // namespace distda::verify
