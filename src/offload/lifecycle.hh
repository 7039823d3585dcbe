/**
 * @file
 * The offload-lifecycle phase model: every offloaded invocation is
 * decomposed into the seven phases the paper's low-overhead argument
 * rests on — parameter enqueue, descriptor decode, buffer allocation,
 * dispatch, execution, writeback and completion — with per-phase tick
 * durations recorded into one OffloadRecord per invocation.
 *
 * The central contract is the **conservation invariant**: the phase
 * durations of a record sum exactly to its end-to-end latency
 * (end - start). Instrumentation attributes telescoping deltas of the
 * single monotone host timeline, so the invariant holds by
 * construction; it is asserted after every invocation and re-checked
 * per fuzz case, which is what keeps future edits honest.
 *
 * This header depends only on src/sim so both the engine (host
 * executor) and the offload runtime can include it without cycles.
 */

#ifndef DISTDA_OFFLOAD_LIFECYCLE_HH
#define DISTDA_OFFLOAD_LIFECYCLE_HH

#include <array>
#include <cstdint>

#include "src/sim/stats.hh"
#include "src/sim/ticks.hh"

namespace distda::offload
{

/** Lifecycle phases of one offload invocation, in timeline order. */
enum class Phase : std::uint8_t
{
    Enqueue,     ///< scalar-parameter transfer (cp_set_rf), queueing
    Decode,      ///< offload-descriptor transfer + decode (cp_config)
    BufferAlloc, ///< access-unit buffer allocation (cp_config_stream/
                 ///< cp_config_random through the hardware scheduler)
    Dispatch,    ///< launch until execution may start (cp_run)
    Execute,     ///< concurrent decoupled execution on the substrate
    Writeback,   ///< done-token propagation back to the host
    Complete,    ///< result-register readback (cp_load_rf)
    NumPhases,
};

constexpr std::size_t kNumPhases =
    static_cast<std::size_t>(Phase::NumPhases);

const char *phaseName(Phase p);

/** Per-invocation phase timing; ticks are picoseconds. */
struct OffloadRecord
{
    sim::Tick start = 0; ///< host tick the invocation was issued
    sim::Tick end = 0;   ///< host tick the invocation completed
    std::array<sim::Tick, kNumPhases> phase{};

    void
    add(Phase p, sim::Tick ticks)
    {
        phase[static_cast<std::size_t>(p)] += ticks;
    }

    sim::Tick
    ticksIn(Phase p) const
    {
        return phase[static_cast<std::size_t>(p)];
    }

    sim::Tick
    phaseSum() const
    {
        sim::Tick sum = 0;
        for (const sim::Tick t : phase)
            sum += t;
        return sum;
    }

    sim::Tick endToEnd() const { return end - start; }

    /** The conservation invariant: phases account for every tick. */
    bool
    conserved() const
    {
        if (end < start)
            return false;
        // Ticks are unsigned: a negative-delta bug wraps to a huge
        // value, which this per-phase bound catches before the sum
        // (which could itself wrap back) is compared.
        for (const sim::Tick t : phase) {
            if (t > endToEnd())
                return false;
        }
        return phaseSum() == endToEnd();
    }
};

/**
 * Aggregation of OffloadRecords into per-phase duration distributions
 * plus an end-to-end latency distribution with streaming p50/p95/p99.
 * One instance per compiled kernel (driver) or service layer
 * (migration); always on — one add() per invocation is noise next to
 * simulating the invocation.
 */
class LifecycleStats
{
  public:
    LifecycleStats();

    /** Fold one completed record in. @p rec must be conserved. */
    void add(const OffloadRecord &rec);

    double invocations() const { return _e2e.count(); }

    const stats::Distribution &e2eDist() const { return _e2e; }

    /** Total ticks spent in @p p across every recorded invocation. */
    double phaseTicks(Phase p) const
    {
        return _phase[static_cast<std::size_t>(p)].sum();
    }

    double e2eTicks() const { return _e2e.sum(); }

  private:
    std::array<stats::Distribution, kNumPhases> _phase;
    stats::Distribution _e2e;
};

} // namespace distda::offload

#endif // DISTDA_OFFLOAD_LIFECYCLE_HH
