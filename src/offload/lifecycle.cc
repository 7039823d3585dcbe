#include "src/offload/lifecycle.hh"

#include "src/sim/logging.hh"

namespace distda::offload
{

const char *
phaseName(Phase p)
{
    switch (p) {
      case Phase::Enqueue: return "enqueue";
      case Phase::Decode: return "decode";
      case Phase::BufferAlloc: return "buffer_alloc";
      case Phase::Dispatch: return "dispatch";
      case Phase::Execute: return "execute";
      case Phase::Writeback: return "writeback";
      case Phase::Complete: return "complete";
      default: return "?";
    }
}

namespace
{

// Latency histogram range shared by every phase: the bucket grid is
// coarse on purpose (quantiles come from the streaming estimators, not
// the buckets) and the overflow counter catches multi-ms outliers.
constexpr double kLatLo = 0.0;
constexpr double kLatHi = 1e9; // 1 ms in picosecond ticks
constexpr std::size_t kLatBuckets = 50;

stats::Distribution
latencyDist()
{
    return stats::Distribution(kLatLo, kLatHi, kLatBuckets);
}

} // namespace

LifecycleStats::LifecycleStats() : _e2e(latencyDist())
{
    for (stats::Distribution &d : _phase)
        d = latencyDist();
}

void
LifecycleStats::add(const OffloadRecord &rec)
{
    DISTDA_ASSERT(rec.conserved(),
                  "offload record violates phase conservation: "
                  "phases %lld != end-to-end %lld",
                  static_cast<long long>(rec.phaseSum()),
                  static_cast<long long>(rec.endToEnd()));
    for (std::size_t i = 0; i < kNumPhases; ++i)
        _phase[i].sample(static_cast<double>(rec.phase[i]));
    _e2e.sample(static_cast<double>(rec.endToEnd()));
}

} // namespace distda::offload
