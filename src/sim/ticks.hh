/**
 * @file
 * Core simulation time types: a Tick is one picosecond, as in gem5.
 */

#ifndef DISTDA_SIM_TICKS_HH
#define DISTDA_SIM_TICKS_HH

#include <cstdint>

namespace distda::sim
{

/** Simulated time in picoseconds. */
using Tick = std::uint64_t;

/** A count of clock cycles in some clock domain. */
using Cycles = std::uint64_t;

/** Ticks per second (1 tick == 1 ps). */
constexpr Tick ticksPerSecond = 1'000'000'000'000ULL;

/** The largest representable tick, used as "never". */
constexpr Tick maxTick = ~Tick(0);

/**
 * A clock domain converts between cycles and ticks for one frequency.
 * Components running at different frequencies (2GHz host/IO cores, 1GHz
 * CGRA fabrics) each hold a ClockDomain.
 */
class ClockDomain
{
  public:
    /** Construct a domain from a frequency in hertz. */
    explicit constexpr ClockDomain(std::uint64_t freq_hz)
        : _period(ticksPerSecond / freq_hz)
    {
    }

    /** Duration of one cycle in ticks. */
    constexpr Tick period() const { return _period; }

    /** Convert a cycle count to a tick duration. */
    constexpr Tick cyclesToTicks(Cycles c) const { return c * _period; }

    /** Convert a tick duration to cycles, rounding up. */
    constexpr Cycles
    ticksToCycles(Tick t) const
    {
        return (t + _period - 1) / _period;
    }

    /** The next tick at or after @p when that lies on a clock edge. */
    constexpr Tick
    clockEdge(Tick when) const
    {
        return ((when + _period - 1) / _period) * _period;
    }

  private:
    Tick _period;
};

/** Convenience: make a domain from a GHz value. */
constexpr ClockDomain
gigahertz(double ghz)
{
    return ClockDomain(static_cast<std::uint64_t>(ghz * 1e9));
}

} // namespace distda::sim

#endif // DISTDA_SIM_TICKS_HH
