/**
 * @file
 * Division by a value fixed at construction, for per-access paths.
 *
 * The modelled hardware picks a home cluster, a DRAM bank or a mesh
 * coordinate from address bits; the simulator's parameters are almost
 * always powers of two, so a Divisor turns each divide into a shift and
 * each remainder into a mask. Any other value falls back to the
 * hardware divide, so the result is exact either way.
 */

#ifndef DISTDA_SIM_DIVISOR_HH
#define DISTDA_SIM_DIVISOR_HH

#include <bit>
#include <cstdint>
#include <limits>

#include "src/sim/logging.hh"

namespace distda::sim
{

/** A divisor in [1, INT64_MAX], fixed at construction. */
class Divisor
{
  public:
    explicit Divisor(std::uint64_t d = 1)
        : _d(d), _pow2(std::has_single_bit(d)),
          _shift(_pow2 ? std::countr_zero(d) : 0), _mask(d - 1)
    {
        if (d == 0 ||
            d > static_cast<std::uint64_t>(
                    std::numeric_limits<std::int64_t>::max()))
            fatal("divisor %llu outside [1, 2^63)",
                  static_cast<unsigned long long>(d));
    }

    std::uint64_t value() const { return _d; }

    /** x / d. */
    std::uint64_t
    div(std::uint64_t x) const
    {
        return _pow2 ? x >> _shift : x / _d;
    }

    /** x % d. */
    std::uint64_t
    mod(std::uint64_t x) const
    {
        return _pow2 ? x & _mask : x % _d;
    }

    /** floor(x / d), rounding toward minus infinity for negative x. */
    std::int64_t
    floorDiv(std::int64_t x) const
    {
        if (_pow2)
            return x >> _shift; // arithmetic shift floors
        const auto d = static_cast<std::int64_t>(_d);
        const std::int64_t q = x / d;
        return x < 0 && q * d != x ? q - 1 : q;
    }

    /** x % d == 0, for either sign of x. */
    bool
    divides(std::int64_t x) const
    {
        return _pow2 ? (static_cast<std::uint64_t>(x) & _mask) == 0
                     : x % static_cast<std::int64_t>(_d) == 0;
    }

  private:
    std::uint64_t _d;
    bool _pow2;
    int _shift;
    std::uint64_t _mask;
};

} // namespace distda::sim

#endif // DISTDA_SIM_DIVISOR_HH
