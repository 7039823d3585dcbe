/**
 * @file
 * The one definition of what each compute OpCode does to its operands.
 * The accelerator actors (interpreted and predecoded, in-order and
 * CGRA) and the host executor all evaluate through evalOp(), so a
 * kernel computes the same bits wherever it runs.
 *
 * Every operand value has a defined result except integer division by
 * zero, which traps:
 *   - IAdd/ISub/IMul wrap modulo 2^64 (two's complement);
 *   - IDiv/IRem truncate toward zero; a zero divisor traps via fatal()
 *     (a SimFailure under ScopedFailureCapture); INT64_MIN / -1 wraps
 *     to INT64_MIN and INT64_MIN % -1 is 0;
 *   - IAbs(INT64_MIN) wraps to INT64_MIN;
 *   - IShl/IShr use the low six bits of the shift amount (IShr is
 *     arithmetic);
 *   - F2I truncates toward zero, saturates out-of-range values to
 *     INT64_MIN/INT64_MAX and maps NaN to 0;
 *   - float ops follow IEEE-754 double arithmetic (FDiv by zero gives
 *     an infinity, not a trap).
 */

#ifndef DISTDA_COMPILER_EVAL_HH
#define DISTDA_COMPILER_EVAL_HH

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <limits>

#include "src/compiler/dfg.hh"
#include "src/sim/logging.hh"

namespace distda::compiler
{

/** Result of @p op applied to @p a, @p b and @p c (see file comment). */
inline Word
evalOp(OpCode op, Word a, Word b, Word c)
{
    using U = std::uint64_t;
    constexpr std::int64_t minI = std::numeric_limits<std::int64_t>::min();
    constexpr std::int64_t maxI = std::numeric_limits<std::int64_t>::max();
    Word r{};
    switch (op) {
      case OpCode::IAdd:
        r.i = static_cast<std::int64_t>(U(a.i) + U(b.i));
        break;
      case OpCode::ISub:
        r.i = static_cast<std::int64_t>(U(a.i) - U(b.i));
        break;
      case OpCode::IMul:
        r.i = static_cast<std::int64_t>(U(a.i) * U(b.i));
        break;
      case OpCode::IDiv:
        if (b.i == 0)
            fatal("integer division by zero");
        r.i = b.i == -1 ? static_cast<std::int64_t>(0 - U(a.i))
                        : a.i / b.i;
        break;
      case OpCode::IRem:
        if (b.i == 0)
            fatal("integer remainder by zero");
        r.i = b.i == -1 ? 0 : a.i % b.i;
        break;
      case OpCode::IMin: r.i = std::min(a.i, b.i); break;
      case OpCode::IMax: r.i = std::max(a.i, b.i); break;
      case OpCode::IAbs:
        r.i = a.i < 0 ? static_cast<std::int64_t>(0 - U(a.i)) : a.i;
        break;
      case OpCode::IAnd: r.i = a.i & b.i; break;
      case OpCode::IOr: r.i = a.i | b.i; break;
      case OpCode::IXor: r.i = a.i ^ b.i; break;
      case OpCode::IShl:
        r.i = static_cast<std::int64_t>(U(a.i) << (b.i & 63));
        break;
      case OpCode::IShr: r.i = a.i >> (b.i & 63); break;
      case OpCode::ICmpLt: r.i = a.i < b.i; break;
      case OpCode::ICmpLe: r.i = a.i <= b.i; break;
      case OpCode::ICmpEq: r.i = a.i == b.i; break;
      case OpCode::ICmpNe: r.i = a.i != b.i; break;
      case OpCode::FAdd: r.f = a.f + b.f; break;
      case OpCode::FSub: r.f = a.f - b.f; break;
      case OpCode::FMul: r.f = a.f * b.f; break;
      case OpCode::FDiv: r.f = a.f / b.f; break;
      case OpCode::FSqrt: r.f = std::sqrt(a.f); break;
      case OpCode::FAbs: r.f = std::fabs(a.f); break;
      case OpCode::FMin: r.f = std::min(a.f, b.f); break;
      case OpCode::FMax: r.f = std::max(a.f, b.f); break;
      case OpCode::FNeg: r.f = -a.f; break;
      case OpCode::FCmpLt: r.i = a.f < b.f; break;
      case OpCode::FCmpLe: r.i = a.f <= b.f; break;
      case OpCode::FCmpEq: r.i = a.f == b.f; break;
      case OpCode::Select: r = a.i ? b : c; break;
      case OpCode::I2F: r.f = static_cast<double>(a.i); break;
      case OpCode::F2I:
        // 2^63 is exact as a double; every double below it in
        // magnitude truncates to a representable int64.
        if (std::isnan(a.f))
            r.i = 0;
        else if (a.f >= 9223372036854775808.0)
            r.i = maxI;
        else if (a.f < -9223372036854775808.0)
            r.i = minI;
        else
            r.i = static_cast<std::int64_t>(a.f);
        break;
      case OpCode::Mov: r = a; break;
      default:
        panic("bad ALU opcode %d", static_cast<int>(op));
    }
    return r;
}

} // namespace distda::compiler

#endif // DISTDA_COMPILER_EVAL_HH
