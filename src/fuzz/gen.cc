#include "src/fuzz/gen.hh"

#include <algorithm>
#include <cmath>
#include <cstring>
#include <limits>

#include "src/sim/logging.hh"
#include "src/sim/rng.hh"

namespace distda::fuzz
{

using compiler::AffineExpr;
using compiler::Kernel;
using compiler::KernelBuilder;
using compiler::OpCode;
using compiler::ValueRef;
using compiler::Word;

namespace
{

// Magnitude discipline. Integer loads from data objects are assumed
// bounded by kIntLoadBound (stores are masked down to it when needed),
// multiplication operands stay below kMulCap so products fit kBoundCap,
// and kBoundCap itself leaves >20 bits of headroom below INT64_MAX for
// additive slop — no generated arithmetic can reach signed overflow.
constexpr std::uint64_t kIntLoadBound = 65535;
constexpr std::uint64_t kMulCap = 1ULL << 20;
constexpr std::uint64_t kBoundCap = 1ULL << 40;
// Floats: loads assumed below kFloatLoadBound (stores clamped to it
// via fmin/fmax), per-kernel chains stay far below overflow.
constexpr double kFloatLoadBound = 1024.0;
constexpr double kFloatCap = 1e30;

/** A pool value with its conservative magnitude bound. */
struct Val
{
    ValueRef ref;
    std::uint64_t ib = 0; ///< |value| <= ib (integers)
    double fb = 0.0;      ///< |value| <= fb (floats)
    bool nonneg = false;  ///< provably >= 0 (integers)
};

/** Case object plus generation-time metadata. */
struct GenObject
{
    CaseObject spec;
    int indexTarget = -1; ///< index objects: target case object
};

std::uint64_t
mix(std::uint64_t a, std::uint64_t b)
{
    std::uint64_t x = a ^ (b + 0x9e3779b97f4a7c15ULL + (a << 6) +
                           (a >> 2));
    x ^= x >> 30;
    x *= 0xbf58476d1ce4e5b9ULL;
    x ^= x >> 27;
    return x ? x : 1;
}

/** Generates one kernel body under the magnitude discipline. */
class BodyGen
{
  public:
    BodyGen(sim::Rng &rng, KernelBuilder &b) : _rng(rng), _b(b) {}

    void
    pushInt(ValueRef r, std::uint64_t ib, bool nonneg)
    {
        _ints.push_back(Val{r, ib, 0.0, nonneg});
    }

    void pushFloat(ValueRef r, double fb)
    {
        _floats.push_back(Val{r, 0, fb, false});
    }

    bool haveFloats() const { return !_floats.empty(); }

    Val
    freshConstInt()
    {
        const std::int64_t v =
            static_cast<std::int64_t>(_rng.nextBelow(17)) - 8;
        return Val{_b.constInt(v),
                   static_cast<std::uint64_t>(v < 0 ? -v : v), 0.0,
                   v >= 0};
    }

    Val
    freshConstFloat()
    {
        const double v = _rng.nextDouble() * 8.0 - 4.0;
        return Val{_b.constFloat(v), 0, 4.0, false};
    }

    /** Pool value (or fresh constant) with |v| <= @p max_ib. */
    Val
    pickInt(std::uint64_t max_ib)
    {
        std::vector<std::size_t> ok;
        for (std::size_t i = 0; i < _ints.size(); ++i) {
            if (_ints[i].ib <= max_ib)
                ok.push_back(i);
        }
        if (ok.empty() || _rng.nextBelow(6) == 0)
            return freshConstInt();
        return _ints[ok[_rng.nextBelow(ok.size())]];
    }

    Val
    pickFloat(double max_fb)
    {
        std::vector<std::size_t> ok;
        for (std::size_t i = 0; i < _floats.size(); ++i) {
            if (_floats[i].fb <= max_fb)
                ok.push_back(i);
        }
        if (ok.empty() || _rng.nextBelow(6) == 0)
            return freshConstFloat();
        return _floats[ok[_rng.nextBelow(ok.size())]];
    }

    /** A store-safe integer: |v| <= kIntLoadBound, masking if needed. */
    Val
    storableInt()
    {
        Val v = pickInt(kBoundCap);
        if (v.ib > kIntLoadBound) {
            Val mask{_b.constInt(0xFFFF), 0xFFFF, 0.0, true};
            v = Val{_b.compute(OpCode::IAnd, v.ref, mask.ref), 0xFFFF,
                    0.0, true};
        }
        return v;
    }

    /** A store-safe float: |v| <= kFloatLoadBound, clamping if needed. */
    Val
    storableFloat()
    {
        Val v = pickFloat(kFloatCap);
        if (v.fb > kFloatLoadBound) {
            const ValueRef hi = _b.constFloat(kFloatLoadBound);
            const ValueRef lo = _b.constFloat(-kFloatLoadBound);
            ValueRef r = _b.fmin(v.ref, hi);
            r = _b.fmax(r, lo);
            v = Val{r, 0, kFloatLoadBound, false};
        }
        return v;
    }

    /** Integer provably in [0, count): rem by count, then abs. */
    Val
    clampedIndex(std::uint64_t count)
    {
        Val v = pickInt(kBoundCap);
        const ValueRef c =
            _b.constInt(static_cast<std::int64_t>(count));
        ValueRef r = _b.compute(OpCode::IRem, v.ref, c);
        r = _b.iabs(r);
        return Val{r, count - 1, 0.0, true};
    }

    /** A small nonnegative int usable as a comparison operand. */
    Val
    predicate()
    {
        const Val a = pickInt(kBoundCap);
        const Val b = pickInt(kBoundCap);
        static constexpr OpCode cmps[] = {OpCode::ICmpLt, OpCode::ICmpLe,
                                          OpCode::ICmpEq,
                                          OpCode::ICmpNe};
        const OpCode op = cmps[_rng.nextBelow(4)];
        return Val{_b.compute(op, a.ref, b.ref), 1, 0.0, true};
    }

    /** Run @p n random compute steps, growing the pools. */
    void
    computeSteps(int n)
    {
        for (int i = 0; i < n; ++i)
            step();
    }

  private:
    void
    step()
    {
        switch (_rng.nextBelow(19)) {
          case 0: { // iadd / isub
              const Val a = pickInt(kBoundCap / 2);
              const Val b = pickInt(kBoundCap - a.ib);
              const bool sub = _rng.nextBelow(2) == 0;
              const ValueRef r = _b.compute(
                  sub ? OpCode::ISub : OpCode::IAdd, a.ref, b.ref);
              pushInt(r, a.ib + b.ib, !sub && a.nonneg && b.nonneg);
              break;
          }
          case 1: { // imul
              const Val a = pickInt(kMulCap);
              const Val b = pickInt(kMulCap);
              pushInt(_b.imul(a.ref, b.ref), a.ib * b.ib,
                      a.nonneg && b.nonneg);
              break;
          }
          case 2: { // idiv / irem by a positive constant
              const Val a = pickInt(kBoundCap);
              const std::int64_t d =
                  1 + static_cast<std::int64_t>(_rng.nextBelow(9));
              const ValueRef dc = _b.constInt(d);
              if (_rng.nextBelow(2) == 0) {
                  pushInt(_b.compute(OpCode::IDiv, a.ref, dc), a.ib,
                          a.nonneg);
              } else {
                  pushInt(_b.compute(OpCode::IRem, a.ref, dc),
                          static_cast<std::uint64_t>(d - 1), a.nonneg);
              }
              break;
          }
          case 3: { // imin / imax
              const Val a = pickInt(kBoundCap);
              const Val b = pickInt(kBoundCap);
              const bool mx = _rng.nextBelow(2) == 0;
              pushInt(_b.compute(mx ? OpCode::IMax : OpCode::IMin,
                                 a.ref, b.ref),
                      std::max(a.ib, b.ib), a.nonneg && b.nonneg);
              break;
          }
          case 4: { // iabs
              const Val a = pickInt(kBoundCap);
              pushInt(_b.iabs(a.ref), a.ib, true);
              break;
          }
          case 5: { // iand with a mask constant
              const Val a = pickInt(kBoundCap);
              static constexpr std::int64_t masks[] = {0xF, 0xFF, 0xFFF,
                                                       0xFFFF};
              const std::int64_t m = masks[_rng.nextBelow(4)];
              pushInt(_b.compute(OpCode::IAnd, a.ref, _b.constInt(m)),
                      static_cast<std::uint64_t>(m), true);
              break;
          }
          case 6: { // ior / ixor
              const Val a = pickInt(kBoundCap / 4);
              const Val b = pickInt(kBoundCap / 4);
              const bool x = _rng.nextBelow(2) == 0;
              pushInt(_b.compute(x ? OpCode::IXor : OpCode::IOr, a.ref,
                                 b.ref),
                      2 * std::max(a.ib, b.ib) + 1,
                      a.nonneg && b.nonneg);
              break;
          }
          case 7: { // ishl / ishr by a small constant
              const Val a = pickInt(kBoundCap >> 3);
              const std::int64_t s =
                  1 + static_cast<std::int64_t>(_rng.nextBelow(3));
              const ValueRef sc = _b.constInt(s);
              if (_rng.nextBelow(2) == 0) {
                  pushInt(_b.compute(OpCode::IShl, a.ref, sc),
                          a.ib << s, a.nonneg);
              } else {
                  pushInt(_b.compute(OpCode::IShr, a.ref, sc), a.ib,
                          a.nonneg);
              }
              break;
          }
          case 8: { // icmp
              _ints.push_back(predicate());
              break;
          }
          case 9: { // integer select
              const Val c = predicate();
              const Val t = pickInt(kBoundCap / 2);
              const Val f = pickInt(kBoundCap / 2);
              pushInt(_b.select(c.ref, t.ref, f.ref),
                      std::max(t.ib, f.ib), t.nonneg && f.nonneg);
              break;
          }
          case 10: { // i2f
              const Val a = pickInt(kBoundCap);
              pushFloat(_b.compute(OpCode::I2F, a.ref),
                        static_cast<double>(a.ib));
              break;
          }
          case 11: { // fadd / fsub
              const Val a = pickFloat(kFloatCap / 2);
              const Val b = pickFloat(kFloatCap / 2);
              const bool sub = _rng.nextBelow(2) == 0;
              pushFloat(_b.compute(sub ? OpCode::FSub : OpCode::FAdd,
                                   a.ref, b.ref),
                        a.fb + b.fb);
              break;
          }
          case 12: { // fmul
              const Val a = pickFloat(1e12);
              const Val b = pickFloat(1e12);
              pushFloat(_b.fmul(a.ref, b.ref), a.fb * b.fb);
              break;
          }
          case 13: { // fdiv by a constant away from zero
              const Val a = pickFloat(kFloatCap / 4);
              const double d = (_rng.nextDouble() * 3.5 + 0.5) *
                               (_rng.nextBelow(2) ? 1.0 : -1.0);
              pushFloat(_b.fdiv(a.ref, _b.constFloat(d)), a.fb * 2.0);
              break;
          }
          case 14: { // fsqrt of |x|
              const Val a = pickFloat(kFloatCap);
              const ValueRef abs = _b.compute(OpCode::FAbs, a.ref);
              pushFloat(_b.fsqrt(abs),
                        a.fb > 1.0 ? std::sqrt(a.fb) : 1.0);
              break;
          }
          case 15: { // fmin / fmax / fneg / fabs
              const Val a = pickFloat(kFloatCap);
              switch (_rng.nextBelow(4)) {
                case 0: {
                    const Val b = pickFloat(kFloatCap);
                    pushFloat(_b.fmin(a.ref, b.ref),
                              std::max(a.fb, b.fb));
                    break;
                }
                case 1: {
                    const Val b = pickFloat(kFloatCap);
                    pushFloat(_b.fmax(a.ref, b.ref),
                              std::max(a.fb, b.fb));
                    break;
                }
                case 2:
                    pushFloat(_b.compute(OpCode::FNeg, a.ref), a.fb);
                    break;
                default:
                    pushFloat(_b.compute(OpCode::FAbs, a.ref), a.fb);
                    break;
              }
              break;
          }
          case 16: { // edge operands, masked back into the discipline
              pushInt(_b.compute(OpCode::IAnd, edgeValue(),
                                 _b.constInt(0xFFFF)),
                      0xFFFF, true);
              break;
          }
          case 17: { // fcmp -> int predicate
              const Val a = pickFloat(kFloatCap);
              const Val b = pickFloat(kFloatCap);
              static constexpr OpCode cmps[] = {
                  OpCode::FCmpLt, OpCode::FCmpLe, OpCode::FCmpEq};
              pushInt(_b.compute(cmps[_rng.nextBelow(3)], a.ref, b.ref),
                      1, true);
              break;
          }
          default: { // float select
              const Val c = predicate();
              const Val t = pickFloat(kFloatCap / 2);
              const Val f = pickFloat(kFloatCap / 2);
              pushFloat(_b.select(c.ref, t.ref, f.ref),
                        std::max(t.fb, f.fb));
              break;
          }
        }
    }

    /**
     * One op at a corner compiler::evalOp defines but native C++ leaves
     * undefined: INT64_MIN / -1, |INT64_MIN|, shift amounts outside
     * [0, 63], wrapping add/mul, and out-of-range F2I. The result is
     * arbitrary in magnitude, so callers mask it.
     */
    ValueRef
    edgeValue()
    {
        // Operands are built in separate statements so node and random
        // draw order do not depend on argument evaluation order.
        constexpr std::int64_t minI =
            std::numeric_limits<std::int64_t>::min();
        constexpr std::int64_t maxI =
            std::numeric_limits<std::int64_t>::max();
        const auto operand = [this] {
            return _rng.nextBelow(2) ? _b.constInt(minI)
                                     : pickInt(kBoundCap).ref;
        };
        constexpr auto golden = static_cast<std::int64_t>(
            0x9E3779B97F4A7C15ULL);
        switch (_rng.nextBelow(5)) {
          case 0: {
              const OpCode op = _rng.nextBelow(2) ? OpCode::IDiv
                                                  : OpCode::IRem;
              const ValueRef a = operand();
              return _b.compute(op, a, _b.constInt(-1));
          }
          case 1:
            return _b.iabs(operand());
          case 2: {
              const OpCode op = _rng.nextBelow(2) ? OpCode::IShl
                                                  : OpCode::IShr;
              const ValueRef a = pickInt(kBoundCap).ref;
              const std::int64_t s =
                  static_cast<std::int64_t>(_rng.nextBelow(192)) - 64;
              return _b.compute(op, a, _b.constInt(s));
          }
          case 3: {
              const ValueRef a = pickInt(kBoundCap).ref;
              return _rng.nextBelow(2) ? _b.iadd(_b.constInt(maxI), a)
                                       : _b.imul(a, _b.constInt(golden));
          }
          default: {
              ValueRef f;
              if (haveFloats() && _rng.nextBelow(2)) {
                  f = pickFloat(kFloatCap).ref;
              } else {
                  const double big = std::ldexp(
                      1.0, 60 + static_cast<int>(_rng.nextBelow(8)));
                  f = _b.constFloat(_rng.nextBelow(2) ? big : -big);
              }
              return _b.compute(OpCode::F2I, f);
          }
        }
    }

    sim::Rng &_rng;
    KernelBuilder &_b;
    std::vector<Val> _ints;
    std::vector<Val> _floats;
};

/** Case-level generator state. */
class CaseGen
{
  public:
    CaseGen(std::uint64_t seed, const GenOptions &opts)
        : _rng(mix(seed, 0x6675'7a7a)), _opts(opts)
    {
        _out.seed = seed;
        _out.dataSeed = mix(seed, 0x6461'7461);
    }

    FuzzCase
    run()
    {
        makeObjects();
        const Shape shape = _opts.shape;
        int nkernels = 1;
        if (shape == Shape::MultiKernel) {
            nkernels = 2 + static_cast<int>(_rng.nextBelow(2));
        } else if (shape == Shape::Mixed) {
            nkernels = 1 + static_cast<int>(_rng.nextBelow(3));
        } else if (_rng.nextBelow(3) == 0) {
            nkernels = 2;
        }
        for (int k = 0; k < nkernels; ++k) {
            Shape ks = shape;
            if (shape == Shape::Mixed) {
                static constexpr Shape pool[] = {
                    Shape::Parallel, Shape::Pipeline,
                    Shape::NonPartitionable, Shape::CrossCluster};
                ks = pool[_rng.nextBelow(4)];
            } else if (shape == Shape::MultiKernel) {
                ks = _rng.nextBelow(2) ? Shape::Parallel
                                       : Shape::Pipeline;
            }
            makeKernel(k, ks, shape == Shape::MultiKernel && k > 0);
        }
        makeInvocations();
        return std::move(_out);
    }

  private:
    /** 2-5 data objects plus one index object. */
    void
    makeObjects()
    {
        const int ndata = 2 + static_cast<int>(_rng.nextBelow(4));
        for (int i = 0; i < ndata; ++i) {
            GenObject o;
            o.spec.name = strfmt("o%d", i);
            o.spec.elemCount = 24 + _rng.nextBelow(200);
            o.spec.isFloat = _rng.nextBelow(3) == 0;
            if (o.spec.isFloat) {
                o.spec.elemBytes = _rng.nextBelow(2) ? 8 : 4;
            } else {
                static constexpr std::uint32_t sizes[] = {1, 2, 4, 8};
                o.spec.elemBytes = sizes[_rng.nextBelow(4)];
            }
            _objs.push_back(std::move(o));
        }
        // The index object: half the time self-targeted (enabling
        // memory-recurrence chases), else aimed at a data object.
        GenObject idx;
        idx.spec.name = strfmt("idx%d", ndata);
        idx.spec.elemCount = 24 + _rng.nextBelow(160);
        idx.spec.elemBytes = _rng.nextBelow(2) ? 8 : 4;
        idx.spec.isFloat = false;
        if (_rng.nextBelow(2) == 0) {
            idx.indexTarget = static_cast<int>(_objs.size());
            idx.spec.indexBound = idx.spec.elemCount;
        } else {
            idx.indexTarget =
                pickIntDataObject(/*exclude=*/-1);
            idx.spec.indexBound =
                _objs[static_cast<std::size_t>(idx.indexTarget)]
                    .spec.elemCount;
        }
        _objs.push_back(std::move(idx));
        for (const GenObject &o : _objs)
            _out.objects.push_back(o.spec);
    }

    int
    pickIntDataObject(int exclude)
    {
        std::vector<int> ok;
        for (std::size_t i = 0; i < _objs.size(); ++i) {
            if (_objs[i].spec.indexBound == 0 &&
                static_cast<int>(i) != exclude)
                ok.push_back(static_cast<int>(i));
        }
        DISTDA_ASSERT(!ok.empty(), "no data objects");
        return ok[_rng.nextBelow(ok.size())];
    }

    /** In-bounds affine expression for @p count elements over @p trip
     *  iterations; ivCoeff 0 only when @p allow_flat. */
    AffineExpr
    affineFor(KernelBuilder &b, std::uint64_t count, std::int64_t trip,
              bool allow_flat)
    {
        std::int64_t base =
            static_cast<std::int64_t>(_rng.nextBelow(4));
        std::int64_t stride =
            1 + static_cast<std::int64_t>(_rng.nextBelow(3));
        if (allow_flat && _rng.nextBelow(8) == 0)
            stride = 0;
        if (base + stride * (trip - 1) >=
            static_cast<std::int64_t>(count)) {
            base = 0;
            stride = 1;
        }
        if (base + stride * (trip - 1) >=
            static_cast<std::int64_t>(count))
            stride = 0; // trip == count, base forced flat
        return b.affine(base, stride);
    }

    struct KernelRecord
    {
        std::vector<int> binding; ///< kernel obj -> case obj
        std::int64_t maxTrip = 1;
    };

    void
    makeKernel(int index, Shape shape, bool prefer_stored)
    {
        const int idx_obj = static_cast<int>(_objs.size()) - 1;
        KernelRecord rec;

        // Select the case objects this kernel touches, in binding
        // order. Recurrence chases need the index object; indirect
        // accesses need it plus its target.
        std::vector<int> used;
        auto add_used = [&used](int o) {
            if (std::find(used.begin(), used.end(), o) == used.end())
                used.push_back(o);
        };
        const bool self_idx = _objs[static_cast<std::size_t>(idx_obj)]
                                  .indexTarget == idx_obj;
        bool chase = shape == Shape::NonPartitionable && self_idx;
        if (shape == Shape::NonPartitionable && !self_idx)
            shape = Shape::Pipeline; // no chase substrate this case
        const bool indirect =
            !chase && (shape == Shape::Pipeline
                           ? _rng.nextBelow(2) == 0
                           : _rng.nextBelow(4) == 0);
        if (chase) {
            add_used(idx_obj);
        } else if (indirect) {
            add_used(idx_obj);
            add_used(_objs[static_cast<std::size_t>(idx_obj)]
                         .indexTarget);
        }
        if (prefer_stored && !_storedObjects.empty()) {
            add_used(_storedObjects[_rng.nextBelow(
                _storedObjects.size())]);
        }
        const std::size_t want =
            (shape == Shape::CrossCluster ? 2 : 1) +
            _rng.nextBelow(2);
        // Bounded draw: with few distinct data objects `used` may
        // never reach `want`, so cap attempts rather than spin.
        const std::size_t goal = want + (chase || indirect ? 1 : 0);
        for (int tries = 0; used.size() < goal && tries < 64; ++tries)
            add_used(pickIntDataObject(-1));

        // Trip: bounded by the smallest used object so plain affine
        // (base 0, stride 1) is always feasible.
        std::uint64_t min_count = ~0ULL;
        for (int o : used) {
            min_count = std::min(
                min_count,
                _objs[static_cast<std::size_t>(o)].spec.elemCount);
        }
        std::int64_t trip = 2 + static_cast<std::int64_t>(_rng.nextBelow(
                                    std::min<std::uint64_t>(min_count - 1,
                                                            160)));
        if (_rng.nextBelow(16) == 0)
            trip = 1;
        rec.maxTrip = trip;

        KernelBuilder b(strfmt("k%d_%s", index, shapeName(shape)));

        // Declare kernel objects; binding i -> case object used[i].
        std::vector<int> kobj(used.size());
        for (std::size_t i = 0; i < used.size(); ++i) {
            const CaseObject &o =
                _objs[static_cast<std::size_t>(used[i])].spec;
            kobj[i] = b.object(o.name, o.elemCount, o.elemBytes,
                               o.isFloat);
            rec.binding.push_back(used[i]);
        }
        auto kernelIdxOf = [&](int case_obj) {
            for (std::size_t i = 0; i < used.size(); ++i) {
                if (used[i] == case_obj)
                    return kobj[i];
            }
            panic("object %d not declared", case_obj);
        };

        // Parameters: optional trip param, affine-base param, and a
        // free scalar value param.
        std::vector<std::uint64_t> param_bits;
        std::vector<bool> param_fixed;
        int trip_param = -1;
        if (_rng.nextBelow(3) == 0) {
            trip_param = b.param("n");
            Word w;
            w.i = trip;
            param_bits.push_back(bitsOf(w));
            param_fixed.push_back(false);
            b.loopFromParam(trip_param);
        } else {
            b.loopStatic(trip);
        }
        int base_param = -1;
        std::int64_t base_param_value = 0;
        if (_rng.nextBelow(4) == 0) {
            base_param = b.param("b");
            base_param_value =
                static_cast<std::int64_t>(_rng.nextBelow(3));
            Word w;
            w.i = base_param_value;
            param_bits.push_back(bitsOf(w));
            param_fixed.push_back(true);
        }

        BodyGen body(_rng, b);
        ValueRef iv = b.iv();
        body.pushInt(iv, static_cast<std::uint64_t>(trip - 1), true);

        if (_rng.nextBelow(2) == 0) {
            const bool fparam = _rng.nextBelow(3) == 0;
            const int vp = b.param(fparam ? "x" : "m");
            Word w;
            if (fparam) {
                w.f = _rng.nextDouble() * 8.0 - 4.0;
                body.pushFloat(b.paramValue(vp), 4.0);
            } else {
                w.i = static_cast<std::int64_t>(_rng.nextBelow(17)) - 8;
                body.pushInt(b.paramValue(vp), 8, false);
            }
            param_bits.push_back(bitsOf(w));
            param_fixed.push_back(false);
        }

        // Loads: every used data object gets an affine load with high
        // probability; the index object feeds indirect addressing.
        std::vector<Val> index_offsets;
        for (std::size_t i = 0; i < used.size(); ++i) {
            const GenObject &o =
                _objs[static_cast<std::size_t>(used[i])];
            if (o.spec.indexBound > 0) {
                if (chase)
                    continue; // the chase loads it through the carry
                AffineExpr e = affineFor(b, o.spec.elemCount, trip,
                                         true);
                maybeAddBaseParam(e, base_param, base_param_value,
                                  o.spec.elemCount, trip);
                const ValueRef off = b.load(kobj[i], e);
                index_offsets.push_back(
                    Val{off, o.spec.indexBound - 1, 0.0, true});
                body.pushInt(off, o.spec.indexBound - 1, true);
                continue;
            }
            if (_rng.nextBelow(5) == 0)
                continue;
            AffineExpr e =
                affineFor(b, o.spec.elemCount, trip, true);
            maybeAddBaseParam(e, base_param, base_param_value,
                              o.spec.elemCount, trip);
            const ValueRef v = b.load(kobj[i], e);
            if (o.spec.isFloat)
                body.pushFloat(v, kFloatLoadBound);
            else
                body.pushInt(v, kIntLoadBound, false);
        }

        // Indirect load from the index target (Parallelizable unless
        // it feeds a carry).
        if (indirect && !index_offsets.empty() &&
            _rng.nextBelow(2) == 0) {
            const int tgt = _objs[static_cast<std::size_t>(idx_obj)]
                                .indexTarget;
            const GenObject &t = _objs[static_cast<std::size_t>(tgt)];
            Val off = index_offsets[_rng.nextBelow(
                index_offsets.size())];
            if (_rng.nextBelow(3) == 0)
                off = body.clampedIndex(t.spec.elemCount);
            const ValueRef v = b.loadIdx(kernelIdxOf(tgt), off.ref);
            if (t.spec.isFloat)
                body.pushFloat(v, kFloatLoadBound);
            else
                body.pushInt(v, kIntLoadBound, false);
        }

        body.computeSteps(
            3 + static_cast<int>(_rng.nextBelow(8)));

        // The memory-recurrence chase: a carry holding an index into
        // the self-targeted index object, advanced by what it loads.
        bool has_result = false;
        if (chase) {
            const GenObject &io =
                _objs[static_cast<std::size_t>(idx_obj)];
            Word init;
            init.i = static_cast<std::int64_t>(
                _rng.nextBelow(io.spec.elemCount));
            ValueRef c = b.carry(init, false, "ptr");
            const ValueRef next =
                b.loadIdx(kernelIdxOf(idx_obj), c);
            b.setCarry(c, next);
            b.markResult(c);
            has_result = true;
            body.pushInt(next, io.spec.indexBound - 1, true);
            body.computeSteps(1 + static_cast<int>(_rng.nextBelow(3)));
        }

        // Reduction carries (Pipelinable).
        if (shape == Shape::Pipeline || chase ||
            _rng.nextBelow(4) == 0) {
            const int ncarries =
                1 + static_cast<int>(_rng.nextBelow(2));
            for (int ci = 0; ci < ncarries; ++ci)
                addReduction(b, body, trip);
            has_result = true;
        }

        // Stores: at most one store accessor per object per kernel so
        // same-iteration write ordering between accessors never
        // matters; iteration order within one accessor is preserved
        // by every backend.
        std::vector<int> stored;
        int nstores = 0;
        for (std::size_t i = 0; i < used.size(); ++i) {
            const GenObject &o =
                _objs[static_cast<std::size_t>(used[i])];
            if (o.spec.indexBound > 0)
                continue; // index objects stay read-only
            if (nstores > 0 && _rng.nextBelow(2) == 0)
                continue;
            const bool indirect_store =
                indirect && !index_offsets.empty() &&
                used[i] == _objs[static_cast<std::size_t>(idx_obj)]
                               .indexTarget &&
                _rng.nextBelow(2) == 0;
            const bool predicated = _rng.nextBelow(4) == 0;
            Val pred;
            if (predicated)
                pred = body.predicate();
            if (indirect_store) {
                const Val off = index_offsets[_rng.nextBelow(
                    index_offsets.size())];
                const Val v = o.spec.isFloat ? body.storableFloat()
                                             : body.storableInt();
                if (predicated)
                    b.storeIdxIf(pred.ref, kobj[i], off.ref, v.ref);
                else
                    b.storeIdx(kobj[i], off.ref, v.ref);
            } else {
                AffineExpr e =
                    affineFor(b, o.spec.elemCount, trip, true);
                const Val v = o.spec.isFloat ? body.storableFloat()
                                             : body.storableInt();
                if (predicated)
                    b.storeIf(pred.ref, kobj[i], e, v.ref);
                else
                    b.store(kobj[i], e, v.ref);
            }
            stored.push_back(used[i]);
            ++nstores;
        }

        // Keep the kernel observable: if nothing is stored and no
        // carry is read back, add a reduction result.
        if (stored.empty() && !has_result)
            addReduction(b, body, trip);

        _kernels.push_back(std::move(rec));
        _kernelParamBits.push_back(std::move(param_bits));
        _kernelParamFixed.push_back(std::move(param_fixed));
        _kernelTripParam.push_back(trip_param);
        _out.kernels.push_back(b.build());
        for (int o : stored)
            _storedObjects.push_back(o);
    }

    void
    maybeAddBaseParam(AffineExpr &e, int base_param,
                      std::int64_t value, std::uint64_t count,
                      std::int64_t trip)
    {
        if (base_param < 0 || _rng.nextBelow(2))
            return;
        const std::int64_t hi = e.pattern.constBase + value +
                                e.pattern.ivCoeff * (trip - 1);
        if (hi >= static_cast<std::int64_t>(count) || value < 0)
            return;
        if (base_param >=
            static_cast<int>(e.pattern.paramCoeffs.size()))
            e.pattern.paramCoeffs.resize(
                static_cast<std::size_t>(base_param) + 1, 0);
        e.pattern.paramCoeffs[static_cast<std::size_t>(base_param)] = 1;
    }

    void
    addReduction(KernelBuilder &b, BodyGen &body, std::int64_t trip)
    {
        const bool is_float =
            body.haveFloats() && _rng.nextBelow(2) == 0;
        Word init;
        if (is_float) {
            init.f = _rng.nextDouble() * 4.0 - 2.0;
            ValueRef c = b.carry(init, true);
            const Val x = body.pickFloat(1e12);
            static constexpr OpCode ops[] = {OpCode::FAdd, OpCode::FMin,
                                             OpCode::FMax};
            const OpCode op = ops[_rng.nextBelow(3)];
            const ValueRef next = b.compute(op, c, x.ref);
            b.setCarry(c, next);
            b.markResult(c);
            const double bound =
                op == OpCode::FAdd
                    ? 2.0 + static_cast<double>(trip) * x.fb
                    : std::max(2.0, x.fb);
            body.pushFloat(c, bound);
        } else {
            init.i = static_cast<std::int64_t>(_rng.nextBelow(9)) - 4;
            ValueRef c = b.carry(init, false);
            const Val x = body.pickInt(kMulCap);
            static constexpr OpCode ops[] = {OpCode::IAdd, OpCode::IMin,
                                             OpCode::IMax};
            const OpCode op = ops[_rng.nextBelow(3)];
            const ValueRef next = b.compute(op, c, x.ref);
            b.setCarry(c, next);
            b.markResult(c);
            const std::uint64_t bound =
                op == OpCode::IAdd
                    ? 4 + static_cast<std::uint64_t>(trip) * x.ib
                    : std::max<std::uint64_t>(4, x.ib);
            body.pushInt(c, bound, false);
        }
    }

    void
    makeInvocations()
    {
        // One invocation per kernel in creation order (producer before
        // consumer), then a few warm re-invocations with varied free
        // params and occasional compatible rebindings.
        for (std::size_t k = 0; k < _out.kernels.size(); ++k)
            _out.invocations.push_back(invocationFor(k, true));
        const int extra = static_cast<int>(_rng.nextBelow(4));
        for (int i = 0; i < extra; ++i) {
            const std::size_t k =
                _rng.nextBelow(_out.kernels.size());
            _out.invocations.push_back(invocationFor(k, false));
        }
    }

    Invocation
    invocationFor(std::size_t k, bool first)
    {
        Invocation inv;
        inv.kernel = static_cast<int>(k);
        inv.objects = _kernels[k].binding;
        inv.paramBits = _kernelParamBits[k];
        if (!first) {
            // Vary the free parameters.
            for (std::size_t p = 0; p < inv.paramBits.size(); ++p) {
                if (_kernelParamFixed[k][p] || _rng.nextBelow(2))
                    continue;
                Word w;
                if (static_cast<int>(p) == _kernelTripParam[k]) {
                    w.i = 1 + static_cast<std::int64_t>(_rng.nextBelow(
                                  static_cast<std::uint64_t>(
                                      _kernels[k].maxTrip)));
                } else {
                    std::memcpy(&w, &inv.paramBits[p], sizeof(w));
                    if (_out.kernels[k].paramNames[p] == "x")
                        w.f = _rng.nextDouble() * 8.0 - 4.0;
                    else
                        w.i = static_cast<std::int64_t>(
                                  _rng.nextBelow(17)) -
                              8;
                }
                inv.paramBits[p] = bitsOf(w);
            }
            // Occasionally rebind a slot to a shape-compatible data
            // object (stressing retained-buffer reuse), keeping the
            // binding alias-free.
            for (std::size_t oi = 0; oi < inv.objects.size(); ++oi) {
                if (_rng.nextBelow(4))
                    continue;
                const CaseObject &cur = _out.objects
                    [static_cast<std::size_t>(inv.objects[oi])];
                if (cur.indexBound > 0)
                    continue;
                for (std::size_t cj = 0; cj < _out.objects.size();
                     ++cj) {
                    const CaseObject &cand = _out.objects[cj];
                    const bool taken =
                        std::find(inv.objects.begin(),
                                  inv.objects.end(),
                                  static_cast<int>(cj)) !=
                        inv.objects.end();
                    if (taken || cand.indexBound > 0 ||
                        cand.elemCount != cur.elemCount ||
                        cand.elemBytes != cur.elemBytes ||
                        cand.isFloat != cur.isFloat)
                        continue;
                    inv.objects[oi] = static_cast<int>(cj);
                    break;
                }
            }
        }
        return inv;
    }

    static std::uint64_t
    bitsOf(Word w)
    {
        std::uint64_t u;
        std::memcpy(&u, &w, sizeof(u));
        return u;
    }

    sim::Rng _rng;
    GenOptions _opts;
    FuzzCase _out;
    std::vector<GenObject> _objs;
    std::vector<KernelRecord> _kernels;
    std::vector<std::vector<std::uint64_t>> _kernelParamBits;
    std::vector<std::vector<bool>> _kernelParamFixed;
    std::vector<int> _kernelTripParam;
    std::vector<int> _storedObjects;
};

} // namespace

const char *
shapeName(Shape s)
{
    switch (s) {
      case Shape::Parallel: return "parallel";
      case Shape::Pipeline: return "pipeline";
      case Shape::NonPartitionable: return "nonpart";
      case Shape::MultiKernel: return "multikernel";
      case Shape::CrossCluster: return "crosscluster";
      case Shape::Mixed: return "mixed";
      default: panic("bad shape %d", static_cast<int>(s));
    }
}

Shape
shapeFromName(const std::string &name)
{
    for (int s = 0; s <= static_cast<int>(Shape::Mixed); ++s) {
        if (name == shapeName(static_cast<Shape>(s)))
            return static_cast<Shape>(s);
    }
    fatal("unknown shape '%s' (parallel, pipeline, nonpart, "
          "multikernel, crosscluster, mixed)",
          name.c_str());
}

FuzzCase
generateCase(std::uint64_t seed, const GenOptions &opts)
{
    return CaseGen(seed, opts).run();
}

void
initCaseObject(const FuzzCase &c, std::size_t idx,
               engine::ArrayRef &ref)
{
    const CaseObject &o = c.objects[idx];
    sim::Rng rng(mix(c.dataSeed, 0x696e'6974 + idx));
    for (std::uint64_t i = 0; i < o.elemCount; ++i) {
        if (o.indexBound > 0) {
            ref.setI(i, static_cast<std::int64_t>(
                            rng.nextBelow(o.indexBound)));
        } else if (o.isFloat) {
            ref.setF(i, rng.nextDouble() * 16.0 - 8.0);
        } else {
            ref.setI(i,
                     static_cast<std::int64_t>(rng.nextBelow(129)) -
                         64);
        }
    }
}

} // namespace distda::fuzz
