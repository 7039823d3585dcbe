#include "src/verify/analysis.hh"

#include <algorithm>
#include <limits>

namespace distda::verify
{

namespace
{

constexpr std::int64_t infNeg = std::numeric_limits<std::int64_t>::min();
constexpr std::int64_t infPos = std::numeric_limits<std::int64_t>::max();

std::int64_t
clamp128(__int128 v)
{
    if (v <= static_cast<__int128>(infNeg))
        return infNeg;
    if (v >= static_cast<__int128>(infPos))
        return infPos;
    return static_cast<std::int64_t>(v);
}

/** a + b where infNeg/infPos are absorbing (unbounded stays unbounded). */
std::int64_t
addBound(std::int64_t a, std::int64_t b)
{
    if (a == infNeg || b == infNeg)
        return infNeg;
    if (a == infPos || b == infPos)
        return infPos;
    return clamp128(static_cast<__int128>(a) + b);
}

/**
 * a * b over bounds. Zero absorbs even infinities (an unbounded value
 * times zero is zero); an infinite factor gives the matching infinity.
 */
std::int64_t
mulBound(std::int64_t a, std::int64_t b)
{
    if (a == 0 || b == 0)
        return 0;
    return clamp128(static_cast<__int128>(a) * b);
}

std::int64_t
negBound(std::int64_t a)
{
    if (a == infNeg)
        return infPos;
    if (a == infPos)
        return infNeg;
    return -a;
}

/** Exact add/mul with overflow detection (for affine coefficients). */
bool
addExact(std::int64_t a, std::int64_t b, std::int64_t &out)
{
    const __int128 s = static_cast<__int128>(a) + b;
    if (s < static_cast<__int128>(infNeg) ||
        s > static_cast<__int128>(infPos))
        return false;
    out = static_cast<std::int64_t>(s);
    return true;
}

bool
mulExact(std::int64_t a, std::int64_t b, std::int64_t &out)
{
    const __int128 p = static_cast<__int128>(a) * b;
    if (p < static_cast<__int128>(infNeg) ||
        p > static_cast<__int128>(infPos))
        return false;
    out = static_cast<std::int64_t>(p);
    return true;
}

/** True when finite bounds @p a and @p b sum or multiply (@p mul)
 *  past int64, where the concrete op wraps. */
bool
wraps(std::int64_t a, std::int64_t b, bool mul)
{
    if (a == infNeg || a == infPos || b == infNeg || b == infPos)
        return false;
    std::int64_t r;
    return mul ? !mulExact(a, b, r) : !addExact(a, b, r);
}

bool
sameAffine(const AffineForm &a, const AffineForm &b)
{
    if (a.known != b.known)
        return false;
    if (!a.known)
        return true;
    if (a.base != b.base || a.ivCoeff != b.ivCoeff)
        return false;
    const std::size_t n =
        std::max(a.paramCoeffs.size(), b.paramCoeffs.size());
    for (std::size_t k = 0; k < n; ++k) {
        const std::int64_t ca = k < a.paramCoeffs.size() ? a.paramCoeffs[k] : 0;
        const std::int64_t cb = k < b.paramCoeffs.size() ? b.paramCoeffs[k] : 0;
        if (ca != cb)
            return false;
    }
    return true;
}

} // namespace

Interval
Interval::top()
{
    return Interval{infNeg, infPos};
}

bool
Interval::isTop() const
{
    return lo == infNeg && hi == infPos;
}

bool
Interval::within(std::uint64_t elems) const
{
    if (isBottom())
        return true; // vacuous: no value is ever produced
    if (lo < 0)
        return false;
    if (elems > static_cast<std::uint64_t>(infPos))
        return true;
    return hi < static_cast<std::int64_t>(elems);
}

bool
Interval::disjointFrom(std::uint64_t elems) const
{
    if (isBottom())
        return false;
    if (hi < 0)
        return true;
    if (elems > static_cast<std::uint64_t>(infPos))
        return false;
    return lo >= static_cast<std::int64_t>(elems);
}

Interval
Interval::join(const Interval &o) const
{
    if (isBottom())
        return o;
    if (o.isBottom())
        return *this;
    return Interval{std::min(lo, o.lo), std::max(hi, o.hi)};
}

Interval
Interval::widen(const Interval &next) const
{
    if (isBottom())
        return next;
    if (next.isBottom())
        return *this;
    return Interval{next.lo < lo ? infNeg : lo,
                    next.hi > hi ? infPos : hi};
}

Interval
Interval::add(const Interval &o) const
{
    if (isBottom() || o.isBottom())
        return Interval{};
    if (wraps(lo, o.lo, false) || wraps(hi, o.hi, false))
        return top();
    return Interval{addBound(lo, o.lo), addBound(hi, o.hi)};
}

Interval
Interval::sub(const Interval &o) const
{
    return add(o.neg());
}

Interval
Interval::mul(const Interval &o) const
{
    if (isBottom() || o.isBottom())
        return Interval{};
    if (wraps(lo, o.lo, true) || wraps(lo, o.hi, true) ||
        wraps(hi, o.lo, true) || wraps(hi, o.hi, true))
        return top();
    const std::int64_t c[4] = {mulBound(lo, o.lo), mulBound(lo, o.hi),
                               mulBound(hi, o.lo), mulBound(hi, o.hi)};
    return Interval{*std::min_element(c, c + 4),
                    *std::max_element(c, c + 4)};
}

Interval
Interval::neg() const
{
    if (isBottom())
        return Interval{};
    return Interval{negBound(hi), negBound(lo)};
}

Interval
Interval::minWith(const Interval &o) const
{
    if (isBottom() || o.isBottom())
        return Interval{};
    return Interval{std::min(lo, o.lo), std::min(hi, o.hi)};
}

Interval
Interval::maxWith(const Interval &o) const
{
    if (isBottom() || o.isBottom())
        return Interval{};
    return Interval{std::max(lo, o.lo), std::max(hi, o.hi)};
}

Interval
Interval::absVal() const
{
    if (isBottom())
        return Interval{};
    if (lo >= 0)
        return *this;
    if (lo == infNeg)
        return top(); // |INT64_MIN| wraps to INT64_MIN (compiler::evalOp)
    if (hi <= 0)
        return neg();
    return Interval{0, std::max(negBound(lo), hi)};
}

AffineForm
AffineForm::constant(std::int64_t v)
{
    AffineForm f;
    f.known = true;
    f.base = v;
    return f;
}

AffineForm
AffineForm::iv()
{
    AffineForm f;
    f.known = true;
    f.ivCoeff = 1;
    return f;
}

AffineForm
AffineForm::param(std::size_t k)
{
    AffineForm f;
    f.known = true;
    f.paramCoeffs.assign(k + 1, 0);
    f.paramCoeffs[k] = 1;
    return f;
}

AffineForm
AffineForm::add(const AffineForm &o) const
{
    AffineForm out;
    if (!known || !o.known)
        return out;
    out.known = true;
    if (!addExact(base, o.base, out.base) ||
        !addExact(ivCoeff, o.ivCoeff, out.ivCoeff))
        return AffineForm{};
    const std::size_t n =
        std::max(paramCoeffs.size(), o.paramCoeffs.size());
    out.paramCoeffs.resize(n, 0);
    for (std::size_t k = 0; k < n; ++k) {
        const std::int64_t ca = k < paramCoeffs.size() ? paramCoeffs[k] : 0;
        const std::int64_t cb =
            k < o.paramCoeffs.size() ? o.paramCoeffs[k] : 0;
        if (!addExact(ca, cb, out.paramCoeffs[k]))
            return AffineForm{};
    }
    return out;
}

AffineForm
AffineForm::sub(const AffineForm &o) const
{
    return add(o.scale(-1));
}

AffineForm
AffineForm::scale(std::int64_t c) const
{
    AffineForm out;
    if (!known)
        return out;
    out.known = true;
    if (!mulExact(base, c, out.base) ||
        !mulExact(ivCoeff, c, out.ivCoeff))
        return AffineForm{};
    out.paramCoeffs.resize(paramCoeffs.size(), 0);
    for (std::size_t k = 0; k < paramCoeffs.size(); ++k) {
        if (!mulExact(paramCoeffs[k], c, out.paramCoeffs[k]))
            return AffineForm{};
    }
    return out;
}

AbstractValue
AbstractValue::top()
{
    return AbstractValue{Interval::top(), AffineForm{}};
}

AbstractValue
AbstractValue::exact(std::int64_t v)
{
    return AbstractValue{Interval::exact(v), AffineForm::constant(v)};
}

AbstractValue
AbstractValue::join(const AbstractValue &o) const
{
    AbstractValue out;
    out.itv = itv.join(o.itv);
    // Joining an affine form with bottom keeps the form; any other
    // disagreement loses the relation (the interval survives).
    if (itv.isBottom())
        out.affine = o.affine;
    else if (o.itv.isBottom())
        out.affine = affine;
    else if (sameAffine(affine, o.affine))
        out.affine = affine;
    return out;
}

bool
AbstractValue::operator==(const AbstractValue &o) const
{
    return itv == o.itv && sameAffine(affine, o.affine);
}

void
InvocationProfile::record(const compiler::Kernel &kernel,
                          const std::vector<std::int64_t> &param_ints,
                          const std::vector<std::uint64_t> &object_elems,
                          bool aliased)
{
    ++invocations;
    aliasedBindings = aliasedBindings || aliased;

    std::int64_t trip_now = kernel.loop.staticExtent;
    const int tp = kernel.loop.extentParam;
    if (tp >= 0 && static_cast<std::size_t>(tp) < param_ints.size())
        trip_now = param_ints[static_cast<std::size_t>(tp)];
    trip = trip.join(Interval::exact(trip_now));

    if (params.size() < param_ints.size())
        params.resize(param_ints.size()); // new slots start at bottom
    for (std::size_t k = 0; k < param_ints.size(); ++k)
        params[k] = params[k].join(Interval::exact(param_ints[k]));

    for (std::size_t i = 0; i < object_elems.size(); ++i) {
        if (i >= objectElems.size())
            objectElems.push_back(object_elems[i]);
        else
            objectElems[i] = std::min(objectElems[i], object_elems[i]);
    }

    if (trip_now < 1)
        return; // zero-trip invocations touch no elements
    for (const compiler::Node &n : kernel.nodes) {
        if (n.kind != compiler::NodeKind::Access ||
            n.pattern != compiler::PatternKind::Affine)
            continue;
        const Interval r = affineRangeExact(n.affine, param_ints, trip_now);
        auto [it, fresh] = accessRanges.try_emplace(n.id, r);
        if (!fresh)
            it->second = it->second.join(r);
    }
}

bool
FixpointCell::joinFrom(const AbstractValue &v, bool widen)
{
    AbstractValue next = _value.join(v);
    if (widen)
        next.itv = _value.itv.widen(next.itv);
    if (next == _value)
        return false;
    _value = next;
    return true;
}

Interval
affineRangeExact(const compiler::AffinePattern &pattern,
                 const std::vector<std::int64_t> &param_ints,
                 std::int64_t trip)
{
    std::int64_t base = pattern.constBase;
    for (std::size_t k = 0; k < pattern.paramCoeffs.size(); ++k) {
        if (k >= param_ints.size())
            continue;
        base = addBound(base, mulBound(pattern.paramCoeffs[k],
                                       param_ints[k]));
    }
    const std::int64_t last =
        addBound(base, mulBound(pattern.ivCoeff, trip - 1));
    return Interval{std::min(base, last), std::max(base, last)};
}

Interval
affineRangeAbstract(const compiler::AffinePattern &pattern,
                    const std::vector<Interval> &params,
                    const Interval &trip)
{
    Interval out = Interval::exact(pattern.constBase);
    for (std::size_t k = 0; k < pattern.paramCoeffs.size(); ++k) {
        const std::int64_t c = pattern.paramCoeffs[k];
        if (c == 0)
            continue;
        Interval p = k < params.size() ? params[k] : Interval::top();
        if (p.isBottom())
            p = Interval::top();
        out = out.add(p.mul(Interval::exact(c)));
    }
    if (pattern.ivCoeff != 0) {
        // i ranges over [0, maxTrip - 1]; unknown trip means i >= 0.
        Interval iv;
        if (trip.isBottom())
            iv = Interval{0, infPos};
        else if (trip.hi < 1)
            return Interval{}; // never iterates: no element touched
        else
            iv = Interval{0, addBound(trip.hi, -1)};
        out = out.add(iv.mul(Interval::exact(pattern.ivCoeff)));
    }
    return out;
}

} // namespace distda::verify
