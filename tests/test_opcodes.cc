/**
 * @file
 * Per-opcode differential tests: every ALU operation the microcode ISA
 * defines is exercised through a kernel on both the host executor and
 * the distributed engine, against a native lambda reference —
 * including the corner operand values each op class is sensitive to,
 * and the wrap, saturate, shift-mask and trap edges that
 * compiler::evalOp defines.
 */

#include <cmath>
#include <functional>
#include <gtest/gtest.h>
#include <limits>

#include "src/driver/context.hh"
#include "src/driver/system.hh"
#include "src/sim/rng.hh"

using namespace distda;
using compiler::KernelBuilder;
using compiler::OpCode;
using compiler::Word;
using driver::ExecContext;

namespace
{

struct OpCase
{
    const char *name;
    OpCode op;
    bool isFloat;   ///< operand/result element type
    bool intResult; ///< comparisons produce integers
    std::function<Word(Word, Word)> ref;
};

Word
wi(std::int64_t v)
{
    Word w;
    w.i = v;
    return w;
}

Word
wf(double v)
{
    Word w;
    w.f = v;
    return w;
}

const std::vector<OpCase> &
cases()
{
    static const std::vector<OpCase> table = {
        {"iadd", OpCode::IAdd, false, true,
         [](Word a, Word b) { return wi(a.i + b.i); }},
        {"isub", OpCode::ISub, false, true,
         [](Word a, Word b) { return wi(a.i - b.i); }},
        {"imul", OpCode::IMul, false, true,
         [](Word a, Word b) { return wi(a.i * b.i); }},
        {"idiv", OpCode::IDiv, false, true,
         [](Word a, Word b) { return wi(a.i / b.i); }},
        {"irem", OpCode::IRem, false, true,
         [](Word a, Word b) { return wi(a.i % b.i); }},
        {"imin", OpCode::IMin, false, true,
         [](Word a, Word b) { return wi(std::min(a.i, b.i)); }},
        {"imax", OpCode::IMax, false, true,
         [](Word a, Word b) { return wi(std::max(a.i, b.i)); }},
        {"iand", OpCode::IAnd, false, true,
         [](Word a, Word b) { return wi(a.i & b.i); }},
        {"ior", OpCode::IOr, false, true,
         [](Word a, Word b) { return wi(a.i | b.i); }},
        {"ixor", OpCode::IXor, false, true,
         [](Word a, Word b) { return wi(a.i ^ b.i); }},
        {"icmplt", OpCode::ICmpLt, false, true,
         [](Word a, Word b) { return wi(a.i < b.i); }},
        {"icmple", OpCode::ICmpLe, false, true,
         [](Word a, Word b) { return wi(a.i <= b.i); }},
        {"icmpeq", OpCode::ICmpEq, false, true,
         [](Word a, Word b) { return wi(a.i == b.i); }},
        {"icmpne", OpCode::ICmpNe, false, true,
         [](Word a, Word b) { return wi(a.i != b.i); }},
        {"fadd", OpCode::FAdd, true, false,
         [](Word a, Word b) { return wf(a.f + b.f); }},
        {"fsub", OpCode::FSub, true, false,
         [](Word a, Word b) { return wf(a.f - b.f); }},
        {"fmul", OpCode::FMul, true, false,
         [](Word a, Word b) { return wf(a.f * b.f); }},
        {"fdiv", OpCode::FDiv, true, false,
         [](Word a, Word b) { return wf(a.f / b.f); }},
        {"fmin", OpCode::FMin, true, false,
         [](Word a, Word b) { return wf(std::min(a.f, b.f)); }},
        {"fmax", OpCode::FMax, true, false,
         [](Word a, Word b) { return wf(std::max(a.f, b.f)); }},
        {"fcmplt", OpCode::FCmpLt, true, true,
         [](Word a, Word b) { return wi(a.f < b.f); }},
        {"fcmple", OpCode::FCmpLe, true, true,
         [](Word a, Word b) { return wi(a.f <= b.f); }},
        {"fcmpeq", OpCode::FCmpEq, true, true,
         [](Word a, Word b) { return wi(a.f == b.f); }},
    };
    return table;
}

class OpcodeDifferential : public testing::TestWithParam<std::size_t>
{
};

std::string
opName(const testing::TestParamInfo<std::size_t> &info)
{
    return cases()[info.param].name;
}

} // namespace

TEST_P(OpcodeDifferential, HostAndEngineMatchReference)
{
    setInformEnabled(false);
    const OpCase &oc = cases()[GetParam()];
    const std::uint64_t n = 257;

    for (driver::ArchModel model :
         {driver::ArchModel::OoO, driver::ArchModel::DistDA_IO,
          driver::ArchModel::DistDA_F}) {
        driver::SystemParams sp;
        driver::System sys(sp);
        auto a = sys.alloc("a", n, 8, oc.isFloat);
        auto b = sys.alloc("b", n, 8, oc.isFloat);
        auto c = sys.alloc("c", n, 8,
                           oc.isFloat && !oc.intResult);
        sim::Rng rng(99);
        std::vector<Word> va(n), vb(n);
        for (std::uint64_t i = 0; i < n; ++i) {
            if (oc.isFloat) {
                // Mix of signs, zero, and denormal-ish magnitudes.
                va[i] = wf((rng.nextDouble() - 0.5) * 8.0);
                vb[i] = wf(i % 17 == 0
                               ? 1.0
                               : (rng.nextDouble() - 0.5) * 8.0 +
                                     0.001);
                a.setF(i, va[i].f);
                b.setF(i, vb[i].f);
            } else {
                va[i] = wi(static_cast<std::int64_t>(
                               rng.nextBelow(2001)) -
                           1000);
                // Nonzero divisors, mixed signs, shift-safe.
                std::int64_t d = static_cast<std::int64_t>(
                                     rng.nextBelow(30)) -
                                 15;
                if (d == 0)
                    d = 7;
                vb[i] = wi(d);
                a.setI(i, va[i].i);
                b.setI(i, vb[i].i);
            }
        }

        KernelBuilder kb(std::string("op_") + oc.name);
        const int oa = kb.object("a", n, 8, oc.isFloat);
        const int ob = kb.object("b", n, 8, oc.isFloat);
        const int ocid =
            kb.object("c", n, 8, oc.isFloat && !oc.intResult);
        kb.loopStatic(static_cast<std::int64_t>(n));
        auto x = kb.load(oa, kb.affine(0, 1));
        auto y = kb.load(ob, kb.affine(0, 1));
        kb.store(ocid, kb.affine(0, 1), kb.compute(oc.op, x, y));
        const compiler::Kernel kernel = kb.build();

        driver::RunConfig cfg;
        cfg.model = model;
        ExecContext ctx(sys, cfg);
        ctx.invoke(kernel, {a, b, c}, {});

        for (std::uint64_t i = 0; i < n; ++i) {
            const Word want = oc.ref(va[i], vb[i]);
            if (oc.intResult) {
                EXPECT_EQ(c.getI(i), want.i)
                    << oc.name << " i=" << i << " under "
                    << archModelName(model);
            } else {
                EXPECT_EQ(c.getF(i), want.f)
                    << oc.name << " i=" << i << " under "
                    << archModelName(model);
            }
        }
    }
}

INSTANTIATE_TEST_SUITE_P(AllOps, OpcodeDifferential,
                         testing::Range<std::size_t>(0, cases().size()),
                         opName);

TEST(OpcodeUnary, AbsSqrtNegSelect)
{
    setInformEnabled(false);
    const std::uint64_t n = 128;
    driver::SystemParams sp;
    driver::System sys(sp);
    auto a = sys.alloc("a", n, 8, true);
    auto out = sys.alloc("out", n, 8, true);
    for (std::uint64_t i = 0; i < n; ++i)
        a.setF(i, (static_cast<double>(i) - 64.0) / 8.0);

    // out[i] = i % 2 ? sqrt(|a|) : -a  (select + fabs + fsqrt + fneg)
    KernelBuilder kb("unary_mix");
    const int oa = kb.object("a", n, 8, true);
    const int oo = kb.object("out", n, 8, true);
    kb.loopStatic(static_cast<std::int64_t>(n));
    auto iv = kb.iv();
    auto odd = kb.compute(OpCode::IAnd, iv, kb.constInt(1));
    auto x = kb.load(oa, kb.affine(0, 1));
    auto sq = kb.compute(OpCode::FSqrt,
                         kb.compute(OpCode::FAbs, x, {}));
    auto ng = kb.compute(OpCode::FNeg, x, {});
    kb.store(oo, kb.affine(0, 1), kb.select(odd, sq, ng));
    const compiler::Kernel kernel = kb.build();

    driver::RunConfig cfg;
    cfg.model = driver::ArchModel::DistDA_IO;
    ExecContext ctx(sys, cfg);
    ctx.invoke(kernel, {a, out}, {});
    for (std::uint64_t i = 0; i < n; ++i) {
        const double x = a.getF(i);
        const double want =
            (i % 2) ? std::sqrt(std::fabs(x)) : -x;
        EXPECT_EQ(out.getF(i), want) << i;
    }
}

TEST(OpcodeShift, ShiftsAndConversions)
{
    setInformEnabled(false);
    const std::uint64_t n = 64;
    driver::SystemParams sp;
    driver::System sys(sp);
    auto a = sys.alloc("a", n, 8, false);
    auto out = sys.alloc("out", n, 8, true);
    for (std::uint64_t i = 0; i < n; ++i)
        a.setI(i, static_cast<std::int64_t>(i) + 1);

    // out[i] = double((a[i] << 3) >> 1) + double(int(1.9))
    KernelBuilder kb("shift_cvt");
    const int oa = kb.object("a", n, 8, false);
    const int oo = kb.object("out", n, 8, true);
    kb.loopStatic(static_cast<std::int64_t>(n));
    auto x = kb.load(oa, kb.affine(0, 1));
    auto shl = kb.compute(OpCode::IShl, x, kb.constInt(3));
    auto shr = kb.compute(OpCode::IShr, shl, kb.constInt(1));
    auto as_f = kb.compute(OpCode::I2F, shr, {});
    auto trunc = kb.compute(OpCode::F2I, kb.constFloat(1.9), {});
    kb.store(oo, kb.affine(0, 1),
             kb.fadd(as_f, kb.compute(OpCode::I2F, trunc, {})));
    const compiler::Kernel kernel = kb.build();

    driver::RunConfig cfg;
    cfg.model = driver::ArchModel::DistDA_F;
    ExecContext ctx(sys, cfg);
    ctx.invoke(kernel, {a, out}, {});
    for (std::uint64_t i = 0; i < n; ++i) {
        const std::int64_t v =
            ((static_cast<std::int64_t>(i) + 1) << 3) >> 1;
        EXPECT_EQ(out.getF(i), static_cast<double>(v) + 1.0) << i;
    }
}

namespace
{

constexpr std::int64_t intMin = std::numeric_limits<std::int64_t>::min();
constexpr std::int64_t intMax = std::numeric_limits<std::int64_t>::max();

/** c[i] = op(a[i], b[i]) under @p model; returns c's integer view. */
std::vector<std::int64_t>
runEdgeKernel(OpCode op, const std::vector<Word> &as,
              const std::vector<std::int64_t> &bs, bool a_float,
              driver::ArchModel model)
{
    const std::uint64_t n = as.size();
    driver::SystemParams sp;
    driver::System sys(sp);
    auto a = sys.alloc("a", n, 8, a_float);
    auto b = sys.alloc("b", n, 8, false);
    auto c = sys.alloc("c", n, 8, false);
    for (std::uint64_t i = 0; i < n; ++i) {
        if (a_float)
            a.setF(i, as[i].f);
        else
            a.setI(i, as[i].i);
        b.setI(i, bs[i]);
    }
    const bool unary = op == OpCode::IAbs || op == OpCode::F2I;
    KernelBuilder kb(std::string("edge_") + compiler::opName(op));
    const int oa = kb.object("a", n, 8, a_float);
    const int ob = unary ? -1 : kb.object("b", n, 8, false);
    const int oc = kb.object("c", n, 8, false);
    kb.loopStatic(static_cast<std::int64_t>(n));
    auto x = kb.load(oa, kb.affine(0, 1));
    auto y = unary ? compiler::ValueRef{} : kb.load(ob, kb.affine(0, 1));
    kb.store(oc, kb.affine(0, 1), kb.compute(op, x, y));
    const compiler::Kernel kernel = kb.build();

    driver::RunConfig cfg;
    cfg.model = model;
    ExecContext ctx(sys, cfg);
    if (unary)
        ctx.invoke(kernel, {a, c}, {});
    else
        ctx.invoke(kernel, {a, b, c}, {});
    std::vector<std::int64_t> out(n);
    for (std::uint64_t i = 0; i < n; ++i)
        out[i] = c.getI(i);
    return out;
}

struct EdgeCase
{
    OpCode op;
    std::vector<Word> a;
    std::vector<std::int64_t> b; ///< unread by unary ops
    std::vector<std::int64_t> want;
    bool aFloat = false;
};

constexpr driver::ArchModel edgeModels[] = {driver::ArchModel::OoO,
                                             driver::ArchModel::DistDA_IO,
                                             driver::ArchModel::DistDA_F};

} // namespace

TEST(OpcodeEdges, WrapSaturateAndMaskAlikeOnHostAndEngine)
{
    setInformEnabled(false);
    const double nan = std::numeric_limits<double>::quiet_NaN();
    const std::vector<EdgeCase> table = {
        {OpCode::IAdd, {wi(intMax), wi(intMin)}, {1, -1}, {intMin, intMax}},
        {OpCode::ISub, {wi(intMin), wi(intMax)}, {1, -1}, {intMax, intMin}},
        {OpCode::IMul, {wi(intMin), wi(intMax)}, {-1, 2}, {intMin, -2}},
        {OpCode::IDiv, {wi(intMin), wi(7), wi(-7)}, {-1, -2, 2},
         {intMin, -3, -3}},
        {OpCode::IRem, {wi(intMin), wi(7), wi(-7)}, {-1, -2, 2},
         {0, 1, -1}},
        {OpCode::IAbs, {wi(intMin), wi(-5)}, {0, 0}, {intMin, 5}},
        {OpCode::IShl, {wi(1), wi(1), wi(1), wi(3)}, {64, 65, -1, 130},
         {1, 2, intMin, 12}},
        {OpCode::IShr, {wi(-8), wi(intMin), wi(5), wi(-1)}, {65, 63, 64, -1},
         {-4, -1, 5, -1}},
        {OpCode::F2I,
         {wf(1e19), wf(-1e19), wf(nan), wf(-2.9), wf(-9223372036854775808.0)},
         {0, 0, 0, 0, 0},
         {intMax, intMin, 0, -2, intMin},
         true},
    };
    for (const EdgeCase &ec : table) {
        for (driver::ArchModel model : edgeModels) {
            EXPECT_EQ(runEdgeKernel(ec.op, ec.a, ec.b, ec.aFloat, model),
                      ec.want)
                << compiler::opName(ec.op) << " under "
                << archModelName(model);
        }
    }
}

TEST(OpcodeEdges, IntegerDivisionByZeroTrapsEverywhere)
{
    setInformEnabled(false);
    for (OpCode op : {OpCode::IDiv, OpCode::IRem}) {
        for (driver::ArchModel model : edgeModels) {
            ScopedFailureCapture capture;
            try {
                runEdgeKernel(op, {wi(6), wi(6)}, {3, 0}, false, model);
                ADD_FAILURE() << compiler::opName(op) << " under "
                              << archModelName(model) << " did not trap";
            } catch (const SimFailure &f) {
                EXPECT_FALSE(f.isPanic());
                EXPECT_NE(std::string(f.what()).find("by zero"),
                          std::string::npos)
                    << f.what();
            }
        }
    }
}
