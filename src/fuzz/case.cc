#include "src/fuzz/case.hh"

#include <algorithm>
#include <fstream>
#include <sstream>

#include "src/compiler/plan_io.hh"
#include "src/sim/logging.hh"

namespace distda::fuzz
{

using compiler::AccessDir;
using compiler::Kernel;
using compiler::MemObjectDecl;
using compiler::Node;
using compiler::NodeKind;
using compiler::OpCode;
using compiler::PatternKind;
using compiler::Word;

// The kernel-section line format (kernel/loop/kobject/kparam/node/
// result/endkernel) is owned by src/compiler/plan_io.{hh,cc} and
// shared byte-for-byte with plan artifacts; reproducers add only the
// case-level lines (seed/object/invoke) around it.
using compiler::planio::hexWord;
using compiler::planio::readHex;
using compiler::planio::readI64;
using compiler::planio::readName;
using compiler::planio::readU64;
using compiler::planio::sanitizeName;
using compiler::planio::wordFromBits;

namespace
{

constexpr const char *magic = "distda-fuzz-repro v1";

} // namespace

std::int64_t
FuzzCase::tripOf(const Invocation &inv) const
{
    const Kernel &k = kernels[static_cast<std::size_t>(inv.kernel)];
    if (k.loop.extentParam < 0)
        return k.loop.staticExtent;
    const std::size_t p = static_cast<std::size_t>(k.loop.extentParam);
    if (p >= inv.paramBits.size())
        return 0;
    return wordFromBits(inv.paramBits[p]).i;
}

std::string
serializeCase(const FuzzCase &c)
{
    std::ostringstream out;
    out << magic << '\n';
    out << "seed " << c.seed << '\n';
    out << "dataseed " << c.dataSeed << '\n';
    for (const CaseObject &o : c.objects) {
        out << "object " << o.elemCount << ' ' << o.elemBytes << ' '
            << (o.isFloat ? 1 : 0) << ' ' << o.indexBound << ' '
            << sanitizeName(o.name) << '\n';
    }
    for (const Kernel &k : c.kernels)
        compiler::planio::writeKernelLines(out, k);
    for (const Invocation &inv : c.invocations) {
        out << "invoke " << inv.kernel << " objs " << inv.objects.size();
        for (int o : inv.objects)
            out << ' ' << o;
        out << " params " << inv.paramBits.size();
        for (std::uint64_t p : inv.paramBits)
            out << ' ' << hexWord(p);
        out << '\n';
    }
    out << "end\n";
    return out.str();
}

FuzzCase
parseCase(const std::string &text)
{
    FuzzCase c;
    std::istringstream lines(text);
    std::string line;
    if (!std::getline(lines, line) || line != magic)
        fatal("repro: bad header '%s'", line.c_str());
    compiler::planio::KernelLineReader kreader;
    bool saw_end = false;
    while (std::getline(lines, line)) {
        if (line.empty() || line[0] == '#')
            continue;
        std::istringstream in(line);
        std::string tok;
        in >> tok;
        if (tok == "end") {
            saw_end = true;
            break;
        }
        if (kreader.consume(tok, in))
            continue;
        if (tok == "seed") {
            c.seed = readU64(in, "seed");
        } else if (tok == "dataseed") {
            c.dataSeed = readU64(in, "dataseed");
        } else if (tok == "object") {
            CaseObject o;
            o.elemCount = readU64(in, "object count");
            o.elemBytes = static_cast<std::uint32_t>(
                readU64(in, "object bytes"));
            o.isFloat = readI64(in, "object float") != 0;
            o.indexBound = readU64(in, "object indexbound");
            o.name = readName(in, "object name");
            c.objects.push_back(std::move(o));
        } else if (tok == "invoke") {
            Invocation inv;
            inv.kernel = static_cast<int>(readI64(in, "invoke kernel"));
            std::string kw;
            in >> kw;
            if (kw != "objs")
                fatal("repro: invoke missing objs");
            const std::uint64_t nobjs = readU64(in, "invoke obj count");
            if (nobjs > 1024)
                fatal("repro: absurd invoke obj count");
            for (std::uint64_t i = 0; i < nobjs; ++i) {
                inv.objects.push_back(
                    static_cast<int>(readI64(in, "invoke obj")));
            }
            in >> kw;
            if (kw != "params")
                fatal("repro: invoke missing params");
            const std::uint64_t nparams =
                readU64(in, "invoke param count");
            if (nparams > 1024)
                fatal("repro: absurd invoke param count");
            for (std::uint64_t i = 0; i < nparams; ++i)
                inv.paramBits.push_back(readHex(in, "invoke param"));
            c.invocations.push_back(std::move(inv));
        } else {
            fatal("repro: unknown line '%s'", line.c_str());
        }
    }
    if (kreader.inKernel())
        fatal("repro: unterminated kernel");
    if (!saw_end)
        fatal("repro: missing end marker");
    c.kernels = std::move(kreader.kernels);
    return c;
}

namespace
{

/** Largest magnitude storable in an integer object of @p bytes. */
std::uint64_t
intTypeMax(std::uint32_t bytes)
{
    return bytes >= 8 ? ~0ULL >> 1 : (1ULL << (bytes * 8 - 1)) - 1;
}

} // namespace

std::string
validateCase(const FuzzCase &c)
{
    using distda::strfmt;
    if (c.invocations.empty())
        return "case has no invocations";
    for (std::size_t i = 0; i < c.objects.size(); ++i) {
        const CaseObject &o = c.objects[i];
        if (o.elemCount == 0)
            return strfmt("object %zu has zero elements", i);
        if (o.elemBytes != 1 && o.elemBytes != 2 && o.elemBytes != 4 &&
            o.elemBytes != 8)
            return strfmt("object %zu has bad element size %u", i,
                          o.elemBytes);
        if (o.isFloat && o.elemBytes < 4)
            return strfmt("object %zu: no %u-byte floats", i,
                          o.elemBytes);
        if (o.indexBound > 0) {
            if (o.isFloat)
                return strfmt("object %zu: float index object", i);
            if (o.indexBound - 1 > intTypeMax(o.elemBytes))
                return strfmt("object %zu: indexBound %llu overflows "
                              "%u-byte elements",
                              i,
                              static_cast<unsigned long long>(
                                  o.indexBound),
                              o.elemBytes);
        }
    }
    for (std::size_t ki = 0; ki < c.kernels.size(); ++ki) {
        const Kernel &k = c.kernels[ki];
        const std::string err = k.defect();
        if (!err.empty())
            return strfmt("kernel %zu: %s", ki, err.c_str());
        for (std::size_t kj = 0; kj < ki; ++kj) {
            if (c.kernels[kj].name == k.name)
                return strfmt("kernels %zu and %zu share name '%s' "
                              "(the plan cache keys on it)",
                              kj, ki, k.name.c_str());
        }
        // Divisors must be nonzero constants: integer division by zero
        // traps on every path (compiler::evalOp), which is not a
        // difference to find, and float division by zero yields the
        // non-finite values the store clamps assume never occur.
        for (const Node &n : k.nodes) {
            if (n.kind != NodeKind::Compute)
                continue;
            auto constOf = [&k](int id) -> const Node * {
                if (id < 0 || id >= static_cast<int>(k.nodes.size()))
                    return nullptr;
                const Node &in = k.node(id);
                return in.kind == NodeKind::ConstInt ||
                               in.kind == NodeKind::ConstFloat
                           ? &in
                           : nullptr;
            };
            if (n.op == OpCode::IDiv || n.op == OpCode::IRem) {
                const Node *d = constOf(n.inputB);
                if (!d || d->kind != NodeKind::ConstInt || d->imm.i == 0)
                    return strfmt("kernel %zu node %d: %s divisor "
                                  "must be a nonzero ConstInt",
                                  ki, n.id, compiler::opName(n.op));
            }
            if (n.op == OpCode::FDiv) {
                const Node *d = constOf(n.inputB);
                if (!d || d->kind != NodeKind::ConstFloat ||
                    d->imm.f == 0.0)
                    return strfmt("kernel %zu node %d: FDiv divisor "
                                  "must be a nonzero ConstFloat",
                                  ki, n.id);
            }
        }
    }
    for (std::size_t ii = 0; ii < c.invocations.size(); ++ii) {
        const Invocation &inv = c.invocations[ii];
        if (inv.kernel < 0 ||
            inv.kernel >= static_cast<int>(c.kernels.size()))
            return strfmt("invocation %zu: bad kernel index %d", ii,
                          inv.kernel);
        const Kernel &k =
            c.kernels[static_cast<std::size_t>(inv.kernel)];
        if (inv.objects.size() != k.objects.size())
            return strfmt("invocation %zu: %zu bindings for %zu objects",
                          ii, inv.objects.size(), k.objects.size());
        if (inv.paramBits.size() != k.paramNames.size())
            return strfmt("invocation %zu: %zu params for %zu declared",
                          ii, inv.paramBits.size(),
                          k.paramNames.size());
        for (std::size_t oi = 0; oi < inv.objects.size(); ++oi) {
            const int co = inv.objects[oi];
            if (co < 0 || co >= static_cast<int>(c.objects.size()))
                return strfmt("invocation %zu: bad case object %d", ii,
                              co);
            for (std::size_t oj = 0; oj < oi; ++oj) {
                if (inv.objects[oj] == co)
                    return strfmt("invocation %zu: object %d bound "
                                  "twice (aliasing is outside the "
                                  "offload model)",
                                  ii, co);
            }
            const CaseObject &obj =
                c.objects[static_cast<std::size_t>(co)];
            const MemObjectDecl &decl = k.objects[oi];
            if (obj.elemCount != decl.elemCount ||
                obj.elemBytes != decl.elemBytes ||
                obj.isFloat != decl.isFloat)
                return strfmt("invocation %zu: binding %zu shape "
                              "mismatch",
                              ii, oi);
        }
        const std::int64_t trip = c.tripOf(inv);
        if (trip <= 0)
            return strfmt("invocation %zu: trip %lld", ii,
                          static_cast<long long>(trip));
        for (const Node &n : k.nodes) {
            if (n.kind != NodeKind::Access)
                continue;
            const CaseObject &obj = c.objects[static_cast<std::size_t>(
                inv.objects[static_cast<std::size_t>(n.objId)])];
            if (n.dir == AccessDir::Store && obj.indexBound > 0)
                return strfmt("invocation %zu: store to index object "
                              "'%s'",
                              ii, obj.name.c_str());
            if (n.pattern != PatternKind::Affine)
                continue;
            std::int64_t base = n.affine.constBase;
            for (std::size_t p = 0; p < n.affine.paramCoeffs.size();
                 ++p) {
                if (p >= inv.paramBits.size())
                    break;
                base += n.affine.paramCoeffs[p] *
                        wordFromBits(inv.paramBits[p]).i;
            }
            const std::int64_t last =
                base + n.affine.ivCoeff * (trip - 1);
            const std::int64_t lo = std::min(base, last);
            const std::int64_t hi = std::max(base, last);
            if (lo < 0 ||
                hi >= static_cast<std::int64_t>(obj.elemCount))
                return strfmt("invocation %zu: access %d spans "
                              "[%lld, %lld] outside object '%s' "
                              "(%llu elems)",
                              ii, n.id, static_cast<long long>(lo),
                              static_cast<long long>(hi),
                              obj.name.c_str(),
                              static_cast<unsigned long long>(
                                  obj.elemCount));
        }
    }
    return {};
}

void
saveCase(const FuzzCase &c, const std::string &path)
{
    std::ofstream out(path);
    if (!out)
        fatal("cannot write repro '%s'", path.c_str());
    out << serializeCase(c);
    if (!out.good())
        fatal("write to repro '%s' failed", path.c_str());
}

FuzzCase
loadCase(const std::string &path)
{
    std::ifstream in(path);
    if (!in)
        fatal("cannot read repro '%s'", path.c_str());
    std::ostringstream buf;
    buf << in.rdbuf();
    return parseCase(buf.str());
}

} // namespace distda::fuzz
