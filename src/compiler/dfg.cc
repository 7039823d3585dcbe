#include "src/compiler/dfg.hh"

#include <algorithm>
#include <map>

#include "src/sim/logging.hh"

namespace distda::compiler
{

FuClass
fuClassOf(OpCode op)
{
    switch (op) {
      case OpCode::IDiv:
      case OpCode::IRem:
      case OpCode::FDiv:
      case OpCode::FSqrt:
        return FuClass::Complex;
      case OpCode::FAdd:
      case OpCode::FSub:
      case OpCode::FMul:
      case OpCode::FAbs:
      case OpCode::FMin:
      case OpCode::FMax:
      case OpCode::FNeg:
      case OpCode::FCmpLt:
      case OpCode::FCmpLe:
      case OpCode::FCmpEq:
      case OpCode::I2F:
      case OpCode::F2I:
        return FuClass::Float;
      default:
        return FuClass::Int;
    }
}

bool
producesFloat(OpCode op)
{
    switch (op) {
      case OpCode::FAdd:
      case OpCode::FSub:
      case OpCode::FMul:
      case OpCode::FDiv:
      case OpCode::FSqrt:
      case OpCode::FAbs:
      case OpCode::FMin:
      case OpCode::FMax:
      case OpCode::FNeg:
      case OpCode::I2F:
        return true;
      default:
        return false;
    }
}

const char *
opName(OpCode op)
{
    switch (op) {
      case OpCode::IAdd: return "iadd";
      case OpCode::ISub: return "isub";
      case OpCode::IMul: return "imul";
      case OpCode::IDiv: return "idiv";
      case OpCode::IRem: return "irem";
      case OpCode::IMin: return "imin";
      case OpCode::IMax: return "imax";
      case OpCode::IAbs: return "iabs";
      case OpCode::IAnd: return "iand";
      case OpCode::IOr: return "ior";
      case OpCode::IXor: return "ixor";
      case OpCode::IShl: return "ishl";
      case OpCode::IShr: return "ishr";
      case OpCode::ICmpLt: return "icmplt";
      case OpCode::ICmpLe: return "icmple";
      case OpCode::ICmpEq: return "icmpeq";
      case OpCode::ICmpNe: return "icmpne";
      case OpCode::FAdd: return "fadd";
      case OpCode::FSub: return "fsub";
      case OpCode::FMul: return "fmul";
      case OpCode::FDiv: return "fdiv";
      case OpCode::FSqrt: return "fsqrt";
      case OpCode::FAbs: return "fabs";
      case OpCode::FMin: return "fmin";
      case OpCode::FMax: return "fmax";
      case OpCode::FNeg: return "fneg";
      case OpCode::FCmpLt: return "fcmplt";
      case OpCode::FCmpLe: return "fcmple";
      case OpCode::FCmpEq: return "fcmpeq";
      case OpCode::Select: return "select";
      case OpCode::I2F: return "i2f";
      case OpCode::F2I: return "f2i";
      case OpCode::Mov: return "mov";
      default: return "?";
    }
}

bool
AffinePattern::sameStrideAs(const AffinePattern &other) const
{
    if (ivCoeff != other.ivCoeff)
        return false;
    const std::size_t n =
        std::max(paramCoeffs.size(), other.paramCoeffs.size());
    for (std::size_t k = 0; k < n; ++k) {
        if (paramCoeff(k) != other.paramCoeff(k))
            return false;
    }
    return true;
}

std::vector<int>
Node::valueInputs() const
{
    std::vector<int> ins;
    auto push = [&ins](int n) {
        if (n != noNode)
            ins.push_back(n);
    };
    switch (kind) {
      case NodeKind::Access:
        push(addrInput);
        push(valueInput);
        push(predInput);
        break;
      case NodeKind::Compute:
        push(inputA);
        push(inputB);
        push(inputC);
        break;
      case NodeKind::Carry:
        // The carry update is a back-edge, not a same-iteration input.
        break;
      default:
        break;
    }
    return ins;
}

std::vector<int>
Kernel::topoOrder() const
{
    // Kahn's algorithm over same-iteration (forward) edges only;
    // carry back-edges are excluded so the graph is a DAG.
    std::vector<int> indeg(nodes.size(), 0);
    for (const Node &n : nodes) {
        for (int in : n.valueInputs()) {
            (void)in;
            ++indeg[static_cast<std::size_t>(n.id)];
        }
    }
    std::vector<int> ready;
    for (const Node &n : nodes) {
        if (indeg[static_cast<std::size_t>(n.id)] == 0)
            ready.push_back(n.id);
    }
    auto users = userLists();
    std::vector<int> order;
    order.reserve(nodes.size());
    std::size_t head = 0;
    while (head < ready.size()) {
        const int id = ready[head++];
        order.push_back(id);
        for (int u : users[static_cast<std::size_t>(id)]) {
            if (--indeg[static_cast<std::size_t>(u)] == 0)
                ready.push_back(u);
        }
    }
    if (order.size() != nodes.size())
        panic("kernel '%s': DFG has a same-iteration cycle", name.c_str());
    return order;
}

std::vector<std::vector<int>>
Kernel::userLists() const
{
    std::vector<std::vector<int>> users(nodes.size());
    for (const Node &n : nodes) {
        for (int in : n.valueInputs())
            users[static_cast<std::size_t>(in)].push_back(n.id);
    }
    return users;
}

std::vector<int>
Kernel::accessesOf(int obj_id) const
{
    std::vector<int> out;
    for (const Node &n : nodes) {
        if (n.kind == NodeKind::Access && n.objId == obj_id)
            out.push_back(n.id);
    }
    return out;
}

int
Kernel::instCount() const
{
    int count = 0;
    for (const Node &n : nodes) {
        if (n.kind == NodeKind::Compute || n.kind == NodeKind::Access)
            ++count;
    }
    return count;
}

void
Kernel::verify() const
{
    std::map<int, int> obj_ids;
    for (const MemObjectDecl &o : objects) {
        if (o.elemCount == 0)
            panic("kernel '%s': object '%s' has zero elements",
                  name.c_str(), o.name.c_str());
        if (obj_ids.count(o.id))
            panic("kernel '%s': duplicate object id %d", name.c_str(),
                  o.id);
        obj_ids[o.id] = 1;
    }
    for (const Node &n : nodes) {
        if (n.id < 0 || n.id >= static_cast<int>(nodes.size()))
            panic("kernel '%s': bad node id %d", name.c_str(), n.id);
        for (int in : n.valueInputs()) {
            if (in < 0 || in >= static_cast<int>(nodes.size()))
                panic("kernel '%s': node %d has bad input %d",
                      name.c_str(), n.id, in);
        }
        if (n.kind == NodeKind::Access && !obj_ids.count(n.objId))
            panic("kernel '%s': access %d targets unknown object %d",
                  name.c_str(), n.id, n.objId);
        if (n.kind == NodeKind::Carry && n.carryUpdate == noNode)
            panic("kernel '%s': carry '%s' never updated (missing "
                  "setCarry)", name.c_str(), n.name.c_str());
        if (n.kind == NodeKind::Carry &&
            (n.carryUpdate < 0 ||
             n.carryUpdate >= static_cast<int>(nodes.size())))
            panic("kernel '%s': carry '%s' has bad update %d",
                  name.c_str(), n.name.c_str(), n.carryUpdate);
    }
    for (int r : resultCarries) {
        if (r < 0 || r >= static_cast<int>(nodes.size()) ||
            node(r).kind != NodeKind::Carry)
            panic("kernel '%s': result %d is not a carry", name.c_str(),
                  r);
    }
    if (loop.extentParam < 0 && loop.staticExtent <= 0)
        panic("kernel '%s': loop extent not set", name.c_str());
    // Topological order must exist (panics internally otherwise).
    (void)topoOrder();
}

std::string
Kernel::defect() const
{
    ScopedFailureCapture capture;
    try {
        verify();
    } catch (const SimFailure &f) {
        return f.what();
    }
    return {};
}

KernelBuilder::KernelBuilder(std::string kernel_name)
{
    _kernel.name = std::move(kernel_name);
}

int
KernelBuilder::addNode(Node n)
{
    n.id = static_cast<int>(_kernel.nodes.size());
    _kernel.nodes.push_back(std::move(n));
    return _kernel.nodes.back().id;
}

void
KernelBuilder::loopStatic(std::int64_t extent, std::string name)
{
    _kernel.loop.staticExtent = extent;
    _kernel.loop.extentParam = -1;
    _kernel.loop.name = std::move(name);
}

void
KernelBuilder::loopFromParam(int param_idx, std::string name)
{
    _kernel.loop.extentParam = param_idx;
    _kernel.loop.name = std::move(name);
}

int
KernelBuilder::object(std::string name, std::uint64_t elem_count,
                      std::uint32_t elem_bytes, bool is_float)
{
    MemObjectDecl decl;
    decl.id = static_cast<int>(_kernel.objects.size());
    decl.name = std::move(name);
    decl.elemCount = elem_count;
    decl.elemBytes = elem_bytes;
    decl.isFloat = is_float;
    _kernel.objects.push_back(decl);

    Node n;
    n.kind = NodeKind::MemObject;
    n.objId = decl.id;
    n.name = _kernel.objects.back().name;
    addNode(std::move(n));
    return decl.id;
}

int
KernelBuilder::param(std::string name)
{
    _kernel.paramNames.push_back(std::move(name));
    return static_cast<int>(_kernel.paramNames.size()) - 1;
}

ValueRef
KernelBuilder::iv()
{
    Node n;
    n.kind = NodeKind::IndVar;
    n.name = _kernel.loop.name;
    return ValueRef{addNode(std::move(n)), false};
}

ValueRef
KernelBuilder::paramValue(int param_idx)
{
    DISTDA_ASSERT(param_idx >= 0 &&
                      param_idx <
                          static_cast<int>(_kernel.paramNames.size()),
                  "param %d", param_idx);
    Node n;
    n.kind = NodeKind::Param;
    n.paramIdx = param_idx;
    n.name = _kernel.paramNames[static_cast<std::size_t>(param_idx)];
    return ValueRef{addNode(std::move(n)), false};
}

ValueRef
KernelBuilder::constInt(std::int64_t v)
{
    Node n;
    n.kind = NodeKind::ConstInt;
    n.imm.i = v;
    return ValueRef{addNode(std::move(n)), false};
}

ValueRef
KernelBuilder::constFloat(double v)
{
    Node n;
    n.kind = NodeKind::ConstFloat;
    n.imm.f = v;
    return ValueRef{addNode(std::move(n)), true};
}

AffineExpr
KernelBuilder::affine(std::int64_t const_base, std::int64_t iv_coeff)
{
    AffineExpr e;
    e.pattern.constBase = const_base;
    e.pattern.ivCoeff = iv_coeff;
    return e;
}

AffineExpr
KernelBuilder::affineP(
    std::int64_t const_base, std::int64_t iv_coeff,
    std::initializer_list<std::pair<int, std::int64_t>> param_terms)
{
    AffineExpr e = affine(const_base, iv_coeff);
    for (const auto &[param_idx, coeff] : param_terms) {
        if (param_idx >=
            static_cast<int>(e.pattern.paramCoeffs.size())) {
            e.pattern.paramCoeffs.resize(
                static_cast<std::size_t>(param_idx) + 1, 0);
        }
        e.pattern.paramCoeffs[static_cast<std::size_t>(param_idx)] = coeff;
    }
    return e;
}

ValueRef
KernelBuilder::load(int obj_id, const AffineExpr &idx)
{
    const bool is_float =
        _kernel.objects[static_cast<std::size_t>(obj_id)].isFloat;
    Node n;
    n.kind = NodeKind::Access;
    n.dir = AccessDir::Load;
    n.pattern = PatternKind::Affine;
    n.affine = idx.pattern;
    n.objId = obj_id;
    n.elemIsFloat = is_float;
    n.bits = _kernel.objects[static_cast<std::size_t>(obj_id)].elemBytes * 8;
    return ValueRef{addNode(std::move(n)), is_float};
}

ValueRef
KernelBuilder::loadIdx(int obj_id, ValueRef offset)
{
    const bool is_float =
        _kernel.objects[static_cast<std::size_t>(obj_id)].isFloat;
    Node n;
    n.kind = NodeKind::Access;
    n.dir = AccessDir::Load;
    n.pattern = PatternKind::Indirect;
    n.addrInput = offset.node;
    n.objId = obj_id;
    n.elemIsFloat = is_float;
    n.bits = _kernel.objects[static_cast<std::size_t>(obj_id)].elemBytes * 8;
    return ValueRef{addNode(std::move(n)), is_float};
}

void
KernelBuilder::store(int obj_id, const AffineExpr &idx, ValueRef value)
{
    Node n;
    n.kind = NodeKind::Access;
    n.dir = AccessDir::Store;
    n.pattern = PatternKind::Affine;
    n.affine = idx.pattern;
    n.objId = obj_id;
    n.valueInput = value.node;
    n.elemIsFloat =
        _kernel.objects[static_cast<std::size_t>(obj_id)].isFloat;
    n.bits = _kernel.objects[static_cast<std::size_t>(obj_id)].elemBytes * 8;
    addNode(std::move(n));
}

void
KernelBuilder::storeIdx(int obj_id, ValueRef offset, ValueRef value)
{
    Node n;
    n.kind = NodeKind::Access;
    n.dir = AccessDir::Store;
    n.pattern = PatternKind::Indirect;
    n.addrInput = offset.node;
    n.objId = obj_id;
    n.valueInput = value.node;
    n.elemIsFloat =
        _kernel.objects[static_cast<std::size_t>(obj_id)].isFloat;
    n.bits = _kernel.objects[static_cast<std::size_t>(obj_id)].elemBytes * 8;
    addNode(std::move(n));
}

void
KernelBuilder::storeIdxIf(ValueRef pred, int obj_id, ValueRef offset,
                          ValueRef value)
{
    Node n;
    n.kind = NodeKind::Access;
    n.dir = AccessDir::Store;
    n.pattern = PatternKind::Indirect;
    n.addrInput = offset.node;
    n.objId = obj_id;
    n.valueInput = value.node;
    n.predInput = pred.node;
    n.elemIsFloat =
        _kernel.objects[static_cast<std::size_t>(obj_id)].isFloat;
    n.bits = _kernel.objects[static_cast<std::size_t>(obj_id)].elemBytes * 8;
    addNode(std::move(n));
}

void
KernelBuilder::storeIf(ValueRef pred, int obj_id, const AffineExpr &idx,
                       ValueRef value)
{
    Node n;
    n.kind = NodeKind::Access;
    n.dir = AccessDir::Store;
    n.pattern = PatternKind::Affine;
    n.affine = idx.pattern;
    n.objId = obj_id;
    n.valueInput = value.node;
    n.predInput = pred.node;
    n.elemIsFloat =
        _kernel.objects[static_cast<std::size_t>(obj_id)].isFloat;
    n.bits = _kernel.objects[static_cast<std::size_t>(obj_id)].elemBytes * 8;
    addNode(std::move(n));
}

ValueRef
KernelBuilder::compute(OpCode op, ValueRef a, ValueRef b, ValueRef c)
{
    Node n;
    n.kind = NodeKind::Compute;
    n.op = op;
    n.inputA = a.node;
    n.inputB = b.node;
    n.inputC = c.node;
    bool is_float = producesFloat(op);
    if (op == OpCode::Select || op == OpCode::Mov ||
        op == OpCode::FMin || op == OpCode::FMax) {
        is_float = (op == OpCode::Select) ? b.isFloat : a.isFloat;
        if (op == OpCode::FMin || op == OpCode::FMax)
            is_float = true;
    }
    return ValueRef{addNode(std::move(n)), is_float};
}

ValueRef
KernelBuilder::carry(Word init, bool is_float, std::string name)
{
    Node n;
    n.kind = NodeKind::Carry;
    n.carryInit = init;
    n.carryIsFloat = is_float;
    n.name = std::move(name);
    return ValueRef{addNode(std::move(n)), is_float};
}

void
KernelBuilder::setCarry(ValueRef carry_ref, ValueRef next)
{
    Node &n = _kernel.node(carry_ref.node);
    DISTDA_ASSERT(n.kind == NodeKind::Carry, "setCarry on non-carry %d",
                  carry_ref.node);
    n.carryUpdate = next.node;
}

void
KernelBuilder::markResult(ValueRef carry_ref)
{
    const Node &n = _kernel.node(carry_ref.node);
    DISTDA_ASSERT(n.kind == NodeKind::Carry,
                  "markResult on non-carry %d", carry_ref.node);
    _kernel.resultCarries.push_back(carry_ref.node);
}

Kernel
KernelBuilder::build()
{
    DISTDA_ASSERT(!_built, "kernel '%s' built twice",
                  _kernel.name.c_str());
    _built = true;
    _kernel.verify();
    return std::move(_kernel);
}

} // namespace distda::compiler
