/**
 * @file
 * The offload abstraction of §IV-A: offloadable code regions are
 * dataflow graphs (DFGs) of three primitive node kinds — application
 * memory objects, access instructions, and compute operations — over
 * one innermost loop (the scope the paper's automated compiler
 * extracts; outer loops stay on the host and re-invoke the kernel).
 *
 * Workloads construct kernels through KernelBuilder, which plays the
 * role of the paper's LLVM front-end: because access patterns are
 * declared as affine functions of the induction variable and of host-set
 * scalar parameters, the scalar-evolution classification of §V-A is
 * immediate, and alias relationships are explicit via object IDs.
 */

#ifndef DISTDA_COMPILER_DFG_HH
#define DISTDA_COMPILER_DFG_HH

#include <cstdint>
#include <string>
#include <vector>

namespace distda::compiler
{

/** A runtime value: either a 64-bit integer or a double. */
union Word
{
    std::int64_t i;
    double f;
};

/** Primitive DFG node kinds (Fig 1e / Fig 3-2). */
enum class NodeKind : std::uint8_t
{
    MemObject,  ///< an application data structure
    Access,     ///< a load/store on one object
    Compute,    ///< an arithmetic/logic operation
    IndVar,     ///< the loop induction variable
    Param,      ///< host-set scalar (reaches the accelerator via cp_set_rf)
    ConstInt,   ///< integer literal
    ConstFloat, ///< floating-point literal
    Carry,      ///< loop-carried register (reduction/recurrence)
};

/** Load or store. */
enum class AccessDir : std::uint8_t { Load, Store };

/** Scalar-evolution classification of an access's address stream. */
enum class PatternKind : std::uint8_t
{
    Affine,   ///< base + sum(coeff_k * param_k) + iv_coeff * i
    Indirect, ///< offset produced by another node (e.g., B[A[i]])
};

/** Compute operations; the set the in-order microcode and CGRA share. */
enum class OpCode : std::uint8_t
{
    // integer
    IAdd, ISub, IMul, IDiv, IRem, IMin, IMax, IAbs,
    IAnd, IOr, IXor, IShl, IShr,
    ICmpLt, ICmpLe, ICmpEq, ICmpNe,
    // floating point
    FAdd, FSub, FMul, FDiv, FSqrt, FAbs, FMin, FMax, FNeg,
    FCmpLt, FCmpLe, FCmpEq,
    // misc
    Select, I2F, F2I, Mov,
};

/** Functional-unit class an op needs (for CGRA placement and area). */
enum class FuClass : std::uint8_t { Int, Float, Complex, Mem, Ctrl };

/** FU class required by @p op. */
FuClass fuClassOf(OpCode op);

/** True for FAdd..FCmpEq style float-producing ops. */
bool producesFloat(OpCode op);

/** Printable op name. */
const char *opName(OpCode op);

/**
 * Affine address pattern: element offset =
 *   constBase + sum_k paramCoeffs[k] * param_k + ivCoeff * i.
 */
struct AffinePattern
{
    std::int64_t constBase = 0;
    std::vector<std::int64_t> paramCoeffs; ///< indexed by param id
    std::int64_t ivCoeff = 0;

    /** Coefficient for param @p k (0 when beyond the stored vector). */
    std::int64_t
    paramCoeff(std::size_t k) const
    {
        return k < paramCoeffs.size() ? paramCoeffs[k] : 0;
    }

    /** True when two patterns differ only in constBase. */
    bool sameStrideAs(const AffinePattern &other) const;
};

/** Sentinel for "no node". */
constexpr int noNode = -1;

/** One DFG node. */
struct Node
{
    int id = noNode;
    NodeKind kind = NodeKind::Compute;
    std::string name;
    std::uint32_t bits = 64; ///< communication width of the value

    // MemObject fields
    int objId = -1;

    // Access fields
    AccessDir dir = AccessDir::Load;
    PatternKind pattern = PatternKind::Affine;
    AffinePattern affine;
    int addrInput = noNode;  ///< node producing the element offset (indirect)
    int valueInput = noNode; ///< stored value (stores)
    int predInput = noNode;  ///< store predicate (predicated stores)
    bool elemIsFloat = false;

    // Compute fields
    OpCode op = OpCode::Mov;
    int inputA = noNode;
    int inputB = noNode;
    int inputC = noNode; ///< third input (Select)

    // Param fields
    int paramIdx = -1;

    // Const fields
    Word imm{0};

    // Carry fields
    Word carryInit{0};
    int carryUpdate = noNode; ///< value written back at iteration end
    bool carryIsFloat = false;

    /** All value inputs of this node, in a fixed order. */
    std::vector<int> valueInputs() const;
};

/** Declaration of one application memory object. */
struct MemObjectDecl
{
    int id = -1;
    std::string name;
    std::uint64_t elemCount = 0;
    std::uint32_t elemBytes = 8;
    bool isFloat = false;
};

/** Trip count source of the kernel's single (innermost) loop. */
struct LoopInfo
{
    std::int64_t staticExtent = 0; ///< used when paramIdx < 0
    int extentParam = -1;          ///< param index providing the extent
    std::string name = "i";
};

/**
 * A kernel: one innermost loop's DFG plus its objects and parameters.
 * This is the unit the compiler classifies, partitions and lowers.
 */
struct Kernel
{
    std::string name;
    LoopInfo loop;
    std::vector<MemObjectDecl> objects;
    std::vector<std::string> paramNames;
    std::vector<Node> nodes;
    /** Carry nodes whose final values the host reads via cp_load_rf. */
    std::vector<int> resultCarries;

    const Node &node(int id) const { return nodes[static_cast<std::size_t>(id)]; }
    Node &node(int id) { return nodes[static_cast<std::size_t>(id)]; }

    /** Node ids in topological order (inputs before users). */
    std::vector<int> topoOrder() const;

    /** All access nodes touching @p obj_id. */
    std::vector<int> accessesOf(int obj_id) const;

    /** Number of compute + access nodes ("instructions" for Table VI). */
    int instCount() const;

    /** Users of each node (reverse edges). */
    std::vector<std::vector<int>> userLists() const;

    /** Consistency checks; panics on malformed graphs. */
    void verify() const;

    /** verify()'s message when the graph is malformed, else "". */
    std::string defect() const;
};

/** A value handle returned by KernelBuilder operations. */
struct ValueRef
{
    int node = noNode;
    bool isFloat = false;
};

/** Affine index expression handle used by load/store. */
struct AffineExpr
{
    AffinePattern pattern;
};

/**
 * Fluent builder for kernels. Mirrors what the paper's LLVM passes
 * recover from IR: objects, affine/indirect accesses, compute chains,
 * loop-carried values and predicated stores.
 */
class KernelBuilder
{
  public:
    explicit KernelBuilder(std::string kernel_name);

    /** Declare the loop with a static trip count. */
    void loopStatic(std::int64_t extent, std::string name = "i");

    /** Declare the loop with its trip count in a parameter. */
    void loopFromParam(int param_idx, std::string name = "i");

    /** Declare a memory object; returns its object id. */
    int object(std::string name, std::uint64_t elem_count,
               std::uint32_t elem_bytes, bool is_float);

    /** Declare a host-set scalar parameter; returns its param index. */
    int param(std::string name);

    /** The induction variable as a value. */
    ValueRef iv();

    /** A parameter as a value. */
    ValueRef paramValue(int param_idx);

    ValueRef constInt(std::int64_t v);
    ValueRef constFloat(double v);

    /** Affine expression: constBase + ivCoeff*i (+ param terms). */
    AffineExpr affine(std::int64_t const_base, std::int64_t iv_coeff);
    AffineExpr affineP(std::int64_t const_base, std::int64_t iv_coeff,
                       std::initializer_list<std::pair<int, std::int64_t>>
                           param_terms);

    /** Affine load from @p obj_id. */
    ValueRef load(int obj_id, const AffineExpr &idx);

    /** Indirect load: obj[offset] with a computed offset. */
    ValueRef loadIdx(int obj_id, ValueRef offset);

    /** Affine store. */
    void store(int obj_id, const AffineExpr &idx, ValueRef value);

    /** Indirect store. */
    void storeIdx(int obj_id, ValueRef offset, ValueRef value);

    /** Predicated indirect store: executes when @p pred is nonzero. */
    void storeIdxIf(ValueRef pred, int obj_id, ValueRef offset,
                    ValueRef value);

    /** Predicated affine store. */
    void storeIf(ValueRef pred, int obj_id, const AffineExpr &idx,
                 ValueRef value);

    /** Generic binary/unary compute node. */
    ValueRef compute(OpCode op, ValueRef a,
                     ValueRef b = ValueRef{},
                     ValueRef c = ValueRef{});

    // Convenience arithmetic wrappers.
    ValueRef iadd(ValueRef a, ValueRef b) { return compute(OpCode::IAdd, a, b); }
    ValueRef isub(ValueRef a, ValueRef b) { return compute(OpCode::ISub, a, b); }
    ValueRef imul(ValueRef a, ValueRef b) { return compute(OpCode::IMul, a, b); }
    ValueRef imin(ValueRef a, ValueRef b) { return compute(OpCode::IMin, a, b); }
    ValueRef imax(ValueRef a, ValueRef b) { return compute(OpCode::IMax, a, b); }
    ValueRef iabs(ValueRef a) { return compute(OpCode::IAbs, a); }
    ValueRef fadd(ValueRef a, ValueRef b) { return compute(OpCode::FAdd, a, b); }
    ValueRef fsub(ValueRef a, ValueRef b) { return compute(OpCode::FSub, a, b); }
    ValueRef fmul(ValueRef a, ValueRef b) { return compute(OpCode::FMul, a, b); }
    ValueRef fdiv(ValueRef a, ValueRef b) { return compute(OpCode::FDiv, a, b); }
    ValueRef fsqrt(ValueRef a) { return compute(OpCode::FSqrt, a); }
    ValueRef fmin(ValueRef a, ValueRef b) { return compute(OpCode::FMin, a, b); }
    ValueRef fmax(ValueRef a, ValueRef b) { return compute(OpCode::FMax, a, b); }
    ValueRef select(ValueRef cond, ValueRef t, ValueRef f)
    {
        return compute(OpCode::Select, cond, t, f);
    }

    /** Declare a loop-carried value with an initial constant. */
    ValueRef carry(Word init, bool is_float, std::string name = "acc");

    /** Set the next-iteration value of a carried register. */
    void setCarry(ValueRef carry_ref, ValueRef next);

    /** Mark a carry as a result the host reads back (cp_load_rf). */
    void markResult(ValueRef carry_ref);

    /** Finish and validate the kernel. */
    Kernel build();

  private:
    int addNode(Node n);

    Kernel _kernel;
    bool _built = false;
};

} // namespace distda::compiler

#endif // DISTDA_COMPILER_DFG_HH
