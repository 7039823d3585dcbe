/**
 * @file
 * The microcode verifier: validates each partition's straight-line
 * program before the interpreter (or the CGRA's static mapping) ever
 * touches it — register def-before-use dataflow, register indices
 * within the register file, accessor/channel/carry slot bounds against
 * the plan's buffer-allocation table, ALU opcode/operand arity,
 * int/float type propagation through CarrySlots, and the Table VI
 * byteSize() == 8 * insts encoding rule.
 */

#include <vector>

#include "src/verify/checks.hh"

namespace distda::verify
{

using compiler::AccessDir;
using compiler::AccessorDef;
using compiler::CarrySlot;
using compiler::MicroInst;
using compiler::MicroKind;
using compiler::MicroProgram;
using compiler::NodeKind;
using compiler::noReg;
using compiler::OffloadPlan;
using compiler::OpCode;
using compiler::Partition;
using compiler::PatternKind;

namespace
{

constexpr const char *passName = "microcode";

/** Operand arity of an ALU opcode. */
int
aluArity(OpCode op)
{
    switch (op) {
      case OpCode::IAbs:
      case OpCode::FSqrt:
      case OpCode::FAbs:
      case OpCode::FNeg:
      case OpCode::I2F:
      case OpCode::F2I:
      case OpCode::Mov:
        return 1;
      case OpCode::Select:
        return 3;
      default:
        return 2;
    }
}

/** Expected type of value operands (a/b for binary, b/c for Select). */
VType
aluOperandType(OpCode op)
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
      case OpCode::FCmpLt:
      case OpCode::FCmpLe:
      case OpCode::FCmpEq:
      case OpCode::F2I:
        return VType::Float;
      case OpCode::Mov:
      case OpCode::Select:
        return VType::Unknown; // polymorphic
      default:
        return VType::Int;
    }
}

/** Result type of an ALU opcode (Unknown for polymorphic ops). */
VType
aluResultType(OpCode op)
{
    if (op == OpCode::Mov || op == OpCode::Select)
        return VType::Unknown;
    return compiler::producesFloat(op) ? VType::Float : VType::Int;
}

/** Per-partition verification state. */
struct ProgState
{
    std::vector<bool> defined;
    std::vector<VType> type;

    explicit ProgState(const MicroProgram &prog)
        : defined(regFileSize(prog), false),
          type(regFileSize(prog), VType::Unknown)
    {
    }

    bool
    inRange(std::uint16_t reg) const
    {
        return reg < defined.size();
    }

    void
    define(std::uint16_t reg, VType t)
    {
        if (inRange(reg)) {
            defined[reg] = true;
            type[reg] = t;
        }
    }
};

void
checkPreloads(const OffloadPlan &plan, const Partition &part,
              ProgState &st, Report &report)
{
    const MicroProgram &prog = part.program;
    const std::string loc = partLoc(plan, part.id);

    auto preload = [&](std::uint16_t reg, VType t, const char *what) {
        if (reg >= st.defined.size()) {
            report.add(Severity::Error, passName, loc,
                       "%s register r%u outside register file of %d",
                       what, reg, prog.numRegs);
            return;
        }
        st.define(reg, t);
    };

    for (const auto &c : prog.constRegs)
        preload(c.reg, c.isFloat ? VType::Float : VType::Int, "constant");
    const std::size_t num_params = plan.kernel.paramNames.size();
    for (const auto &[param, reg] : prog.paramRegs) {
        if (param < 0 || static_cast<std::size_t>(param) >= num_params) {
            report.add(Severity::Error, passName, loc,
                       "parameter %d preloaded but the kernel declares "
                       "%zu parameters",
                       param, num_params);
        }
        preload(reg, VType::Unknown, "parameter");
    }
    if (prog.ivReg != noReg)
        preload(prog.ivReg, VType::Int, "induction-variable");

    for (std::size_t i = 0; i < prog.carries.size(); ++i) {
        const CarrySlot &cs = prog.carries[i];
        preload(cs.reg, cs.isFloat ? VType::Float : VType::Int, "carry");
        if (cs.node < 0 ||
            cs.node >= static_cast<int>(plan.kernel.nodes.size()) ||
            plan.kernel.node(cs.node).kind != NodeKind::Carry) {
            report.add(Severity::Error, passName, loc,
                       "carry slot %zu bound to node %d which is not a "
                       "carry node",
                       i, cs.node);
            continue;
        }
        if (plan.kernel.node(cs.node).carryIsFloat != cs.isFloat) {
            report.add(Severity::Error, passName, loc,
                       "carry slot %zu float-ness disagrees with DFG "
                       "node %d",
                       i, cs.node);
        }
    }
}

/** The accessor a stream/random instruction addresses, or null. */
const AccessorDef *
accessorAt(const OffloadPlan &plan, const Partition &part,
           std::size_t pc, const MicroInst &inst, Report &report)
{
    if (inst.slot < 0 ||
        inst.slot >= static_cast<int>(part.accessors.size())) {
        report.add(Severity::Error, passName,
                   instLoc(plan, part.id, pc),
                   "accessor slot %d outside this partition's %zu "
                   "accessors",
                   inst.slot, part.accessors.size());
        return nullptr;
    }
    const AccessorDef &ad =
        part.accessors[static_cast<std::size_t>(inst.slot)];
    const bool wants_stream = inst.kind == MicroKind::LoadStream ||
                              inst.kind == MicroKind::StoreStream;
    if (wants_stream != (ad.pattern == PatternKind::Affine)) {
        report.add(Severity::Error, passName, instLoc(plan, part.id, pc),
                   "%s instruction addresses a %s accessor",
                   wants_stream ? "stream" : "random-access",
                   ad.pattern == PatternKind::Affine ? "stream"
                                                     : "random-access");
        return nullptr;
    }
    const bool wants_load = inst.kind == MicroKind::LoadStream ||
                            inst.kind == MicroKind::LoadIdx;
    if (wants_load != (ad.dir == AccessDir::Load)) {
        report.add(Severity::Error, passName, instLoc(plan, part.id, pc),
                   "%s instruction addresses a %s accessor",
                   wants_load ? "load" : "store",
                   ad.dir == AccessDir::Load ? "load" : "store");
        return nullptr;
    }
    return &ad;
}

void
checkProgram(const OffloadPlan &plan, const Partition &part,
             Report &report)
{
    const MicroProgram &prog = part.program;
    if (prog.numRegs < 0 || prog.numRegs > static_cast<int>(noReg)) {
        report.add(Severity::Error, passName, partLoc(plan, part.id),
                   "register file of %d outside the 16-bit register "
                   "space",
                   prog.numRegs);
    }
    ProgState st(prog);
    checkPreloads(plan, part, st, report);

    // Table VI: one instruction is 8 bytes.
    if (prog.byteSize() !=
        prog.insts.size() * compiler::microInstBytes) {
        report.add(Severity::Error, passName, partLoc(plan, part.id),
                   "byteSize() %u != 8 * %zu instructions",
                   prog.byteSize(), prog.insts.size());
    }

    bool saw_carry_write = false;
    for (std::size_t pc = 0; pc < prog.insts.size(); ++pc) {
        const MicroInst &inst = prog.insts[pc];
        const std::string loc = instLoc(plan, part.id, pc);

        // Carry write-backs are the program epilogue: anything after
        // one would observe post-update carry values.
        if (saw_carry_write && inst.kind != MicroKind::CarryWrite) {
            report.add(Severity::Error, passName, loc,
                       "instruction after CarryWrite epilogue");
        }

        // A source register must be in range and defined; returns its
        // propagated type (Unknown on any failure).
        auto use = [&](std::uint16_t reg, const char *operand) -> VType {
            if (reg == noReg) {
                report.add(Severity::Error, passName, loc,
                           "missing %s operand", operand);
                return VType::Unknown;
            }
            if (!st.inRange(reg)) {
                report.add(Severity::Error, passName, loc,
                           "%s operand r%u outside register file of %d",
                           operand, reg, prog.numRegs);
                return VType::Unknown;
            }
            if (!st.defined[reg]) {
                report.add(Severity::Error, passName, loc,
                           "%s operand r%u used before definition",
                           operand, reg);
                return VType::Unknown;
            }
            return st.type[reg];
        };
        auto use_typed = [&](std::uint16_t reg, const char *operand,
                             VType want) {
            const VType got = use(reg, operand);
            if (typeClash(got, want)) {
                report.add(Severity::Error, passName, loc,
                           "%s operand r%u is %s but %s is required",
                           operand, reg,
                           got == VType::Float ? "float" : "int",
                           want == VType::Float ? "float" : "int");
            }
            return got;
        };
        auto def = [&](std::uint16_t reg, VType t) {
            if (reg == noReg) {
                report.add(Severity::Error, passName, loc,
                           "instruction produces a value but has no "
                           "destination register");
                return;
            }
            if (!st.inRange(reg)) {
                report.add(Severity::Error, passName, loc,
                           "destination r%u outside register file of %d",
                           reg, prog.numRegs);
                return;
            }
            st.define(reg, t);
        };
        auto unused = [&](std::uint16_t reg, const char *operand) {
            if (reg != noReg) {
                report.add(Severity::Error, passName, loc,
                           "unexpected %s operand r%u", operand, reg);
            }
        };

        switch (inst.kind) {
          case MicroKind::Alu: {
              const int arity = aluArity(inst.op);
              const VType in = aluOperandType(inst.op);
              VType result = aluResultType(inst.op);
              if (inst.op == OpCode::Select) {
                  use_typed(inst.a, "predicate", VType::Int);
                  const VType t = use(inst.b, "true-value");
                  const VType f = use(inst.c, "false-value");
                  if (typeClash(t, f)) {
                      report.add(Severity::Error, passName, loc,
                                 "Select mixes int and float values");
                  }
                  result = t != VType::Unknown ? t : f;
              } else {
                  const VType a = use_typed(inst.a, "first", in);
                  if (arity >= 2)
                      use_typed(inst.b, "second", in);
                  else
                      unused(inst.b, "second");
                  unused(inst.c, "third");
                  if (inst.op == OpCode::Mov)
                      result = a;
              }
              def(inst.dst, result);
              break;
          }
          case MicroKind::LoadStream:
          case MicroKind::LoadIdx: {
              const AccessorDef *ad =
                  accessorAt(plan, part, pc, inst, report);
              if (inst.kind == MicroKind::LoadIdx)
                  use_typed(inst.a, "offset", VType::Int);
              else
                  unused(inst.a, "offset");
              unused(inst.b, "value");
              unused(inst.c, "third");
              def(inst.dst, !ad ? VType::Unknown
                                : ad->elemIsFloat ? VType::Float
                                                  : VType::Int);
              break;
          }
          case MicroKind::StoreStream:
          case MicroKind::StoreIdx: {
              const AccessorDef *ad =
                  accessorAt(plan, part, pc, inst, report);
              const VType elem = !ad ? VType::Unknown
                                     : ad->elemIsFloat ? VType::Float
                                                       : VType::Int;
              if (inst.kind == MicroKind::StoreIdx) {
                  use_typed(inst.a, "offset", VType::Int);
                  use_typed(inst.b, "value", elem);
              } else {
                  use_typed(inst.a, "value", elem);
                  unused(inst.b, "value");
              }
              if (inst.c != noReg)
                  use_typed(inst.c, "predicate", VType::Int);
              unused(inst.dst, "destination");
              break;
          }
          case MicroKind::Consume: {
              VType t = VType::Unknown;
              if (inst.slot < 0 ||
                  inst.slot >= static_cast<int>(part.inChannels.size())) {
                  report.add(Severity::Error, passName, loc,
                             "consume slot %d outside this partition's "
                             "%zu in-channels",
                             inst.slot, part.inChannels.size());
              } else {
                  const int ch_id = part.inChannels[static_cast<
                      std::size_t>(inst.slot)];
                  if (ch_id >= 0 &&
                      ch_id < static_cast<int>(plan.channels.size())) {
                      t = nodeValueType(
                          plan.kernel,
                          plan.channels[static_cast<std::size_t>(ch_id)]
                              .srcNode);
                  }
              }
              unused(inst.a, "first");
              unused(inst.b, "second");
              unused(inst.c, "third");
              def(inst.dst, t);
              break;
          }
          case MicroKind::Produce: {
              if (inst.slot < 0 ||
                  inst.slot >=
                      static_cast<int>(part.outChannels.size())) {
                  report.add(Severity::Error, passName, loc,
                             "produce slot %d outside this partition's "
                             "%zu out-channels",
                             inst.slot, part.outChannels.size());
              }
              use(inst.a, "value");
              unused(inst.b, "second");
              unused(inst.c, "third");
              unused(inst.dst, "destination");
              break;
          }
          case MicroKind::CarryWrite: {
              saw_carry_write = true;
              unused(inst.b, "second");
              unused(inst.c, "third");
              unused(inst.dst, "destination");
              if (inst.slot < 0 ||
                  inst.slot >= static_cast<int>(prog.carries.size())) {
                  report.add(Severity::Error, passName, loc,
                             "carry slot %d outside this partition's "
                             "%zu carries",
                             inst.slot, prog.carries.size());
                  use(inst.a, "value");
                  break;
              }
              const CarrySlot &cs =
                  prog.carries[static_cast<std::size_t>(inst.slot)];
              use_typed(inst.a, "value",
                        cs.isFloat ? VType::Float : VType::Int);
              break;
          }
          default:
            report.add(Severity::Error, passName, loc,
                       "unknown microcode kind %d",
                       static_cast<int>(inst.kind));
        }
    }
}

} // namespace

void
checkMicrocode(const OffloadPlan &plan, const Options &opts,
               Report &report)
{
    (void)opts;
    for (const Partition &part : plan.partitions)
        checkProgram(plan, part, report);
}

} // namespace distda::verify
