/**
 * @file
 * Smell warnings: findings that do not make a plan unsafe but indicate
 * wasted codegen — registers written and never read, loads whose values
 * are dead, accessors no instruction references, and partitions that do
 * no work at all.
 */

#include <set>
#include <vector>

#include "src/verify/checks.hh"

namespace distda::verify
{

using compiler::MicroInst;
using compiler::MicroKind;
using compiler::MicroProgram;
using compiler::noReg;
using compiler::OffloadPlan;
using compiler::Partition;

namespace
{

constexpr const char *passName = "smells";

void
checkPartition(const OffloadPlan &plan, const Partition &part,
               Report &report)
{
    const MicroProgram &prog = part.program;
    const std::string loc = partLoc(plan, part.id);

    if (prog.insts.empty() && part.accessors.empty()) {
        report.add(Severity::Warning, passName, loc,
                   "partition has no instructions and no accessors "
                   "(unreachable work)");
        return;
    }

    // Registers read by some instruction.
    std::vector<bool> read(regFileSize(prog), false);
    auto mark = [&read](std::uint16_t r) {
        if (r != noReg && r < read.size())
            read[r] = true;
    };
    for (const MicroInst &inst : prog.insts) {
        mark(inst.a);
        mark(inst.b);
        mark(inst.c);
    }

    // Carry registers are read externally: every CarryWrite targets
    // one, and the host reads result carries back via cp_load_rf.
    std::set<std::uint16_t> carry_regs;
    for (const auto &cs : prog.carries)
        carry_regs.insert(cs.reg);

    std::set<std::uint16_t> flagged;
    auto flag_dead = [&](std::uint16_t reg, const std::string &where,
                         const char *what) {
        if (reg == noReg || reg >= read.size())
            return;
        if (read[reg] || carry_regs.count(reg))
            return;
        if (!flagged.insert(reg).second)
            return;
        report.add(Severity::Warning, passName, where,
                   "%s r%u is never read (dead register)", what, reg);
    };

    for (const auto &c : prog.constRegs)
        flag_dead(c.reg, loc, "constant register");
    for (const auto &[param, reg] : prog.paramRegs) {
        (void)param;
        flag_dead(reg, loc, "parameter register");
    }
    for (std::size_t pc = 0; pc < prog.insts.size(); ++pc) {
        const MicroInst &inst = prog.insts[pc];
        if (inst.dst == noReg)
            continue;
        const char *what =
            inst.kind == MicroKind::LoadStream ||
                    inst.kind == MicroKind::LoadIdx
                ? "loaded value"
                : inst.kind == MicroKind::Consume ? "consumed value"
                                                  : "result";
        flag_dead(inst.dst, instLoc(plan, part.id, pc), what);
    }

    // Accessors no instruction addresses.
    std::set<int> used_slots;
    for (const MicroInst &inst : prog.insts) {
        switch (inst.kind) {
          case MicroKind::LoadStream:
          case MicroKind::StoreStream:
          case MicroKind::LoadIdx:
          case MicroKind::StoreIdx:
            used_slots.insert(inst.slot);
            break;
          default:
            break;
        }
    }
    for (std::size_t ai = 0; ai < part.accessors.size(); ++ai) {
        if (!used_slots.count(static_cast<int>(ai))) {
            report.add(Severity::Warning, passName, loc,
                       "accessor %zu (node %d) is referenced by no "
                       "instruction",
                       ai, part.accessors[ai].node);
        }
    }
}

} // namespace

void
checkSmells(const OffloadPlan &plan, const Options &opts, Report &report)
{
    (void)opts;
    for (const Partition &part : plan.partitions)
        checkPartition(plan, part, report);
}

} // namespace distda::verify
