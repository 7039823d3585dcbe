/**
 * @file
 * CGRA mapping legality: when the plan will run on a fabric substrate,
 * every instruction's FU class must be provisioned on the target
 * fabric, the static mapper must produce a feasible mapping, and the
 * achieved initiation interval must respect both resource (ResMII) and
 * recurrence (RecMII) lower bounds.
 */

#include "src/verify/checks.hh"

namespace distda::verify
{

using compiler::FuClass;
using compiler::MicroInst;
using compiler::OffloadPlan;
using compiler::Partition;

namespace
{

constexpr const char *passName = "cgra";

const char *
fuClassName(FuClass c)
{
    switch (c) {
      case FuClass::Int: return "int";
      case FuClass::Float: return "float";
      case FuClass::Complex: return "complex";
      case FuClass::Mem: return "port (mem)";
      case FuClass::Ctrl: return "port (ctrl)";
      default: return "?";
    }
}

int
fuAvailable(const cgra::CgraParams &fabric, FuClass c)
{
    switch (c) {
      case FuClass::Int: return fabric.intFus;
      case FuClass::Float: return fabric.floatFus;
      case FuClass::Complex: return fabric.complexFus;
      case FuClass::Mem:
      case FuClass::Ctrl: return fabric.portFus;
      default: return 0;
    }
}

} // namespace

void
checkCgra(const OffloadPlan &plan, const Options &opts, Report &report)
{
    if (!opts.fabric)
        return;
    const cgra::CgraParams &fabric = *opts.fabric;
    for (const Partition &part : plan.partitions) {
        for (std::size_t pc = 0; pc < part.program.insts.size(); ++pc) {
            const MicroInst &inst = part.program.insts[pc];
            const FuClass c = cgra::fuClassOfInst(inst);
            if (fuAvailable(fabric, c) <= 0) {
                report.add(Severity::Error, passName,
                           instLoc(plan, part.id, pc),
                           "needs a %s FU but the %dx%d fabric "
                           "provisions none",
                           fuClassName(c), fabric.rows,
                           fabric.cols);
            }
        }
        const cgra::CgraMapping m =
            cgra::mapProgram(part.program, fabric);
        if (!m.feasible) {
            report.add(Severity::Error, passName, partLoc(plan, part.id),
                       "static mapping onto the %dx%d fabric infeasible",
                       fabric.rows, fabric.cols);
            continue;
        }
        if (m.ii < m.resMii || m.ii < m.recMii) {
            report.add(Severity::Error, passName, partLoc(plan, part.id),
                       "mapping II %d below lower bound "
                       "max(ResMII %d, RecMII %d)",
                       m.ii, m.resMii, m.recMii);
        }
        if (m.opsMapped != static_cast<int>(part.program.insts.size())) {
            report.add(Severity::Error, passName, partLoc(plan, part.id),
                       "mapper placed %d of %zu instructions",
                       m.opsMapped, part.program.insts.size());
        }
        if (m.tilesUsed > fabric.tiles()) {
            report.add(Severity::Error, passName, partLoc(plan, part.id),
                       "mapping claims %d tiles on a %d-tile fabric",
                       m.tilesUsed, fabric.tiles());
        }
    }
}

} // namespace distda::verify
