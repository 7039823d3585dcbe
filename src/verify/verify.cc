/**
 * @file
 * The verification pass manager: runs every registered pass over a
 * compiled plan, and the enforcement shim the driver applies to every
 * plan a run acquires.
 */

#include "src/verify/verify.hh"

#include "src/sim/logging.hh"
#include "src/verify/checks.hh"

namespace distda::verify
{

using compiler::Kernel;
using compiler::Node;
using compiler::NodeKind;
using compiler::OffloadPlan;
using compiler::OpCode;

const std::vector<Pass> &
passes()
{
    static const std::vector<Pass> all = {
        {"plan", checkPlan},         {"microcode", checkMicrocode},
        {"channels", checkChannels}, {"cgra", checkCgra},
        {"smells", checkSmells},     {"bounds", checkBounds},
        {"purity", checkPurity},
    };
    return all;
}

Report
verifyPlan(const OffloadPlan &plan, const Options &opts)
{
    Report report;
    report.kernel = plan.kernel.name;
    for (const Pass &pass : passes())
        pass.run(plan, opts, report);
    return report;
}

void
enforce(const Report &report, const std::string &what)
{
    for (const Diag &d : report.diags())
        warn("verify: %s: %s", what.c_str(), d.str().c_str());
    if (!report.ok()) {
        panic("static verification of '%s' failed with %d error(s); "
              "first: %s",
              what.c_str(), report.errorCount(),
              report.firstError().c_str());
    }
}

VType
nodeValueType(const Kernel &kernel, int id)
{
    if (id < 0 || id >= static_cast<int>(kernel.nodes.size()))
        return VType::Unknown;
    const Node &n = kernel.node(id);
    switch (n.kind) {
      case NodeKind::ConstInt:
      case NodeKind::IndVar:
        return VType::Int;
      case NodeKind::ConstFloat:
        return VType::Float;
      case NodeKind::Carry:
        return n.carryIsFloat ? VType::Float : VType::Int;
      case NodeKind::Access: {
          if (n.objId < 0 ||
              n.objId >= static_cast<int>(kernel.objects.size()))
              return VType::Unknown;
          return kernel.objects[static_cast<std::size_t>(n.objId)].isFloat
                     ? VType::Float
                     : VType::Int;
      }
      case NodeKind::Compute:
        if (n.op == OpCode::Mov)
            return nodeValueType(kernel, n.inputA);
        if (n.op == OpCode::Select) {
            const VType t = nodeValueType(kernel, n.inputB);
            const VType f = nodeValueType(kernel, n.inputC);
            return typeClash(t, f) ? VType::Unknown
                                   : (t != VType::Unknown ? t : f);
        }
        return compiler::producesFloat(n.op) ? VType::Float : VType::Int;
      default:
        return VType::Unknown; // Param, MemObject
    }
}

std::string
kernelLoc(const OffloadPlan &plan)
{
    return strfmt("kernel '%s'", plan.kernel.name.c_str());
}

std::string
partLoc(const OffloadPlan &plan, int part)
{
    return strfmt("kernel '%s' partition %d", plan.kernel.name.c_str(),
                  part);
}

std::string
instLoc(const OffloadPlan &plan, int part, std::size_t inst)
{
    return strfmt("kernel '%s' partition %d inst %zu",
                  plan.kernel.name.c_str(), part, inst);
}

} // namespace distda::verify
