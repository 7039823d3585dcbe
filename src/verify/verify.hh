/**
 * @file
 * Static verification of compiler artifacts (the safety net between
 * codegen and the engine): a pass manager over an OffloadPlan that
 * validates microcode well-formedness, channel-graph liveness, the
 * partitioner's invariants and CGRA mapping legality before anything
 * executes. DataMaestro- and Dato-style dataflow compilers ship the
 * same kind of plan checkers; here every invariant corresponds to a
 * paper rule (Table VI encoding, the SSIV-B decoupling contract, the
 * SSV-A partitioning constraints).
 *
 * Passes (one registry, one Report per run):
 *   plan       partitioner invariants: node coverage, <=1 object per
 *              partition, accessor placement, cut edges materialized
 *              as channels, carry cycles intra-partition, Table VI
 *              characteristics consistency
 *   microcode  per-partition programs: def-before-use dataflow,
 *              register/slot bounds against the buffer-allocation
 *              table, ALU operand arity, int/float type propagation
 *              through CarrySlots, byteSize() == 8 * insts
 *   channels   the SSIV-B decoupling contract: produce/consume counts
 *              balanced per iteration, no zero-capacity channels, and
 *              marked-graph liveness (first-iteration and capacity
 *              deadlock); facts: deadlock freedom, per-channel tokens
 *              per iteration and minimum safe capacity
 *   cgra       mapping legality when the plan will run on a fabric:
 *              FU-class availability, II >= max(ResMII, RecMII)
 *   smells     warnings: dead registers, dead loads, unused accessors,
 *              empty partitions
 *   bounds     facts: per-access Proven/Unknown/Violated in-bounds
 *              verdicts from abstract interpretation (analysis.hh)
 *   purity     facts: pure/idempotent/stateful and memoizability
 */

#ifndef DISTDA_VERIFY_VERIFY_HH
#define DISTDA_VERIFY_VERIFY_HH

#include <optional>
#include <string>
#include <vector>

#include "src/cgra/cgra.hh"
#include "src/compiler/plan.hh"
#include "src/verify/diag.hh"

namespace distda::verify
{

struct InvocationProfile;

/**
 * What to check beyond the plan itself. Channel depth and buffer
 * bytes come from the plan's own options (OffloadPlan::options), the
 * parameters the engine will instantiate it with.
 */
struct Options
{
    /** Check CGRA mapping legality against this fabric when set. */
    std::optional<cgra::CgraParams> fabric;
    /**
     * Observed invocations the analysis passes close over; null means
     * static-only analysis (see src/verify/analysis.hh).
     */
    const InvocationProfile *profile = nullptr;
};

/** One registered verification pass. */
struct Pass
{
    const char *name;
    void (*run)(const compiler::OffloadPlan &plan, const Options &opts,
                Report &report);
};

/** All passes in execution order. */
const std::vector<Pass> &passes();

/** Run every pass over @p plan and collect the findings and facts. */
Report verifyPlan(const compiler::OffloadPlan &plan,
                  const Options &opts = Options{});

/**
 * Report and enforce: every finding goes to warn(), then any error
 * panics (a plan that fails static verification is a compiler bug).
 */
void enforce(const Report &report, const std::string &what);

} // namespace distda::verify

#endif // DISTDA_VERIFY_VERIFY_HH
