/**
 * @file
 * Purity/memoizability analysis: classify a kernel invocation by its
 * object read/write footprints. Pure kernels touch no object with a
 * store (results leave through result carries only); Idempotent
 * kernels store only to objects they never load, so re-running them
 * with the same inputs rewrites the same bytes; anything that loads an
 * object it also stores is Stateful (the second run observes the
 * first's writes). A non-Stateful kernel is memoizable unless some
 * observed invocation aliased two object bindings — aliasing collapses
 * distinct footprints into the same bytes, which is exactly what the
 * offload model (and the fuzz-case validator) forbids.
 */

#include <algorithm>

#include "src/verify/analysis.hh"
#include "src/verify/checks.hh"

namespace distda::verify
{

using compiler::AccessDir;
using compiler::Node;
using compiler::NodeKind;
using compiler::OffloadPlan;

void
checkPurity(const OffloadPlan &plan, const Options &opts, Report &report)
{
    PurityFact f;
    for (const Node &n : plan.kernel.nodes) {
        if (n.kind != NodeKind::Access)
            continue;
        auto &list = n.dir == AccessDir::Store ? f.writtenObjects
                                               : f.readObjects;
        list.push_back(n.objId);
    }
    auto dedupe = [](std::vector<int> &v) {
        std::sort(v.begin(), v.end());
        v.erase(std::unique(v.begin(), v.end()), v.end());
    };
    dedupe(f.readObjects);
    dedupe(f.writtenObjects);

    if (f.writtenObjects.empty()) {
        f.cls = PurityClass::Pure;
    } else {
        const bool overlap = std::any_of(
            f.writtenObjects.begin(), f.writtenObjects.end(),
            [&](int w) {
                return std::binary_search(f.readObjects.begin(),
                                          f.readObjects.end(), w);
            });
        f.cls = overlap ? PurityClass::Stateful : PurityClass::Idempotent;
    }

    // Without a profile the offload model's no-aliasing contract is
    // assumed (the driver and the fuzz-case validator both reject
    // aliased bindings); an observed aliased binding voids it.
    const bool aliased = opts.profile && opts.profile->aliasedBindings;
    f.memoizable = f.cls != PurityClass::Stateful && !aliased;
    report.purity = f;
}

} // namespace distda::verify
