/**
 * @file
 * DFG classification (§V-A-2): conservative dependence analysis that
 * buckets each kernel into parallelizable, pipelinable or
 * non-partitionable, mirroring what the paper derives from LLVM's
 * scalar-evolution and memory-dependence analyses.
 */

#ifndef DISTDA_COMPILER_CLASSIFY_HH
#define DISTDA_COMPILER_CLASSIFY_HH

#include <vector>

#include "src/compiler/dfg.hh"
#include "src/compiler/plan.hh"

namespace distda::compiler
{

/** Analyze @p kernel and classify it. */
DependenceInfo classifyKernel(const Kernel &kernel);

/**
 * Dependent-load depth of every node, indexed by node id: the largest
 * number of loads on any same-iteration path ending at the node, the
 * node itself included. Its maximum is
 * DependenceInfo::loadChainDepth; the OoO host model serializes loads
 * level by level.
 */
std::vector<int> loadDepths(const Kernel &kernel);

/**
 * True when the set of nodes transitively feeding @p node (same
 * iteration) includes @p candidate.
 */
bool dependsOn(const Kernel &kernel, int node, int candidate);

/**
 * Loop-carried distance between an affine store and an affine load on
 * the same object: the store at iteration i writes what the load reads
 * at iteration i+d. Returns false when the patterns are unrelated or
 * the distance is not a (nonnegative) integer multiple of the stride.
 */
bool carriedDistance(const AffinePattern &store_pat,
                     const AffinePattern &load_pat, std::int64_t &d);

} // namespace distda::compiler

#endif // DISTDA_COMPILER_CLASSIFY_HH
