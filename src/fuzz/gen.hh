/**
 * @file
 * Seeded random kernel generator. Every case it emits is valid by
 * construction: affine accesses are bounds-proven for the chosen trip
 * counts, indirect indices flow only through read-only index objects
 * (or explicit rem/abs clamps), integer value magnitudes are tracked
 * conservatively through every operation (the one step that emits
 * compiler::evalOp's wrap/saturate edges masks its result back under
 * the bound), and float magnitudes are clamped before stores so values
 * never reach inf/NaN. That discipline is what lets the differential
 * executor treat *any* crash or mismatch as a finding rather than a
 * generator artifact — and keeps the whole corpus clean under
 * ASan+UBSan.
 */

#ifndef DISTDA_FUZZ_GEN_HH
#define DISTDA_FUZZ_GEN_HH

#include <cstdint>
#include <string>

#include "src/engine/backend.hh"
#include "src/fuzz/case.hh"

namespace distda::fuzz
{

/** Controlled DFG shapes (ISSUE: coverage classes, not guarantees). */
enum class Shape
{
    Parallel,         ///< affine streams, no carries
    Pipeline,         ///< reductions / indirect writes
    NonPartitionable, ///< memory recurrence (index chase via carry)
    MultiKernel,      ///< producer/consumer kernel chains
    CrossCluster,     ///< >=2 objects so partitions span clusters
    Mixed,            ///< random mix of the above
};

const char *shapeName(Shape s);

/** Parse a --shape= value; fatal() on unknown names. */
Shape shapeFromName(const std::string &name);

struct GenOptions
{
    Shape shape = Shape::Mixed;
};

/**
 * Generate one deterministic case from @p seed. The result always
 * passes validateCase(); the campaign asserts this.
 */
FuzzCase generateCase(std::uint64_t seed, const GenOptions &opts = {});

/**
 * Deterministically initialize case object @p idx's backing storage:
 * index objects get integers in [0, indexBound), integer data objects
 * small signed values, float objects small reals. Every differential
 * path calls this with the case's dataSeed so initial memory images
 * are byte-identical across backends.
 */
void initCaseObject(const FuzzCase &c, std::size_t idx,
                    engine::ArrayRef &ref);

} // namespace distda::fuzz

#endif // DISTDA_FUZZ_GEN_HH
