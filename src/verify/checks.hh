/**
 * @file
 * Internal declarations shared by the verification passes. Not part of
 * the public verify interface.
 */

#ifndef DISTDA_VERIFY_CHECKS_HH
#define DISTDA_VERIFY_CHECKS_HH

#include <algorithm>
#include <string>

#include "src/verify/verify.hh"

namespace distda::verify
{

// The registered passes (definitions live in one file per pass).
void checkPlan(const compiler::OffloadPlan &plan, const Options &opts,
               Report &report);
void checkMicrocode(const compiler::OffloadPlan &plan, const Options &opts,
                    Report &report);
void checkChannels(const compiler::OffloadPlan &plan, const Options &opts,
                   Report &report);
void checkCgra(const compiler::OffloadPlan &plan, const Options &opts,
               Report &report);
void checkSmells(const compiler::OffloadPlan &plan, const Options &opts,
                 Report &report);
void checkBounds(const compiler::OffloadPlan &plan, const Options &opts,
                 Report &report);
void checkPurity(const compiler::OffloadPlan &plan, const Options &opts,
                 Report &report);

/**
 * Register-file size the passes model: numRegs clamped to the 16-bit
 * register space (noReg is reserved), so a corrupted count can neither
 * go negative nor make a pass allocate unaddressable registers.
 */
inline std::size_t
regFileSize(const compiler::MicroProgram &prog)
{
    return static_cast<std::size_t>(
        std::clamp(prog.numRegs, 0, static_cast<int>(compiler::noReg)));
}

/** Three-valued type lattice for int/float propagation. */
enum class VType : std::uint8_t { Unknown, Int, Float };

/** True when @p a and @p b are both known and disagree. */
inline bool
typeClash(VType a, VType b)
{
    return a != VType::Unknown && b != VType::Unknown && a != b;
}

/** Static value type of DFG node @p id (Unknown when indeterminable). */
VType nodeValueType(const compiler::Kernel &kernel, int id);

/** "kernel 'x'" */
std::string kernelLoc(const compiler::OffloadPlan &plan);
/** "kernel 'x' partition N" */
std::string partLoc(const compiler::OffloadPlan &plan, int part);
/** "kernel 'x' partition N inst I" */
std::string instLoc(const compiler::OffloadPlan &plan, int part,
                    std::size_t inst);

} // namespace distda::verify

#endif // DISTDA_VERIFY_CHECKS_HH
