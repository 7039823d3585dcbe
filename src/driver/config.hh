/**
 * @file
 * The tested configurations of §VI-A:
 *   1. OoO            — out-of-order host alone
 *   2. Mono-CA        — monolithic accelerator @L3 bus @2GHz,
 *                        centralized stream accesses, 8KB private cache
 *   3. Mono-DA-IO     — monolithic IO-core accelerator @2GHz,
 *                        decentralized accesses
 *   4. Mono-DA-F      — monolithic 8x8 CGRA @1GHz, decentralized
 *   5. Dist-DA-IO     — distributed IO cores @2GHz
 *   6. Dist-DA-F      — distributed 5x5 CGRAs @1GHz
 * plus the Fig 14 software-optimization variants.
 */

#ifndef DISTDA_DRIVER_CONFIG_HH
#define DISTDA_DRIVER_CONFIG_HH

#include <cstdint>
#include <string>
#include <vector>

#include "src/compiler/plan.hh"
#include "src/engine/engine.hh"
#include "src/verify/verify.hh"

namespace distda::driver
{

/** Architecture models under evaluation. */
enum class ArchModel
{
    OoO,
    MonoCA,
    MonoDA_IO,
    MonoDA_F,
    DistDA_IO,
    DistDA_F,
    DistDA_IO_SW, ///< Fig 14: 4-issue IO + software prefetching
    DistDA_F_A,   ///< Fig 14: allocation customized for locality
};

const char *archModelName(ArchModel m);

/** Every ArchModel, in --list order (headline six + Fig 14 variants). */
const std::vector<ArchModel> &allArchModels();

/**
 * Inverse of archModelName(); fatal (capturable) on an unknown name,
 * so a serve request naming a bogus config turns into an error reply
 * under ScopedFailureCapture rather than killing the daemon.
 */
ArchModel parseArchModel(const std::string &name);

/**
 * Strict numeric parsing for CLI flag values. Unlike atoi/atof these
 * are hard errors on empty strings, non-numeric input, trailing
 * garbage, and out-of-range values: a typo'd `--runs=1O0` must abort
 * with a diagnostic naming @p what, never silently become zero.
 */
std::int64_t parseInt(const std::string &text, const char *what);
double parseDouble(const std::string &text, const char *what);

/** Output mode for the per-kernel offload-lifecycle breakdown. */
enum class BreakdownMode
{
    Off,  ///< no breakdown output
    Text, ///< Table-VI-style per-kernel phase table
    Json, ///< machine-readable JSON document on stdout
};

/**
 * Strict parse of a --breakdown value: "" (bare flag) and "text" mean
 * Text, "json" means Json; anything else is a fatal error naming
 * @p what. "off" is accepted for script symmetry.
 */
BreakdownMode parseBreakdownMode(const std::string &text,
                                 const char *what);

/** All models evaluated in the headline figures, in plot order. */
std::vector<ArchModel> headlineModels();

/** One run's configuration. */
struct RunConfig
{
    ArchModel model = ArchModel::OoO;
    /** Accelerator clock override in GHz (0 = model default). */
    double accelGHz = 0.0;

    // Ablation knobs (defaults keep the paper's design choices).
    bool disableCombining = false;  ///< drop Fig 2d combining
    bool disableRetention = false;  ///< drop §V-B buffer reuse
    std::uint32_t bufferBytesOverride = 0; ///< per-cluster SRAM (0=4KB)
    int channelCapacityOverride = 0;       ///< decoupling depth (0=64)

    /**
     * Record per-kernel invocation profiles (src/verify/analysis.hh)
     * for ExecContext::analyzeAll() to verify against. Off by
     * default: profile recording costs a little per invoke and the
     * perf gate measures the plain path.
     */
    bool recordProfiles = false;

    /**
     * Run actors on the predecoded stream (default); false forces the
     * microcode interpreter. Differential jobs running both paths
     * concurrently set this per run.
     */
    bool predecode = true;

    /**
     * Plan-artifact directory (--plan-dir=): an existing
     * `<kernel>-<fingerprint>.plan` artifact is loaded, validated and
     * used instead of compiling; misses compile and dump the artifact
     * for the next run. Empty disables artifact I/O.
     */
    std::string planDir;
    /**
     * Round-trip every acquired plan through serialize → parse →
     * validate and hand the engine the deserialized copy; panics
     * unless re-serialization is byte-identical. The differential
     * fuzzer's replan leg runs with this on.
     */
    bool planRoundTrip = false;

    bool usesAccelerator() const { return model != ArchModel::OoO; }
    bool distributed() const
    {
        return model == ArchModel::DistDA_IO ||
               model == ArchModel::DistDA_F ||
               model == ArchModel::DistDA_IO_SW ||
               model == ArchModel::DistDA_F_A;
    }
    bool cgra() const
    {
        return model == ArchModel::MonoDA_F ||
               model == ArchModel::DistDA_F ||
               model == ArchModel::DistDA_F_A;
    }
    bool allocAffinity() const { return model == ArchModel::DistDA_F_A; }

    /**
     * Compiler options implied by the model. They include every
     * access-unit and channel parameter; the engine reads them from
     * the plan compiled under them.
     */
    compiler::CompileOptions compileOptions() const;

    /** Engine configuration implied by the model. */
    engine::EngineConfig engineConfig() const;

    /**
     * Static-verification parameters implied by the model: the fabric
     * on CGRA models. ExecContext verifies every plan it acquires
     * under these.
     */
    verify::Options verifyOptions() const;
};

} // namespace distda::driver

#endif // DISTDA_DRIVER_CONFIG_HH
