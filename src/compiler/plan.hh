/**
 * @file
 * The compiler's output: an OffloadPlan holding the distributed
 * accelerator definitions (Fig 3-4) — partitions with their accessors,
 * channels, placement hints, microcode and interface-mechanism
 * coverage — ready for the runtime to allocate and run.
 */

#ifndef DISTDA_COMPILER_PLAN_HH
#define DISTDA_COMPILER_PLAN_HH

#include <array>
#include <cstdint>
#include <string>
#include <vector>

#include "src/compiler/dfg.hh"
#include "src/compiler/microcode.hh"

namespace distda::compiler
{

/** §V-A-2's conservative DFG classification. */
enum class DfgClass : std::uint8_t
{
    Parallelizable,    ///< case 1: no loop-carried dependences
    Pipelinable,       ///< case 3: carried deps / irregular writes
    NonPartitionable,  ///< case 2: memory recurrence (serialize)
};

const char *dfgClassName(DfgClass c);

/** Dependence analysis result. */
struct DependenceInfo
{
    DfgClass cls = DfgClass::Parallelizable;
    bool hasCarry = false;
    bool hasIndirectWrite = false;
    bool hasCarriedMemDep = false;
    bool hasMemoryRecurrence = false;
    /** Chain depth of dependent loads inside one iteration. */
    int loadChainDepth = 1;
    /**
     * Latency (host cycles) of the longest loop-carried compute
     * recurrence: FP ops ~3 cycles, complex ops ~8, integer 1. An
     * out-of-order window cannot overlap iterations through this
     * chain, so it floors per-iteration time.
     */
    int carryChainCycles = 0;
};

/** Vertical placement preference for a partition (§V-A-4). */
enum class PlacementLevel : std::uint8_t
{
    Llc,       ///< long strided accesses: place at the L3 cluster
    NearHost,  ///< short irregular accesses: place near the host
};

/** One specialized accessor mapped onto an access unit. */
struct AccessorDef
{
    int node = noNode;            ///< originating DFG access node
    int objId = -1;
    AccessDir dir = AccessDir::Load;
    PatternKind pattern = PatternKind::Affine;
    AffinePattern affine;
    std::uint32_t elemBytes = 8;
    bool elemIsFloat = false;

    int accessId = -1;   ///< interface-level access-id
    int bufferSlot = -1; ///< stream buffer slot (-1: random access path)
    /**
     * Reuse combining (Fig 2d): when >= 0, this accessor is a follower
     * tap on the leader's buffer (constant access distance within the
     * buffer window) and generates no memory traffic of its own.
     */
    int combinedWithSlot = -1;
    std::int64_t combineDistance = 0; ///< elements behind the leader
};

/** A dataflow channel between two partitions (or to the host). */
struct ChannelDef
{
    int id = -1;
    int srcPartition = -1;
    int dstPartition = -1;  ///< -1 means the host consumes (done/result)
    int srcNode = noNode;   ///< producing DFG node
    std::uint32_t bits = 64;
    bool control = false;   ///< predicate/bound traffic (acc_ctrl class)
};

/** One distributed accelerator definition. */
struct Partition
{
    int id = -1;
    int objId = -1; ///< the (at most one) memory object; -1 compute-only
    std::vector<int> nodes;          ///< DFG nodes mapped here
    std::vector<AccessorDef> accessors;
    std::vector<int> inChannels;     ///< ChannelDef ids consumed
    std::vector<int> outChannels;    ///< ChannelDef ids produced
    PlacementLevel level = PlacementLevel::Llc;
    MicroProgram program;
    int streamBuffers = 0;           ///< Table VI #buf
};

/** Table V mechanism-coverage bits. */
enum class Mechanism : std::uint8_t
{
    CpProduce, CpConsume, CpWrite, CpRead, CpStep,
    CpFillBuf, CpDrainBuf, CpFillRa, CpDrainRa,
    CpConfig, CpConfigStream, CpConfigRandom,
    CpSetRf, CpLoadRf, CpRun,
    NumMechanisms
};

const char *mechanismName(Mechanism m);

using MechanismSet =
    std::array<bool, static_cast<std::size_t>(Mechanism::NumMechanisms)>;

/** Per-kernel offload characteristics feeding Table VI. */
struct OffloadCharacteristics
{
    int numPartitions = 0;
    int maxInsts = 0;            ///< max static insts in one partition
    int dfgLevels = 0;           ///< topological depth
    int dfgWidth = 0;            ///< max nodes per level
    int maxInstBytes = 0;        ///< 8 * maxInsts
    double avgBuffers = 0.0;     ///< Table VI #buf
    double commBytesPerIter = 0.0; ///< partition cut cost
};

/**
 * Options steering compilation. They travel with the plan as its
 * offload descriptor (cp_config / cp_config_stream, Table II): the
 * engine and the verifier read the access-unit and channel parameters
 * from OffloadPlan::options and nowhere else.
 */
struct CompileOptions
{
    bool partition = true;        ///< false: monolithic (Mono-*)
    bool swPrefetch = false;      ///< +SW: issue software prefetches
    bool enableCombining = true;  ///< Fig 2d multi-access combining
    std::uint32_t bufferBytes = 4096; ///< access-unit buffer capacity
    int channelCapacity = 64;     ///< decoupling depth in elements
};

/** The complete compiled offload. */
struct OffloadPlan
{
    Kernel kernel;
    DependenceInfo dep;
    std::vector<Partition> partitions;
    std::vector<ChannelDef> channels;
    MechanismSet mechanisms{};
    OffloadCharacteristics characteristics;

    /** The options this plan was compiled under; round-trips with the
     * artifact and is the only source of the engine parameters. */
    CompileOptions options;
    /**
     * Stable content fingerprint over (canonicalized kernel, options):
     * 16 lowercase hex digits, computed by compiler::planFingerprint.
     * Identical inputs always produce identical fingerprints, so it is
     * the PlanCache key and the artifact-file stem.
     */
    std::string fingerprint;

    /** Partition index containing DFG node @p node (-1 if none). */
    int partitionIndexOf(int node) const;
};

/** Full pipeline: classify, partition, place, specialize, codegen. */
OffloadPlan compileKernel(const Kernel &kernel,
                          const CompileOptions &opts = CompileOptions{});

} // namespace distda::compiler

#endif // DISTDA_COMPILER_PLAN_HH
