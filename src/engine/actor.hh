/**
 * @file
 * A partition actor: one distributed accelerator definition executing
 * its microcode against its access units and channels. Actors are
 * decoupled — each carries its own local time — and the engine
 * round-robins them, so a producer partition runs ahead of its
 * consumers up to the buffer capacity, exactly the execution model of
 * §IV-B / Fig 3-5.
 */

#ifndef DISTDA_ENGINE_ACTOR_HH
#define DISTDA_ENGINE_ACTOR_HH

#include <memory>
#include <vector>

#include "src/accel/access_unit.hh"
#include "src/compiler/plan.hh"
#include "src/energy/energy_model.hh"
#include "src/engine/backend.hh"
#include "src/engine/channel.hh"
#include "src/noc/mesh.hh"

namespace distda::engine
{

/** Execution substrate of an actor (Table I "offload substrate"). */
enum class ActorKind : std::uint8_t
{
    InOrder, ///< 1-issue in-order core executing microcode
    Cgra,    ///< statically mapped CGRA fabric
};

enum class ActorStatus : std::uint8_t { Running, Blocked, Finished };

/** Runtime wiring of one accessor to its unit and bound array. */
struct AccessorRuntime
{
    const compiler::AccessorDef *def = nullptr;
    accel::StreamUnit *stream = nullptr; ///< shared by combined taps
    std::int64_t tapDistance = 0;
    ArrayRef array;
    std::int64_t baseElemOffset = 0; ///< pattern at iteration 0
};

/** One partition's executing instance. */
class PartitionActor
{
  public:
    struct Config
    {
        const compiler::Partition *part = nullptr;
        ActorKind kind = ActorKind::InOrder;
        sim::Tick cycleTick = 500; ///< 2GHz accelerator cycle
        int issueWidth = 1;
        double instEnergyScale = 1.0;
        int ii = 1;                ///< CGRA initiation interval
        int scheduleDepth = 1;     ///< CGRA pipeline fill
        int cluster = 0;
        std::int64_t trip = 0;
        bool swPrefetch = false;
        /** Indirect-access run-ahead window (0 for recurrences). */
        sim::Tick hideTicks = 0;
        energy::Component energyComp = energy::Component::IOCore;
        sim::Tick startTick = 0;
        /** Run the predecoded stream; false interprets the raw
         *  MicroProgram (the timing oracle for the predecoded loop). */
        bool predecode = true;
        /**
         * Observability wiring (null when off). Span emission is
         * batched per run() slice — one compute/mem-blocked/
         * chan-blocked breakdown per slice, not per instruction — so
         * the predecoded hot loop stays untouched.
         */
        sim::Probe *probe = nullptr;
        int track = -1;
        stats::Distribution *sliceInsts = nullptr;
    };

    PartitionActor(const Config &config,
                   std::vector<AccessorRuntime> accessors,
                   std::unique_ptr<accel::RandomUnit> random,
                   std::vector<Channel *> ins,
                   std::vector<Channel *> outs,
                   std::vector<compiler::Word> param_values,
                   MemBackend *backend, energy::Accountant *acct,
                   noc::Mesh *mesh, accel::AccessStats *stats);

    /**
     * Execute up to @p max_iters loop iterations.
     * Returns Blocked when stalled on a channel, Finished when the
     * trip count is done (streams flushed, channels closed).
     */
    ActorStatus run(std::int64_t max_iters);

    sim::Tick now() const { return _now; }
    sim::Tick finishTick() const { return _finishTick; }

    /** Stall attribution (ticks spent waiting, by cause). */
    struct StallStats
    {
        sim::Tick streamWait = 0;   ///< fill-FSM data not ready
        sim::Tick channelWait = 0;  ///< consume on late operand
        sim::Tick indirectWait = 0; ///< random-access latency
    };
    const StallStats &stalls() const { return _stalls; }
    std::int64_t iteration() const { return _iter; }
    double instsExecuted() const { return _insts; }
    double memOps() const { return _memOps; }
    int cluster() const { return _config.cluster; }

    /** Final value of carry slot @p idx (after Finished). */
    compiler::Word carryValue(std::size_t idx) const;

    /** Carry slots (order matches MicroProgram::carries). */
    const std::vector<compiler::CarrySlot> &carrySlots() const;

  private:
    /**
     * One predecoded instruction of the flat execution stream:
     * register and slot indices resolved to raw pointers, and every
     * per-instruction indirection the interpreter would chase
     * (accessor def fields, array bounds, channel cluster topology,
     * predication form) hoisted into the struct at construction.
     */
    struct ExecOp
    {
        compiler::MicroKind kind = compiler::MicroKind::Alu;
        compiler::OpCode op = compiler::OpCode::Mov; ///< Alu only
        bool elemIsFloat = false;
        std::uint32_t elemBytes = 0;
        compiler::Word *dst = nullptr;
        const compiler::Word *a = nullptr;
        const compiler::Word *b = nullptr;
        const compiler::Word *c = nullptr;
        const compiler::Word *pred = nullptr; ///< null = unconditional
        accel::StreamUnit *stream = nullptr;
        Channel *ch = nullptr;
        std::int64_t tapDistance = 0;
        std::int64_t ivCoeff = 0;
        std::int64_t baseElemOffset = 0;
        mem::Addr arrayBase = 0;
        std::uint32_t arrayElemBytes = 8;
        std::uint64_t arrayCount = 0;
        /** Produce: the channel's mesh route; zero hops when the
         *  channel stays inside one cluster (nothing is sent). */
        noc::Mesh::Route route;
    };

    /** Execute one instruction; false means blocked (retry later). */
    bool execInst(const compiler::MicroInst &inst);

    /** Resolve one MicroInst into its predecoded form. */
    ExecOp predecode(const compiler::MicroInst &inst);

    /** run() over the predecoded stream with slice-batched stats. */
    ActorStatus runPredecoded(std::int64_t max_iters);

    /** run() interpreting the raw MicroProgram (predecode off). */
    ActorStatus runInterpreted(std::int64_t max_iters);

    /**
     * Emit this slice's timeline spans: the [t0, _now) interval split
     * into sequential compute / mem-blocked / chan-blocked segments
     * from the stall-counter deltas since (@p s0, @p i0).
     */
    void emitSlice(sim::Tick t0, const StallStats &s0, double i0);

    void finish();

    compiler::Word evalAlu(const compiler::MicroInst &inst) const;

    Config _config;
    std::vector<AccessorRuntime> _accessors;
    std::unique_ptr<accel::RandomUnit> _random;
    std::vector<Channel *> _ins;
    std::vector<Channel *> _outs;
    MemBackend *_backend;
    energy::Accountant *_acct;
    noc::Mesh *_mesh;
    accel::AccessStats *_stats;

    std::vector<compiler::Word> _regs;
    std::vector<ExecOp> _exec; ///< empty = interpret the raw program
    compiler::Word *_ivPtr = nullptr; ///< induction register, if any
    compiler::Word _scratch{};        ///< sink for noReg destinations
    /** Running IOCore/Cgra total (null without an Accountant). */
    double *_computePj = nullptr;
    double _fullInstPj = 0.0; ///< compute energy per full inst
    double _portInstPj = 0.0; ///< compute energy per port op
    bool _isCgra = false;
    std::size_t _pc = 0;
    std::int64_t _iter = 0;
    sim::Tick _now = 0;
    sim::Tick _lastInit = 0;
    sim::Tick _instCost = 0;
    sim::Tick _finishTick = 0;
    bool _finished = false;
    double _insts = 0.0;
    double _memOps = 0.0;
    StallStats _stalls;
};

} // namespace distda::engine

#endif // DISTDA_ENGINE_ACTOR_HH
