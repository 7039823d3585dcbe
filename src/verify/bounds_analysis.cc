/**
 * @file
 * Value-range/affine bounds analysis: abstract-interprets every
 * partition's microcode over the interval + affine-form domain
 * (src/verify/analysis.hh) and proves each accessor in-bounds across
 * all invocations joined into the profile.
 *
 * Stream (affine) accessors are decided from their declared pattern:
 * against the profile's exact joined per-invocation ranges when one is
 * available (no correlation loss between base offsets and trip
 * counts), else abstractly over the joined parameter/trip intervals.
 * Random (indirect) accessors are decided from the abstract value of
 * their offset register at each LoadIdx/StoreIdx site, computed by a
 * fixpoint over the carry cells (loop feedback within a partition) and
 * channel cells (dataflow between partitions): indices rebuilt from
 * the induction variable or parameters are proven, indices loaded from
 * memory stay Unknown — the sound default.
 */

#include <algorithm>
#include <limits>
#include <map>

#include "src/sim/logging.hh"
#include "src/verify/analysis.hh"
#include "src/verify/checks.hh"

namespace distda::verify
{

using compiler::AccessorDef;
using compiler::AffinePattern;
using compiler::MicroInst;
using compiler::MicroKind;
using compiler::MicroProgram;
using compiler::OffloadPlan;
using compiler::OpCode;
using compiler::Partition;
using compiler::PatternKind;
using compiler::noReg;

namespace
{

/** Joined invocation view the analysis runs against. */
struct ProfileView
{
    Interval trip;                ///< bottom = unknown
    std::vector<Interval> params; ///< missing/bottom = unconstrained
    const InvocationProfile *profile = nullptr;
    std::size_t numParams; ///< parameters the kernel declares

    explicit ProfileView(const compiler::Kernel &kernel,
                         const Options &opts)
        : numParams(kernel.paramNames.size())
    {
        if (opts.profile && opts.profile->invocations > 0) {
            profile = opts.profile;
            trip = profile->trip;
            params = profile->params;
            return;
        }
        // Static fallback: only a compile-time-constant extent pins
        // the trip count.
        if (kernel.loop.extentParam < 0)
            trip = Interval::exact(kernel.loop.staticExtent);
    }

    std::uint64_t
    objectElems(const compiler::Kernel &kernel, int obj_id) const
    {
        if (profile && obj_id >= 0 &&
            static_cast<std::size_t>(obj_id) <
                profile->objectElems.size() &&
            profile->objectElems[static_cast<std::size_t>(obj_id)] > 0)
            return profile->objectElems[static_cast<std::size_t>(obj_id)];
        for (const compiler::MemObjectDecl &o : kernel.objects) {
            if (o.id == obj_id)
                return o.elemCount;
        }
        return 0;
    }

    Interval
    ivRange() const
    {
        if (trip.isBottom())
            return Interval{0,
                            std::numeric_limits<std::int64_t>::max()};
        if (trip.hi < 1)
            return Interval{}; // the loop body never executes
        return Interval{0, trip.hi - 1};
    }
};

bool
affineIsConstant(const AffineForm &f)
{
    if (!f.known || f.ivCoeff != 0)
        return false;
    return std::all_of(f.paramCoeffs.begin(), f.paramCoeffs.end(),
                       [](std::int64_t c) { return c == 0; });
}

AbstractValue
aluTransfer(const MicroInst &inst,
            const std::vector<AbstractValue> &regs)
{
    auto at = [&](std::uint16_t r) -> AbstractValue {
        if (r == noReg || r >= regs.size())
            return AbstractValue::top();
        return regs[r];
    };
    const AbstractValue a = at(inst.a);
    const AbstractValue b = at(inst.b);
    AbstractValue out = AbstractValue::top();
    switch (inst.op) {
      case OpCode::Mov:
        return a;
      case OpCode::IAdd:
        out.itv = a.itv.add(b.itv);
        out.affine = a.affine.add(b.affine);
        return out;
      case OpCode::ISub:
        out.itv = a.itv.sub(b.itv);
        out.affine = a.affine.sub(b.affine);
        return out;
      case OpCode::IMul:
        out.itv = a.itv.mul(b.itv);
        if (affineIsConstant(b.affine))
            out.affine = a.affine.scale(b.affine.base);
        else if (affineIsConstant(a.affine))
            out.affine = b.affine.scale(a.affine.base);
        return out;
      case OpCode::IMin:
        out.itv = a.itv.minWith(b.itv);
        return out;
      case OpCode::IMax:
        out.itv = a.itv.maxWith(b.itv);
        return out;
      case OpCode::IAbs:
        out.itv = a.itv.absVal();
        return out;
      case OpCode::ICmpLt:
      case OpCode::ICmpLe:
      case OpCode::ICmpEq:
      case OpCode::ICmpNe:
      case OpCode::FCmpLt:
      case OpCode::FCmpLe:
      case OpCode::FCmpEq:
        out.itv = Interval{0, 1};
        return out;
      case OpCode::IRem:
        // a % b lies strictly inside (-|b|, |b|) (truncated division),
        // and is non-negative when a is.
        if (!a.itv.isBottom() && !b.itv.isBottom()) {
            const Interval mag = b.itv.absVal();
            if (mag.hi > 0 && mag.hi !=
                                  std::numeric_limits<std::int64_t>::max()) {
                out.itv = Interval{a.itv.lo >= 0 ? 0 : 1 - mag.hi,
                                   mag.hi - 1};
            }
        }
        return out;
      case OpCode::IAnd:
        if (!a.itv.isBottom() && !b.itv.isBottom() && a.itv.lo >= 0 &&
            b.itv.lo >= 0)
            out.itv = Interval{0, std::min(a.itv.hi, b.itv.hi)};
        return out;
      case OpCode::IShr:
        if (!a.itv.isBottom() && a.itv.lo >= 0)
            out.itv = Interval{0, a.itv.hi};
        return out;
      case OpCode::Select: {
          const AbstractValue t = at(inst.b);
          const AbstractValue f = at(inst.c);
          return t.join(f);
      }
      default:
        // Division, shifts left, bitwise or/xor, and every float op:
        // no useful integer range.
        return AbstractValue::top();
    }
}

/** One abstract execution of a partition's program. */
struct PartitionInterp
{
    PartitionInterp(const Partition &part, const ProfileView &view,
                    std::vector<FixpointCell> &chan_cells,
                    std::vector<FixpointCell> &carry_cells)
        : part(part), view(view), chanCells(chan_cells),
          carryCells(carry_cells)
    {
    }

    const Partition &part;
    const ProfileView &view;
    std::vector<FixpointCell> &chanCells;   ///< by channel id
    std::vector<FixpointCell> &carryCells;  ///< this partition's slots
    bool widen = false;
    bool changed = false;

    /** Offset value joined per accessor slot (final pass only). */
    std::map<int, Interval> *indirectOffsets = nullptr;

    void
    run()
    {
        const MicroProgram &prog = part.program;
        _regs.assign(regFileSize(prog), AbstractValue{});
        std::vector<AbstractValue> &regs = _regs;

        auto setReg = [&](std::uint16_t r, const AbstractValue &v) {
            if (r != noReg && r < regs.size())
                regs[r] = v;
        };

        for (const auto &c : prog.constRegs)
            setReg(c.reg, c.isFloat ? AbstractValue::top()
                                    : AbstractValue::exact(c.value.i));
        for (const auto &[param, reg] : prog.paramRegs) {
            AbstractValue v = AbstractValue::top();
            // Unknown parameters stay top (the microcode pass rejects
            // them); their affine coefficient vector is never sized.
            if (param >= 0 &&
                static_cast<std::size_t>(param) < view.numParams) {
                if (static_cast<std::size_t>(param) < view.params.size() &&
                    !view.params[static_cast<std::size_t>(param)]
                         .isBottom())
                    v.itv = view.params[static_cast<std::size_t>(param)];
                v.affine =
                    AffineForm::param(static_cast<std::size_t>(param));
            }
            setReg(reg, v);
        }
        if (prog.ivReg != noReg) {
            AbstractValue v;
            v.itv = view.ivRange();
            v.affine = AffineForm::iv();
            setReg(prog.ivReg, v);
        }
        for (std::size_t s = 0; s < prog.carries.size(); ++s)
            setReg(prog.carries[s].reg, carryCells[s].get());

        auto at = [&](std::uint16_t r) -> AbstractValue {
            if (r == noReg || r >= regs.size())
                return AbstractValue::top();
            return regs[r];
        };

        for (const MicroInst &inst : prog.insts) {
            switch (inst.kind) {
              case MicroKind::Alu:
                setReg(inst.dst, aluTransfer(inst, regs));
                break;
              case MicroKind::LoadStream:
              case MicroKind::LoadIdx:
                // Memory contents are outside the domain.
                if (inst.kind == MicroKind::LoadIdx)
                    recordOffset(inst);
                setReg(inst.dst, AbstractValue::top());
                break;
              case MicroKind::StoreStream:
                break;
              case MicroKind::StoreIdx:
                recordOffset(inst);
                break;
              case MicroKind::Consume: {
                  AbstractValue v = AbstractValue::top();
                  const int ch = channelOf(inst, part.inChannels);
                  if (ch >= 0)
                      v = chanCells[static_cast<std::size_t>(ch)].get();
                  setReg(inst.dst, v);
                  break;
              }
              case MicroKind::Produce: {
                  const int ch = channelOf(inst, part.outChannels);
                  if (ch >= 0)
                      changed |= chanCells[static_cast<std::size_t>(ch)]
                                     .joinFrom(at(inst.a), widen);
                  break;
              }
              case MicroKind::CarryWrite:
                if (inst.slot >= 0 &&
                    inst.slot <
                        static_cast<int>(carryCells.size()))
                    changed |=
                        carryCells[static_cast<std::size_t>(inst.slot)]
                            .joinFrom(at(inst.a), widen);
                break;
              default:
                break;
            }
        }
    }

    int
    channelOf(const MicroInst &inst, const std::vector<int> &table) const
    {
        if (inst.slot < 0 ||
            inst.slot >= static_cast<int>(table.size()))
            return -1;
        const int ch = table[static_cast<std::size_t>(inst.slot)];
        if (ch < 0 || ch >= static_cast<int>(chanCells.size()))
            return -1;
        return ch;
    }

    void
    recordOffset(const MicroInst &inst)
    {
        if (!indirectOffsets)
            return;
        AbstractValue off = AbstractValue::top();
        if (inst.a != noReg && inst.a < _regs.size())
            off = _regs[inst.a];
        Interval r = off.itv;
        // An affine offset refines the raw interval: evaluate the
        // relation over the joined parameter/trip view and intersect.
        if (off.affine.known) {
            AffinePattern pat;
            pat.constBase = off.affine.base;
            pat.ivCoeff = off.affine.ivCoeff;
            pat.paramCoeffs = off.affine.paramCoeffs;
            const Interval a =
                affineRangeAbstract(pat, view.params, view.trip);
            if (a.isBottom() || r.isBottom())
                r = Interval{};
            else
                r = Interval{std::max(r.lo, a.lo), std::min(r.hi, a.hi)};
        }
        auto [it, fresh] = indirectOffsets->try_emplace(inst.slot, r);
        if (!fresh)
            it->second = it->second.join(r);
    }

    std::vector<AbstractValue> _regs;
};

BoundsFact
streamFact(const AccessorDef &ad, const compiler::Kernel &kernel,
           int partition, const ProfileView &view)
{
    BoundsFact f;
    f.node = ad.node;
    f.partition = partition;
    f.objId = ad.objId;
    f.affine = true;
    f.store = ad.dir == compiler::AccessDir::Store;
    f.objectElems = view.objectElems(kernel, ad.objId);

    Interval range;
    bool exact = false;
    if (view.profile) {
        const auto it = view.profile->accessRanges.find(ad.node);
        if (it != view.profile->accessRanges.end()) {
            range = it->second;
            exact = true;
        }
    }
    if (!exact)
        range = affineRangeAbstract(ad.affine, view.params, view.trip);

    if (!range.isBottom() && range.lo != std::numeric_limits<
                                             std::int64_t>::min() &&
        range.hi != std::numeric_limits<std::int64_t>::max()) {
        f.rangeKnown = true;
        f.lo = range.lo;
        f.hi = range.hi;
    }
    if (f.objectElems == 0) {
        f.verdict = Verdict::Unknown;
    } else if (range.within(f.objectElems)) {
        f.verdict = Verdict::Proven;
    } else if (exact || range.disjointFrom(f.objectElems)) {
        // Exact profile ranges make any excursion a real fault; an
        // abstract range must miss the object entirely to be certain.
        f.verdict = Verdict::Violated;
    } else {
        f.verdict = Verdict::Unknown;
    }
    return f;
}

/** Error diagnostic for a Violated fact. */
void
reportViolation(const OffloadPlan &plan, const BoundsFact &f,
                Report &report)
{
    std::string range = "unknown range";
    if (f.rangeKnown)
        range = strfmt("[%lld, %lld]", static_cast<long long>(f.lo),
                       static_cast<long long>(f.hi));
    report.add(Severity::Error, "bounds", partLoc(plan, f.partition),
               "%s %s (node %d) indexes %s of object %d, which has "
               "%llu elements: out of bounds on every invocation",
               f.affine ? "affine" : "indirect",
               f.store ? "store" : "load", f.node, range.c_str(),
               f.objId, static_cast<unsigned long long>(f.objectElems));
}

} // namespace

void
checkBounds(const OffloadPlan &plan, const Options &opts, Report &report)
{
    const ProfileView view(plan.kernel, opts);

    // Interprocedural fixpoint over channel and carry cells.
    std::vector<FixpointCell> chanCells(plan.channels.size());
    std::vector<std::vector<FixpointCell>> carryCells(
        plan.partitions.size());
    for (std::size_t p = 0; p < plan.partitions.size(); ++p) {
        const MicroProgram &prog = plan.partitions[p].program;
        carryCells[p].resize(prog.carries.size());
        for (std::size_t s = 0; s < prog.carries.size(); ++s) {
            const compiler::CarrySlot &cs = prog.carries[s];
            carryCells[p][s].seed(cs.isFloat
                                      ? AbstractValue::top()
                                      : AbstractValue::exact(cs.init.i));
        }
    }

    for (int round = 0; round < maxFixpointRounds; ++round) {
        bool changed = false;
        for (std::size_t p = 0; p < plan.partitions.size(); ++p) {
            PartitionInterp interp{plan.partitions[p], view, chanCells,
                                   carryCells[p]};
            interp.widen = round >= wideningDelay;
            interp.run();
            changed = changed || interp.changed;
        }
        if (!changed)
            break;
    }

    // Final pass: collect facts with the converged cells.
    for (std::size_t p = 0; p < plan.partitions.size(); ++p) {
        const Partition &part = plan.partitions[p];
        std::map<int, Interval> offsets;
        PartitionInterp interp{part, view, chanCells, carryCells[p]};
        interp.indirectOffsets = &offsets;
        interp.run();

        for (std::size_t slot = 0; slot < part.accessors.size();
             ++slot) {
            const AccessorDef &ad = part.accessors[slot];
            if (ad.pattern == PatternKind::Affine) {
                report.bounds.push_back(
                    streamFact(ad, plan.kernel, part.id, view));
                continue;
            }
            BoundsFact f;
            f.node = ad.node;
            f.partition = part.id;
            f.objId = ad.objId;
            f.affine = false;
            f.store = ad.dir == compiler::AccessDir::Store;
            f.objectElems = view.objectElems(plan.kernel, ad.objId);
            const auto it = offsets.find(static_cast<int>(slot));
            const Interval r =
                it != offsets.end() ? it->second : Interval::top();
            if (!r.isBottom() &&
                r.lo != std::numeric_limits<std::int64_t>::min() &&
                r.hi != std::numeric_limits<std::int64_t>::max()) {
                f.rangeKnown = true;
                f.lo = r.lo;
                f.hi = r.hi;
            }
            if (f.objectElems == 0)
                f.verdict = Verdict::Unknown;
            else if (r.within(f.objectElems))
                f.verdict = Verdict::Proven;
            else if (r.disjointFrom(f.objectElems))
                f.verdict = Verdict::Violated;
            else
                f.verdict = Verdict::Unknown;
            report.bounds.push_back(f);
        }
    }
    for (const BoundsFact &f : report.bounds) {
        if (f.verdict == Verdict::Violated)
            reportViolation(plan, f, report);
    }
}

} // namespace distda::verify
