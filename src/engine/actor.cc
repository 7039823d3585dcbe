#include "src/engine/actor.hh"

#include <algorithm>

#include "src/compiler/eval.hh"
#include "src/sim/logging.hh"
#include "src/sim/probe.hh"

namespace distda::engine
{

using compiler::MicroInst;
using compiler::MicroKind;
using compiler::Word;

namespace
{
const Word zeroWord{};
} // namespace

PartitionActor::PartitionActor(
    const Config &config, std::vector<AccessorRuntime> accessors,
    std::unique_ptr<accel::RandomUnit> random, std::vector<Channel *> ins,
    std::vector<Channel *> outs, std::vector<Word> param_values,
    MemBackend *backend, energy::Accountant *acct, noc::Mesh *mesh,
    accel::AccessStats *stats)
    : _config(config), _accessors(std::move(accessors)),
      _random(std::move(random)), _ins(std::move(ins)),
      _outs(std::move(outs)), _backend(backend), _acct(acct),
      _mesh(mesh), _stats(stats)
{
    const compiler::MicroProgram &prog = _config.part->program;
    _regs.assign(static_cast<std::size_t>(std::max(prog.numRegs, 1)),
                 Word{});

    // Reject corrupted microcode up front: execInst() and the preload
    // loops below index registers, accessors, channels and carry slots
    // without bounds checks, so a bad program must never start.
    auto check_reg = [&](std::uint16_t reg, const char *what) {
        DISTDA_ASSERT(reg == compiler::noReg || reg < _regs.size(),
                      "partition %d: %s register r%u out of range "
                      "(numRegs %d)",
                      _config.part->id, what, reg, prog.numRegs);
    };
    for (const auto &[param_idx, reg] : prog.paramRegs)
        check_reg(reg, "param");
    for (const auto &c : prog.constRegs)
        check_reg(c.reg, "const");
    for (const auto &c : prog.carries)
        check_reg(c.reg, "carry");
    check_reg(prog.ivReg, "induction");
    for (std::size_t pc = 0; pc < prog.insts.size(); ++pc) {
        const MicroInst &inst = prog.insts[pc];
        check_reg(inst.dst, "dst");
        check_reg(inst.a, "src");
        check_reg(inst.b, "src");
        check_reg(inst.c, "src");
        std::size_t limit = 0;
        switch (inst.kind) {
          case MicroKind::LoadStream:
          case MicroKind::StoreStream:
          case MicroKind::LoadIdx:
          case MicroKind::StoreIdx:
            limit = _accessors.size();
            break;
          case MicroKind::Consume: limit = _ins.size(); break;
          case MicroKind::Produce: limit = _outs.size(); break;
          case MicroKind::CarryWrite: limit = prog.carries.size(); break;
          default: continue;
        }
        DISTDA_ASSERT(inst.slot >= 0 &&
                          static_cast<std::size_t>(inst.slot) < limit,
                      "partition %d inst %zu: slot %d out of range "
                      "(limit %zu)",
                      _config.part->id, pc, inst.slot, limit);
    }

    for (const auto &[param_idx, reg] : prog.paramRegs) {
        DISTDA_ASSERT(param_idx >= 0 &&
                          param_idx <
                              static_cast<int>(param_values.size()),
                      "param %d unbound", param_idx);
        _regs[reg] = param_values[static_cast<std::size_t>(param_idx)];
    }
    for (const auto &c : prog.constRegs)
        _regs[c.reg] = c.value;
    for (const auto &c : prog.carries)
        _regs[c.reg] = c.init;
    if (prog.ivReg != compiler::noReg)
        _regs[prog.ivReg].i = 0;

    _now = config.startTick;
    _lastInit = config.startTick;
    _instCost = (config.kind == ActorKind::InOrder)
                    ? config.cycleTick /
                          static_cast<sim::Tick>(
                              std::max(config.issueWidth, 1))
                    : 0;

    _isCgra = config.kind == ActorKind::Cgra;
    if (_acct) {
        // Same products addEvents() computes per instruction in the
        // interpreter (perEvent * (scale * 1.0) and perEvent * (scale *
        // 0.4)), hoisted so the energy charge stays bit-identical
        // between the two paths.
        const energy::Accountant::Tally t = _acct->tally(config.energyComp);
        _computePj = t.totalPj;
        _fullInstPj = t.perEventPj * config.instEnergyScale;
        _portInstPj = t.perEventPj * (config.instEnergyScale * 0.4);
    }
    _ivPtr = prog.ivReg != compiler::noReg ? &_regs[prog.ivReg]
                                           : nullptr;
    if (config.predecode) {
        _exec.reserve(prog.insts.size());
        for (const MicroInst &inst : prog.insts)
            _exec.push_back(predecode(inst));
    }
}

PartitionActor::ExecOp
PartitionActor::predecode(const MicroInst &inst)
{
    // Register pointers are stable: _regs is sized once in the
    // constructor and never reallocates.
    const auto dst_ptr = [this](std::uint16_t r) -> Word * {
        return r != compiler::noReg ? &_regs[r] : &_scratch;
    };
    const auto src_ptr = [this](std::uint16_t r) -> const Word * {
        return r != compiler::noReg ? &_regs[r] : &zeroWord;
    };
    const auto hoist_accessor = [this](ExecOp &op, std::int32_t slot) {
        const AccessorRuntime &ar =
            _accessors[static_cast<std::size_t>(slot)];
        op.stream = ar.stream;
        op.tapDistance = ar.tapDistance;
        op.baseElemOffset = ar.baseElemOffset;
        op.arrayBase = ar.array.base;
        op.arrayElemBytes = ar.array.elemBytes;
        op.arrayCount = ar.array.count;
        // Unwired accessors (construction-only actors, e.g. in the
        // verify tests) have no def; the interpreter would only touch
        // it at execution time, so construction must tolerate that.
        if (ar.def != nullptr) {
            op.ivCoeff = ar.def->affine.ivCoeff;
            op.elemBytes = ar.def->elemBytes;
            op.elemIsFloat = ar.def->elemIsFloat;
        }
    };

    ExecOp op;
    op.kind = inst.kind;
    switch (inst.kind) {
      case MicroKind::Alu:
        op.op = inst.op;
        op.dst = dst_ptr(inst.dst);
        op.a = src_ptr(inst.a);
        op.b = src_ptr(inst.b);
        op.c = src_ptr(inst.c);
        break;
      case MicroKind::LoadStream:
        hoist_accessor(op, inst.slot);
        op.dst = dst_ptr(inst.dst);
        break;
      case MicroKind::StoreStream:
        hoist_accessor(op, inst.slot);
        op.a = src_ptr(inst.a);
        op.pred = inst.c != compiler::noReg ? &_regs[inst.c] : nullptr;
        break;
      case MicroKind::LoadIdx:
        hoist_accessor(op, inst.slot);
        op.dst = dst_ptr(inst.dst);
        op.a = src_ptr(inst.a);
        break;
      case MicroKind::StoreIdx:
        hoist_accessor(op, inst.slot);
        op.a = src_ptr(inst.a);
        op.b = src_ptr(inst.b);
        op.pred = inst.c != compiler::noReg ? &_regs[inst.c] : nullptr;
        break;
      case MicroKind::Consume:
        op.ch = _ins[static_cast<std::size_t>(inst.slot)];
        op.dst = dst_ptr(inst.dst);
        break;
      case MicroKind::Produce:
        op.ch = _outs[static_cast<std::size_t>(inst.slot)];
        op.a = src_ptr(inst.a);
        if (op.ch != nullptr &&
            op.ch->srcCluster() != op.ch->dstCluster()) {
            op.route = _mesh->route(
                op.ch->srcCluster(), op.ch->dstCluster(),
                op.ch->elemBytes(),
                op.ch->isControl() ? noc::TrafficClass::AccCtrl
                                   : noc::TrafficClass::AccData);
        }
        break;
      case MicroKind::CarryWrite: {
          const auto &cs = _config.part->program
                               .carries[static_cast<std::size_t>(
                                   inst.slot)];
          op.dst = dst_ptr(cs.reg);
          op.a = src_ptr(inst.a);
          break;
      }
      default:
        panic("bad microcode kind %d", static_cast<int>(inst.kind));
    }
    return op;
}

Word
PartitionActor::evalAlu(const MicroInst &inst) const
{
    const Word a = inst.a != compiler::noReg ? _regs[inst.a] : Word{};
    const Word b = inst.b != compiler::noReg ? _regs[inst.b] : Word{};
    const Word c = inst.c != compiler::noReg ? _regs[inst.c] : Word{};
    return compiler::evalOp(inst.op, a, b, c);
}

bool
PartitionActor::execInst(const MicroInst &inst)
{
    switch (inst.kind) {
      case MicroKind::Alu: {
          _regs[inst.dst] = evalAlu(inst);
          _now += _instCost;
          break;
      }
      case MicroKind::LoadStream: {
          AccessorRuntime &ar =
              _accessors[static_cast<std::size_t>(inst.slot)];
          const std::int64_t off =
              ar.baseElemOffset + ar.def->affine.ivCoeff * _iter;
          DISTDA_ASSERT(off >= 0 && static_cast<std::uint64_t>(off) <
                                        ar.array.count,
                        "stream load offset %lld out of bounds",
                        static_cast<long long>(off));
          _regs[inst.dst] = _backend->load(ar.array.addrOf(
                                               static_cast<std::uint64_t>(
                                                   off)),
                                           ar.def->elemBytes,
                                           ar.def->elemIsFloat);
          {
              const sim::Tick ready =
                  ar.stream->readAt(_iter, _now, ar.tapDistance);
              _stalls.streamWait += ready - _now;
              _now = ready + _instCost;
          }
          _memOps += 1.0;
          break;
      }
      case MicroKind::StoreStream: {
          AccessorRuntime &ar =
              _accessors[static_cast<std::size_t>(inst.slot)];
          const bool pred =
              inst.c == compiler::noReg || _regs[inst.c].i != 0;
          if (pred) {
              const std::int64_t off =
                  ar.baseElemOffset + ar.def->affine.ivCoeff * _iter;
              DISTDA_ASSERT(off >= 0 &&
                                static_cast<std::uint64_t>(off) <
                                    ar.array.count,
                            "stream store offset %lld out of bounds",
                            static_cast<long long>(off));
              _backend->store(
                  ar.array.addrOf(static_cast<std::uint64_t>(off)),
                  _regs[inst.a], ar.def->elemBytes, ar.def->elemIsFloat);
              _now = ar.stream->writeAt(_iter, _now, ar.tapDistance) +
                     _instCost;
          } else {
              _now += _instCost;
          }
          _memOps += 1.0;
          break;
      }
      case MicroKind::LoadIdx: {
          AccessorRuntime &ar =
              _accessors[static_cast<std::size_t>(inst.slot)];
          const std::int64_t off = _regs[inst.a].i;
          DISTDA_ASSERT(off >= 0 && static_cast<std::uint64_t>(off) <
                                        ar.array.count,
                        "indirect load offset %lld out of bounds (%s)",
                        static_cast<long long>(off),
                        _config.part ? "partition" : "?");
          const mem::Addr addr =
              ar.array.addrOf(static_cast<std::uint64_t>(off));
          _regs[inst.dst] = _backend->load(addr, ar.def->elemBytes,
                                           ar.def->elemIsFloat);
          {
              const sim::Tick done = _random->access(
                  addr, ar.def->elemBytes, false, _now,
                  _config.hideTicks);
              _stalls.indirectWait += done - _now;
              _now = done;
          }
          _memOps += 1.0;
          break;
      }
      case MicroKind::StoreIdx: {
          AccessorRuntime &ar =
              _accessors[static_cast<std::size_t>(inst.slot)];
          const bool pred =
              inst.c == compiler::noReg || _regs[inst.c].i != 0;
          if (pred) {
              const std::int64_t off = _regs[inst.a].i;
              DISTDA_ASSERT(off >= 0 &&
                                static_cast<std::uint64_t>(off) <
                                    ar.array.count,
                            "indirect store offset %lld out of bounds",
                            static_cast<long long>(off));
              const mem::Addr addr =
                  ar.array.addrOf(static_cast<std::uint64_t>(off));
              _backend->store(addr, _regs[inst.b], ar.def->elemBytes,
                              ar.def->elemIsFloat);
              _now = _random->access(addr, ar.def->elemBytes, true, _now,
                                     0);
          } else {
              _now += _instCost;
          }
          _memOps += 1.0;
          break;
      }
      case MicroKind::Consume: {
          Channel *ch = _ins[static_cast<std::size_t>(inst.slot)];
          if (ch->empty()) {
              if (ch->drained())
                  panic("consume on drained channel (partition %d)",
                        _config.part->id);
              return false; // blocked; retried by the engine
          }
          const ChannelItem &item = ch->front();
          _regs[inst.dst] = item.value;
          if (item.readyAt > _now)
              _stalls.channelWait += item.readyAt - _now;
          _now = std::max(_now, item.readyAt) + _instCost;
          ch->pop();
          _stats->intraBytes += ch->elemBytes();
          _stats->bufferAccesses += 1.0;
          if (_acct)
              _acct->addEvents(energy::Component::Buffer, 1.0);
          break;
      }
      case MicroKind::Produce: {
          Channel *ch = _outs[static_cast<std::size_t>(inst.slot)];
          if (ch->full())
              return false; // credit backpressure
          sim::Tick arrive = _now;
          if (ch->srcCluster() != ch->dstCluster()) {
              auto xfer = _mesh->transfer(
                  ch->srcCluster(), ch->dstCluster(), ch->elemBytes(),
                  ch->isControl() ? noc::TrafficClass::AccCtrl
                                  : noc::TrafficClass::AccData,
                  _now);
              arrive = _now + xfer.latency;
          }
          ch->push(_regs[inst.a], arrive);
          _stats->aaBytes += ch->elemBytes();
          _stats->bufferAccesses += 1.0;
          if (_acct)
              _acct->addEvents(energy::Component::Buffer, 1.0);
          _now += _instCost;
          break;
      }
      case MicroKind::CarryWrite: {
          const auto &cs = _config.part->program
                               .carries[static_cast<std::size_t>(
                                   inst.slot)];
          _regs[cs.reg] = _regs[inst.a];
          _now += _instCost;
          break;
      }
      default:
        panic("bad microcode kind %d", static_cast<int>(inst.kind));
    }
    _insts += 1.0;
    if (_acct) {
        // cp_produce/cp_consume are implicit-dataflow buffer-port
        // operations (SS IV-B), cheaper than a full pipeline pass.
        const bool port_op = inst.kind == MicroKind::Produce ||
                             inst.kind == MicroKind::Consume;
        _acct->addEvents(_config.energyComp,
                         _config.instEnergyScale * (port_op ? 0.4 : 1.0));
    }
    return true;
}

ActorStatus
PartitionActor::runPredecoded(std::int64_t max_iters)
{
    const ExecOp *const ops = _exec.data();
    const std::size_t nops = _exec.size();
    std::int64_t done = 0;

    // The slice's state lives in locals, so stores through the
    // register pointers (which may alias any member) cannot force
    // reloads; slice_exit() writes all of it back on every exit.
    sim::Tick now = _now;
    std::int64_t iter = _iter;
    std::size_t pc = _pc;
    StallStats stalls = _stalls;

    // The compute charge (IOCore or Cgra) accumulates in a register:
    // the same IEEE adds, in the same order, onto the same running
    // total as one addEvents() per instruction. That is exact only
    // because nothing but actors charges IOCore/Cgra (the engine picks
    // the component per actor) and actors run one slice at a time, so
    // nothing else touches the total during a slice.
    double compute_pj = _computePj ? *_computePj : 0.0;

    // Slice-batched counters. Counts are integers, so one batched add
    // equals the interpreter's per-instruction adds exactly; the same
    // holds for Buffer energy (integer count x per-event cost).
    double insts = 0.0, mem_ops = 0.0, buf_events = 0.0;
    const auto slice_exit = [&] {
        _now = now;
        _iter = iter;
        _pc = pc;
        _stalls = stalls;
        if (_computePj)
            *_computePj = compute_pj;
        _insts += insts;
        _memOps += mem_ops;
        if (_acct && buf_events != 0.0)
            _acct->addEvents(energy::Component::Buffer, buf_events);
    };

    while (iter < _config.trip) {
        if (pc == 0) {
            if (done >= max_iters) {
                slice_exit();
                return ActorStatus::Running;
            }
            if (_isCgra) {
                // Initiation-interval pacing: one new iteration every
                // II fabric cycles once the pipeline is primed.
                const sim::Tick init =
                    _lastInit + static_cast<sim::Tick>(_config.ii) *
                                    _config.cycleTick;
                if (iter > 0)
                    now = std::max(now, init);
                _lastInit = now;
            }
            if (_ivPtr)
                _ivPtr->i = iter;
        }
        while (pc < nops) {
            const ExecOp &op = ops[pc];
            bool port_op = false;
            switch (op.kind) {
              case MicroKind::Alu: {
                  *op.dst = compiler::evalOp(op.op, *op.a, *op.b, *op.c);
                  now += _instCost;
                  break;
              }
              case MicroKind::LoadStream: {
                  const std::int64_t off =
                      op.baseElemOffset + op.ivCoeff * iter;
                  DISTDA_ASSERT(off >= 0 &&
                                    static_cast<std::uint64_t>(off) <
                                        op.arrayCount,
                                "stream load offset %lld out of bounds",
                                static_cast<long long>(off));
                  *op.dst = _backend->load(
                      op.arrayBase + static_cast<std::uint64_t>(off) *
                                         op.arrayElemBytes,
                      op.elemBytes, op.elemIsFloat);
                  const sim::Tick ready =
                      op.stream->readAt(iter, now, op.tapDistance);
                  stalls.streamWait += ready - now;
                  now = ready + _instCost;
                  mem_ops += 1.0;
                  break;
              }
              case MicroKind::StoreStream: {
                  if (!op.pred || op.pred->i != 0) {
                      const std::int64_t off =
                          op.baseElemOffset + op.ivCoeff * iter;
                      DISTDA_ASSERT(
                          off >= 0 && static_cast<std::uint64_t>(off) <
                                          op.arrayCount,
                          "stream store offset %lld out of bounds",
                          static_cast<long long>(off));
                      _backend->store(
                          op.arrayBase +
                              static_cast<std::uint64_t>(off) *
                                  op.arrayElemBytes,
                          *op.a, op.elemBytes, op.elemIsFloat);
                      now = op.stream->writeAt(iter, now,
                                               op.tapDistance) +
                            _instCost;
                  } else {
                      now += _instCost;
                  }
                  mem_ops += 1.0;
                  break;
              }
              case MicroKind::LoadIdx: {
                  const std::int64_t off = op.a->i;
                  DISTDA_ASSERT(off >= 0 &&
                                    static_cast<std::uint64_t>(off) <
                                        op.arrayCount,
                                "indirect load offset %lld out of "
                                "bounds",
                                static_cast<long long>(off));
                  const mem::Addr addr =
                      op.arrayBase + static_cast<std::uint64_t>(off) *
                                         op.arrayElemBytes;
                  *op.dst = _backend->load(addr, op.elemBytes,
                                           op.elemIsFloat);
                  const sim::Tick done_t = _random->access(
                      addr, op.elemBytes, false, now,
                      _config.hideTicks);
                  stalls.indirectWait += done_t - now;
                  now = done_t;
                  mem_ops += 1.0;
                  break;
              }
              case MicroKind::StoreIdx: {
                  if (!op.pred || op.pred->i != 0) {
                      const std::int64_t off = op.a->i;
                      DISTDA_ASSERT(
                          off >= 0 && static_cast<std::uint64_t>(off) <
                                          op.arrayCount,
                          "indirect store offset %lld out of bounds",
                          static_cast<long long>(off));
                      const mem::Addr addr =
                          op.arrayBase +
                          static_cast<std::uint64_t>(off) *
                              op.arrayElemBytes;
                      _backend->store(addr, *op.b, op.elemBytes,
                                      op.elemIsFloat);
                      now = _random->access(addr, op.elemBytes, true,
                                            now, 0);
                  } else {
                      now += _instCost;
                  }
                  mem_ops += 1.0;
                  break;
              }
              case MicroKind::Consume: {
                  Channel *ch = op.ch;
                  if (ch->empty()) {
                      if (ch->drained())
                          panic("consume on drained channel "
                                "(partition %d)",
                                _config.part->id);
                      slice_exit();
                      return ActorStatus::Blocked;
                  }
                  const ChannelItem &item = ch->front();
                  *op.dst = item.value;
                  if (item.readyAt > now)
                      stalls.channelWait += item.readyAt - now;
                  now = std::max(now, item.readyAt) + _instCost;
                  ch->pop();
                  _stats->intraBytes += ch->elemBytes();
                  _stats->bufferAccesses += 1.0;
                  buf_events += 1.0;
                  port_op = true;
                  break;
              }
              case MicroKind::Produce: {
                  Channel *ch = op.ch;
                  if (ch->full()) {
                      slice_exit();
                      return ActorStatus::Blocked;
                  }
                  sim::Tick arrive = now;
                  if (op.route.hops != 0)
                      arrive = now + _mesh->send(op.route, now).latency;
                  ch->push(*op.a, arrive);
                  _stats->aaBytes += ch->elemBytes();
                  _stats->bufferAccesses += 1.0;
                  buf_events += 1.0;
                  port_op = true;
                  now += _instCost;
                  break;
              }
              case MicroKind::CarryWrite: {
                  *op.dst = *op.a;
                  now += _instCost;
                  break;
              }
              default:
                panic("bad microcode kind %d",
                      static_cast<int>(op.kind));
            }
            insts += 1.0;
            compute_pj += port_op ? _portInstPj : _fullInstPj;
            ++pc;
        }
        pc = 0;
        ++iter;
        ++done;
        if (_isCgra && iter == 1) {
            // Pipeline fill of the spatial schedule.
            now += static_cast<sim::Tick>(_config.scheduleDepth) *
                   _config.cycleTick;
        }
    }

    slice_exit();
    finish();
    return ActorStatus::Finished;
}

ActorStatus
PartitionActor::run(std::int64_t max_iters)
{
    if (_finished)
        return ActorStatus::Finished;

    if (!_config.probe) {
        return _exec.empty() ? runInterpreted(max_iters)
                             : runPredecoded(max_iters);
    }

    // Timeline slice batching: snapshot time/stall/inst counters, run
    // the slice at full speed, then attribute the elapsed interval —
    // one pointer test on the hot path when observability is off, a
    // handful of span records per 1024-iteration slice when on.
    const sim::Tick t0 = _now;
    const StallStats s0 = _stalls;
    const double i0 = _insts;
    const ActorStatus st = _exec.empty() ? runInterpreted(max_iters)
                                         : runPredecoded(max_iters);
    emitSlice(t0, s0, i0);
    return st;
}

void
PartitionActor::emitSlice(sim::Tick t0, const StallStats &s0, double i0)
{
    sim::Probe &probe = *_config.probe;
    const sim::Tick total = _now - t0;
    if (total > 0) {
        // Sequential attribution of the slice interval. The segments
        // are an aggregate, not an ordered replay, so clamp rather
        // than overrun when stalls overlap the whole interval.
        sim::Tick mem = (_stalls.streamWait - s0.streamWait) +
                        (_stalls.indirectWait - s0.indirectWait);
        sim::Tick chan = _stalls.channelWait - s0.channelWait;
        mem = std::min(mem, total);
        chan = std::min(chan, total - mem);
        const sim::Tick busy = total - mem - chan;
        sim::Tick t = t0;
        if (busy > 0) {
            probe.span(_config.track, "compute", t, t + busy);
            t += busy;
        }
        if (mem > 0) {
            probe.span(_config.track, "mem-blocked", t, t + mem);
            t += mem;
        }
        if (chan > 0)
            probe.span(_config.track, "chan-blocked", t, t + chan);
    }
    if (_config.sliceInsts && _insts > i0)
        _config.sliceInsts->sample(_insts - i0);
    if (_finished)
        probe.instant(_config.track, "finished", _finishTick);
}

ActorStatus
PartitionActor::runInterpreted(std::int64_t max_iters)
{
    const auto &insts = _config.part->program.insts;
    const std::uint16_t iv_reg = _config.part->program.ivReg;
    std::int64_t done = 0;

    while (_iter < _config.trip) {
        if (_pc == 0) {
            if (done >= max_iters)
                return ActorStatus::Running;
            if (_config.kind == ActorKind::Cgra) {
                // Initiation-interval pacing: one new iteration every
                // II fabric cycles once the pipeline is primed.
                const sim::Tick init =
                    _lastInit + static_cast<sim::Tick>(_config.ii) *
                                    _config.cycleTick;
                if (_iter > 0)
                    _now = std::max(_now, init);
                _lastInit = _now;
            }
            if (iv_reg != compiler::noReg)
                _regs[iv_reg].i = _iter;
        }
        while (_pc < insts.size()) {
            if (!execInst(insts[_pc]))
                return ActorStatus::Blocked;
            ++_pc;
        }
        _pc = 0;
        ++_iter;
        ++done;
        if (_config.kind == ActorKind::Cgra && _iter == 1) {
            // Pipeline fill of the spatial schedule.
            _now += static_cast<sim::Tick>(_config.scheduleDepth) *
                    _config.cycleTick;
        }
    }

    finish();
    return ActorStatus::Finished;
}

void
PartitionActor::finish()
{
    if (_finished)
        return;
    _finished = true;
    sim::Tick done = _now;
    // Flush each store stream once. Combined taps share a unit, so the
    // accessor list can repeat streams; dedupe by scanning the earlier
    // entries — the list is a handful of elements, no container needed.
    for (std::size_t i = 0; i < _accessors.size(); ++i) {
        accel::StreamUnit *stream = _accessors[i].stream;
        if (!stream || !stream->params().hasStores)
            continue;
        bool first = true;
        for (std::size_t j = 0; j < i; ++j) {
            if (_accessors[j].stream == stream) {
                first = false;
                break;
            }
        }
        if (first)
            done = std::max(done, stream->flush(_now));
    }
    for (Channel *ch : _outs)
        ch->close();
    _finishTick = done;
    _now = done;
}

compiler::Word
PartitionActor::carryValue(std::size_t idx) const
{
    const auto &carries = _config.part->program.carries;
    DISTDA_ASSERT(idx < carries.size(), "carry %zu out of range", idx);
    return _regs[carries[idx].reg];
}

const std::vector<compiler::CarrySlot> &
PartitionActor::carrySlots() const
{
    return _config.part->program.carries;
}

} // namespace distda::engine
