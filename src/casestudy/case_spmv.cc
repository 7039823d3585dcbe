#include "src/casestudy/case_spmv.hh"

#include <algorithm>
#include <cmath>

#include "src/casestudy/case_common.hh"
#include "src/driver/context.hh"
#include "src/driver/runner.hh"
#include "src/driver/system.hh"
#include "src/offload/interface.hh"
#include "src/sim/rng.hh"
#include "src/workloads/common.hh"

namespace distda::casestudy
{

using compiler::KernelBuilder;
using compiler::Word;
using driver::ExecContext;
using driver::RunConfig;
using engine::ActorStatus;
using engine::ArrayRef;
using engine::Channel;

namespace
{

/** Deterministic tiled CSR dataset (16 column tiles, §VI-D). */
struct TiledCsr
{
    std::int64_t tileDim = 0;  ///< rows (= columns per tile)
    std::int64_t tiles = 0;
    std::vector<std::int64_t> rowptr; ///< tiles*(tileDim+1)
    std::vector<std::int64_t> cols;   ///< global column index
    std::vector<double> vals;
    std::vector<double> x;            ///< tiles * tileDim
    std::vector<double> refY;

    std::int64_t nnz() const
    {
        return static_cast<std::int64_t>(vals.size());
    }
};

TiledCsr
makeTiledCsr(double scale)
{
    TiledCsr csr;
    csr.tileDim = workloads::scaled(512, scale, 64);
    csr.tiles = 16;
    const double sparsity = 5e-3;
    sim::Rng rng(53);

    for (std::int64_t t = 0; t < csr.tiles; ++t) {
        csr.rowptr.push_back(csr.nnz());
        for (std::int64_t r = 0; r < csr.tileDim; ++r) {
            // Normally distributed row occupancy (sigma ~2 like the
            // paper's generator).
            double g = 0.0;
            for (int u = 0; u < 6; ++u)
                g += rng.nextDouble();
            const auto nnz_row = static_cast<std::int64_t>(std::max(
                1.0, static_cast<double>(csr.tileDim) * sparsity +
                         (g - 3.0) * 2.0));
            for (std::int64_t e = 0; e < nnz_row; ++e) {
                csr.cols.push_back(
                    t * csr.tileDim +
                    static_cast<std::int64_t>(rng.nextBelow(
                        static_cast<std::uint64_t>(csr.tileDim))));
                csr.vals.push_back(rng.nextDouble());
            }
            csr.rowptr.push_back(csr.nnz());
        }
    }
    // rowptr layout: tile t occupies [t*(D+1), (t+1)*(D+1)).
    // (the loop above pushed D+1 entries per tile)

    csr.x.resize(static_cast<std::size_t>(csr.tiles * csr.tileDim));
    for (double &v : csr.x)
        v = rng.nextDouble();

    csr.refY.assign(static_cast<std::size_t>(csr.tileDim), 0.0);
    for (std::int64_t t = 0; t < csr.tiles; ++t) {
        for (std::int64_t r = 0; r < csr.tileDim; ++r) {
            const auto base = static_cast<std::size_t>(
                t * (csr.tileDim + 1) + r);
            double sum = 0.0;
            for (std::int64_t e = csr.rowptr[base];
                 e < csr.rowptr[base + 1]; ++e) {
                sum = sum +
                      csr.vals[static_cast<std::size_t>(e)] *
                          csr.x[static_cast<std::size_t>(
                              csr.cols[static_cast<std::size_t>(e)])];
            }
            csr.refY[static_cast<std::size_t>(r)] += sum;
        }
    }
    return csr;
}

/** Upload the dataset into a fresh system. */
struct SpmvArrays
{
    ArrayRef rowptr, cols, vals, x, y;
};

SpmvArrays
upload(driver::System &sys, const TiledCsr &csr)
{
    SpmvArrays a;
    a.rowptr = sys.alloc("rowptr", csr.rowptr.size(), 8, false);
    a.cols = sys.alloc("cols", csr.cols.size(), 8, false);
    a.vals = sys.alloc("vals", csr.vals.size(), 8, true);
    a.x = sys.alloc("x", csr.x.size(), 8, true);
    a.y = sys.alloc("y", csr.refY.size(), 8, true);
    for (std::size_t i = 0; i < csr.rowptr.size(); ++i)
        a.rowptr.setI(i, csr.rowptr[i]);
    for (std::size_t i = 0; i < csr.cols.size(); ++i)
        a.cols.setI(i, csr.cols[i]);
    for (std::size_t i = 0; i < csr.vals.size(); ++i)
        a.vals.setF(i, csr.vals[i]);
    for (std::size_t i = 0; i < csr.x.size(); ++i)
        a.x.setF(i, csr.x[i]);
    for (std::size_t i = 0; i < csr.refY.size(); ++i)
        a.y.setF(i, 0.0);
    return a;
}

/** Shared row kernel for the OoO and Dist-DA-B configurations. */
compiler::Kernel
makeRowKernel(const TiledCsr &csr)
{
    KernelBuilder kb("spmv_case_row");
    const int o_v = kb.object("vals", csr.vals.size(), 8, true);
    const int o_c = kb.object("cols", csr.cols.size(), 8, false);
    const int o_x = kb.object("x", csr.x.size(), 8, true);
    const int p_start = kb.param("rowStart");
    const int p_trip = kb.param("trip");
    kb.loopFromParam(p_trip);
    auto sum = kb.carry(Word{.f = 0.0}, true, "sum");
    auto v = kb.load(o_v, kb.affineP(0, 1, {{p_start, 1}}));
    auto c = kb.load(o_c, kb.affineP(0, 1, {{p_start, 1}}));
    auto xv = kb.loadIdx(o_x, c);
    kb.setCarry(sum, kb.fadd(sum, kb.fmul(v, xv)));
    kb.markResult(sum);
    return kb.build();
}

/** Host-orchestrated per-(tile,row) execution: OoO and Dist-DA-B. */
CaseResult
runHostOrchestrated(const TiledCsr &csr, driver::ArchModel model,
                    const char *label)
{
    driver::SystemParams sp;
    sp.arenaBytes = static_cast<std::uint64_t>(csr.nnz()) * 16 +
                    csr.x.size() * 8 + (16 << 20);
    driver::System sys(sp);
    SpmvArrays a = upload(sys, csr);
    compiler::Kernel kernel = makeRowKernel(csr);

    RunConfig cfg;
    cfg.model = model;
    ExecContext ctx(sys, cfg);

    for (std::int64_t t = 0; t < csr.tiles; ++t) {
        for (std::int64_t r = 0; r < csr.tileDim; ++r) {
            const auto base = static_cast<std::uint64_t>(
                t * (csr.tileDim + 1) + r);
            const std::int64_t start = ctx.hostLoadI(a.rowptr, base);
            const std::int64_t end = ctx.hostLoadI(a.rowptr, base + 1);
            ctx.hostOps(3);
            double sum = 0.0;
            if (end > start) {
                ctx.invoke(kernel, {a.vals, a.cols, a.x},
                           {ExecContext::wi(start),
                            ExecContext::wi(end - start)});
                sum = ctx.resultF(0);
            }
            const double prev =
                ctx.hostLoadF(a.y, static_cast<std::uint64_t>(r));
            ctx.hostStoreF(a.y, static_cast<std::uint64_t>(r),
                           prev + sum);
            ctx.hostOps(2);
        }
    }

    CaseResult res;
    res.config = label;
    res.timeNs = ctx.nowNs();
    res.validated =
        workloads::arrayMatchesF(a.y, csr.refY, 0.0);
    return res;
}

/** Partition-1 of Fig 5a: reads loop bounds and produces them. */
class BoundsActor : public CaseActor
{
  public:
    BoundsActor(const TiledCsr &csr, accel::StreamUnit *rowptr_stream,
                Channel *bounds, const ArrayRef &rowptr,
                noc::Mesh *mesh)
        : _csr(csr), _stream(rowptr_stream), _bounds(bounds),
          _rowptr(rowptr), _mesh(mesh)
    {
    }

    ActorStatus
    run(std::int64_t budget) override
    {
        const std::int64_t total = _csr.tiles * (_csr.tileDim + 1);
        std::int64_t done = 0;
        while (_idx < _csr.tiles * _csr.tileDim) {
            if (done >= budget)
                return ActorStatus::Running;
            const std::int64_t t = _idx / _csr.tileDim;
            const std::int64_t r = _idx % _csr.tileDim;
            const auto base =
                static_cast<std::uint64_t>(t * (_csr.tileDim + 1) + r);
            if (_phase == 0) {
                // Two combined taps over the rowptr stream.
                (void)total;
                now = _stream->readAt(static_cast<std::int64_t>(base) +
                                          1,
                                      now, 0);
                now = _stream->readAt(static_cast<std::int64_t>(base) +
                                          1,
                                      now, 1);
                insts += 2.0;
                _start = _rowptr.getI(base);
                _end = _rowptr.getI(base + 1);
                _phase = 1;
            }
            if (_phase == 1) {
                if (!tryProduce(*_bounds, ExecContext::wi(_start),
                                *_mesh, now))
                    return ActorStatus::Blocked;
                now += 500;
                _phase = 2;
            }
            if (_phase == 2) {
                if (!tryProduce(*_bounds, ExecContext::wi(_end), *_mesh,
                                now))
                    return ActorStatus::Blocked;
                now += 500;
                _phase = 0;
                ++_idx;
                ++done;
            }
        }
        _bounds->close();
        return ActorStatus::Finished;
    }

  private:
    const TiledCsr &_csr;
    accel::StreamUnit *_stream;
    Channel *_bounds;
    ArrayRef _rowptr;
    noc::Mesh *_mesh;
    std::int64_t _idx = 0;
    int _phase = 0;
    std::int64_t _start = 0, _end = 0;
};

/** Partition-2: the pipelined inner loop (with optional x staging). */
class RowComputeActor : public CaseActor
{
  public:
    RowComputeActor(const TiledCsr &csr, const SpmvArrays &arrays,
                    accel::StreamUnit *vals_stream,
                    accel::StreamUnit *cols_stream,
                    accel::RandomUnit *x_random, Channel *bounds,
                    mem::Hierarchy *hier, int cluster, bool stage_x)
        : _csr(csr), _a(arrays), _vals(vals_stream), _cols(cols_stream),
          _x(x_random), _bounds(bounds), _hier(hier),
          _cluster(cluster), _stageX(stage_x),
          _ysum(static_cast<std::size_t>(csr.tileDim), 0.0)
    {
    }

    ActorStatus
    run(std::int64_t budget) override
    {
        std::int64_t done = 0;
        while (_idx < _csr.tiles * _csr.tileDim) {
            if (done >= budget)
                return ActorStatus::Running;
            const std::int64_t t = _idx / _csr.tileDim;
            const std::int64_t r = _idx % _csr.tileDim;
            if (_stageX && r == 0 && _phase == 0) {
                // cp_fill_ra: stage this tile's x block into the local
                // buffer (bulk line transfers, pipelined by the FSM).
                const mem::Addr base = _a.x.addrOf(
                    static_cast<std::uint64_t>(t * _csr.tileDim));
                const std::uint64_t bytes =
                    static_cast<std::uint64_t>(_csr.tileDim) * 8;
                sim::Tick fsm = now;
                sim::Tick last = now;
                for (std::uint64_t off = 0; off < bytes;
                     off += mem::lineBytes) {
                    const sim::Tick lat =
                        _hier->accelAccess(base + off, mem::lineBytes,
                                           false, _cluster, fsm)
                            .latency;
                    last = std::max(last, fsm + lat);
                    fsm += 500; // one fill-FSM issue slot per cycle
                }
                now = std::max(now, last);
                insts += 1.0; // the cp_fill_ra intrinsic itself
            }
            if (_phase == 0) {
                Word w;
                if (!tryConsume(*_bounds, w))
                    return blockedOrDone();
                now += 250;
                _start = w.i;
                _phase = 1;
            }
            if (_phase == 1) {
                Word w;
                if (!tryConsume(*_bounds, w))
                    return blockedOrDone();
                now += 250;
                _end = w.i;
                _e = _start;
                _sum = 0.0;
                _phase = 2;
            }
            if (_phase == 2) {
                while (_e < _end) {
                    now = _vals->readAt(_e, now, 0) + 250;
                    now = _cols->readAt(_e, now, 0) + 250;
                    const auto c = static_cast<std::uint64_t>(
                        _a.cols.getI(static_cast<std::uint64_t>(_e)));
                    const double xv = _a.x.getF(c);
                    if (_stageX) {
                        now += 500; // local buffer hit
                        insts += 1.0;
                    } else {
                        now = _x->access(_a.x.addrOf(c), 8, false, now,
                                         48 * 500);
                        insts += 1.0;
                    }
                    _sum = _sum +
                           _a.vals.getF(static_cast<std::uint64_t>(_e)) *
                               xv;
                    now += 2 * 500; // fmul + fadd
                    insts += 4.0;
                    ++_e;
                }
                // Row done: accumulate into the local y block.
                _ysum[static_cast<std::size_t>(r)] += _sum;
                now += 2 * 500;
                insts += 2.0;
                _phase = 0;
                ++_idx;
                ++done;
            }
        }
        if (!_drained) {
            // cp_drain_ra: write the y block back in bulk.
            const std::uint64_t bytes =
                static_cast<std::uint64_t>(_csr.tileDim) * 8;
            sim::Tick fsm = now;
            sim::Tick last = now;
            for (std::uint64_t off = 0; off < bytes;
                 off += mem::lineBytes) {
                const sim::Tick lat =
                    _hier->accelAccess(_a.y.base + off, mem::lineBytes,
                                       true, _cluster, fsm)
                        .latency;
                last = std::max(last, fsm + lat);
                fsm += 500;
            }
            now = std::max(now, last);
            for (std::int64_t r = 0; r < _csr.tileDim; ++r)
                _a.y.setF(static_cast<std::uint64_t>(r),
                          _ysum[static_cast<std::size_t>(r)]);
            _drained = true;
        }
        return ActorStatus::Finished;
    }

  private:
    ActorStatus
    blockedOrDone() const
    {
        return _bounds->drained() ? ActorStatus::Finished
                                  : ActorStatus::Blocked;
    }

    const TiledCsr &_csr;
    SpmvArrays _a;
    accel::StreamUnit *_vals;
    accel::StreamUnit *_cols;
    accel::RandomUnit *_x;
    Channel *_bounds;
    mem::Hierarchy *_hier;
    int _cluster;
    bool _stageX;
    std::vector<double> _ysum;
    std::int64_t _idx = 0;
    int _phase = 0;
    std::int64_t _start = 0, _end = 0, _e = 0;
    double _sum = 0.0;
    bool _drained = false;
};

/** Dist-DA-BN / Dist-DA-BNS: one offload, decoupled loop-nest control. */
CaseResult
runBlockedNest(const TiledCsr &csr, bool stage_x, const char *label)
{
    driver::SystemParams sp;
    sp.arenaBytes = static_cast<std::uint64_t>(csr.nnz()) * 16 +
                    csr.x.size() * 8 + (16 << 20);
    driver::System sys(sp);
    SpmvArrays a = upload(sys, csr);

    auto &hier = sys.hier();
    accel::AccessStats stats;

    const int c_rowptr = hier.l3().clusterOf(a.rowptr.base);
    const int c_vals = hier.l3().clusterOf(a.vals.base);

    auto port = [&hier](int cluster) {
        return accel::MemPort(
            [](void *ctx, mem::Addr ad, std::uint32_t s, bool w,
               sim::Tick tk) {
                return static_cast<mem::Cache *>(ctx)
                    ->access(ad, s, w, tk)
                    .latency;
            },
            &hier.acp(cluster));
    };

    accel::StreamParams rp;
    rp.base = a.rowptr.base;
    rp.strideBytes = 8;
    rp.elemBytes = 8;
    rp.unitCluster = c_rowptr;
    rp.consumerCluster = c_rowptr;
    rp.totalElems = csr.rowptr.size();
    accel::StreamUnit rowptr_stream(rp, port(c_rowptr), &hier.mesh(),
                                    &stats);

    accel::StreamParams vp = rp;
    vp.base = a.vals.base;
    vp.unitCluster = c_vals;
    vp.consumerCluster = c_vals;
    vp.totalElems = csr.vals.size();
    accel::StreamUnit vals_stream(vp, port(c_vals), &hier.mesh(),
                                  &stats);

    accel::StreamParams cp = vp;
    cp.base = a.cols.base;
    accel::StreamUnit cols_stream(cp, port(c_vals), &hier.mesh(),
                                  &stats);

    accel::RandomUnit x_random(port(c_vals), &stats, 500);

    Channel bounds(64, 8, true, c_rowptr, c_vals);

    // Host configures the offload once (Fig 5a pseudocode).
    offload::CoprocessorInterface iface(&hier, &sys.acct());
    sim::Tick t0 = 0;
    t0 = iface.cpConfigRandom(c_rowptr, 0, a.rowptr.base,
                              a.rowptr.base + a.rowptr.sizeBytes(), t0);
    t0 = iface.cpConfigRandom(c_vals, 1, a.vals.base,
                              a.vals.base + a.vals.sizeBytes(), t0);
    t0 = iface.cpConfigStream(c_vals, 2, a.cols.base, 8,
                              static_cast<std::uint32_t>(
                                  a.cols.sizeBytes()),
                              4096, t0);
    t0 = iface.cpRun(c_rowptr, t0);
    t0 = iface.cpRun(c_vals, t0);

    BoundsActor bounds_actor(csr, &rowptr_stream, &bounds, a.rowptr,
                             &hier.mesh());
    RowComputeActor compute(csr, a, &vals_stream, &cols_stream,
                            &x_random, &bounds, &hier, c_vals, stage_x);
    bounds_actor.now = t0;
    compute.now = t0;

    const sim::Tick end = runActors({&bounds_actor, &compute});
    const sim::Tick done =
        iface.cpConsumeDone(c_vals, end, end);

    CaseResult res;
    res.config = label;
    res.timeNs = static_cast<double>(done) / 1000.0;
    res.validated = workloads::arrayMatchesF(a.y, csr.refY, 0.0);
    return res;
}

} // namespace

std::vector<CaseResult>
runSpmvCaseStudy(double scale)
{
    const TiledCsr csr = makeTiledCsr(scale);
    std::vector<CaseResult> out;
    out.push_back(
        runHostOrchestrated(csr, driver::ArchModel::OoO, "OoO"));
    out.push_back(runHostOrchestrated(csr, driver::ArchModel::DistDA_IO,
                                      "Dist-DA-B"));
    out.push_back(runBlockedNest(csr, false, "Dist-DA-BN"));
    out.push_back(runBlockedNest(csr, true, "Dist-DA-BNS"));
    return out;
}

} // namespace distda::casestudy
