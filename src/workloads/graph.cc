/**
 * @file
 * Graph / irregular-access workloads of Table IV: pointer chase (8MB
 * uniform chain), BFS (MachSuite-style, scale-12 edge-factor-32
 * default at paper scale) and PageRank (serial, Sable-style). BFS and
 * PageRank use an edge-centric synchronous formulation so the whole
 * level/iteration is one innermost-loop offload, exercising the
 * indirect cp_read/cp_write interface path.
 */

#include <algorithm>
#include <vector>

#include "src/workloads/common.hh"
#include "src/workloads/workload.hh"

namespace distda::workloads
{

using compiler::Kernel;
using compiler::KernelBuilder;
using compiler::Word;
using driver::ExecContext;
using driver::System;
using engine::ArrayRef;

namespace
{

/** Pointer chase: serial traversal of a random permutation cycle. */
class PointerChase : public Workload
{
  public:
    explicit PointerChase(double scale)
        : _n(scaled(1 << 20, scale, 1024))
    {
    }

    std::string name() const override { return "pch"; }

    std::uint64_t arenaBytes() const override
    {
        return _n * 8 + (16 << 20);
    }

    void
    setup(System &sys) override
    {
        _next = sys.alloc("next", static_cast<std::uint64_t>(_n), 8,
                          false);
        // A single-cycle random permutation (Sattolo's algorithm): _n
        // steps from node 0 end back at node 0, so the reference is the
        // closed form refFinal (Workloads.PointerChaseIsOneCycle).
        std::vector<std::int64_t> perm(static_cast<std::size_t>(_n));
        for (std::int64_t i = 0; i < _n; ++i)
            perm[static_cast<std::size_t>(i)] = i;
        sim::Rng rng(42);
        for (std::int64_t i = _n - 1; i > 0; --i) {
            const auto j = static_cast<std::int64_t>(
                rng.nextBelow(static_cast<std::uint64_t>(i)));
            std::swap(perm[static_cast<std::size_t>(i)],
                      perm[static_cast<std::size_t>(j)]);
        }
        for (std::int64_t i = 0; i < _n; ++i)
            _next.setI(static_cast<std::uint64_t>(i),
                       perm[static_cast<std::size_t>(i)]);

        KernelBuilder kb("pch_chase");
        kb.loopStatic(_n);
        const int next_obj =
            kb.object("next", static_cast<std::uint64_t>(_n), 8, false);
        auto ptr = kb.carry(Word{0}, false, "ptr");
        auto nxt = kb.loadIdx(next_obj, ptr);
        kb.setCarry(ptr, nxt);
        kb.markResult(ptr);
        _kernel = kb.build();
    }

    void
    run(ExecContext &ctx) override
    {
        ctx.invoke(_kernel, {_next}, {});
        _simFinal = ctx.resultI(0);
        ctx.hostOps(4);
    }

    bool
    validate(System &sys) override
    {
        (void)sys;
        return _simFinal == refFinal;
    }

    std::vector<const Kernel *>
    kernels() const override
    {
        return {&_kernel};
    }

  private:
    std::int64_t _n;
    ArrayRef _next;
    Kernel _kernel;
    static constexpr std::int64_t refFinal = 0;
    std::int64_t _simFinal = -1;
};

/** Deterministic R-MAT-ish edge list for BFS / PageRank. */
void
makeGraph(std::int64_t nodes, std::int64_t edges, sim::Rng &rng,
          std::vector<std::int64_t> &src, std::vector<std::int64_t> &dst)
{
    src.resize(static_cast<std::size_t>(edges));
    dst.resize(static_cast<std::size_t>(edges));
    for (std::int64_t e = 0; e < edges; ++e) {
        // Skewed endpoints approximating an R-MAT degree profile.
        auto pick = [&rng, nodes]() {
            std::int64_t v = 0;
            std::int64_t span = nodes;
            while (span > 1) {
                span /= 2;
                if (rng.nextDouble() < 0.62) {
                    // stay low
                } else {
                    v += span;
                }
            }
            return v;
        };
        src[static_cast<std::size_t>(e)] = pick();
        dst[static_cast<std::size_t>(e)] = pick();
    }
    // Guarantee a connected spine from node 0.
    for (std::int64_t v = 1; v < nodes && v < edges; ++v) {
        src[static_cast<std::size_t>(v - 1)] = v - 1;
        dst[static_cast<std::size_t>(v - 1)] = v;
    }
}

/** Edge-centric synchronous BFS (MachSuite graph shape). */
class Bfs : public Workload
{
  public:
    explicit Bfs(double scale)
        : _nodes(scaled(1 << 12, scale, 64)),
          _edges(_nodes * scaled(32, std::min(scale, 1.0), 8))
    {
    }

    std::string name() const override { return "bfs"; }

    std::uint64_t arenaBytes() const override
    {
        return static_cast<std::uint64_t>(_edges) * 16 + _nodes * 8 +
               (8 << 20);
    }

    void
    setup(System &sys) override
    {
        std::vector<std::int64_t> src, dst;
        sim::Rng rng(7);
        makeGraph(_nodes, _edges, rng, src, dst);

        _esrc = sys.alloc("esrc", static_cast<std::uint64_t>(_edges), 8,
                          false);
        _edst = sys.alloc("edst", static_cast<std::uint64_t>(_edges), 8,
                          false);
        _level = sys.alloc("level", static_cast<std::uint64_t>(_nodes),
                           8, false);
        for (std::int64_t e = 0; e < _edges; ++e) {
            _esrc.setI(static_cast<std::uint64_t>(e),
                       src[static_cast<std::size_t>(e)]);
            _edst.setI(static_cast<std::uint64_t>(e),
                       dst[static_cast<std::size_t>(e)]);
        }
        for (std::int64_t v = 0; v < _nodes; ++v)
            _level.setI(static_cast<std::uint64_t>(v), -1);
        _level.setI(0, 0);

        // Reference levels (synchronous edge relaxation).
        _ref.assign(static_cast<std::size_t>(_nodes), -1);
        _ref[0] = 0;
        for (std::int64_t lvl = 0;; ++lvl) {
            bool found = false;
            for (std::int64_t e = 0; e < _edges; ++e) {
                const auto s = static_cast<std::size_t>(
                    src[static_cast<std::size_t>(e)]);
                const auto d = static_cast<std::size_t>(
                    dst[static_cast<std::size_t>(e)]);
                if (_ref[s] == lvl && _ref[d] == -1) {
                    _ref[d] = lvl + 1;
                    found = true;
                }
            }
            if (!found)
                break;
            _refLevels = lvl + 1;
        }

        KernelBuilder kb("bfs_relax");
        kb.loopStatic(_edges);
        const int o_src =
            kb.object("esrc", static_cast<std::uint64_t>(_edges), 8,
                      false);
        const int o_dst =
            kb.object("edst", static_cast<std::uint64_t>(_edges), 8,
                      false);
        const int o_lvl =
            kb.object("level", static_cast<std::uint64_t>(_nodes), 8,
                      false);
        const int p_lvl = kb.param("lvl");
        kb.loopStatic(_edges);

        auto s = kb.load(o_src, kb.affine(0, 1));
        auto d = kb.load(o_dst, kb.affine(0, 1));
        auto ls = kb.loadIdx(o_lvl, s);
        auto ld = kb.loadIdx(o_lvl, d);
        auto cur = kb.paramValue(p_lvl);
        auto active = kb.compute(compiler::OpCode::ICmpEq, ls, cur);
        auto unseen =
            kb.compute(compiler::OpCode::ICmpEq, ld, kb.constInt(-1));
        auto fire = kb.compute(compiler::OpCode::IAnd, active, unseen);
        auto nlvl = kb.iadd(cur, kb.constInt(1));
        kb.storeIdxIf(fire, o_lvl, d, nlvl);
        auto found = kb.carry(Word{0}, false, "found");
        auto nfound = kb.compute(compiler::OpCode::IOr, found, fire);
        kb.setCarry(found, nfound);
        kb.markResult(found);
        _kernel = kb.build();
    }

    void
    run(ExecContext &ctx) override
    {
        for (std::int64_t lvl = 0;; ++lvl) {
            ctx.invoke(_kernel, {_esrc, _edst, _level},
                       {ExecContext::wi(lvl)});
            ctx.hostOps(6);
            if (ctx.resultI(0) == 0)
                break;
            if (lvl > _nodes)
                panic("bfs failed to converge");
        }
    }

    bool
    validate(System &sys) override
    {
        (void)sys;
        return arrayMatchesI(_level, _ref);
    }

    std::vector<const Kernel *>
    kernels() const override
    {
        return {&_kernel};
    }

  private:
    std::int64_t _nodes;
    std::int64_t _edges;
    ArrayRef _esrc, _edst, _level;
    Kernel _kernel;
    std::vector<std::int64_t> _ref;
    int _refLevels = 0;
};

/** Serial PageRank, edge-centric accumulate + node-wise update. */
class PageRank : public Workload
{
  public:
    explicit PageRank(double scale)
        : _nodes(scaled(49152, scale, 64)),
          _edges(_nodes * 10), _iters(6)
    {
    }

    std::string name() const override { return "pr"; }

    std::uint64_t arenaBytes() const override
    {
        return static_cast<std::uint64_t>(_edges) * 16 + _nodes * 32 +
               (8 << 20);
    }

    void
    setup(System &sys) override
    {
        std::vector<std::int64_t> src, dst;
        sim::Rng rng(11);
        makeGraph(_nodes, _edges, rng, src, dst);

        _esrc = sys.alloc("esrc", static_cast<std::uint64_t>(_edges), 8,
                          false);
        _edst = sys.alloc("edst", static_cast<std::uint64_t>(_edges), 8,
                          false);
        _pr = sys.alloc("pr", static_cast<std::uint64_t>(_nodes), 8,
                        true);
        _acc = sys.alloc("acc", static_cast<std::uint64_t>(_nodes), 8,
                         true);
        _invdeg = sys.alloc("invdeg",
                            static_cast<std::uint64_t>(_nodes), 8, true);

        std::vector<std::int64_t> outdeg(
            static_cast<std::size_t>(_nodes), 0);
        for (std::int64_t e = 0; e < _edges; ++e) {
            _esrc.setI(static_cast<std::uint64_t>(e),
                       src[static_cast<std::size_t>(e)]);
            _edst.setI(static_cast<std::uint64_t>(e),
                       dst[static_cast<std::size_t>(e)]);
            ++outdeg[static_cast<std::size_t>(
                src[static_cast<std::size_t>(e)])];
        }
        const double init = 1.0 / static_cast<double>(_nodes);
        for (std::int64_t v = 0; v < _nodes; ++v) {
            _pr.setF(static_cast<std::uint64_t>(v), init);
            _acc.setF(static_cast<std::uint64_t>(v), 0.0);
            const auto d = outdeg[static_cast<std::size_t>(v)];
            _invdeg.setF(static_cast<std::uint64_t>(v),
                         d > 0 ? 1.0 / static_cast<double>(d) : 0.0);
        }

        // Reference.
        std::vector<double> pr(static_cast<std::size_t>(_nodes), init);
        std::vector<double> acc(static_cast<std::size_t>(_nodes), 0.0);
        for (int it = 0; it < _iters; ++it) {
            for (std::int64_t e = 0; e < _edges; ++e) {
                const auto s = static_cast<std::size_t>(
                    src[static_cast<std::size_t>(e)]);
                const auto d = static_cast<std::size_t>(
                    dst[static_cast<std::size_t>(e)]);
                const double w =
                    outdeg[s] > 0 ? 1.0 / static_cast<double>(outdeg[s])
                                  : 0.0;
                acc[d] = acc[d] + pr[s] * w;
            }
            for (std::int64_t v = 0; v < _nodes; ++v) {
                const auto vi = static_cast<std::size_t>(v);
                pr[vi] = 0.15 * init + 0.85 * acc[vi];
                acc[vi] = 0.0;
            }
        }
        _ref = pr;

        {
            KernelBuilder kb("pr_scatter");
            kb.loopStatic(_edges);
            const int o_src = kb.object(
                "esrc", static_cast<std::uint64_t>(_edges), 8, false);
            const int o_dst = kb.object(
                "edst", static_cast<std::uint64_t>(_edges), 8, false);
            const int o_pr = kb.object(
                "pr", static_cast<std::uint64_t>(_nodes), 8, true);
            const int o_acc = kb.object(
                "acc", static_cast<std::uint64_t>(_nodes), 8, true);
            const int o_inv = kb.object(
                "invdeg", static_cast<std::uint64_t>(_nodes), 8, true);
            auto s = kb.load(o_src, kb.affine(0, 1));
            auto d = kb.load(o_dst, kb.affine(0, 1));
            auto prs = kb.loadIdx(o_pr, s);
            auto inv = kb.loadIdx(o_inv, s);
            auto contrib = kb.fmul(prs, inv);
            auto cur = kb.loadIdx(o_acc, d);
            auto sum = kb.fadd(cur, contrib);
            kb.storeIdx(o_acc, d, sum);
            _scatter = kb.build();
        }
        {
            KernelBuilder kb("pr_update");
            kb.loopStatic(_nodes);
            const int o_pr = kb.object(
                "pr", static_cast<std::uint64_t>(_nodes), 8, true);
            const int o_acc = kb.object(
                "acc", static_cast<std::uint64_t>(_nodes), 8, true);
            auto a = kb.load(o_acc, kb.affine(0, 1));
            auto scaled_a = kb.fmul(a, kb.constFloat(0.85));
            auto np = kb.fadd(
                scaled_a,
                kb.constFloat(0.15 / static_cast<double>(_nodes)));
            kb.store(o_pr, kb.affine(0, 1), np);
            kb.store(o_acc, kb.affine(0, 1), kb.constFloat(0.0));
            _update = kb.build();
        }
    }

    void
    run(ExecContext &ctx) override
    {
        for (int it = 0; it < _iters; ++it) {
            ctx.invoke(_scatter, {_esrc, _edst, _pr, _acc, _invdeg}, {});
            ctx.invoke(_update, {_pr, _acc}, {});
            ctx.hostOps(4);
        }
    }

    bool
    validate(System &sys) override
    {
        (void)sys;
        return arrayMatchesF(_pr, _ref, 1e-9);
    }

    std::vector<const Kernel *>
    kernels() const override
    {
        return {&_scatter, &_update};
    }

  private:
    std::int64_t _nodes;
    std::int64_t _edges;
    int _iters;
    ArrayRef _esrc, _edst, _pr, _acc, _invdeg;
    Kernel _scatter, _update;
    std::vector<double> _ref;
};

} // namespace

std::unique_ptr<Workload>
makePointerChase(double scale)
{
    return std::make_unique<PointerChase>(scale);
}

std::unique_ptr<Workload>
makeBfs(double scale)
{
    return std::make_unique<Bfs>(scale);
}

std::unique_ptr<Workload>
makePageRank(double scale)
{
    return std::make_unique<PageRank>(scale);
}

} // namespace distda::workloads
