#include "src/fuzz/diff.hh"

#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <sstream>

#include "src/compiler/plan.hh"
#include "src/driver/context.hh"
#include "src/driver/system.hh"
#include "src/fuzz/gen.hh"
#include "src/sim/logging.hh"
#include "src/verify/analysis.hh"
#include "src/verify/verify.hh"

namespace distda::fuzz
{

using driver::ArchModel;
using driver::ExecContext;
using driver::Metrics;
using driver::RunConfig;
using driver::System;
using driver::SystemParams;

namespace
{

/** Arena sized to the case: objects + slab rounding + stagger slack. */
std::uint64_t
arenaBytesFor(const FuzzCase &c)
{
    std::uint64_t total = 64 * 1024;
    for (const CaseObject &o : c.objects) {
        const std::uint64_t bytes = o.elemCount * o.elemBytes;
        total += ((bytes + 4095) / 4096) * 4096 + 2 * 4096;
    }
    return total;
}

PathResult
runPath(const FuzzCase &c, const char *name, const RunConfig &cfg)
{
    PathResult r;
    r.path = name;
    ScopedFailureCapture capture;
    try {
        SystemParams sp;
        sp.arenaBytes = arenaBytesFor(c);
        sp.allocAffinity = cfg.allocAffinity();
        System sys(sp);
        std::vector<engine::ArrayRef> arrays;
        arrays.reserve(c.objects.size());
        for (std::size_t i = 0; i < c.objects.size(); ++i) {
            const CaseObject &o = c.objects[i];
            arrays.push_back(sys.alloc(o.name, o.elemCount,
                                       o.elemBytes, o.isFloat));
            initCaseObject(c, i, arrays.back());
        }
        ExecContext ctx(sys, cfg);
        for (const Invocation &inv : c.invocations) {
            const compiler::Kernel &k =
                c.kernels[static_cast<std::size_t>(inv.kernel)];
            std::vector<engine::ArrayRef> bindings;
            bindings.reserve(inv.objects.size());
            for (int co : inv.objects)
                bindings.push_back(
                    arrays[static_cast<std::size_t>(co)]);
            std::vector<compiler::Word> params;
            params.reserve(inv.paramBits.size());
            for (std::uint64_t bits : inv.paramBits) {
                compiler::Word w;
                std::memcpy(&w, &bits, sizeof(w));
                params.push_back(w);
            }
            ctx.invoke(k, bindings, params);
            for (std::size_t ri = 0; ri < k.resultCarries.size();
                 ++ri) {
                r.resultBits.push_back(
                    static_cast<std::uint64_t>(ctx.resultI(ri)));
            }
        }
        r.metrics = ctx.finish();
        for (std::size_t i = 0; i < c.objects.size(); ++i) {
            const engine::ArrayRef &a = arrays[i];
            std::vector<std::uint8_t> bytes(a.sizeBytes());
            a.mem->copyOut(a.base, bytes.data(), bytes.size());
            r.objectBytes.push_back(std::move(bytes));
        }
    } catch (const SimFailure &f) {
        r.crashed = true;
        r.isPanic = f.isPanic();
        r.failure = f.what();
    }
    return r;
}

/** Fields that must be bit-identical between interp and predecode. */
struct MetricField
{
    const char *name;
    double Metrics::*field;
};

constexpr MetricField kMetricFields[] = {
    {"timeNs", &Metrics::timeNs},
    {"hostInsts", &Metrics::hostInsts},
    {"accelInsts", &Metrics::accelInsts},
    {"kernelMemOps", &Metrics::kernelMemOps},
    {"hostMemOps", &Metrics::hostMemOps},
    {"mmioOps", &Metrics::mmioOps},
    {"cacheAccesses", &Metrics::cacheAccesses},
    {"dataMovementBytes", &Metrics::dataMovementBytes},
    {"totalEnergyPj", &Metrics::totalEnergyPj},
    {"nocCtrlBytes", &Metrics::nocCtrlBytes},
    {"nocDataBytes", &Metrics::nocDataBytes},
    {"nocAccCtrlBytes", &Metrics::nocAccCtrlBytes},
    {"nocAccDataBytes", &Metrics::nocAccDataBytes},
    {"intraBytes", &Metrics::intraBytes},
    {"daBytes", &Metrics::daBytes},
    {"aaBytes", &Metrics::aaBytes},
};

void
checkSanity(const PathResult &r, std::vector<Finding> &findings)
{
    if (r.crashed)
        return;
    auto bad = [&](const std::string &what) {
        findings.push_back(
            Finding{Finding::Kind::StatAnomaly,
                    strfmt("%s: %s", r.path.c_str(), what.c_str())});
    };
    if (!(r.metrics.timeNs > 0.0))
        bad(strfmt("timeNs %g not positive", r.metrics.timeNs));
    for (const MetricField &mf : kMetricFields) {
        const double v = r.metrics.*(mf.field);
        if (!std::isfinite(v))
            bad(strfmt("%s not finite", mf.name));
        else if (v < 0.0)
            bad(strfmt("%s negative (%g)", mf.name, v));
    }
    for (const auto &[comp, pj] : r.metrics.energyByComponent) {
        if (!std::isfinite(pj) || pj < 0.0)
            bad(strfmt("energy[%s] = %g", comp.c_str(), pj));
    }
    // Offload-lifecycle breakdown: conservation (phases sum exactly to
    // the end-to-end latency) plus ordering of the summary statistics.
    for (const driver::OffloadPhaseBreakdown &row :
         r.metrics.offloadBreakdown) {
        double phase_sum = 0.0;
        for (double t : row.phaseTicks) {
            if (!std::isfinite(t) || t < 0.0)
                bad(strfmt("breakdown[%s] phase ticks %g",
                           row.kernel.c_str(), t));
            phase_sum += t;
        }
        if (phase_sum != row.e2eTicks) {
            bad(strfmt("breakdown[%s] violates conservation: phases "
                       "sum %.17g != e2e %.17g",
                       row.kernel.c_str(), phase_sum, row.e2eTicks));
        }
        if (row.invocations <= 0.0)
            bad(strfmt("breakdown[%s] has %g invocations",
                       row.kernel.c_str(), row.invocations));
        if (!(row.p50 <= row.p95 && row.p95 <= row.p99))
            bad(strfmt("breakdown[%s] quantiles out of order: "
                       "p50 %g p95 %g p99 %g",
                       row.kernel.c_str(), row.p50, row.p95, row.p99));
        if (row.minTicks > row.maxTicks)
            bad(strfmt("breakdown[%s] min %g > max %g",
                       row.kernel.c_str(), row.minTicks, row.maxTicks));
    }
}

/** Concrete view of one invocation, for re-checking Proven claims. */
struct InvView
{
    std::size_t kernel = 0;
    std::vector<std::int64_t> params; ///< parameter integer views
    std::vector<std::uint64_t> elems; ///< kernel-object-id order
    std::int64_t trip = 0;
};

/**
 * The byte image every path starts from: initCaseObject is
 * deterministic in (case, object), so one throwaway system produces
 * the reference initial state for the write-footprint oracle.
 */
std::vector<std::vector<std::uint8_t>>
initialObjectBytes(const FuzzCase &c)
{
    SystemParams sp;
    sp.arenaBytes = arenaBytesFor(c);
    System sys(sp);
    std::vector<std::vector<std::uint8_t>> out;
    out.reserve(c.objects.size());
    for (std::size_t i = 0; i < c.objects.size(); ++i) {
        const CaseObject &o = c.objects[i];
        engine::ArrayRef a =
            sys.alloc(o.name, o.elemCount, o.elemBytes, o.isFloat);
        initCaseObject(c, i, a);
        std::vector<std::uint8_t> bytes(a.sizeBytes());
        a.mem->copyOut(a.base, bytes.data(), bytes.size());
        out.push_back(std::move(bytes));
    }
    return out;
}

/**
 * The static-analysis soundness oracle: rebuild each kernel's
 * invocation profile from the case, run the verification passes
 * against it (src/verify/analysis.hh), and hold every decided fact
 * against what actually happened.
 *   - A Violated verdict of any kind is a contradiction outright: the
 *     generator proves every access in bounds and every case runs to
 *     completion on at least the host path.
 *   - Proven affine bounds are re-derived numerically per invocation;
 *     an element range escaping the object or the claimed [lo, hi] is
 *     a contradiction.
 *   - Liveness Proven for every invoked kernel forbids a deadlock
 *     panic on the analyzed configuration (Dist-DA-IO), and Violated
 *     forbids a clean run.
 *   - Objects outside every kernel's write footprint must come out of
 *     every surviving path byte-identical to their initial image.
 */
void
crossCheckAnalysis(const FuzzCase &c,
                   const std::vector<PathResult> &paths,
                   std::vector<Finding> &findings)
{
    auto flag = [&](std::string what) {
        findings.push_back(Finding{Finding::Kind::AnalysisContradiction,
                                   std::move(what)});
    };

    // Per-invocation concrete views, joined into per-kernel profiles
    // exactly as the driver records them (validateCase already
    // rejected aliased bindings, so aliased is always false here).
    std::vector<InvView> views;
    views.reserve(c.invocations.size());
    std::vector<verify::InvocationProfile> profiles(c.kernels.size());
    for (const Invocation &inv : c.invocations) {
        InvView v;
        v.kernel = static_cast<std::size_t>(inv.kernel);
        v.params.reserve(inv.paramBits.size());
        for (std::uint64_t bits : inv.paramBits) {
            compiler::Word w;
            std::memcpy(&w, &bits, sizeof(w));
            v.params.push_back(w.i);
        }
        v.elems.reserve(inv.objects.size());
        for (int co : inv.objects)
            v.elems.push_back(
                c.objects[static_cast<std::size_t>(co)].elemCount);
        v.trip = c.tripOf(inv);
        profiles[v.kernel].record(c.kernels[v.kernel], v.params,
                                  v.elems, false);
        views.push_back(std::move(v));
    }

    // Analyze under the configuration the Dist-DA-IO paths ran.
    RunConfig dist;
    dist.model = ArchModel::DistDA_IO;

    bool liveness_proven = true; // across every invoked kernel
    bool liveness_violated = false;
    std::vector<std::uint8_t> written(c.objects.size(), 0);
    // Conservative footprint fallback: mark every object one kernel's
    // invocations bind as written (used when its analysis crashes).
    auto writeAll = [&](std::size_t ki) {
        for (const Invocation &inv : c.invocations) {
            if (static_cast<std::size_t>(inv.kernel) != ki)
                continue;
            for (int co_idx : inv.objects)
                written[static_cast<std::size_t>(co_idx)] = 1;
        }
    };

    for (std::size_t ki = 0; ki < c.kernels.size(); ++ki) {
        if (profiles[ki].invocations == 0)
            continue; // uninvoked kernels constrain nothing dynamic
        const compiler::Kernel &k = c.kernels[ki];
        verify::Report facts;
        try {
            ScopedFailureCapture capture;
            const compiler::OffloadPlan plan =
                compiler::compileKernel(k, dist.compileOptions());
            verify::Options vo;
            vo.profile = &profiles[ki];
            facts = verify::verifyPlan(plan, vo);
        } catch (const SimFailure &f) {
            flag(strfmt("kernel '%s': analysis crashed: %s",
                        k.name.c_str(), f.what()));
            writeAll(ki);
            liveness_proven = false;
            continue;
        }

        for (const verify::BoundsFact &f : facts.bounds) {
            if (f.verdict == verify::Verdict::Violated) {
                flag(strfmt("kernel '%s': node %d (%s %s) claimed "
                            "Violated on a case valid by construction",
                            k.name.c_str(), f.node,
                            f.affine ? "affine" : "indirect",
                            f.store ? "store" : "load"));
                continue;
            }
            if (f.verdict != verify::Verdict::Proven || !f.affine)
                continue;
            const compiler::Node &n = k.node(f.node);
            for (const InvView &v : views) {
                if (v.kernel != ki || v.trip < 1)
                    continue;
                const verify::Interval r = verify::affineRangeExact(
                    n.affine, v.params, v.trip);
                const std::uint64_t elems =
                    f.objId >= 0 && static_cast<std::size_t>(f.objId) <
                                        v.elems.size()
                        ? v.elems[static_cast<std::size_t>(f.objId)]
                        : 0;
                if (!r.within(elems)) {
                    flag(strfmt(
                        "kernel '%s': node %d Proven in bounds but an "
                        "invocation touches [%lld, %lld] of a "
                        "%llu-element object",
                        k.name.c_str(), f.node,
                        static_cast<long long>(r.lo),
                        static_cast<long long>(r.hi),
                        static_cast<unsigned long long>(elems)));
                    break;
                }
                if (f.rangeKnown && (r.lo < f.lo || r.hi > f.hi)) {
                    flag(strfmt(
                        "kernel '%s': node %d claims range [%lld, "
                        "%lld] but an invocation touches [%lld, %lld]",
                        k.name.c_str(), f.node,
                        static_cast<long long>(f.lo),
                        static_cast<long long>(f.hi),
                        static_cast<long long>(r.lo),
                        static_cast<long long>(r.hi)));
                    break;
                }
            }
        }

        for (int obj : facts.purity.writtenObjects) {
            for (const Invocation &inv : c.invocations) {
                if (static_cast<std::size_t>(inv.kernel) != ki)
                    continue;
                if (obj >= 0 &&
                    static_cast<std::size_t>(obj) < inv.objects.size())
                    written[static_cast<std::size_t>(
                        inv.objects[static_cast<std::size_t>(obj)])] = 1;
            }
        }

        if (facts.deadlockFree == verify::Verdict::Violated)
            liveness_violated = true;
        else if (facts.deadlockFree != verify::Verdict::Proven)
            liveness_proven = false;
    }

    // Liveness verdicts bind only the configuration they were computed
    // for, so compare against the Dist-DA-IO paths alone.
    for (const PathResult &r : paths) {
        if (r.path.rfind("Dist-DA-IO", 0) != 0)
            continue;
        const bool deadlocked =
            r.crashed &&
            r.failure.find("deadlock") != std::string::npos;
        if (deadlocked && liveness_proven)
            flag(strfmt("%s deadlocked but every kernel's liveness "
                        "is Proven",
                        r.path.c_str()));
        if (!r.crashed && liveness_violated)
            flag(strfmt("liveness claimed Violated but %s ran to "
                        "completion",
                        r.path.c_str()));
    }

    bool any_unwritten = false;
    for (std::size_t oi = 0; oi < c.objects.size(); ++oi)
        any_unwritten = any_unwritten || !written[oi];
    if (!any_unwritten)
        return;
    const std::vector<std::vector<std::uint8_t>> initial =
        initialObjectBytes(c);
    for (const PathResult &r : paths) {
        if (r.crashed)
            continue;
        for (std::size_t oi = 0; oi < c.objects.size(); ++oi) {
            if (written[oi])
                continue;
            if (r.objectBytes[oi] != initial[oi]) {
                flag(strfmt("object '%s' changed under %s but no "
                            "kernel's write footprint contains it",
                            c.objects[oi].name.c_str(),
                            r.path.c_str()));
            }
        }
    }
}

std::string
stripDigits(const std::string &s)
{
    std::string out;
    out.reserve(s.size());
    bool in_num = false;
    for (char ch : s) {
        if (ch == '\n')
            break;
        if (ch >= '0' && ch <= '9') {
            if (!in_num)
                out.push_back('#');
            in_num = true;
            continue;
        }
        in_num = false;
        out.push_back(ch);
    }
    return out;
}

} // namespace

const char *
findingKindName(Finding::Kind k)
{
    switch (k) {
      case Finding::Kind::InvalidCase: return "invalid-case";
      case Finding::Kind::Crash: return "crash";
      case Finding::Kind::Divergence: return "divergence";
      case Finding::Kind::StatAnomaly: return "stat-anomaly";
      case Finding::Kind::AnalysisContradiction:
        return "analysis-contradiction";
      default: return "?";
    }
}

std::string
DiffOutcome::signature() const
{
    if (findings.empty())
        return {};
    const Finding &f = findings.front();
    if (f.kind == Finding::Kind::Divergence)
        return findingKindName(f.kind);
    return std::string(findingKindName(f.kind)) + ":" +
           stripDigits(f.detail);
}

std::string
DiffOutcome::summary() const
{
    std::ostringstream out;
    if (findings.empty()) {
        out << "ok (" << paths.size() << " paths agree)";
        return out.str();
    }
    out << findings.size() << " finding(s):\n";
    for (const Finding &f : findings)
        out << "  [" << findingKindName(f.kind) << "] " << f.detail
            << '\n';
    return out.str();
}

DiffOutcome
runDifferential(const FuzzCase &c)
{
    DiffOutcome out;
    const std::string invalid = validateCase(c);
    if (!invalid.empty()) {
        out.findings.push_back(
            Finding{Finding::Kind::InvalidCase, invalid});
        return out;
    }

    struct PathSpec
    {
        const char *name;
        RunConfig cfg;
    };
    std::vector<PathSpec> specs;
    auto mkcfg = [](ArchModel m, bool predecode = true) {
        RunConfig cfg;
        cfg.model = m;
        cfg.predecode = predecode;
        return cfg;
    };
    specs.push_back({"OoO", mkcfg(ArchModel::OoO)});
    specs.push_back({"Mono-CA", mkcfg(ArchModel::MonoCA)});
    specs.push_back({"Mono-DA-IO", mkcfg(ArchModel::MonoDA_IO)});
    specs.push_back(
        {"Dist-DA-IO/interp", mkcfg(ArchModel::DistDA_IO, false)});
    specs.push_back(
        {"Dist-DA-IO/predecode", mkcfg(ArchModel::DistDA_IO)});
    // Replan: identical to predecode except every plan is round-tripped
    // through the text artifact format before execution; its metrics
    // must match predecode field for field (the serializer's
    // exactness oracle).
    RunConfig replan_cfg = mkcfg(ArchModel::DistDA_IO);
    replan_cfg.planRoundTrip = true;
    specs.push_back({"Dist-DA-IO/replan", replan_cfg});
    specs.push_back({"Dist-DA-F", mkcfg(ArchModel::DistDA_F)});

    // DISTDA_FUZZ_TRACE=1 narrates per-path progress on stderr —
    // the way to localize a hang to one execution path.
    static const bool trace = std::getenv("DISTDA_FUZZ_TRACE");
    out.paths.reserve(specs.size());
    for (const PathSpec &spec : specs) {
        if (trace)
            std::fprintf(stderr, "    [diff] %s...\n", spec.name);
        out.paths.push_back(runPath(c, spec.name, spec.cfg));
    }
    if (trace)
        std::fprintf(stderr, "    [diff] compare\n");

    // Crash accounting: a valid case must run everywhere.
    const PathResult *reference = nullptr;
    for (const PathResult &r : out.paths) {
        if (r.crashed) {
            out.findings.push_back(Finding{
                Finding::Kind::Crash,
                strfmt("%s: %s", r.path.c_str(), r.failure.c_str())});
        } else if (!reference) {
            reference = &r;
        }
    }
    // Static-vs-dynamic soundness oracle: bounds verdicts, claimed
    // access ranges, liveness and write footprints (independent of the
    // cross-path comparison, so it runs even when paths crashed).
    if (trace)
        std::fprintf(stderr, "    [diff] analyze\n");
    crossCheckAnalysis(c, out.paths, out.findings);

    if (!reference)
        return out; // everything crashed; nothing to compare

    // Functional cross-check against the first surviving path.
    for (const PathResult &r : out.paths) {
        if (r.crashed || &r == reference)
            continue;
        for (std::size_t oi = 0; oi < c.objects.size(); ++oi) {
            const auto &a = reference->objectBytes[oi];
            const auto &b = r.objectBytes[oi];
            if (a == b)
                continue;
            std::size_t byte = 0;
            while (byte < a.size() && a[byte] == b[byte])
                ++byte;
            const std::uint32_t eb = c.objects[oi].elemBytes;
            out.findings.push_back(Finding{
                Finding::Kind::Divergence,
                strfmt("object '%s' differs between %s and %s at "
                       "element %zu (byte %zu): %02x vs %02x",
                       c.objects[oi].name.c_str(),
                       reference->path.c_str(), r.path.c_str(),
                       byte / eb, byte, a[byte], b[byte])});
            break; // one finding per object pair is enough
        }
        if (r.resultBits != reference->resultBits) {
            std::size_t i = 0;
            while (i < r.resultBits.size() &&
                   i < reference->resultBits.size() &&
                   r.resultBits[i] == reference->resultBits[i])
                ++i;
            out.findings.push_back(Finding{
                Finding::Kind::Divergence,
                strfmt("result carry %zu differs between %s "
                       "(0x%016llx) and %s (0x%016llx)",
                       i, reference->path.c_str(),
                       static_cast<unsigned long long>(
                           i < reference->resultBits.size()
                               ? reference->resultBits[i]
                               : 0),
                       r.path.c_str(),
                       static_cast<unsigned long long>(
                           i < r.resultBits.size() ? r.resultBits[i]
                                                   : 0))});
        }
    }

    // Interpreter vs predecode must agree on every metric exactly —
    // the streams execute the same abstract program. Likewise the
    // replan path against predecode: a plan that survived the text
    // round trip must be indistinguishable in execution.
    const PathResult *interp = nullptr;
    const PathResult *pre = nullptr;
    const PathResult *replan = nullptr;
    for (const PathResult &r : out.paths) {
        if (r.path == "Dist-DA-IO/interp")
            interp = &r;
        if (r.path == "Dist-DA-IO/predecode")
            pre = &r;
        if (r.path == "Dist-DA-IO/replan")
            replan = &r;
    }
    auto cross_check_metrics = [&](const PathResult *a,
                                   const PathResult *b,
                                   const char *what) {
        if (!a || !b || a->crashed || b->crashed)
            return;
        for (const MetricField &mf : kMetricFields) {
            const double va = a->metrics.*(mf.field);
            const double vb = b->metrics.*(mf.field);
            if (va != vb) {
                out.findings.push_back(Finding{
                    Finding::Kind::Divergence,
                    strfmt("%s metric %s differs: %.17g vs %.17g",
                           what, mf.name, va, vb)});
            }
        }
    };
    // The lifecycle breakdown rides the same determinism contract:
    // equivalent Dist-DA-IO legs must attribute identical per-phase
    // ticks, not just identical totals.
    auto cross_check_breakdown = [&](const PathResult *a,
                                     const PathResult *b,
                                     const char *what) {
        if (!a || !b || a->crashed || b->crashed)
            return;
        const auto &ba = a->metrics.offloadBreakdown;
        const auto &bb = b->metrics.offloadBreakdown;
        if (ba.size() != bb.size()) {
            out.findings.push_back(Finding{
                Finding::Kind::Divergence,
                strfmt("%s breakdown row count differs: %zu vs %zu",
                       what, ba.size(), bb.size())});
            return;
        }
        for (std::size_t i = 0; i < ba.size(); ++i) {
            if (ba[i].kernel != bb[i].kernel) {
                out.findings.push_back(Finding{
                    Finding::Kind::Divergence,
                    strfmt("%s breakdown row %zu kernel differs: "
                           "'%s' vs '%s'",
                           what, i, ba[i].kernel.c_str(),
                           bb[i].kernel.c_str())});
                continue;
            }
            const bool equal =
                ba[i].invocations == bb[i].invocations &&
                ba[i].phaseTicks == bb[i].phaseTicks &&
                ba[i].e2eTicks == bb[i].e2eTicks;
            if (!equal) {
                out.findings.push_back(Finding{
                    Finding::Kind::Divergence,
                    strfmt("%s breakdown for kernel '%s' differs "
                           "(e2e %.17g vs %.17g)",
                           what, ba[i].kernel.c_str(), ba[i].e2eTicks,
                           bb[i].e2eTicks)});
            }
        }
    };
    cross_check_metrics(interp, pre, "interp/predecode");
    cross_check_metrics(pre, replan, "predecode/replan");
    cross_check_breakdown(interp, pre, "interp/predecode");
    cross_check_breakdown(pre, replan, "predecode/replan");

    for (const PathResult &r : out.paths)
        checkSanity(r, out.findings);

    // Model-level sanity: the host-only path must not report
    // accelerator work, and accelerated paths must offload something.
    for (const PathResult &r : out.paths) {
        if (r.crashed)
            continue;
        if (r.path == "OoO" && r.metrics.accelInsts != 0.0) {
            out.findings.push_back(
                Finding{Finding::Kind::StatAnomaly,
                        strfmt("OoO reports %g accelerator insts",
                               r.metrics.accelInsts)});
        }
        if (r.path != "OoO" && r.metrics.accelInsts <= 0.0) {
            out.findings.push_back(
                Finding{Finding::Kind::StatAnomaly,
                        strfmt("%s offloaded nothing", r.path.c_str())});
        }
    }

    return out;
}

} // namespace distda::fuzz
