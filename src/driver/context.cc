#include "src/driver/context.hh"

#include <algorithm>
#include <fstream>

#include "src/compiler/plan_cache.hh"
#include "src/compiler/plan_io.hh"
#include "src/sim/logging.hh"
#include "src/sim/probe.hh"

namespace distda::driver
{

ExecContext::ExecContext(System &sys, const RunConfig &config,
                         sim::Probe *probe)
    : _sys(sys), _config(config), _probe(probe),
      _hostClock(2'000'000'000ULL)
{
}

ExecContext::~ExecContext() = default;

std::shared_ptr<const compiler::OffloadPlan>
ExecContext::acquirePlan(const compiler::Kernel &kernel)
{
    const compiler::CompileOptions opts = _config.compileOptions();
    const std::string fp = compiler::planFingerprint(kernel, opts);
    std::shared_ptr<const compiler::OffloadPlan> plan;
    std::string artifact;
    bool loaded_artifact = false;

    if (!_config.planDir.empty()) {
        artifact = _config.planDir + "/" +
                   compiler::planArtifactFile(kernel.name, fp);
        loaded_artifact = std::ifstream(artifact).good();
        if (loaded_artifact) {
            auto loaded = std::make_shared<compiler::OffloadPlan>(
                compiler::loadPlan(artifact));
            if (loaded->fingerprint != fp) {
                fatal("plan artifact %s: fingerprint %s does not "
                      "match expected %s (stale artifact?)",
                      artifact.c_str(), loaded->fingerprint.c_str(),
                      fp.c_str());
            }
            const std::string defect =
                compiler::validatePlanArtifact(*loaded);
            if (!defect.empty()) {
                fatal("plan artifact %s: %s", artifact.c_str(),
                      defect.c_str());
            }
            plan = std::move(loaded);
            _planHits += 1.0;
            compiler::PlanCache::process().insert(plan);
        }
    }

    if (!plan) {
        compiler::PlanCache::Lookup res =
            compiler::PlanCache::process().getOrCompile(kernel, opts);
        plan = res.plan;
        if (res.hit)
            _planHits += 1.0;
        else
            _planMisses += 1.0;
        _planCompileMs += res.compileMs;
        _planSavedMs += res.savedMs;
        if (!artifact.empty())
            compiler::savePlan(*plan, artifact);
    }

    if (_config.planRoundTrip) {
        // The deserialized copy must be indistinguishable from the
        // original, and it (not the original) is what gets executed.
        const std::string text = compiler::serializePlan(*plan);
        auto reparsed = std::make_shared<compiler::OffloadPlan>(
            compiler::parsePlan(text));
        const std::string text2 = compiler::serializePlan(*reparsed);
        if (text != text2) {
            panic("plan round-trip for kernel '%s' is not "
                  "byte-identical",
                  kernel.name.c_str());
        }
        const std::string defect =
            compiler::validatePlanArtifact(*reparsed);
        if (!defect.empty()) {
            panic("plan round-trip for kernel '%s': %s",
                  kernel.name.c_str(), defect.c_str());
        }
        plan = std::move(reparsed);
    }

    // The one verification of every acquired plan, whatever its
    // source, under the engine parameters it carries and this run's
    // substrate.
    const verify::Report report =
        verify::verifyPlan(*plan, _config.verifyOptions());
    if (loaded_artifact && !report.ok()) {
        fatal("plan artifact %s: %s", artifact.c_str(),
              report.firstError().c_str());
    }
    verify::enforce(report, "kernel '" + kernel.name + "'");
    return plan;
}

ExecContext::CompiledKernel &
ExecContext::compiled(const compiler::Kernel &kernel)
{
    auto it = _kernels.find(kernel.name);
    if (it != _kernels.end())
        return it->second;

    CompiledKernel ck;
    ck.plan = acquirePlan(kernel);
    if (_probe) {
        ck.probeTrack = _probe->addTrack(
            _sys.hier().mesh().hostNode(), "invoke:" + kernel.name);
    }
    if (_config.usesAccelerator()) {
        engine::EngineConfig ec = _config.engineConfig();
        ec.probe = _probe;
        ck.runtime = std::make_unique<offload::OffloadRuntime>(
            *ck.plan, ec, &_sys.hier(), &_sys.backend(), &_sys.acct());
    } else {
        ck.host = std::make_unique<engine::HostExecutor>(
            ck.plan->kernel, &_sys.hier(), &_sys.backend(), &_sys.acct());
    }
    auto [pos, ok] = _kernels.emplace(kernel.name, std::move(ck));
    DISTDA_ASSERT(ok, "kernel '%s' compiled twice",
                  kernel.name.c_str());
    return pos->second;
}

void
ExecContext::invoke(const compiler::Kernel &kernel,
                    const std::vector<engine::ArrayRef> &bindings,
                    const std::vector<compiler::Word> &params)
{
    CompiledKernel &ck = compiled(kernel);
    if (_config.recordProfiles || _probe)
        recordProfile(ck, kernel, bindings, params);
    const sim::Tick t0 = _now;
    offload::OffloadRecord rec;
    if (ck.host) {
        engine::HostRunResult res = ck.host->run(bindings, params, _now);
        _now = res.endTick;
        _hostInsts += res.insts;
        _memOps += res.memOps;
        _lastResults = std::move(res.results);
        rec = res.record;
    } else {
        offload::OffloadRunResult res =
            ck.runtime->invoke(bindings, params, _now);
        _now = res.endTick;
        _accelInsts += res.accelInsts;
        _memOps += res.memOps;
        _lastResults = std::move(res.results);
        rec = res.record;
    }
    ck.lifecycle.add(rec); // asserts the conservation invariant
    if (_probe) {
        _probe->span(ck.probeTrack, "invoke", t0, _now);
        recordLifecycle(rec);
    }
}

void
ExecContext::recordLifecycle(const offload::OffloadRecord &rec)
{
    // Aggregate (cross-kernel) lifecycle distributions for the
    // timeline/stats report. Registration is idempotent, so paying the
    // map lookups only with a probe attached keeps the common path
    // cheap.
    for (std::size_t p = 0; p < offload::kNumPhases; ++p) {
        _probe
            ->addDist(std::string("offload.") +
                          offload::phaseName(
                              static_cast<offload::Phase>(p)) +
                          "_ticks",
                      0.0, 1e9, 50)
            .sample(static_cast<double>(
                rec.ticksIn(static_cast<offload::Phase>(p))));
    }
    _probe->addDist("offload.e2e_ticks", 0.0, 1e9, 50)
        .sample(static_cast<double>(rec.endToEnd()));
}

double
ExecContext::resultF(std::size_t idx) const
{
    DISTDA_ASSERT(idx < _lastResults.size(), "result %zu missing", idx);
    return _lastResults[idx].second.f;
}

std::int64_t
ExecContext::resultI(std::size_t idx) const
{
    DISTDA_ASSERT(idx < _lastResults.size(), "result %zu missing", idx);
    return _lastResults[idx].second.i;
}

void
ExecContext::hostOps(double n)
{
    const double cycles = n / 5.0; // 5-wide issue
    _now += static_cast<sim::Tick>(cycles * _hostClock.period());
    _hostInsts += n;
    _sys.acct().addEvents(energy::Component::OoOCore, n);
}

std::int64_t
ExecContext::hostLoadI(const engine::ArrayRef &arr, std::uint64_t i)
{
    const auto res =
        _sys.hier().hostAccess(arr.addrOf(i), arr.elemBytes, false, _now);
    _now += res.latency;
    _hostInsts += 1.0;
    _hostMemOps += 1.0;
    _sys.acct().addEvents(energy::Component::OoOCore, 1.0);
    return arr.getI(i);
}

double
ExecContext::hostLoadF(const engine::ArrayRef &arr, std::uint64_t i)
{
    const auto res =
        _sys.hier().hostAccess(arr.addrOf(i), arr.elemBytes, false, _now);
    _now += res.latency;
    _hostInsts += 1.0;
    _hostMemOps += 1.0;
    _sys.acct().addEvents(energy::Component::OoOCore, 1.0);
    return arr.getF(i);
}

void
ExecContext::hostStoreI(engine::ArrayRef &arr, std::uint64_t i,
                        std::int64_t v)
{
    _sys.hier().hostAccess(arr.addrOf(i), arr.elemBytes, true, _now);
    _now += _hostClock.period();
    _hostInsts += 1.0;
    _hostMemOps += 1.0;
    _sys.acct().addEvents(energy::Component::OoOCore, 1.0);
    arr.setI(i, v);
}

void
ExecContext::hostStoreF(engine::ArrayRef &arr, std::uint64_t i, double v)
{
    _sys.hier().hostAccess(arr.addrOf(i), arr.elemBytes, true, _now);
    _now += _hostClock.period();
    _hostInsts += 1.0;
    _hostMemOps += 1.0;
    _sys.acct().addEvents(energy::Component::OoOCore, 1.0);
    arr.setF(i, v);
}

void
ExecContext::recordProfile(CompiledKernel &ck,
                           const compiler::Kernel &kernel,
                           const std::vector<engine::ArrayRef> &bindings,
                           const std::vector<compiler::Word> &params)
{
    std::vector<std::int64_t> param_ints(params.size());
    for (std::size_t i = 0; i < params.size(); ++i)
        param_ints[i] = params[i].i;
    std::vector<std::uint64_t> object_elems(bindings.size());
    for (std::size_t i = 0; i < bindings.size(); ++i)
        object_elems[i] = bindings[i].count;
    bool aliased = false;
    for (std::size_t i = 0; i < bindings.size() && !aliased; ++i) {
        const auto &a = bindings[i];
        const std::uint64_t a_end = a.base + a.count * a.elemBytes;
        for (std::size_t j = i + 1; j < bindings.size(); ++j) {
            const auto &b = bindings[j];
            const std::uint64_t b_end = b.base + b.count * b.elemBytes;
            if (a.base < b_end && b.base < a_end) {
                aliased = true;
                break;
            }
        }
    }
    ck.profile.record(kernel, param_ints, object_elems, aliased);
}

std::vector<verify::Report>
ExecContext::analyzeAll() const
{
    std::vector<verify::Report> all;
    for (const auto &[name, ck] : _kernels) {
        verify::Options vo = _config.verifyOptions();
        vo.profile = &ck.profile;
        all.push_back(verify::verifyPlan(*ck.plan, vo));
    }
    return all;
}

const compiler::OffloadPlan &
ExecContext::compileOnly(const compiler::Kernel &kernel)
{
    return *compiled(kernel).plan;
}

Metrics
ExecContext::finish()
{
    Metrics m;
    m.config = archModelName(_config.model);
    m.timeNs = nowNs();
    // ipc() counts cycles of the clock actually configured; 0 means
    // "model default", reported against the 2GHz host clock as before.
    m.clockGHz = _config.accelGHz > 0.0 ? _config.accelGHz : 2.0;
    m.hostInsts = _hostInsts;
    m.accelInsts = _accelInsts;
    m.kernelMemOps = _memOps;
    m.hostMemOps = _hostMemOps;
    m.planCacheHits = _planHits;
    m.planCacheMisses = _planMisses;
    m.planCompileMs = _planCompileMs;
    m.planCompileMsSaved = _planSavedMs;

    auto &hier = _sys.hier();
    m.cacheAccesses = hier.cacheAccesses();

    auto &acct = _sys.acct();
    m.totalEnergyPj = acct.totalPj();
    for (std::size_t i = 0;
         i < static_cast<std::size_t>(
                 energy::Component::NumComponents);
         ++i) {
        const auto c = static_cast<energy::Component>(i);
        m.energyByComponent[energy::componentName(c)] =
            acct.componentPj(c);
    }

    auto &mesh = hier.mesh();
    m.nocCtrlBytes = mesh.bytesInClass(noc::TrafficClass::Ctrl);
    m.nocDataBytes = mesh.bytesInClass(noc::TrafficClass::Data);
    m.nocAccCtrlBytes = mesh.bytesInClass(noc::TrafficClass::AccCtrl);
    m.nocAccDataBytes = mesh.bytesInClass(noc::TrafficClass::AccData);

    for (const auto &[name, ck] : _kernels) {
        if (ck.runtime) {
            const auto &st = ck.runtime->accessStats();
            m.intraBytes += st.intraBytes;
            m.daBytes += st.daBytes;
            m.aaBytes += st.aaBytes;
            m.mmioOps += ck.runtime->mmioOps();
        }
        // Per-kernel lifecycle rows, kernel-name order (std::map).
        // Host-executed kernels appear too: their latency is all
        // Execute, which makes the breakdown comparable across models.
        const offload::LifecycleStats &lc = ck.lifecycle;
        if (lc.invocations() == 0)
            continue;
        OffloadPhaseBreakdown row;
        row.kernel = name;
        row.invocations = static_cast<double>(lc.invocations());
        for (std::size_t p = 0; p < offload::kNumPhases; ++p)
            row.phaseTicks[p] = lc.phaseTicks(
                static_cast<offload::Phase>(p));
        row.e2eTicks = lc.e2eTicks();
        row.p50 = lc.e2eDist().p50();
        row.p95 = lc.e2eDist().p95();
        row.p99 = lc.e2eDist().p99();
        row.minTicks = lc.e2eDist().min();
        row.maxTicks = lc.e2eDist().max();
        m.offloadBreakdown.push_back(std::move(row));
    }

    // Data movement: bytes times interfaces crossed. Local buffer
    // reads (intra) are excluded — data staying inside one access unit
    // is precisely what "near-data" avoids moving — while traffic that
    // additionally rides the NoC is counted again there, so a byte
    // hauled across the chip (Mono-CA's centralized accesses) costs
    // more movement than the same byte served bank-to-buffer locally.
    const auto &l1 = hier.l1();
    const auto &l2 = hier.l2();
    m.dataMovementBytes =
        l1.accesses() * 8.0 +
        (l1.misses() + l1.writebacks()) * mem::lineBytes +
        (l2.misses() + l2.writebacks() + l2.prefetchesIssued()) *
            mem::lineBytes +
        (hier.dram().reads() + hier.dram().writes()) * mem::lineBytes +
        m.daBytes + m.aaBytes +
        mesh.hopFlits() * 8.0; // NoC bytes weighted by hops traveled

    return m;
}

} // namespace distda::driver
