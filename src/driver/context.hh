/**
 * @file
 * The execution context a workload's host program runs in. It owns the
 * host timeline, compiles kernels on first use for the active
 * architecture model, dispatches invocations either to the host core
 * (OoO) or through the offload runtime, and charges host "glue"
 * instructions and accesses for code outside the offloaded regions.
 */

#ifndef DISTDA_DRIVER_CONTEXT_HH
#define DISTDA_DRIVER_CONTEXT_HH

#include <map>
#include <memory>
#include <string>
#include <vector>

#include "src/driver/config.hh"
#include "src/driver/metrics.hh"
#include "src/driver/system.hh"
#include "src/engine/host_exec.hh"
#include "src/offload/runtime.hh"
#include "src/verify/analysis.hh"
#include "src/verify/verify.hh"

namespace distda::driver
{

/** Host-program execution context for one run. */
class ExecContext
{
  public:
    /**
     * @p probe (optional, caller-owned, must outlive the context)
     * turns on timeline recording: the context threads it into every
     * engine it builds and emits one "invoke" span per kernel call.
     */
    ExecContext(System &sys, const RunConfig &config,
                sim::Probe *probe = nullptr);
    ~ExecContext();

    System &sys() { return _sys; }
    const RunConfig &config() const { return _config; }

    /** Integer parameter word. */
    static compiler::Word
    wi(std::int64_t v)
    {
        compiler::Word w;
        w.i = v;
        return w;
    }

    /** Floating-point parameter word. */
    static compiler::Word
    wf(double v)
    {
        compiler::Word w;
        w.f = v;
        return w;
    }

    /**
     * Invoke @p kernel with object @p bindings and scalar @p params.
     * Results of result-carries are retrievable afterwards.
     */
    void invoke(const compiler::Kernel &kernel,
                const std::vector<engine::ArrayRef> &bindings,
                const std::vector<compiler::Word> &params);

    /** Result value of the i-th result carry of the last invoke. */
    double resultF(std::size_t idx) const;
    std::int64_t resultI(std::size_t idx) const;

    /** Charge @p n host instructions of glue code. */
    void hostOps(double n);

    /** Host-side load/store (outside offloaded regions). */
    std::int64_t hostLoadI(const engine::ArrayRef &arr,
                           std::uint64_t i);
    double hostLoadF(const engine::ArrayRef &arr, std::uint64_t i);
    void hostStoreI(engine::ArrayRef &arr, std::uint64_t i,
                    std::int64_t v);
    void hostStoreF(engine::ArrayRef &arr, std::uint64_t i, double v);

    sim::Tick nowTick() const { return _now; }
    double nowNs() const { return static_cast<double>(_now) / 1000.0; }

    /** Compile a kernel without running it (tables/characteristics). */
    const compiler::OffloadPlan &compileOnly(
        const compiler::Kernel &kernel);

    /**
     * Run every verification pass over every kernel compiled so far,
     * against each plan's engine parameters, the run's fabric and the
     * invocation profiles recorded during the run (kernel-name
     * order). Profiles are recorded when config().recordProfiles is
     * set or a probe is attached; otherwise the analyses fall back to
     * static-only facts.
     */
    std::vector<verify::Report> analyzeAll() const;

    /** Collect final metrics (workload/validated filled by runner). */
    Metrics finish();

  private:
    struct CompiledKernel
    {
        /**
         * Owns the plan that runtime/host borrow; declared first so it
         * is destroyed after them.
         */
        std::shared_ptr<const compiler::OffloadPlan> plan;
        std::unique_ptr<offload::OffloadRuntime> runtime;
        std::unique_ptr<engine::HostExecutor> host;
        int probeTrack = -1; ///< per-kernel "invoke" span track
        verify::InvocationProfile profile;
        /**
         * Per-phase latency aggregation over this kernel's invocations;
         * add() asserts each record's conservation invariant.
         */
        offload::LifecycleStats lifecycle;
    };

    CompiledKernel &compiled(const compiler::Kernel &kernel);

    /**
     * The compile half of the compile→instantiate split: obtain an
     * immutable plan from a --plan-dir artifact or else the
     * process-wide PlanCache (which compiles on a miss), optionally
     * round-tripping it through the text artifact format, then run
     * verify::verifyPlan on it once under config().verifyOptions().
     * An artifact with errors is fatal (naming the file); any other
     * plan with errors panics ("static verification").
     */
    std::shared_ptr<const compiler::OffloadPlan> acquirePlan(
        const compiler::Kernel &kernel);
    void recordProfile(CompiledKernel &ck,
                       const compiler::Kernel &kernel,
                       const std::vector<engine::ArrayRef> &bindings,
                       const std::vector<compiler::Word> &params);
    /** Sample one invocation's record into the probe's dists. */
    void recordLifecycle(const offload::OffloadRecord &rec);

    System &_sys;
    RunConfig _config;
    sim::Probe *_probe;
    sim::ClockDomain _hostClock;
    sim::Tick _now = 0;
    std::map<std::string, CompiledKernel> _kernels;
    std::map<const compiler::Kernel *, std::string> _kernelNames;
    std::vector<std::pair<int, compiler::Word>> _lastResults;
    double _hostInsts = 0.0;
    double _accelInsts = 0.0;
    double _memOps = 0.0;
    double _hostMemOps = 0.0;
    double _planHits = 0.0;
    double _planMisses = 0.0;
    double _planCompileMs = 0.0;
    double _planSavedMs = 0.0;
};

} // namespace distda::driver

#endif // DISTDA_DRIVER_CONTEXT_HH
