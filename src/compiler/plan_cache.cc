#include "src/compiler/plan_cache.hh"

#include <chrono>

#include "src/compiler/plan_io.hh"

namespace distda::compiler
{

namespace
{

using Clock = std::chrono::steady_clock;

double
msSince(Clock::time_point t0)
{
    return std::chrono::duration<double, std::milli>(Clock::now() - t0)
        .count();
}

} // namespace

PlanCache &
PlanCache::process()
{
    static PlanCache cache;
    return cache;
}

PlanCache::Lookup
PlanCache::getOrCompile(const Kernel &kernel, const CompileOptions &opts)
{
    const std::string fp = planFingerprint(kernel, opts);
    Lookup result;
    {
        std::lock_guard<std::mutex> lk(_mu);
        auto it = _entries.find(fp);
        if (it != _entries.end()) {
            ++_stats.hits;
            _stats.savedMs += it->second.compileMs;
            result.plan = it->second.plan;
            result.hit = true;
            result.savedMs = it->second.compileMs;
            return result;
        }
    }

    // Compile outside the lock: misses on distinct kernels from
    // concurrent sweep workers must not serialize on the cache.
    const auto t0 = Clock::now();
    auto plan = std::make_shared<const OffloadPlan>(
        compileKernel(kernel, opts));
    result.compileMs = msSince(t0);

    std::lock_guard<std::mutex> lk(_mu);
    ++_stats.misses;
    _stats.compileMs += result.compileMs;
    auto it = _entries.find(fp);
    if (it != _entries.end()) {
        // A concurrent miss inserted first; use its (identical) plan
        // so every holder shares one instance.
        result.plan = it->second.plan;
        return result;
    }
    _entries.emplace(fp, Entry{plan, result.compileMs});
    _order.push_back(fp);
    evictLocked();
    result.plan = std::move(plan);
    return result;
}

void
PlanCache::insert(std::shared_ptr<const OffloadPlan> plan)
{
    if (!plan || plan->fingerprint.empty())
        return;
    const std::string fp = plan->fingerprint;
    std::lock_guard<std::mutex> lk(_mu);
    if (_entries.count(fp))
        return;
    _order.push_back(fp);
    _entries.emplace(fp, Entry{std::move(plan), 0.0});
    evictLocked();
}

PlanCache::Stats
PlanCache::stats() const
{
    std::lock_guard<std::mutex> lk(_mu);
    Stats s = _stats;
    s.entries = _entries.size();
    s.capacity = _capacity;
    return s;
}

void
PlanCache::clear()
{
    std::lock_guard<std::mutex> lk(_mu);
    _entries.clear();
    _order.clear();
    _stats = Stats{};
}

void
PlanCache::setCapacity(std::size_t capacity)
{
    std::lock_guard<std::mutex> lk(_mu);
    _capacity = capacity > 0 ? capacity : 1;
    evictLocked();
}

void
PlanCache::evictLocked()
{
    while (_entries.size() > _capacity && !_order.empty()) {
        _entries.erase(_order.front());
        _order.pop_front();
        ++_stats.evictions;
    }
}

} // namespace distda::compiler
