/**
 * @file
 * In-memory span recorder for the traced run. Each span has a name,
 * host start and end times, the span that encloses it and the job it
 * belongs to. Spans stay in memory and are written once, at exit, in
 * the Chrome trace-event format that distda_run --timeline also emits.
 */

#ifndef PERFBENCH_SPANS_HH
#define PERFBENCH_SPANS_HH

#include <chrono>
#include <cstddef>
#include <cstdint>
#include <map>
#include <string>
#include <vector>

namespace perfbench
{

class Tracer
{
  public:
    Tracer();

    /** Open a span inside the innermost open one; returns its id. */
    int begin(const char *name, int job);
    /** Close span @p id, which must be the innermost open span. */
    void end(int id);

    std::size_t size() const { return _spans.size(); }

    /**
     * Self time in ms (duration minus the durations of direct child
     * spans) summed by span name over spans [@p first, @p last).
     */
    std::map<std::string, double> selfMs(std::size_t first,
                                         std::size_t last) const;

    /** Write every span as a Chrome trace "X" event. */
    bool writeChromeTrace(const std::string &path) const;

  private:
    struct Span
    {
        const char *name = "";
        std::int64_t startNs = 0;
        std::int64_t endNs = 0;
        int parent = -1;
        int job = -1;
    };

    std::int64_t nowNs() const;

    std::chrono::steady_clock::time_point _origin;
    std::vector<Span> _spans;
    std::vector<int> _open;
};

/** Span that closes when the scope ends, exceptions included. */
class ScopedSpan
{
  public:
    ScopedSpan(Tracer &tracer, const char *name, int job)
        : _tracer(tracer), _id(tracer.begin(name, job))
    {
    }
    ~ScopedSpan() { _tracer.end(_id); }

    ScopedSpan(const ScopedSpan &) = delete;
    ScopedSpan &operator=(const ScopedSpan &) = delete;

  private:
    Tracer &_tracer;
    int _id;
};

} // namespace perfbench

#endif // PERFBENCH_SPANS_HH
