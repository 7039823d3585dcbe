#include "perfbench/spans.hh"

#include "src/sim/json.hh"
#include "src/sim/logging.hh"

namespace perfbench
{

Tracer::Tracer() : _origin(std::chrono::steady_clock::now()) {}

std::int64_t
Tracer::nowNs() const
{
    return std::chrono::duration_cast<std::chrono::nanoseconds>(
               std::chrono::steady_clock::now() - _origin)
        .count();
}

int
Tracer::begin(const char *name, int job)
{
    Span s;
    s.name = name;
    s.parent = _open.empty() ? -1 : _open.back();
    s.job = job;
    const int id = static_cast<int>(_spans.size());
    _open.push_back(id);
    // Read the clock last so the bookkeeping above is not charged to
    // the span.
    s.startNs = nowNs();
    _spans.push_back(s);
    return id;
}

void
Tracer::end(int id)
{
    const std::int64_t t = nowNs();
    DISTDA_ASSERT(!_open.empty() && _open.back() == id,
                  "span %d closed out of order", id);
    _open.pop_back();
    _spans[static_cast<std::size_t>(id)].endNs = t;
}

std::map<std::string, double>
Tracer::selfMs(std::size_t first, std::size_t last) const
{
    std::vector<std::int64_t> self(last - first);
    for (std::size_t i = first; i < last; ++i) {
        const Span &s = _spans[i];
        const std::int64_t dur = s.endNs - s.startNs;
        self[i - first] += dur;
        if (s.parent >= 0 && static_cast<std::size_t>(s.parent) >= first)
            self[static_cast<std::size_t>(s.parent) - first] -= dur;
    }
    std::map<std::string, double> out;
    for (std::size_t i = first; i < last; ++i)
        out[_spans[i].name] += static_cast<double>(self[i - first]) / 1e6;
    return out;
}

bool
Tracer::writeChromeTrace(const std::string &path) const
{
    distda::sim::JsonWriter w;
    w.beginObject();
    w.key("displayTimeUnit").value("ns");
    w.key("traceEvents").beginArray();
    for (std::size_t i = 0; i < _spans.size(); ++i) {
        const Span &s = _spans[i];
        w.beginObject();
        w.key("ph").value("X");
        w.key("name").value(s.name);
        w.key("cat").value("perfbench");
        w.key("pid").value(0);
        w.key("tid").value(0);
        w.key("ts").value(static_cast<double>(s.startNs) / 1e3);
        w.key("dur").value(static_cast<double>(s.endNs - s.startNs) / 1e3);
        w.key("args").beginObject();
        w.key("id").value(static_cast<std::int64_t>(i));
        w.key("parent").value(s.parent);
        w.key("job").value(s.job);
        w.endObject();
        w.endObject();
    }
    w.endArray();
    w.endObject();
    return distda::sim::writeTextFile(path, w.str());
}

} // namespace perfbench
