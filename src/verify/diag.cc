#include "src/verify/diag.hh"

#include <cstdarg>
#include <sstream>

#include "src/sim/json.hh"
#include "src/sim/logging.hh"

namespace distda::verify
{

const char *
severityName(Severity s)
{
    switch (s) {
      case Severity::Warning: return "warning";
      case Severity::Error: return "error";
      default: return "?";
    }
}

std::string
Diag::str() const
{
    return strfmt("%s [%s] %s: %s", severityName(severity), pass.c_str(),
                  location.c_str(), message.c_str());
}

void
Report::add(Severity severity, const std::string &pass,
            const std::string &location, const char *fmt, ...)
{
    va_list ap;
    va_start(ap, fmt);
    Diag d;
    d.severity = severity;
    d.pass = pass;
    d.location = location;
    d.message = vstrfmt(fmt, ap);
    va_end(ap);
    _diags.push_back(std::move(d));
}

int
Report::errorCount() const
{
    int n = 0;
    for (const Diag &d : _diags)
        n += d.severity == Severity::Error;
    return n;
}

int
Report::warningCount() const
{
    int n = 0;
    for (const Diag &d : _diags)
        n += d.severity == Severity::Warning;
    return n;
}

bool
Report::mentions(const std::string &needle) const
{
    for (const Diag &d : _diags) {
        if (d.message.find(needle) != std::string::npos)
            return true;
    }
    return false;
}

bool
Report::hasErrorFrom(const std::string &pass) const
{
    for (const Diag &d : _diags) {
        if (d.severity == Severity::Error && d.pass == pass)
            return true;
    }
    return false;
}

std::string
Report::firstError() const
{
    for (const Diag &d : _diags) {
        if (d.severity == Severity::Error)
            return d.str();
    }
    return {};
}

std::string
Report::str() const
{
    std::string out;
    for (const Diag &d : _diags) {
        out += d.str();
        out += '\n';
    }
    return out;
}

const char *
verdictName(Verdict v)
{
    switch (v) {
      case Verdict::Proven: return "proven";
      case Verdict::Unknown: return "unknown";
      case Verdict::Violated: return "violated";
      default: return "?";
    }
}

const char *
purityClassName(PurityClass c)
{
    switch (c) {
      case PurityClass::Pure: return "pure";
      case PurityClass::Idempotent: return "idempotent";
      case PurityClass::Stateful: return "stateful";
      default: return "?";
    }
}

int
Report::boundsCount(Verdict v) const
{
    int n = 0;
    for (const BoundsFact &f : bounds)
        n += f.verdict == v ? 1 : 0;
    return n;
}

void
Report::jsonFields(sim::JsonWriter &w) const
{
    w.key("kernel").value(kernel);
    w.key("errors").value(errorCount());
    w.key("warnings").value(warningCount());
    w.key("diagnostics").beginArray();
    for (const Diag &d : _diags) {
        w.beginObject();
        w.key("severity").value(severityName(d.severity));
        w.key("pass").value(d.pass);
        w.key("location").value(d.location);
        w.key("message").value(d.message);
        w.endObject();
    }
    w.endArray();

    w.key("bounds").beginObject();
    w.key("proven").value(boundsCount(Verdict::Proven));
    w.key("unknown").value(boundsCount(Verdict::Unknown));
    w.key("violated").value(boundsCount(Verdict::Violated));
    w.key("accesses").beginArray();
    for (const BoundsFact &f : bounds) {
        w.beginObject();
        w.key("node").value(f.node);
        w.key("partition").value(f.partition);
        w.key("object").value(f.objId);
        w.key("affine").value(f.affine);
        w.key("store").value(f.store);
        w.key("verdict").value(verdictName(f.verdict));
        if (f.rangeKnown) {
            w.key("lo").value(f.lo);
            w.key("hi").value(f.hi);
        }
        w.key("object_elems").value(f.objectElems);
        w.endObject();
    }
    w.endArray();
    w.endObject();

    w.key("channels").beginObject();
    w.key("deadlock_free").value(verdictName(deadlockFree));
    w.key("channels").beginArray();
    for (const ChannelFact &f : channels) {
        w.beginObject();
        w.key("id").value(f.channel);
        w.key("tokens_per_iter").value(f.tokensPerIter);
        w.key("min_safe_capacity").value(f.minSafeCapacity);
        w.key("configured_capacity").value(f.configuredCapacity);
        w.endObject();
    }
    w.endArray();
    w.endObject();

    w.key("purity").beginObject();
    w.key("class").value(purityClassName(purity.cls));
    w.key("memoizable").value(purity.memoizable);
    w.key("reads").beginArray();
    for (int o : purity.readObjects)
        w.value(o);
    w.endArray();
    w.key("writes").beginArray();
    for (int o : purity.writtenObjects)
        w.value(o);
    w.endArray();
    w.endObject();
}

std::string
Report::factsStr() const
{
    std::ostringstream out;
    out << "kernel '" << kernel << "':\n";
    out << "  bounds: " << boundsCount(Verdict::Proven) << " proven, "
        << boundsCount(Verdict::Unknown) << " unknown, "
        << boundsCount(Verdict::Violated) << " violated of "
        << bounds.size() << " access(es)\n";
    for (const BoundsFact &f : bounds) {
        out << "    node " << f.node << " partition " << f.partition
            << (f.store ? " store " : " load ")
            << (f.affine ? "affine" : "indirect") << " obj "
            << f.objId << ": " << verdictName(f.verdict);
        if (f.rangeKnown)
            out << " [" << f.lo << ", " << f.hi << "] of "
                << f.objectElems;
        out << '\n';
    }
    out << "  channels: deadlock-free " << verdictName(deadlockFree);
    if (!channels.empty()) {
        out << "; min safe capacities";
        for (const ChannelFact &f : channels)
            out << " ch" << f.channel << "=" << f.minSafeCapacity;
    }
    out << '\n';
    out << "  purity: " << purityClassName(purity.cls)
        << (purity.memoizable ? " (memoizable)" : " (not memoizable)")
        << ", reads " << purity.readObjects.size() << ", writes "
        << purity.writtenObjects.size() << " object(s)\n";
    return out.str();
}

} // namespace distda::verify
