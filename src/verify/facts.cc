#include "src/verify/facts.hh"

#include <sstream>

#include "src/sim/json.hh"

namespace distda::verify
{

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
FactStore::boundsCount(Verdict v) const
{
    int n = 0;
    for (const BoundsFact &f : bounds)
        n += f.verdict == v ? 1 : 0;
    return n;
}

int
FactStore::violations() const
{
    int n = boundsCount(Verdict::Violated);
    n += deadlockFree == Verdict::Violated ? 1 : 0;
    return n;
}

void
FactStore::json(sim::JsonWriter &w) const
{
    w.beginObject();
    w.key("kernel").value(kernel);

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

    w.endObject();
}

std::string
FactStore::str() const
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
