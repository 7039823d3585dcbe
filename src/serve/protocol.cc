#include "src/serve/protocol.hh"

#include <cmath>

#include "src/sim/json.hh"
#include "src/sim/logging.hh"

namespace distda::serve
{

namespace
{

/** Fail with a message naming the offending member. */
bool
schemaError(std::string &err, const std::string &what)
{
    err = what;
    return false;
}

bool
wantBool(const sim::JsonValue &v, const std::string &key, bool &out,
         std::string &err)
{
    if (v.kind != sim::JsonValue::Kind::Bool)
        return schemaError(err, "member '" + key + "' must be a boolean");
    out = v.b;
    return true;
}

bool
wantNumber(const sim::JsonValue &v, const std::string &key, double &out,
           std::string &err)
{
    if (!v.isNumber())
        return schemaError(err, "member '" + key + "' must be a number");
    out = v.num;
    return true;
}

bool
wantCount(const sim::JsonValue &v, const std::string &key,
          std::uint64_t &out, std::string &err)
{
    double num = 0.0;
    if (!wantNumber(v, key, num, err))
        return false;
    if (num < 0.0 || num != std::floor(num) || num > 1e18) {
        return schemaError(err, "member '" + key +
                                    "' must be a non-negative integer");
    }
    out = static_cast<std::uint64_t>(num);
    return true;
}

/** Parse the "config" member (object, or model-name shorthand). */
bool
parseConfig(const sim::JsonValue &v, driver::RunConfig &cfg,
            std::string &err)
{
    if (v.isString()) {
        // Shorthand: just the architecture model name.
        try {
            ScopedFailureCapture capture;
            cfg.model = driver::parseArchModel(v.str);
        } catch (const SimFailure &e) {
            return schemaError(err, e.what());
        }
        return true;
    }
    if (!v.isObject())
        return schemaError(
            err, "member 'config' must be an object or a model name");

    bool have_model = false;
    for (const auto &[key, member] : v.obj) {
        if (key == "model") {
            if (!member.isString())
                return schemaError(err,
                                   "member 'model' must be a string");
            try {
                ScopedFailureCapture capture;
                cfg.model = driver::parseArchModel(member.str);
            } catch (const SimFailure &e) {
                return schemaError(err, e.what());
            }
            have_model = true;
        } else if (key == "ghz") {
            double ghz = 0.0;
            if (!wantNumber(member, key, ghz, err))
                return false;
            if (ghz < 0.0 || ghz > 100.0)
                return schemaError(err, "member 'ghz' out of range");
            cfg.accelGHz = ghz;
        } else if (key == "no_combining") {
            if (!wantBool(member, key, cfg.disableCombining, err))
                return false;
        } else if (key == "no_retention") {
            if (!wantBool(member, key, cfg.disableRetention, err))
                return false;
        } else if (key == "buffer_bytes") {
            std::uint64_t bytes = 0;
            if (!wantCount(member, key, bytes, err))
                return false;
            if (bytes > (1ULL << 32))
                return schemaError(err,
                                   "member 'buffer_bytes' out of range");
            cfg.bufferBytesOverride =
                static_cast<std::uint32_t>(bytes);
        } else if (key == "channel_capacity") {
            std::uint64_t cap = 0;
            if (!wantCount(member, key, cap, err))
                return false;
            if (cap > (1ULL << 20))
                return schemaError(
                    err, "member 'channel_capacity' out of range");
            cfg.channelCapacityOverride = static_cast<int>(cap);
        } else {
            return schemaError(err,
                               "unknown config member '" + key + "'");
        }
    }
    if (!have_model)
        return schemaError(err, "config is missing required 'model'");
    return true;
}

} // namespace

bool
parseServeRequest(const std::string &line, ServeRequest &out,
                  std::string &err)
{
    out = ServeRequest{};
    sim::JsonValue doc;
    if (!sim::tryParseJson(line, doc, err))
        return false;
    if (!doc.isObject())
        return schemaError(err, "request must be a JSON object");

    // Pull the id first so schema errors can echo it.
    if (const sim::JsonValue *id = doc.find("id")) {
        if (!wantCount(*id, "id", out.id, err))
            return false;
    }

    bool have_workload = false, have_config = false;
    for (const auto &[key, member] : doc.obj) {
        if (key == "id") {
            continue; // handled above
        } else if (key == "workload") {
            if (!member.isString())
                return schemaError(
                    err, "member 'workload' must be a string");
            out.workload = member.str;
            have_workload = true;
        } else if (key == "config") {
            if (!parseConfig(member, out.config, err))
                return false;
            have_config = true;
        } else if (key == "scale") {
            if (!wantNumber(member, key, out.scale, err))
                return false;
            if (!std::isfinite(out.scale) || out.scale <= 0.0)
                return schemaError(err, "member 'scale' must be > 0");
        } else if (key == "probe") {
            if (!wantBool(member, key, out.probe, err))
                return false;
        } else {
            return schemaError(err,
                               "unknown request member '" + key + "'");
        }
    }
    if (!have_workload)
        return schemaError(err, "request is missing required 'workload'");
    if (!have_config)
        return schemaError(err, "request is missing required 'config'");
    return true;
}

std::string
buildRequestLine(const ServeRequest &req)
{
    sim::JsonWriter w;
    w.beginObject();
    w.key("id").value(req.id);
    w.key("workload").value(req.workload);
    w.key("config").beginObject();
    w.key("model").value(driver::archModelName(req.config.model));
    w.key("ghz").value(req.config.accelGHz);
    w.key("no_combining").value(req.config.disableCombining);
    w.key("no_retention").value(req.config.disableRetention);
    w.key("buffer_bytes")
        .value(static_cast<std::uint64_t>(req.config.bufferBytesOverride));
    w.key("channel_capacity")
        .value(static_cast<std::int64_t>(
            req.config.channelCapacityOverride));
    w.endObject();
    w.key("scale").value(req.scale);
    w.key("probe").value(req.probe);
    w.endObject();
    return w.str();
}

std::string
buildErrorResponse(std::uint64_t id, const char *kind,
                   const std::string &message)
{
    sim::JsonWriter w;
    w.beginObject();
    w.key("id").value(id);
    w.key("ok").value(false);
    w.key("kind").value(kind);
    w.key("error").value(message);
    w.endObject();
    return w.str();
}

std::string
buildRunResponse(const ServeRequest &req,
                 const driver::Metrics &metrics,
                 const std::string &report, double run_ms,
                 const compiler::PlanCache::Stats &cache)
{
    sim::JsonWriter w;
    w.beginObject();
    w.key("id").value(req.id);
    w.key("ok").value(true);
    w.key("workload").value(metrics.workload);
    w.key("config").value(metrics.config);
    w.key("service").beginObject();
    w.key("run_ms").value(run_ms);
    w.key("plan_cache_hits").value(metrics.planCacheHits);
    w.key("plan_cache_misses").value(metrics.planCacheMisses);
    w.endObject();
    w.key("server").beginObject();
    w.key("plan_cache").beginObject();
    w.key("hits").value(cache.hits);
    w.key("misses").value(cache.misses);
    w.key("evictions").value(cache.evictions);
    w.key("entries").value(static_cast<std::uint64_t>(cache.entries));
    w.key("capacity").value(static_cast<std::uint64_t>(cache.capacity));
    w.key("hit_rate").value(cache.hitRate());
    w.endObject();
    w.endObject();
    if (report.empty())
        w.key("report").nullValue();
    else
        w.key("report").rawValue(report);
    w.endObject();
    return w.str();
}

} // namespace distda::serve
