#include "src/driver/config.hh"

#include <cerrno>
#include <cstdlib>

#include "src/sim/logging.hh"

namespace distda::driver
{

std::int64_t
parseInt(const std::string &text, const char *what)
{
    if (text.empty())
        fatal("%s: empty value where an integer is required", what);
    errno = 0;
    char *end = nullptr;
    const long long v = std::strtoll(text.c_str(), &end, 10);
    if (end == text.c_str() || *end != '\0')
        fatal("%s: '%s' is not an integer", what, text.c_str());
    if (errno == ERANGE)
        fatal("%s: '%s' out of range", what, text.c_str());
    return v;
}

double
parseDouble(const std::string &text, const char *what)
{
    if (text.empty())
        fatal("%s: empty value where a number is required", what);
    errno = 0;
    char *end = nullptr;
    const double v = std::strtod(text.c_str(), &end);
    if (end == text.c_str() || *end != '\0')
        fatal("%s: '%s' is not a number", what, text.c_str());
    if (errno == ERANGE)
        fatal("%s: '%s' out of range", what, text.c_str());
    return v;
}

BreakdownMode
parseBreakdownMode(const std::string &text, const char *what)
{
    if (text.empty() || text == "text")
        return BreakdownMode::Text;
    if (text == "json")
        return BreakdownMode::Json;
    if (text == "off")
        return BreakdownMode::Off;
    fatal("%s: '%s' is not a breakdown mode (text|json|off)", what,
          text.c_str());
    return BreakdownMode::Off; // unreachable
}

const char *
archModelName(ArchModel m)
{
    switch (m) {
      case ArchModel::OoO: return "OoO";
      case ArchModel::MonoCA: return "Mono-CA";
      case ArchModel::MonoDA_IO: return "Mono-DA-IO";
      case ArchModel::MonoDA_F: return "Mono-DA-F";
      case ArchModel::DistDA_IO: return "Dist-DA-IO";
      case ArchModel::DistDA_F: return "Dist-DA-F";
      case ArchModel::DistDA_IO_SW: return "Dist-DA-IO+SW";
      case ArchModel::DistDA_F_A: return "Dist-DA-F+A";
      default: panic("bad arch model %d", static_cast<int>(m));
    }
}

const std::vector<ArchModel> &
allArchModels()
{
    static const std::vector<ArchModel> models = {
        ArchModel::OoO,          ArchModel::MonoCA,
        ArchModel::MonoDA_IO,    ArchModel::MonoDA_F,
        ArchModel::DistDA_IO,    ArchModel::DistDA_F,
        ArchModel::DistDA_IO_SW, ArchModel::DistDA_F_A,
    };
    return models;
}

ArchModel
parseArchModel(const std::string &name)
{
    for (ArchModel m : allArchModels()) {
        if (name == archModelName(m))
            return m;
    }
    fatal("unknown config '%s' (try --list)", name.c_str());
}

std::vector<ArchModel>
headlineModels()
{
    return {ArchModel::OoO,       ArchModel::MonoCA,
            ArchModel::MonoDA_IO, ArchModel::MonoDA_F,
            ArchModel::DistDA_IO, ArchModel::DistDA_F};
}

compiler::CompileOptions
RunConfig::compileOptions() const
{
    compiler::CompileOptions opts;
    opts.partition = distributed();
    opts.swPrefetch = (model == ArchModel::DistDA_IO_SW);
    opts.enableCombining = !disableCombining;
    if (bufferBytesOverride)
        opts.bufferBytes = bufferBytesOverride;
    if (channelCapacityOverride)
        opts.channelCapacity = channelCapacityOverride;
    return opts;
}

engine::EngineConfig
RunConfig::engineConfig() const
{
    engine::EngineConfig cfg;
    cfg.kind = cgra() ? engine::ActorKind::Cgra
                      : engine::ActorKind::InOrder;
    double ghz = accelGHz;
    if (ghz <= 0.0)
        ghz = cgra() ? 1.0 : 2.0;
    cfg.accelClockHz = static_cast<std::uint64_t>(ghz * 1e9);
    cfg.issueWidth = (model == ArchModel::DistDA_IO_SW) ? 4 : 1;
    cfg.centralizedAccess = (model == ArchModel::MonoCA);
    cfg.distributedCompute = distributed();
    if (model == ArchModel::MonoCA) {
        // "Monolithic accelerator without area constraints": an
        // unconstrained engine on the L3 bus whose 2GHz clock (not
        // width) is its edge; each instruction costs several times a
        // minimal IO core's.
        cfg.instEnergyScale = 6.0;
    }
    cfg.privateCacheBytes =
        (model == ArchModel::MonoCA) ? 8 * 1024 : 0;
    cfg.fabric = (model == ArchModel::MonoDA_F)
                     ? cgra::CgraParams::large()
                     : cgra::CgraParams{};
    cfg.retainBuffers = !disableRetention;
    cfg.predecode = predecode;
    return cfg;
}

verify::Options
RunConfig::verifyOptions() const
{
    verify::Options opts;
    if (cgra())
        opts.fabric = engineConfig().fabric;
    return opts;
}

} // namespace distda::driver
