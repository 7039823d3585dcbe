#include "src/energy/energy_model.hh"

#include "src/sim/logging.hh"

namespace distda::energy
{

const char *
componentName(Component c)
{
    switch (c) {
      case Component::OoOCore: return "ooo_core";
      case Component::IOCore: return "io_core";
      case Component::Cgra: return "cgra";
      case Component::L1: return "l1";
      case Component::L2: return "l2";
      case Component::L3: return "l3";
      case Component::Dram: return "dram";
      case Component::Buffer: return "buffer";
      case Component::Noc: return "noc";
      case Component::Mmio: return "mmio";
      case Component::Acp: return "acp";
      default: panic("bad energy component %d", static_cast<int>(c));
    }
}

Accountant::Accountant(const EnergyParams &params) : _params(params)
{
    const auto idx = [](Component c) {
        return static_cast<std::size_t>(c);
    };
    _perEvent[idx(Component::OoOCore)] = _params.oooPerInstPj;
    _perEvent[idx(Component::IOCore)] = _params.ioPerInstPj;
    _perEvent[idx(Component::Cgra)] = _params.cgraPerOpPj;
    _perEvent[idx(Component::L1)] = _params.l1AccessPj;
    _perEvent[idx(Component::L2)] = _params.l2AccessPj;
    _perEvent[idx(Component::L3)] = _params.l3AccessPj;
    _perEvent[idx(Component::Dram)] = _params.dramLinePj;
    _perEvent[idx(Component::Buffer)] = _params.bufferAccessPj;
    _perEvent[idx(Component::Noc)] = _params.nocHopFlitPj;
    _perEvent[idx(Component::Mmio)] = _params.mmioPj;
    _perEvent[idx(Component::Acp)] = _params.acpAccessPj;
}

double
Accountant::totalPj() const
{
    double total = 0.0;
    for (double v : _perComponent)
        total += v;
    return total;
}

void
Accountant::exportStats(stats::Group &group) const
{
    for (std::size_t i = 0;
         i < static_cast<std::size_t>(Component::NumComponents); ++i) {
        group.add(std::string("energy_pj.") +
                  componentName(static_cast<Component>(i))) =
            _perComponent[i];
    }
    group.add("energy_pj.total") = totalPj();
}

} // namespace distda::energy
