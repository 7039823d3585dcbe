/**
 * @file
 * Dynamic-energy accounting in the spirit of McPAT/Cacti at 32nm.
 *
 * The evaluation reports *normalized* energy efficiency, so what matters
 * is that per-event costs sit in the right ratios: DRAM access >> L3
 * bank >> L2 >> L1 >> access-unit SRAM buffer >> ALU op, and an OoO
 * instruction (fetch/decode/rename/ROB/issue overheads included) costs
 * several times an in-order instruction, which in turn costs several
 * times a bare CGRA PE operation.
 */

#ifndef DISTDA_ENERGY_ENERGY_MODEL_HH
#define DISTDA_ENERGY_ENERGY_MODEL_HH

#include <array>
#include <cstdint>
#include <string>

#include "src/sim/stats.hh"

namespace distda::energy
{

/** System components that consume dynamic energy. */
enum class Component : std::uint8_t
{
    OoOCore,     ///< host out-of-order pipeline
    IOCore,      ///< in-order accelerator core
    Cgra,        ///< CGRA fabric PEs and local routing
    L1,          ///< private L1 data cache
    L2,          ///< private L2 cache
    L3,          ///< one NUCA L3 bank access
    Dram,        ///< LPDDR access
    Buffer,      ///< access-unit SRAM buffer access
    Noc,         ///< on-chip network hop traversal
    Mmio,        ///< host-side MMIO intrinsic issue
    Acp,         ///< accelerator coherency port access
    NumComponents
};

/** Human-readable component name, for stat registration. */
const char *componentName(Component c);

/**
 * Per-event energy costs in picojoules. Defaults approximate 32nm
 * McPAT/Cacti values for the Table III configuration.
 */
struct EnergyParams
{
    double oooPerInstPj = 320.0;    ///< full OoO pipeline per instruction
    double ioPerInstPj = 38.0;      ///< 1-issue in-order per instruction
    double cgraPerOpPj = 7.0;       ///< single PE operation + fabric hop
    double l1AccessPj = 30.0;       ///< 32KB 8-way per access
    double l2AccessPj = 80.0;       ///< 128KB 16-way per access
    double l3AccessPj = 180.0;      ///< 256KB bank per access
    double dramLinePj = 18000.0;    ///< LPDDR 64B line transfer
    double bufferAccessPj = 3.0;    ///< 4KB SRAM buffer, 8B access
    double nocHopFlitPj = 19.0;     ///< 8B flit: router + 2mm link
    double mmioPj = 200.0;          ///< uncached MMIO intrinsic
    double acpAccessPj = 8.0;       ///< 1KB ACP front-end access
};

/**
 * Accumulates dynamic energy per component. One Accountant exists per
 * simulated system; components hold a pointer and charge events.
 */
class Accountant
{
  public:
    explicit Accountant(const EnergyParams &params = EnergyParams{});

    const EnergyParams &params() const { return _params; }

    /** Charge @p pj picojoules to component @p c. */
    void
    add(Component c, double pj)
    {
        _perComponent[static_cast<std::size_t>(c)] += pj;
    }

    /**
     * Charge n events at the default per-event cost of @p c. Hot on
     * the simulation critical path (one call per modeled instruction
     * and cache access), so the per-event costs are pre-resolved into
     * a table at construction and the charge stays inline.
     */
    void
    addEvents(Component c, double n)
    {
        add(c, _perEvent[static_cast<std::size_t>(c)] * n);
    }

    /**
     * Direct access to one component's running total and per-event
     * cost, for a caller that keeps a run of charges in a register and
     * stores the total back (PartitionActor::runPredecoded). That is
     * the same sequence of adds as calling addEvents() each time, so
     * it is exact only while nothing else charges @p c in between.
     */
    struct Tally
    {
        double *totalPj;
        double perEventPj;
    };
    Tally
    tally(Component c)
    {
        const auto idx = static_cast<std::size_t>(c);
        return Tally{&_perComponent[idx], _perEvent[idx]};
    }

    /** Energy so far for one component, in picojoules. */
    double
    componentPj(Component c) const
    {
        return _perComponent[static_cast<std::size_t>(c)];
    }

    /** Total energy across all components, in picojoules. */
    double totalPj() const;

    /** Export per-component totals into @p group. */
    void exportStats(stats::Group &group) const;

  private:
    EnergyParams _params;
    std::array<double, static_cast<std::size_t>(Component::NumComponents)>
        _perComponent{};
    std::array<double, static_cast<std::size_t>(Component::NumComponents)>
        _perEvent{};
};

} // namespace distda::energy

#endif // DISTDA_ENERGY_ENERGY_MODEL_HH
