/**
 * @file
 * LPDDR main-memory model (Table III: "LPDDR 2GB").
 *
 * Models per-bank row buffers (open-page policy), bank busy times and a
 * shared data bus; latencies follow typical LPDDR4-class timings. All
 * requests are cache-line (64B) granularity.
 */

#ifndef DISTDA_MEM_DRAM_HH
#define DISTDA_MEM_DRAM_HH

#include <cstdint>
#include <vector>

#include "src/energy/energy_model.hh"
#include "src/mem/addr.hh"
#include "src/sim/divisor.hh"
#include "src/sim/stats.hh"
#include "src/sim/ticks.hh"

namespace distda::mem
{

/** DRAM timing/geometry parameters. */
struct DramParams
{
    std::uint64_t capacityBytes = 2ULL << 30; ///< 2GB
    int banks = 8;
    std::uint32_t rowBytes = 2048;
    sim::Tick tRcd = 18'000;  ///< row activate, ps
    sim::Tick tRp = 18'000;   ///< precharge, ps
    sim::Tick tCl = 15'000;   ///< CAS, ps
    double busBytesPerNs = 12.8; ///< shared data bus bandwidth
};

/** Open-page LPDDR model. */
class Dram
{
  public:
    Dram(const DramParams &params, energy::Accountant *acct);

    /**
     * Access one 64B line at @p addr.
     * @return total latency in ticks from @p now.
     */
    sim::Tick access(Addr addr, bool write, sim::Tick now);

    double reads() const { return _reads; }
    double writes() const { return _writes; }
    double rowHits() const { return _rowHits; }
    double rowMisses() const { return _rowMisses; }

    void exportStats(stats::Group &group) const;

  private:
    DramParams _params;
    energy::Accountant *_acct;
    sim::Divisor _rowBytes;
    sim::Divisor _banks;
    sim::Tick _lineXfer = 0; ///< one line over the shared bus
    std::vector<std::int64_t> _openRow;  ///< per-bank open row (-1 none)
    std::vector<sim::Tick> _bankBusyUntil;
    sim::Tick _busBusyUntil = 0;
    double _reads = 0, _writes = 0, _rowHits = 0, _rowMisses = 0;
};

} // namespace distda::mem

#endif // DISTDA_MEM_DRAM_HH
