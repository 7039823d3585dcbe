#include "src/mem/dram.hh"

#include <algorithm>

#include "src/sim/logging.hh"

namespace distda::mem
{

Dram::Dram(const DramParams &params, energy::Accountant *acct)
    : _params(params), _acct(acct),
      _openRow(static_cast<std::size_t>(params.banks), -1),
      _bankBusyUntil(static_cast<std::size_t>(params.banks), 0)
{
    if (params.banks < 1)
        fatal("dram needs at least one bank");
    _rowBytes = sim::Divisor(params.rowBytes);
    _banks = sim::Divisor(static_cast<std::uint64_t>(params.banks));
    _lineXfer = static_cast<sim::Tick>(
        static_cast<double>(lineBytes) / params.busBytesPerNs * 1000.0);
}

sim::Tick
Dram::access(Addr addr, bool write, sim::Tick now)
{
    const std::uint64_t row_num = _rowBytes.div(addr);
    const auto row = static_cast<std::int64_t>(row_num);
    const auto bank = static_cast<std::size_t>(_banks.mod(row_num));

    sim::Tick start = std::max(now, _bankBusyUntil[bank]);
    sim::Tick access_lat = 0;
    if (_openRow[bank] == row) {
        access_lat = _params.tCl;
        _rowHits += 1.0;
    } else {
        access_lat = _params.tRp + _params.tRcd + _params.tCl;
        _rowMisses += 1.0;
        _openRow[bank] = row;
    }

    // Line transfer over the shared bus.
    sim::Tick bus_start = std::max(start + access_lat, _busBusyUntil);
    sim::Tick done = bus_start + _lineXfer;

    _bankBusyUntil[bank] = start + access_lat;
    _busBusyUntil = done;

    if (write)
        _writes += 1.0;
    else
        _reads += 1.0;
    if (_acct)
        _acct->addEvents(energy::Component::Dram, 1.0);

    return done - now;
}

void
Dram::exportStats(stats::Group &group) const
{
    group.add("dram.reads") = _reads;
    group.add("dram.writes") = _writes;
    group.add("dram.row_hits") = _rowHits;
    group.add("dram.row_misses") = _rowMisses;
}

} // namespace distda::mem
