/**
 * @file
 * Energy-model tests: per-component accounting, conservation (the sum
 * of components equals the total), default-cost ratios that the
 * evaluation's normalized results rest on, and stat export.
 */

#include <gtest/gtest.h>

#include "src/energy/energy_model.hh"

using namespace distda;
using energy::Accountant;
using energy::Component;

TEST(Energy, AddEventsUsesPerComponentCosts)
{
    Accountant acct;
    acct.addEvents(Component::L1, 10.0);
    EXPECT_DOUBLE_EQ(acct.componentPj(Component::L1),
                     10.0 * acct.params().l1AccessPj);
    acct.addEvents(Component::Dram, 2.0);
    EXPECT_DOUBLE_EQ(acct.componentPj(Component::Dram),
                     2.0 * acct.params().dramLinePj);
}

TEST(Energy, TotalIsSumOfComponents)
{
    Accountant acct;
    acct.addEvents(Component::OoOCore, 100.0);
    acct.addEvents(Component::L1, 50.0);
    acct.addEvents(Component::Noc, 25.0);
    acct.add(Component::Buffer, 123.0);
    double sum = 0.0;
    for (std::size_t i = 0;
         i < static_cast<std::size_t>(Component::NumComponents); ++i)
        sum += acct.componentPj(static_cast<Component>(i));
    EXPECT_DOUBLE_EQ(acct.totalPj(), sum);
}

TEST(Energy, CostOrderingMatchesTechnology)
{
    // The normalized results rest on these ratios: DRAM >> L3 > L2 >
    // L1 > ACP > buffer, and OoO inst >> in-order inst >> CGRA op.
    const energy::EnergyParams p;
    EXPECT_GT(p.dramLinePj, 10.0 * p.l3AccessPj);
    EXPECT_GT(p.l3AccessPj, p.l2AccessPj);
    EXPECT_GT(p.l2AccessPj, p.l1AccessPj);
    EXPECT_GT(p.l1AccessPj, p.acpAccessPj);
    EXPECT_GT(p.acpAccessPj, p.bufferAccessPj);
    EXPECT_GT(p.oooPerInstPj, 5.0 * p.ioPerInstPj);
    EXPECT_GT(p.ioPerInstPj, 3.0 * p.cgraPerOpPj);
}

TEST(Energy, ComponentNamesAreUnique)
{
    std::set<std::string> names;
    for (std::size_t i = 0;
         i < static_cast<std::size_t>(Component::NumComponents); ++i)
        names.insert(
            energy::componentName(static_cast<Component>(i)));
    EXPECT_EQ(names.size(),
              static_cast<std::size_t>(Component::NumComponents));
}

TEST(Energy, ExportIncludesTotal)
{
    Accountant acct;
    acct.addEvents(Component::Mmio, 3.0);
    stats::Group g("sys");
    acct.exportStats(g);
    EXPECT_DOUBLE_EQ(g.get("energy_pj.mmio").value(),
                     3.0 * acct.params().mmioPj);
    EXPECT_DOUBLE_EQ(g.get("energy_pj.total").value(), acct.totalPj());
}

TEST(Energy, CustomParamsRespected)
{
    energy::EnergyParams p;
    p.l1AccessPj = 999.0;
    Accountant acct(p);
    acct.addEvents(Component::L1, 1.0);
    EXPECT_DOUBLE_EQ(acct.componentPj(Component::L1), 999.0);
}
