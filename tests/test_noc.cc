/**
 * @file
 * Unit tests for the mesh NoC: XY routing properties over every node
 * pair, latency/serialization behaviour, traffic-class byte
 * conservation and the energy charge per flit-hop.
 */

#include <gtest/gtest.h>

#include "src/noc/mesh.hh"

using namespace distda;

namespace
{

noc::Mesh
makeMesh(energy::Accountant *acct)
{
    return noc::Mesh(noc::MeshParams{}, acct);
}

} // namespace

TEST(Mesh, HopCountIsManhattanDistance)
{
    energy::Accountant acct;
    auto mesh = makeMesh(&acct);
    for (int a = 0; a < 8; ++a) {
        for (int b = 0; b < 8; ++b) {
            const int ax = a % 4, ay = a / 4;
            const int bx = b % 4, by = b / 4;
            EXPECT_EQ(mesh.hops(a, b),
                      std::abs(ax - bx) + std::abs(ay - by));
            EXPECT_EQ(mesh.hops(a, b), mesh.hops(b, a));
        }
    }
}

TEST(Mesh, LocalDeliveryIsFree)
{
    energy::Accountant acct;
    auto mesh = makeMesh(&acct);
    auto r = mesh.transfer(3, 3, 64, noc::TrafficClass::Data, 0);
    EXPECT_EQ(r.latency, 0u);
    EXPECT_EQ(r.hops, 0);
    // Bytes are still accounted (the class totals feed Fig 9/10).
    EXPECT_DOUBLE_EQ(mesh.bytesInClass(noc::TrafficClass::Data), 64.0);
    EXPECT_DOUBLE_EQ(acct.componentPj(energy::Component::Noc), 0.0);
}

TEST(Mesh, LatencyGrowsWithDistanceAndSize)
{
    energy::Accountant acct;
    auto mesh = makeMesh(&acct);
    const auto near = mesh.transfer(0, 1, 8, noc::TrafficClass::Data,
                                    0);
    const auto far = mesh.transfer(0, 7, 8, noc::TrafficClass::Data,
                                   1000000);
    EXPECT_GT(far.latency, near.latency);
    const auto small = mesh.transfer(0, 1, 8, noc::TrafficClass::Data,
                                     2000000);
    const auto big = mesh.transfer(0, 1, 512, noc::TrafficClass::Data,
                                   3000000);
    EXPECT_GT(big.latency, small.latency);
}

TEST(Mesh, ClassesAccountedSeparately)
{
    energy::Accountant acct;
    auto mesh = makeMesh(&acct);
    mesh.transfer(0, 1, 10, noc::TrafficClass::Ctrl, 0);
    mesh.transfer(0, 1, 20, noc::TrafficClass::Data, 0);
    mesh.transfer(0, 1, 30, noc::TrafficClass::AccCtrl, 0);
    mesh.transfer(0, 1, 40, noc::TrafficClass::AccData, 0);
    EXPECT_DOUBLE_EQ(mesh.bytesInClass(noc::TrafficClass::Ctrl), 10.0);
    EXPECT_DOUBLE_EQ(mesh.bytesInClass(noc::TrafficClass::Data), 20.0);
    EXPECT_DOUBLE_EQ(mesh.bytesInClass(noc::TrafficClass::AccCtrl),
                     30.0);
    EXPECT_DOUBLE_EQ(mesh.bytesInClass(noc::TrafficClass::AccData),
                     40.0);
    EXPECT_DOUBLE_EQ(mesh.totalBytes(), 100.0);
}

TEST(Mesh, EnergyPerFlitHop)
{
    energy::Accountant acct;
    auto mesh = makeMesh(&acct);
    // 16 bytes = 2 flits over 2 hops.
    mesh.transfer(0, 2, 16, noc::TrafficClass::Data, 0);
    EXPECT_DOUBLE_EQ(acct.componentPj(energy::Component::Noc),
                     2.0 * 2.0 * acct.params().nocHopFlitPj);
}

TEST(Mesh, ContentionDelaysBackToBackTransfers)
{
    energy::Accountant acct;
    auto mesh = makeMesh(&acct);
    const auto first = mesh.transfer(0, 3, 512,
                                     noc::TrafficClass::Data, 0);
    const auto second = mesh.transfer(0, 3, 512,
                                      noc::TrafficClass::Data, 0);
    EXPECT_GT(second.latency, first.latency);
}

TEST(Mesh, NonPowerOfTwoGeometryMatchesTheFormulas)
{
    // No default mesh reaches the divide fallbacks: a 3x3 mesh with
    // 12-byte links and 6-byte flits must still route and serialize
    // exactly as hops * hopCycles + ceil(bytes / linkBytes) cycles.
    energy::Accountant acct;
    noc::MeshParams p;
    p.cols = 3;
    p.rows = 3;
    p.linkBytes = 12;
    p.flitBytes = 6;
    noc::Mesh mesh(p, &acct);
    const sim::ClockDomain clock(p.clockHz);

    double flit_hops = 0.0;
    sim::Tick now = 0;
    for (int a = 0; a < 9; ++a) {
        for (int b = 0; b < 9; ++b) {
            const int hops = std::abs(a % 3 - b % 3) + std::abs(a / 3 - b / 3);
            EXPECT_EQ(mesh.hops(a, b), hops) << a << "->" << b;
            for (std::uint32_t bytes : {1u, 8u, 12u, 13u, 64u, 72u}) {
                // Far apart in time, so no router is still busy.
                now += 1'000'000'000;
                const auto r = mesh.transfer(a, b, bytes,
                                             noc::TrafficClass::Data, now);
                EXPECT_EQ(r.hops, hops);
                if (hops == 0) {
                    EXPECT_EQ(r.latency, 0u);
                    continue;
                }
                const sim::Cycles ser =
                    std::max<sim::Cycles>((bytes + 11) / 12, 1);
                EXPECT_EQ(r.latency,
                          clock.cyclesToTicks(hops * p.hopCycles + ser))
                    << a << "->" << b << ", " << bytes << "B";
                flit_hops += static_cast<double>((bytes + 5) / 6) * hops;
            }
        }
    }
    EXPECT_DOUBLE_EQ(mesh.hopFlits(), flit_hops);
}

TEST(Mesh, RouteSendMatchesTransfer)
{
    // send(route(...)) is transfer()'s only definition, split so that
    // fixed-endpoint senders resolve the route once. On twin meshes,
    // every pair, size and class — sent far apart and back to back, so
    // the contention state is exercised too — must agree packet for
    // packet and leave bit-identical counters and Noc energy.
    noc::MeshParams odd;
    odd.cols = 3;
    odd.rows = 3;
    odd.hostNode = 4;
    odd.linkBytes = 12;
    odd.flitBytes = 6;
    for (const noc::MeshParams &p : {noc::MeshParams{}, odd}) {
        energy::Accountant acct_t, acct_s;
        noc::Mesh by_transfer(p, &acct_t);
        noc::Mesh by_send(p, &acct_s);
        const int n = by_transfer.numNodes();
        sim::Tick now = 0;
        for (int a = 0; a < n; ++a) {
            for (int b = 0; b < n; ++b) {
                for (std::uint32_t bytes :
                     {1u, 8u, 12u, 16u, 17u, 64u, 72u}) {
                    for (int c = 0;
                         c < static_cast<int>(noc::TrafficClass::NumClasses);
                         ++c) {
                        const auto cls = static_cast<noc::TrafficClass>(c);
                        const noc::Mesh::Route r =
                            by_send.route(a, b, bytes, cls);
                        EXPECT_EQ(r.hops, by_send.hops(a, b));
                        // Two back-to-back injections, then a gap.
                        for (int rep = 0; rep < 2; ++rep) {
                            const auto want = by_transfer.transfer(
                                a, b, bytes, cls, now);
                            const auto got = by_send.send(r, now);
                            EXPECT_EQ(got.latency, want.latency)
                                << a << "->" << b << ", " << bytes
                                << "B, class " << c << ", rep " << rep;
                            EXPECT_EQ(got.hops, want.hops);
                        }
                        now += 7000;
                    }
                }
            }
        }
        stats::Group gt("t"), gs("s");
        by_transfer.exportStats(gt);
        by_send.exportStats(gs);
        for (int c = 0; c < static_cast<int>(noc::TrafficClass::NumClasses);
             ++c) {
            const std::string name =
                noc::trafficClassName(static_cast<noc::TrafficClass>(c));
            EXPECT_EQ(gs.get("noc_bytes." + name).value(),
                      gt.get("noc_bytes." + name).value());
            EXPECT_EQ(gs.get("noc_packets." + name).value(),
                      gt.get("noc_packets." + name).value());
        }
        EXPECT_EQ(by_send.hopFlits(), by_transfer.hopFlits());
        EXPECT_GT(by_send.hopFlits(), 0.0);
        EXPECT_EQ(acct_s.componentPj(energy::Component::Noc),
                  acct_t.componentPj(energy::Component::Noc));
    }
}

TEST(Mesh, BadNodePanics)
{
    energy::Accountant acct;
    auto mesh = makeMesh(&acct);
    EXPECT_DEATH((void)mesh.hops(0, 8), "node");
}

class MeshGeometry
    : public testing::TestWithParam<std::pair<int, int>>
{
};

TEST_P(MeshGeometry, TriangleInequalityOnHops)
{
    energy::Accountant acct;
    auto mesh = makeMesh(&acct);
    const auto [a, b] = GetParam();
    for (int mid = 0; mid < 8; ++mid) {
        EXPECT_LE(mesh.hops(a, b),
                  mesh.hops(a, mid) + mesh.hops(mid, b));
    }
}

INSTANTIATE_TEST_SUITE_P(
    Pairs, MeshGeometry,
    testing::Values(std::make_pair(0, 7), std::make_pair(3, 4),
                    std::make_pair(1, 6), std::make_pair(2, 2)));
