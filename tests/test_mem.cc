/**
 * @file
 * Unit tests for the memory substrate: cache tag/LRU/writeback/MSHR
 * behaviour, the stride prefetcher, DRAM row-buffer timing, the slab
 * allocator with page coloring, the object translation table, NUCA
 * cluster mapping and the assembled hierarchy.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <functional>

#include "death_helpers.hh"
#include "src/mem/cache.hh"
#include "src/mem/dram.hh"
#include "src/mem/hierarchy.hh"
#include "src/mem/nuca_l3.hh"
#include "src/mem/slab_allocator.hh"
#include "src/sim/rng.hh"

using namespace distda;
using mem::Addr;

namespace
{

/** A downstream that records fills and returns a fixed latency. */
struct FakeDownstream
{
    std::vector<std::pair<Addr, bool>> calls;
    sim::Tick latency = 20000;

    sim::Tick
    operator()(Addr a, bool w, sim::Tick)
    {
        calls.push_back({a, w});
        return latency;
    }

    mem::Cache::Downstream fn() { return mem::Cache::Downstream::of(*this); }
};

mem::CacheParams
smallCache()
{
    mem::CacheParams p;
    p.name = "test";
    p.sizeBytes = 1024; // 16 lines
    p.assoc = 2;        // 8 sets
    p.latencyCycles = 1;
    p.mshrs = 2;
    return p;
}

} // namespace

TEST(Cache, MissThenHit)
{
    energy::Accountant acct;
    FakeDownstream down;
    mem::Cache cache(smallCache(), &acct, down.fn());

    auto r1 = cache.access(0x1000, 8, false, 0);
    EXPECT_FALSE(r1.hit);
    EXPECT_GE(r1.latency, down.latency);

    auto r2 = cache.access(0x1008, 8, false, r1.latency);
    EXPECT_TRUE(r2.hit); // same line
    EXPECT_LT(r2.latency, down.latency);
    EXPECT_EQ(cache.misses(), 1.0);
    EXPECT_EQ(cache.hits(), 1.0);
}

TEST(Cache, LruEvictsOldest)
{
    energy::Accountant acct;
    FakeDownstream down;
    mem::Cache cache(smallCache(), &acct, down.fn());

    // Three lines mapping to the same set (8 sets, line 64B):
    // line numbers 0, 8, 16 -> set 0 with assoc 2.
    cache.access(0 * 64, 8, false, 0);
    cache.access(8 * 64, 8, false, 100000);
    EXPECT_TRUE(cache.contains(0 * 64));
    cache.access(16 * 64, 8, false, 200000); // evicts line 0 (LRU)
    EXPECT_FALSE(cache.contains(0 * 64));
    EXPECT_TRUE(cache.contains(8 * 64));
    EXPECT_TRUE(cache.contains(16 * 64));
}

TEST(Cache, DirtyEvictionWritesBack)
{
    energy::Accountant acct;
    FakeDownstream down;
    mem::Cache cache(smallCache(), &acct, down.fn());

    cache.access(0 * 64, 8, true, 0); // miss + dirty
    down.calls.clear();
    cache.access(8 * 64, 8, false, 100000);
    cache.access(16 * 64, 8, false, 200000); // evicts dirty line 0
    bool wrote_back = false;
    for (const auto &[a, w] : down.calls)
        wrote_back |= (w && a == 0);
    EXPECT_TRUE(wrote_back);
    EXPECT_EQ(cache.writebacks(), 1.0);
}

TEST(Cache, MshrsQueueConcurrentMisses)
{
    energy::Accountant acct;
    FakeDownstream down;
    mem::Cache cache(smallCache(), &acct, down.fn()); // 2 MSHRs

    // Three misses at the same instant: the third waits for a slot.
    auto a = cache.access(0 * 64, 8, false, 0);
    auto b = cache.access(8 * 64, 8, false, 0);
    auto c = cache.access(1 * 64, 8, false, 0);
    EXPECT_GE(a.latency, down.latency);
    EXPECT_GE(b.latency, down.latency);
    EXPECT_GE(c.latency, a.latency + down.latency);
}

TEST(Cache, MultiLineAccessTouchesEachLine)
{
    energy::Accountant acct;
    FakeDownstream down;
    mem::Cache cache(smallCache(), &acct, down.fn());
    cache.access(0, 256, false, 0); // 4 lines
    EXPECT_EQ(cache.accesses(), 4.0);
    EXPECT_EQ(down.calls.size(), 4u);
}

TEST(Cache, StridePrefetcherFetchesAhead)
{
    energy::Accountant acct;
    FakeDownstream down;
    mem::CacheParams p = smallCache();
    p.sizeBytes = 8 * 1024;
    p.stridePrefetch = true;
    mem::Cache cache(p, &acct, down.fn());

    // A steady +1-line stride stream trains after 2 confirmations.
    sim::Tick now = 0;
    for (int i = 0; i < 6; ++i) {
        cache.access(static_cast<Addr>(i) * 64, 8, false, now);
        now += 100000;
    }
    EXPECT_GT(cache.prefetchesIssued(), 0.0);
    // Lines ahead of the stream should now be resident.
    EXPECT_TRUE(cache.contains(7 * 64));
}

TEST(Cache, MruFilterSelfInvalidatesOnEviction)
{
    // Direct-mapped so a conflicting line reuses the exact Line slot
    // the MRU filter points at: a stale filter entry must re-probe,
    // never produce a false hit.
    energy::Accountant acct;
    FakeDownstream down;
    mem::CacheParams p = smallCache();
    p.assoc = 1; // 16 sets; lines 0 and 16 collide in set 0
    mem::Cache cache(p, &acct, down.fn());

    cache.access(0 * 64, 8, false, 0);       // miss, fills set 0
    auto hit = cache.access(0 * 64, 8, false, 100000); // MRU hit
    EXPECT_TRUE(hit.hit);
    cache.access(16 * 64, 8, false, 200000); // conflict miss, evicts
    auto after = cache.access(0 * 64, 8, false, 300000);
    EXPECT_FALSE(after.hit); // stale MRU slot now holds line 16
    EXPECT_EQ(cache.hits(), 1.0);
    EXPECT_EQ(cache.misses(), 3.0);
}

TEST(Cache, PrefetchHitsCountOncePerPrefetchedLine)
{
    energy::Accountant acct;
    FakeDownstream down;
    mem::CacheParams p = smallCache();
    p.sizeBytes = 8 * 1024;
    p.stridePrefetch = true;
    mem::Cache cache(p, &acct, down.fn());

    // Train a +1-line stride until the prefetcher runs ahead.
    sim::Tick now = 0;
    for (int i = 0; i < 6; ++i) {
        cache.access(static_cast<Addr>(i) * 64, 8, false, now);
        now += 100000;
    }
    ASSERT_GT(cache.prefetchesIssued(), 0.0);
    ASSERT_TRUE(cache.contains(7 * 64));

    // First demand access of the prefetched line counts exactly once.
    const double before = cache.prefetchHits();
    auto r = cache.access(7 * 64, 8, false, now);
    EXPECT_TRUE(r.hit);
    EXPECT_EQ(cache.prefetchHits(), before + 1.0);
    cache.access(7 * 64, 8, false, now + 100000);
    EXPECT_EQ(cache.prefetchHits(), before + 1.0); // not recounted
}

TEST(Cache, MshrRingMatchesAMinHeap)
{
    // The sorted MSHR ring must hold exactly the multiset a min-heap
    // of free times would, so every miss starts when the heap's
    // earliest slot frees. Decoupled actors issue with `now` running
    // backwards as well as forwards, and each fill's latency differs,
    // so completion ticks arrive out of order.
    struct RandomDownstream
    {
        sim::Rng rng{7};
        sim::Tick last = 0;

        sim::Tick
        operator()(Addr, bool, sim::Tick)
        {
            last = 1000 + rng.nextBelow(60000);
            return last;
        }
    };

    for (const int mshrs : {1, 2, 3, 32, 64}) {
        SCOPED_TRACE(mshrs);
        energy::Accountant acct;
        RandomDownstream down;
        mem::CacheParams p = smallCache();
        p.mshrs = mshrs;
        mem::Cache cache(p, &acct, mem::Cache::Downstream::of(down));
        const sim::Tick tag_lat =
            sim::ClockDomain(p.clockHz).cyclesToTicks(p.latencyCycles);

        // Reference: the min-heap of MSHR free times.
        std::vector<sim::Tick> heap(static_cast<std::size_t>(mshrs), 0);
        sim::Rng rng(static_cast<std::uint64_t>(mshrs));
        sim::Tick now = 100'000'000;
        for (Addr line = 0; line < 4000; ++line) {
            now = now + rng.nextBelow(20000) - 9000;
            // Every line is new, so every access misses and fills.
            const mem::CacheResult r =
                cache.access(line * 64, 8, false, now);
            ASSERT_FALSE(r.hit);

            std::pop_heap(heap.begin(), heap.end(),
                          std::greater<sim::Tick>());
            const sim::Tick start = std::max(now + tag_lat, heap.back());
            const sim::Tick done = start + down.last;
            heap.back() = done;
            std::push_heap(heap.begin(), heap.end(),
                           std::greater<sim::Tick>());
            ASSERT_EQ(r.latency, done - now) << "miss " << line;
        }
    }
}

TEST(Cache, VictimIsFirstUnfilledWayThenLru)
{
    // Three ways, so the associativity is not a power of two; 4 sets,
    // so lines 0, 4, 8, ... and 64 (another 4 KiB prefetch region)
    // all map to set 0.
    mem::CacheParams p = smallCache();
    p.sizeBytes = 4 * 3 * 64;
    p.assoc = 3;
    p.prefetchDegree = 1;
    const auto line = [](Addr n) { return n * 64; };

    // No resident line is evicted while the set has a never-filled
    // way, however recently it was used.
    {
        energy::Accountant acct;
        FakeDownstream down;
        mem::Cache cache(p, &acct, down.fn());
        cache.access(line(0), 8, false, 0);
        cache.access(line(0), 8, false, 100000);
        cache.access(line(4), 8, false, 200000);
        cache.access(line(0), 8, false, 300000);
        cache.access(line(8), 8, false, 400000);
        EXPECT_TRUE(cache.contains(line(0)));
        EXPECT_TRUE(cache.contains(line(4)));
        EXPECT_TRUE(cache.contains(line(8)));

        // Once the set is full, misses evict the least recently used
        // line: 4, then 0; touching 8 spares it, so 12 goes next.
        cache.access(line(12), 8, false, 500000);
        EXPECT_FALSE(cache.contains(line(4)));
        cache.access(line(16), 8, false, 600000);
        EXPECT_FALSE(cache.contains(line(0)));
        cache.access(line(8), 8, false, 700000);
        cache.access(line(20), 8, false, 800000);
        EXPECT_FALSE(cache.contains(line(12)));
        EXPECT_TRUE(cache.contains(line(8)));
        EXPECT_TRUE(cache.contains(line(16)));
        EXPECT_TRUE(cache.contains(line(20)));
    }

    // A prefetch fill evicts the line a demand miss would. The
    // +4-line stream 0, 4, 8, 12 trains the prefetcher, which then
    // fetches line 16; the other cache demand-reads 16 instead. Line
    // 64 (its own region) is re-touched so the LRU line, 8, sits in
    // the middle way.
    const auto drive = [&](mem::Cache &cache, bool demand_16) {
        sim::Tick now = 0;
        for (const Addr n : {64, 0, 4, 64, 8, 64, 12}) {
            cache.access(line(n), 8, false, now);
            now += 100000;
        }
        if (demand_16)
            cache.access(line(16), 8, false, now);
    };
    energy::Accountant acct;
    FakeDownstream down_pf, down_demand;
    mem::CacheParams pf_params = p;
    pf_params.stridePrefetch = true;
    mem::Cache prefetching(pf_params, &acct, down_pf.fn());
    mem::Cache demand(p, &acct, down_demand.fn());
    drive(prefetching, false);
    drive(demand, true);
    EXPECT_EQ(prefetching.prefetchesIssued(), 1.0);
    for (const Addr n : {0, 4, 8, 12, 16, 64}) {
        SCOPED_TRACE(n);
        EXPECT_EQ(prefetching.contains(line(n)),
                  demand.contains(line(n)));
    }
    EXPECT_FALSE(prefetching.contains(line(8)));
    EXPECT_TRUE(prefetching.contains(line(16)));
}

TEST(Cache, SetHashSpreadsInterleavedPages)
{
    // Without hashing, lines at page stride x8 collide into few sets;
    // with hashing a working set smaller than capacity must fit.
    energy::Accountant acct;
    FakeDownstream down;
    mem::CacheParams p;
    p.sizeBytes = 256 * 1024;
    p.assoc = 16;
    p.setHash = true;
    mem::Cache cache(p, &acct, down.fn());

    // 256KB worth of lines spaced as cluster-0 pages (every 8th 4KB
    // page), i.e. the NUCA bank's view.
    std::vector<Addr> addrs;
    for (Addr page = 0; page < 8 * 512; page += 8)
        for (Addr off = 0; off < 4096; off += 1024)
            addrs.push_back(page * 4096 + off);
    for (Addr a : addrs)
        cache.access(a, 8, false, 0);
    const double cold = cache.misses();
    for (Addr a : addrs)
        cache.access(a, 8, false, 1000000);
    // A second pass over a <=capacity working set is nearly all hits.
    EXPECT_LT(cache.misses() - cold, cold * 0.05);
}

TEST(Dram, RowHitsAreFaster)
{
    energy::Accountant acct;
    mem::Dram dram(mem::DramParams{}, &acct);
    const sim::Tick miss = dram.access(0, false, 0);
    const sim::Tick hit = dram.access(64, false, miss + 1000000);
    EXPECT_LT(hit, miss);
    EXPECT_EQ(dram.rowHits(), 1.0);
    EXPECT_EQ(dram.rowMisses(), 1.0);
}

TEST(Dram, BankConflictSerializes)
{
    energy::Accountant acct;
    mem::DramParams p;
    mem::Dram dram(p, &acct);
    // Same bank, different rows, at the same instant.
    const Addr row_a = 0;
    const Addr row_b = static_cast<Addr>(p.rowBytes) *
                       static_cast<Addr>(p.banks);
    const sim::Tick a = dram.access(row_a, false, 0);
    const sim::Tick b = dram.access(row_b, false, 0);
    EXPECT_GT(b, a);
}

TEST(Dram, EnergyChargedPerLine)
{
    energy::Accountant acct;
    mem::Dram dram(mem::DramParams{}, &acct);
    dram.access(0, false, 0);
    dram.access(4096, true, 0);
    EXPECT_DOUBLE_EQ(acct.componentPj(energy::Component::Dram),
                     2.0 * acct.params().dramLinePj);
}

TEST(Dram, NonPowerOfTwoGeometryMatchesTheModel)
{
    // No default configuration reaches the divide fallbacks: replay a
    // line stream through 3000-byte rows on 6 banks and check every
    // row hit/miss and latency against the open-page model spelled
    // out with plain / and %.
    energy::Accountant acct;
    mem::DramParams p;
    p.rowBytes = 3000;
    p.banks = 6;
    mem::Dram dram(p, &acct);

    std::vector<std::int64_t> open_row(6, -1);
    std::vector<sim::Tick> bank_busy(6, 0);
    sim::Tick bus_busy = 0;
    const auto xfer =
        static_cast<sim::Tick>(64.0 / p.busBytesPerNs * 1000.0);
    sim::Rng rng(7);
    Addr line = 0;
    sim::Tick now = 0;
    for (int i = 0; i < 4000; ++i) {
        // Mostly the next line (row hits), sometimes a far jump.
        line = rng.nextBelow(8) == 0 ? rng.nextBelow(1 << 20) : line + 1;
        const Addr addr = line * mem::lineBytes;
        const auto row = static_cast<std::int64_t>(addr / 3000);
        const auto bank = static_cast<std::size_t>(row % 6);
        const sim::Tick start = std::max(now, bank_busy[bank]);
        const bool hit = open_row[bank] == row;
        const sim::Tick lat = hit ? p.tCl : p.tRp + p.tRcd + p.tCl;
        open_row[bank] = row;
        bank_busy[bank] = start + lat;
        bus_busy = std::max(start + lat, bus_busy) + xfer;

        const double hits_before = dram.rowHits();
        EXPECT_EQ(dram.access(addr, i % 3 == 0, now), bus_busy - now)
            << "access " << i;
        EXPECT_EQ(dram.rowHits() - hits_before, hit ? 1.0 : 0.0)
            << "access " << i;
        now += rng.nextBelow(40000);
    }
    EXPECT_GT(dram.rowHits(), 0.0);
    EXPECT_GT(dram.rowMisses(), 0.0);
}

TEST(Slab, RoundsToClassesAndRecycles)
{
    mem::SlabAllocator slab(0x1000'0000, 1 << 20);
    const Addr a = slab.allocate(1000, "a"); // -> 4KB class
    const Addr b = slab.allocate(5000, "b"); // -> 8KB class
    EXPECT_NE(a, b);
    slab.free(a);
    const Addr c = slab.allocate(2000, "c"); // reuses a's 4KB slab
    EXPECT_EQ(c, a);
    EXPECT_EQ(slab.liveAllocations(), 2u);
    (void)b;
}

TEST(Slab, PageColoringStaggersClusters)
{
    mem::SlabAllocator slab(0x1000'0000, 8 << 20);
    // Power-of-two allocations must not all share (addr/4096) % 8.
    std::set<Addr> colors;
    for (int i = 0; i < 8; ++i) {
        const Addr a = slab.allocate(32 * 1024, "arr");
        colors.insert((a / 4096) % 8);
    }
    EXPECT_GT(colors.size(), 1u);
}

TEST(Slab, FindLocatesAllocation)
{
    mem::SlabAllocator slab(0x1000'0000, 1 << 20);
    const Addr a = slab.allocate(8192, "x");
    const auto *alloc = slab.find(a + 100);
    ASSERT_NE(alloc, nullptr);
    EXPECT_EQ(alloc->name, "x");
    EXPECT_EQ(slab.find(a + 16 * 1024), nullptr);
}

TEST(Slab, ExhaustionIsFatal)
{
    // Individually in-range requests that together overrun the arena
    // trip the bump-region exhaustion check; a single request larger
    // than the arena is rejected earlier (see
    // OverflowingSizeIsFatalNotWrapped).
    mem::SlabAllocator slab(0x1000'0000, 64 * 1024);
    (void)slab.allocate(32 * 1024, "a");
    EXPECT_PANIC((void)slab.allocate(32 * 1024, "b"), "exhausted");
}

TEST(Slab, ZeroByteAllocationIsFatal)
{
    mem::SlabAllocator slab(0x1000'0000, 1 << 20);
    EXPECT_PANIC((void)slab.allocate(0, "empty"), "zero-byte");
}

TEST(Slab, OverflowingSizeIsFatalNotWrapped)
{
    // Near-UINT64_MAX requests used to wrap during slab rounding and
    // hand back a tiny range aliasing a later allocation; they must be
    // rejected before rounding instead.
    mem::SlabAllocator slab(0x1000'0000, 1 << 20);
    EXPECT_PANIC((void)slab.allocate(~0ULL, "wrap"), "exceeds");
    EXPECT_PANIC((void)slab.allocate(~0ULL - 4000, "wrap2"), "exceeds");
    EXPECT_PANIC((void)slab.allocate((1 << 20) + 1, "over"), "exceeds");
}

TEST(ObjectTable, TranslatesOffsets)
{
    mem::ObjectTable table;
    table.registerObject(3, 0x2000, 100, 8, "arr");
    EXPECT_EQ(table.addrOf(3, 0), 0x2000u);
    EXPECT_EQ(table.addrOf(3, 99), 0x2000u + 99 * 8);
    EXPECT_EQ(table.elemBytes(3), 8u);
    table.unregisterObject(3);
    EXPECT_FALSE(table.contains(3));
}

TEST(ObjectTable, OutOfRangePanics)
{
    mem::ObjectTable table;
    table.registerObject(0, 0x2000, 10, 8, "arr");
    EXPECT_DEATH((void)table.addrOf(0, 10), "out of");
}

TEST(Nuca, PageInterleaveCoversAllClusters)
{
    energy::Accountant acct;
    noc::Mesh mesh(noc::MeshParams{}, &acct);
    mem::Dram dram(mem::DramParams{}, &acct);
    mem::NucaL3 l3(mem::NucaParams{}, &mesh, &dram, &acct);
    const Addr granule = mem::NucaParams{}.pageBytes;
    std::set<int> clusters;
    for (Addr page = 0; page < 64; ++page)
        clusters.insert(l3.clusterOf(page * granule));
    EXPECT_EQ(clusters.size(), 8u);
    // Within a granule, the cluster is constant.
    EXPECT_EQ(l3.clusterOf(granule + 64),
              l3.clusterOf(2 * granule - 64));
}

TEST(Nuca, NonPowerOfTwoInterleaveMatchesTheFormula)
{
    // 6 clusters on a 3x2 mesh with 12KB pages: both divides take the
    // fallback path, which no default configuration reaches.
    energy::Accountant acct;
    noc::MeshParams mp;
    mp.cols = 3;
    mp.rows = 2;
    noc::Mesh mesh(mp, &acct);
    mem::Dram dram(mem::DramParams{}, &acct);
    mem::NucaParams np;
    np.clusters = 6;
    np.pageBytes = 12288;
    mem::NucaL3 l3(np, &mesh, &dram, &acct);

    std::vector<Addr> addrs = {~Addr{0}, ~Addr{0} - 12288, Addr{1} << 63,
                               (Addr{1} << 63) - 1};
    for (Addr a = 0; a < 200 * 12288; a += 4096 + 64)
        addrs.push_back(a);
    std::set<int> seen;
    for (Addr a : addrs) {
        EXPECT_EQ(l3.clusterOf(a), static_cast<int>((a / 12288) % 6))
            << a;
        seen.insert(l3.clusterOf(a));
    }
    EXPECT_EQ(seen.size(), 6u);
}

TEST(Nuca, AffinityOverridesInterleave)
{
    energy::Accountant acct;
    noc::Mesh mesh(noc::MeshParams{}, &acct);
    mem::Dram dram(mem::DramParams{}, &acct);
    mem::NucaL3 l3(mem::NucaParams{}, &mesh, &dram, &acct);
    l3.setAffinity(0x10000, 64 * 1024, 5);
    for (Addr a = 0x10000; a < 0x10000 + 64 * 1024; a += 4096)
        EXPECT_EQ(l3.clusterOf(a), 5);
    l3.clearAffinity();
    // Back to interleaving: a different granule maps elsewhere.
    EXPECT_NE(l3.clusterOf(0x10000 + 16384), l3.clusterOf(0x10000));
}

TEST(Nuca, RemoteAccessRidesNoc)
{
    energy::Accountant acct;
    noc::Mesh mesh(noc::MeshParams{}, &acct);
    mem::Dram dram(mem::DramParams{}, &acct);
    mem::NucaL3 l3(mem::NucaParams{}, &mesh, &dram, &acct);
    const Addr a = 0x9000; // page 9 -> cluster 1
    const int home = l3.clusterOf(a);
    const int remote = (home + 4) % 8;
    // Warm the line so both measured accesses are bank hits.
    l3.access(a, 64, false, home, 0, mem::TrafficTag{});
    const double before = mesh.totalBytes();
    auto local = l3.access(a, 64, false, home, 1000000,
                           mem::TrafficTag{});
    EXPECT_DOUBLE_EQ(mesh.totalBytes(), before);
    auto far = l3.access(a, 64, false, remote, 2000000,
                         mem::TrafficTag{});
    EXPECT_GT(mesh.totalBytes(), before);
    EXPECT_GT(far.latency, local.latency);
}

TEST(Hierarchy, HostWalkCountsEveryLevel)
{
    energy::Accountant acct;
    mem::Hierarchy hier(mem::HierarchyParams{}, &acct);
    hier.hostAccess(0x4000, 8, false, 0);
    EXPECT_EQ(hier.l1().accesses(), 1.0);
    EXPECT_EQ(hier.l1().misses(), 1.0);
    EXPECT_EQ(hier.l2().misses(), 1.0);
    EXPECT_EQ(hier.l3().totalMisses(), 1.0);
    EXPECT_EQ(hier.dram().reads(), 1.0);

    // Second access: L1 hit, nothing deeper.
    const double l2_before = hier.l2().accesses();
    hier.hostAccess(0x4000, 8, false, 1000000);
    EXPECT_EQ(hier.l1().hits(), 1.0);
    EXPECT_EQ(hier.l2().accesses(), l2_before);
}

TEST(Hierarchy, AccelPathSkipsL1L2)
{
    energy::Accountant acct;
    mem::Hierarchy hier(mem::HierarchyParams{}, &acct);
    hier.accelAccess(0x4000, 64, false, 2, 0);
    EXPECT_EQ(hier.l1().accesses(), 0.0);
    EXPECT_EQ(hier.l2().accesses(), 0.0);
    EXPECT_EQ(hier.acp(2).accesses(), 1.0);
    EXPECT_EQ(hier.l3().totalAccesses(), 1.0);
}

TEST(Hierarchy, CacheAccessTotalsSum)
{
    energy::Accountant acct;
    mem::Hierarchy hier(mem::HierarchyParams{}, &acct);
    hier.hostAccess(0x4000, 8, false, 0);
    hier.accelAccess(0x8000, 64, false, 1, 0);
    EXPECT_DOUBLE_EQ(hier.cacheAccesses(),
                     hier.l1().accesses() + hier.l2().accesses() +
                         hier.l3().totalAccesses() +
                         hier.acp(1).accesses());
}

TEST(LineHelpers, CoverProperties)
{
    EXPECT_EQ(mem::lineAlign(0x1234), 0x1200u);
    EXPECT_EQ(mem::linesCovering(0, 64), 1u);
    EXPECT_EQ(mem::linesCovering(63, 2), 2u);
    EXPECT_EQ(mem::linesCovering(0, 0), 0u);
    EXPECT_EQ(mem::linesCovering(64, 128), 2u);
}
