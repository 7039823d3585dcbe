/**
 * @file
 * Tests for the differential fuzz harness itself: generator
 * determinism, .repro round-tripping, validator rejection of malformed
 * cases, oracle agreement on generated cases, shrinker behaviour under
 * an artificial oracle, and replay of the committed corpus (every past
 * counterexample is a permanent regression test; DISTDA_CORPUS_DIR
 * points at tests/corpus in the source tree).
 */

#include <algorithm>
#include <cstdio>
#include <filesystem>
#include <gtest/gtest.h>

#include "src/fuzz/campaign.hh"
#include "src/fuzz/diff.hh"
#include "src/fuzz/gen.hh"
#include "src/fuzz/shrink.hh"

using namespace distda;
using fuzz::FuzzCase;

namespace
{

struct QuietGuard
{
    QuietGuard()
    {
        setInformEnabled(false);
        setWarnEnabled(false);
    }
    ~QuietGuard()
    {
        setInformEnabled(true);
        setWarnEnabled(true);
    }
};

/** Total node count across all kernels — the shrinker's yardstick. */
std::size_t
nodeCount(const FuzzCase &c)
{
    std::size_t n = 0;
    for (const compiler::Kernel &k : c.kernels)
        n += k.nodes.size();
    return n;
}

bool
containsOp(const FuzzCase &c, compiler::OpCode op)
{
    for (const compiler::Kernel &k : c.kernels) {
        for (const compiler::Node &n : k.nodes) {
            if (n.kind == compiler::NodeKind::Compute && n.op == op)
                return true;
        }
    }
    return false;
}

} // namespace

TEST(FuzzGen, DeterministicForSeed)
{
    QuietGuard quiet;
    const FuzzCase a = fuzz::generateCase(1234);
    const FuzzCase b = fuzz::generateCase(1234);
    EXPECT_EQ(fuzz::serializeCase(a), fuzz::serializeCase(b));
    const FuzzCase c = fuzz::generateCase(1235);
    EXPECT_NE(fuzz::serializeCase(a), fuzz::serializeCase(c));
}

TEST(FuzzGen, GeneratedCasesAreValid)
{
    QuietGuard quiet;
    for (std::uint64_t seed = 100; seed < 160; ++seed) {
        const FuzzCase c = fuzz::generateCase(seed);
        EXPECT_EQ(fuzz::validateCase(c), "") << "seed " << seed;
    }
}

TEST(FuzzGen, ShapesProduceTheirStructure)
{
    QuietGuard quiet;
    fuzz::GenOptions opts;
    opts.shape = fuzz::Shape::MultiKernel;
    bool multi = false;
    for (std::uint64_t seed = 0; seed < 16 && !multi; ++seed)
        multi = fuzz::generateCase(seed, opts).kernels.size() > 1;
    EXPECT_TRUE(multi) << "multikernel shape never produced >1 kernel";
}

TEST(FuzzCaseIo, SerializeParseRoundTrips)
{
    QuietGuard quiet;
    for (std::uint64_t seed : {7ull, 42ull, 90001ull}) {
        const FuzzCase c = fuzz::generateCase(seed);
        const std::string text = fuzz::serializeCase(c);
        const FuzzCase back = fuzz::parseCase(text);
        EXPECT_EQ(fuzz::serializeCase(back), text) << "seed " << seed;
        EXPECT_EQ(fuzz::validateCase(back), "") << "seed " << seed;
    }
}

TEST(FuzzCaseIo, SaveLoadRoundTrips)
{
    QuietGuard quiet;
    const FuzzCase c = fuzz::generateCase(5);
    const std::string path =
        (std::filesystem::temp_directory_path() / "distda_fuzz_io.repro")
            .string();
    fuzz::saveCase(c, path);
    const FuzzCase back = fuzz::loadCase(path);
    EXPECT_EQ(fuzz::serializeCase(back), fuzz::serializeCase(c));
    std::remove(path.c_str());
}

TEST(FuzzValidate, CatchesOutOfBoundsAffine)
{
    QuietGuard quiet;
    FuzzCase c = fuzz::generateCase(11);
    ASSERT_EQ(fuzz::validateCase(c), "");
    // Push one access pattern past its object: validation must fail
    // rather than let a path fault at simulation time.
    for (compiler::Kernel &k : c.kernels) {
        for (compiler::Node &n : k.nodes) {
            if (n.kind == compiler::NodeKind::Access &&
                n.pattern == compiler::PatternKind::Affine) {
                n.affine.constBase = 1 << 20;
                EXPECT_NE(fuzz::validateCase(c), "");
                return;
            }
        }
    }
    GTEST_SKIP() << "case has no affine access";
}

TEST(FuzzValidate, CatchesDuplicateBindingsAndBadTrips)
{
    QuietGuard quiet;
    FuzzCase c = fuzz::generateCase(17);
    ASSERT_EQ(fuzz::validateCase(c), "");
    {
        FuzzCase dup = c;
        fuzz::Invocation &inv = dup.invocations.front();
        if (inv.objects.size() >= 2) {
            inv.objects[1] = inv.objects[0];
            EXPECT_NE(fuzz::validateCase(dup), "");
        }
    }
    {
        FuzzCase zero = c;
        compiler::Kernel &k = zero.kernels.front();
        if (k.loop.extentParam < 0) {
            k.loop.staticExtent = 0;
            EXPECT_NE(fuzz::validateCase(zero), "");
        }
    }
}

TEST(FuzzValidate, DivisorMayBeNegativeButNotZero)
{
    QuietGuard quiet;
    for (std::uint64_t seed = 0; seed < 64; ++seed) {
        FuzzCase c = fuzz::generateCase(seed);
        for (compiler::Kernel &k : c.kernels) {
            for (const compiler::Node &n : k.nodes) {
                if (n.kind != compiler::NodeKind::Compute ||
                    (n.op != compiler::OpCode::IDiv &&
                     n.op != compiler::OpCode::IRem))
                    continue;
                // INT64_MIN / -1 is defined (it wraps); zero traps.
                compiler::Node &d = k.node(n.inputB);
                d.imm.i = -1;
                EXPECT_EQ(fuzz::validateCase(c), "");
                d.imm.i = 0;
                EXPECT_NE(fuzz::validateCase(c).find("nonzero ConstInt"),
                          std::string::npos);
                return;
            }
        }
    }
    FAIL() << "no generated case divides";
}

TEST(FuzzDiff, GeneratedCasesAgreeAcrossAllPaths)
{
    QuietGuard quiet;
    for (std::uint64_t seed = 500; seed < 510; ++seed) {
        const FuzzCase c = fuzz::generateCase(seed);
        const fuzz::DiffOutcome out = fuzz::runDifferential(c);
        EXPECT_TRUE(out.ok())
            << "seed " << seed << ": " << out.summary();
        EXPECT_GE(out.paths.size(), 4u);
    }
}

TEST(FuzzDiff, InvalidCaseIsItsOwnFindingKind)
{
    QuietGuard quiet;
    FuzzCase c = fuzz::generateCase(3);
    c.invocations.clear();
    const fuzz::DiffOutcome out = fuzz::runDifferential(c);
    ASSERT_EQ(out.findings.size(), 1u);
    EXPECT_EQ(out.findings[0].kind,
              fuzz::Finding::Kind::InvalidCase);
}

TEST(FuzzShrink, MinimizesUnderArtificialOracle)
{
    QuietGuard quiet;
    // Find a generated case containing an IMul, then shrink under the
    // oracle "still contains an IMul". The minimizer must produce a
    // dramatically smaller — and still valid — case that keeps the
    // property.
    FuzzCase seed_case;
    bool found = false;
    for (std::uint64_t seed = 0; seed < 64 && !found; ++seed) {
        seed_case = fuzz::generateCase(seed);
        found = containsOp(seed_case, compiler::OpCode::IMul);
    }
    ASSERT_TRUE(found) << "no generated case used IMul";

    fuzz::ShrinkStats stats;
    const FuzzCase small = fuzz::shrinkCase(
        seed_case,
        [](const FuzzCase &c) {
            return containsOp(c, compiler::OpCode::IMul);
        },
        8, &stats);

    EXPECT_TRUE(containsOp(small, compiler::OpCode::IMul));
    EXPECT_EQ(fuzz::validateCase(small), "");
    EXPECT_LT(nodeCount(small), nodeCount(seed_case));
    EXPECT_LE(small.invocations.size(), seed_case.invocations.size());
    EXPECT_GT(stats.attempts, 0);
    EXPECT_GT(stats.accepted, 0);
    // A lone IMul needs very little scaffolding; anything bigger means
    // a reduction pass stopped pulling its weight.
    EXPECT_LE(nodeCount(small), 12u);
    EXPECT_EQ(small.kernels.size(), 1u);
    for (const fuzz::Invocation &inv : small.invocations)
        EXPECT_LE(small.tripOf(inv), 2);
}

TEST(FuzzCampaign, CleanCampaignReportsNoFailures)
{
    QuietGuard quiet;
    fuzz::CampaignOptions opts;
    opts.seed = 77;
    opts.runs = 25;
    opts.jobs = 2;
    const fuzz::CampaignResult r = fuzz::runCampaign(opts);
    EXPECT_EQ(r.runs, 25);
    EXPECT_TRUE(r.ok()) << r.failures << " failing runs";
}

TEST(FuzzCampaign, CaseSeedsAreDistinctAcrossRuns)
{
    std::vector<std::uint64_t> seeds;
    for (int run = 0; run < 100; ++run)
        seeds.push_back(fuzz::caseSeedFor(9, run));
    std::sort(seeds.begin(), seeds.end());
    EXPECT_EQ(std::adjacent_find(seeds.begin(), seeds.end()),
              seeds.end());
}

TEST(FuzzCorpus, CommittedReproducersReplayGreen)
{
    QuietGuard quiet;
    std::vector<std::string> files;
    for (const auto &entry :
         std::filesystem::directory_iterator(DISTDA_CORPUS_DIR)) {
        if (entry.path().extension() == ".repro")
            files.push_back(entry.path().string());
    }
    std::sort(files.begin(), files.end());
    ASSERT_FALSE(files.empty())
        << "no .repro files under " << DISTDA_CORPUS_DIR;
    EXPECT_EQ(fuzz::replayCorpus(files), 0);
}
