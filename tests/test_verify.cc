/**
 * @file
 * Static-verification tests: every pass must fire on a seeded-broken
 * artifact and stay silent on every plan the compiler actually emits.
 * The engine-side rejection of corrupted microcode (the pre-verifier
 * DISTDA_ASSERT safety net) is death-tested, not assumed.
 */

#include <gtest/gtest.h>

#include "death_helpers.hh"
#include "src/compiler/plan.hh"
#include "src/engine/actor.hh"
#include "src/verify/verify.hh"

using namespace distda;
using namespace distda::compiler;

namespace
{

/** A two-object streaming kernel: C[i] = A[i] + A[i+1]. */
Kernel
makeStreamKernel()
{
    KernelBuilder kb("stream");
    const int a = kb.object("A", 1024, 8, true);
    const int c = kb.object("C", 1024, 8, true);
    kb.loopStatic(512);
    auto x = kb.load(a, kb.affine(0, 1));
    auto y = kb.load(a, kb.affine(1, 1));
    kb.store(c, kb.affine(0, 1), kb.fadd(x, y));
    return kb.build();
}

/** Reduction kernel with a carried FP sum. */
Kernel
makeReduceKernel()
{
    KernelBuilder kb("reduce");
    const int a = kb.object("A", 1024, 8, true);
    kb.loopStatic(512);
    auto sum = kb.carry(Word{.f = 0.0}, true);
    auto x = kb.load(a, kb.affine(0, 1));
    kb.setCarry(sum, kb.fadd(sum, x));
    kb.markResult(sum);
    return kb.build();
}

/** Distributed plan of the stream kernel (2 partitions, 1 channel). */
OffloadPlan
distStreamPlan()
{
    OffloadPlan plan = compileKernel(makeStreamKernel());
    EXPECT_EQ(plan.partitions.size(), 2u);
    EXPECT_EQ(plan.channels.size(), 1u);
    return plan;
}

std::size_t
findInst(const MicroProgram &prog, MicroKind kind)
{
    for (std::size_t pc = 0; pc < prog.insts.size(); ++pc) {
        if (prog.insts[pc].kind == kind)
            return pc;
    }
    ADD_FAILURE() << "no instruction of kind "
                  << static_cast<int>(kind);
    return 0;
}

} // namespace

// --- Positive: everything the compiler emits verifies clean. ---

TEST(Verify, CompilerOutputIsCleanDistributed)
{
    const auto report = verify::verifyPlan(distStreamPlan());
    EXPECT_TRUE(report.ok());
    EXPECT_EQ(report.warningCount(), 0) << report.str();
}

TEST(Verify, CompilerOutputIsCleanMono)
{
    CompileOptions opts;
    opts.partition = false;
    const auto plan = compileKernel(makeStreamKernel(), opts);
    const auto report = verify::verifyPlan(plan);
    EXPECT_TRUE(report.ok()) << report.str();
}

TEST(Verify, CompilerOutputIsCleanUnderCgra)
{
    verify::Options vo;
    vo.fabric = cgra::CgraParams{};
    const auto report = verify::verifyPlan(distStreamPlan(), vo);
    EXPECT_TRUE(report.ok()) << report.str();
}

TEST(Verify, PassManagerRegistersAllPasses)
{
    std::vector<std::string> names;
    for (const auto &pass : verify::passes())
        names.push_back(pass.name);
    EXPECT_EQ(names, (std::vector<std::string>{
                         "plan", "microcode", "channels", "cgra",
                         "smells", "bounds", "purity"}));
}

// --- Plan linter negatives. ---

TEST(VerifyPlan, DetectsDuplicatedNode)
{
    OffloadPlan plan = distStreamPlan();
    plan.partitions[0].nodes.push_back(plan.partitions[1].nodes.front());
    const auto report = verify::verifyPlan(plan);
    EXPECT_TRUE(report.hasErrorFrom("plan"));
    EXPECT_TRUE(report.mentions("duplicated")) << report.str();
}

TEST(VerifyPlan, DetectsLostNode)
{
    OffloadPlan plan = distStreamPlan();
    plan.partitions[1].nodes.pop_back();
    const auto report = verify::verifyPlan(plan);
    EXPECT_TRUE(report.hasErrorFrom("plan"));
    EXPECT_TRUE(report.mentions("lost")) << report.str();
}

TEST(VerifyPlan, DetectsMultipleObjectsPerPartition)
{
    OffloadPlan plan = distStreamPlan();
    ASSERT_FALSE(plan.partitions[0].accessors.empty());
    plan.partitions[0].accessors[0].objId ^= 1;
    const auto report = verify::verifyPlan(plan);
    EXPECT_TRUE(report.hasErrorFrom("plan"));
    EXPECT_TRUE(report.mentions("memory objects")) << report.str();
}

TEST(VerifyPlan, DetectsBufferSlotOutsideAllocationTable)
{
    OffloadPlan plan = distStreamPlan();
    ASSERT_FALSE(plan.partitions[0].accessors.empty());
    plan.partitions[0].accessors[0].bufferSlot = 99;
    const auto report = verify::verifyPlan(plan);
    EXPECT_TRUE(report.hasErrorFrom("plan"));
    EXPECT_TRUE(report.mentions("buffer-allocation table"))
        << report.str();
}

TEST(VerifyPlan, DetectsUnmaterializedCutEdge)
{
    OffloadPlan plan = distStreamPlan();
    plan.channels.clear();
    plan.partitions[0].outChannels.clear();
    plan.partitions[1].inChannels.clear();
    const auto report = verify::verifyPlan(plan);
    EXPECT_TRUE(report.hasErrorFrom("plan"));
    EXPECT_TRUE(report.mentions("no channel")) << report.str();
}

TEST(VerifyPlan, DetectsCharacteristicsDrift)
{
    OffloadPlan plan = distStreamPlan();
    plan.characteristics.maxInstBytes += 4;
    const auto report = verify::verifyPlan(plan);
    EXPECT_TRUE(report.hasErrorFrom("plan"));
    EXPECT_TRUE(report.mentions("insts(B)")) << report.str();
}

TEST(VerifyPlan, DetectsMaxInstsDrift)
{
    // Self-consistent insts(B) == 8 * maxInsts, but maxInsts no longer
    // matches the longest program.
    OffloadPlan plan = distStreamPlan();
    plan.characteristics.maxInsts += 1;
    plan.characteristics.maxInstBytes =
        plan.characteristics.maxInsts *
        static_cast<int>(microInstBytes);
    const auto report = verify::verifyPlan(plan);
    EXPECT_TRUE(report.hasErrorFrom("plan"));
    EXPECT_TRUE(report.mentions("longest program")) << report.str();
}

TEST(VerifyPlan, DetectsAccessorOnUndeclaredObject)
{
    OffloadPlan plan = distStreamPlan();
    plan.partitions[0].accessors[0].objId = 99;
    const auto report = verify::verifyPlan(plan);
    EXPECT_TRUE(report.hasErrorFrom("plan"));
    EXPECT_TRUE(report.mentions("undeclared memory object 99"))
        << report.str();
}

// --- Microcode verifier negatives. ---

TEST(VerifyMicrocode, DetectsRegisterOutOfRange)
{
    OffloadPlan plan = distStreamPlan();
    MicroProgram &prog = plan.partitions[0].program;
    prog.insts[findInst(prog, MicroKind::Alu)].a = 999;
    const auto report = verify::verifyPlan(plan);
    EXPECT_TRUE(report.hasErrorFrom("microcode"));
    EXPECT_TRUE(report.mentions("outside register file"))
        << report.str();
}

TEST(VerifyMicrocode, DetectsUnknownParamPreload)
{
    // The stream kernel declares no parameters at all.
    OffloadPlan plan = distStreamPlan();
    MicroProgram &prog = plan.partitions[0].program;
    prog.paramRegs.emplace_back(3, static_cast<std::uint16_t>(0));
    const auto report = verify::verifyPlan(plan);
    EXPECT_TRUE(report.hasErrorFrom("microcode"));
    EXPECT_TRUE(report.mentions("parameter 3 preloaded")) << report.str();
}

TEST(VerifyMicrocode, DetectsUseBeforeDefinition)
{
    OffloadPlan plan = distStreamPlan();
    MicroProgram &prog = plan.partitions[0].program;
    const auto fresh = static_cast<std::uint16_t>(prog.numRegs);
    prog.numRegs += 1;
    prog.insts[findInst(prog, MicroKind::Alu)].a = fresh;
    const auto report = verify::verifyPlan(plan);
    EXPECT_TRUE(report.hasErrorFrom("microcode"));
    EXPECT_TRUE(report.mentions("before definition")) << report.str();
}

TEST(VerifyMicrocode, DetectsAccessorSlotOutOfRange)
{
    OffloadPlan plan = distStreamPlan();
    MicroProgram &prog = plan.partitions[0].program;
    prog.insts[findInst(prog, MicroKind::LoadStream)].slot = 7;
    const auto report = verify::verifyPlan(plan);
    EXPECT_TRUE(report.hasErrorFrom("microcode"));
    EXPECT_TRUE(report.mentions("accessor slot 7")) << report.str();
}

TEST(VerifyMicrocode, DetectsCarryTypeMismatch)
{
    OffloadPlan plan = compileKernel(makeReduceKernel());
    for (Partition &part : plan.partitions) {
        for (auto &cs : part.program.carries)
            cs.isFloat = !cs.isFloat;
    }
    const auto report = verify::verifyPlan(plan);
    EXPECT_TRUE(report.hasErrorFrom("microcode"));
    EXPECT_TRUE(report.mentions("float-ness disagrees")) << report.str();
}

TEST(VerifyMicrocode, DetectsInstructionAfterCarryEpilogue)
{
    OffloadPlan plan = compileKernel(makeReduceKernel());
    for (Partition &part : plan.partitions) {
        auto &insts = part.program.insts;
        if (insts.empty() || insts.back().kind != MicroKind::CarryWrite)
            continue;
        MicroInst mov;
        mov.kind = MicroKind::Alu;
        mov.op = OpCode::Mov;
        mov.dst = 0;
        mov.a = 0;
        insts.push_back(mov);
    }
    const auto report = verify::verifyPlan(plan);
    EXPECT_TRUE(report.hasErrorFrom("microcode"));
    EXPECT_TRUE(report.mentions("after CarryWrite")) << report.str();
}

// --- Channel-graph negatives. ---

TEST(VerifyChannels, DetectsZeroCapacity)
{
    OffloadPlan plan = distStreamPlan();
    plan.options.channelCapacity = 0;
    const auto report = verify::verifyPlan(plan);
    EXPECT_TRUE(report.hasErrorFrom("channels"));
    EXPECT_TRUE(report.mentions("zero decoupling capacity"))
        << report.str();
}

TEST(VerifyChannels, DetectsTokenCountMismatch)
{
    OffloadPlan plan = distStreamPlan();
    MicroProgram &prog = plan.partitions[0].program;
    const std::size_t pc = findInst(prog, MicroKind::Produce);
    prog.insts.erase(prog.insts.begin() +
                     static_cast<std::ptrdiff_t>(pc));
    const auto report = verify::verifyPlan(plan);
    EXPECT_TRUE(report.hasErrorFrom("channels"));
    EXPECT_TRUE(report.mentions("count mismatch")) << report.str();
}

TEST(VerifyChannels, DetectsFirstIterationDeadlock)
{
    // Add a back channel p1 -> p0 with consume-before-produce program
    // orders on both sides: p0 waits on the back channel before its
    // forward produce, p1 produces the back channel only after its
    // forward consume. No FIFO depth unwedges that.
    OffloadPlan plan = distStreamPlan();
    Partition &p0 = plan.partitions[0];
    Partition &p1 = plan.partitions[1];

    ChannelDef back;
    back.id = static_cast<int>(plan.channels.size());
    back.srcPartition = p1.id;
    back.dstPartition = p0.id;
    back.srcNode = -1;
    back.bits = 64;
    plan.channels.push_back(back);
    p1.outChannels.push_back(back.id);
    p0.inChannels.push_back(back.id);

    MicroInst consume;
    consume.kind = MicroKind::Consume;
    consume.dst = static_cast<std::uint16_t>(p0.program.numRegs++);
    consume.slot = static_cast<int>(p0.inChannels.size()) - 1;
    p0.program.insts.insert(p0.program.insts.begin(), consume);

    MicroInst produce;
    produce.kind = MicroKind::Produce;
    produce.a = consume.dst; // any defined reg would do
    produce.slot = static_cast<int>(p1.outChannels.size()) - 1;
    const std::size_t after =
        findInst(p1.program, MicroKind::Consume) + 1;
    produce.a = p1.program.insts[after - 1].dst;
    p1.program.insts.insert(
        p1.program.insts.begin() + static_cast<std::ptrdiff_t>(after),
        produce);

    const auto report = verify::verifyPlan(plan);
    EXPECT_TRUE(report.hasErrorFrom("channels"));
    EXPECT_TRUE(report.mentions("first-iteration deadlock"))
        << report.str();
}

// --- CGRA legality negatives. ---

TEST(VerifyCgra, DetectsMissingFuClass)
{
    verify::Options vo;
    vo.fabric = cgra::CgraParams{};
    vo.fabric->floatFus = 0; // stream kernel needs FAdd
    const auto report = verify::verifyPlan(distStreamPlan(), vo);
    EXPECT_TRUE(report.hasErrorFrom("cgra")) << report.str();
}

TEST(VerifyCgra, OffWithoutAFabric)
{
    // Fabric legality is checked only when the caller names a fabric
    // (RunConfig::verifyOptions() on CGRA models); the defaults check
    // the substrate-independent plan.
    EXPECT_FALSE(verify::Options{}.fabric);
}

// --- Smell warnings. ---

TEST(VerifySmells, WarnsOnDeadRegister)
{
    OffloadPlan plan = distStreamPlan();
    MicroProgram &prog = plan.partitions[0].program;
    MicroProgram::ConstReg dead;
    dead.reg = static_cast<std::uint16_t>(prog.numRegs++);
    dead.value = Word{0};
    dead.isFloat = false;
    prog.constRegs.push_back(dead);
    const auto report = verify::verifyPlan(plan);
    EXPECT_TRUE(report.ok()) << report.str(); // warning, not error
    EXPECT_GT(report.warningCount(), 0);
    EXPECT_TRUE(report.mentions("never read")) << report.str();
}

TEST(VerifySmells, WarnsOnUnreferencedAccessor)
{
    OffloadPlan plan = distStreamPlan();
    MicroProgram &prog = plan.partitions[0].program;
    const std::size_t pc = findInst(prog, MicroKind::LoadStream);
    prog.insts.erase(prog.insts.begin() +
                     static_cast<std::ptrdiff_t>(pc));
    const auto report = verify::verifyPlan(plan);
    EXPECT_TRUE(report.mentions("referenced by no instruction"))
        << report.str();
}

// --- Enforcement and engine-side rejection. ---

TEST(VerifyEnforce, WarnsEveryFindingThenPanicsOnErrors)
{
    // Warnings alone are reported and the run proceeds.
    OffloadPlan plan = distStreamPlan();
    MicroProgram &prog = plan.partitions[0].program;
    MicroProgram::ConstReg dead;
    dead.reg = static_cast<std::uint16_t>(prog.numRegs++);
    dead.value = Word{0};
    dead.isFloat = false;
    prog.constRegs.push_back(dead);
    const auto warned = verify::verifyPlan(plan);
    ASSERT_TRUE(warned.ok());
    ASSERT_GT(warned.warningCount(), 0);
    verify::enforce(warned, "test plan"); // no abort

    // An error panics, after every finding has gone to warn().
    prog.insts[0].dst = 999;
    prog.insts[0].kind = MicroKind::Alu;
    prog.insts[0].op = OpCode::Mov;
    prog.insts[0].a = 0;
    const auto failed = verify::verifyPlan(plan);
    ASSERT_FALSE(failed.ok());
    EXPECT_PANIC(verify::enforce(failed, "test plan"),
                 "warn: verify: test plan: .*never read.*"
                 "static verification of 'test plan' failed");
}

namespace
{

/** Construct an actor over @p part with empty-but-sized runtime
 *  wiring, so only seeded corruption can trip the constructor. */
void
constructActor(const Partition &part)
{
    engine::PartitionActor::Config acfg;
    acfg.part = &part;
    std::vector<engine::AccessorRuntime> accs(part.accessors.size());
    std::vector<engine::Channel *> ins(part.inChannels.size(), nullptr);
    std::vector<engine::Channel *> outs(part.outChannels.size(),
                                        nullptr);
    engine::PartitionActor actor(acfg, accs, nullptr, ins, outs, {},
                                 nullptr, nullptr, nullptr, nullptr);
}

} // namespace

TEST(VerifyEngine, ActorAcceptsWellFormedProgram)
{
    const OffloadPlan plan = distStreamPlan();
    constructActor(plan.partitions[0]); // must not panic
}

TEST(VerifyEngine, ActorRejectsCorruptRegisterIndex)
{
    OffloadPlan plan = distStreamPlan();
    Partition &part = plan.partitions[0];
    part.program.insts[0].dst = 5000;
    EXPECT_PANIC(constructActor(part), "out of range");
}

TEST(VerifyEngine, ActorRejectsCorruptSlot)
{
    OffloadPlan plan = distStreamPlan();
    Partition &part = plan.partitions[0];
    MicroProgram &prog = part.program;
    prog.insts[findInst(prog, MicroKind::Produce)].slot = 42;
    EXPECT_PANIC(constructActor(part), "slot 42 out of range");
}
