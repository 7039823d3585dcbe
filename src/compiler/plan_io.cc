#include "src/compiler/plan_io.hh"

#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <cinttypes>
#include <cstdio>
#include <cstring>
#include <fstream>

#include "src/sim/logging.hh"

namespace distda::compiler
{

namespace planio
{

const char *
kindName(NodeKind k)
{
    switch (k) {
      case NodeKind::MemObject: return "memobject";
      case NodeKind::Access: return "access";
      case NodeKind::Compute: return "compute";
      case NodeKind::IndVar: return "indvar";
      case NodeKind::Param: return "param";
      case NodeKind::ConstInt: return "constint";
      case NodeKind::ConstFloat: return "constfloat";
      case NodeKind::Carry: return "carry";
      default: panic("bad node kind %d", static_cast<int>(k));
    }
}

NodeKind
kindFromName(const std::string &s)
{
    for (int k = 0; k <= static_cast<int>(NodeKind::Carry); ++k) {
        if (s == kindName(static_cast<NodeKind>(k)))
            return static_cast<NodeKind>(k);
    }
    fatal("plan text: unknown node kind '%s'", s.c_str());
}

OpCode
opFromName(const std::string &s)
{
    for (int o = 0; o <= static_cast<int>(OpCode::Mov); ++o) {
        if (s == opName(static_cast<OpCode>(o)))
            return static_cast<OpCode>(o);
    }
    fatal("plan text: unknown opcode '%s'", s.c_str());
}

std::string
sanitizeName(const std::string &name)
{
    if (name.empty())
        return "-";
    std::string out = name;
    for (char &c : out) {
        if (c == ' ' || c == '\t' || c == '\n' || c == '\r')
            c = '_';
    }
    return out;
}

std::string
readName(std::istringstream &in, const char *what)
{
    std::string s;
    if (!(in >> s))
        fatal("plan text: missing %s", what);
    return s == "-" ? std::string{} : s;
}

std::int64_t
readI64(std::istringstream &in, const char *what)
{
    std::int64_t v;
    if (!(in >> v))
        fatal("plan text: bad integer field %s", what);
    return v;
}

std::uint64_t
readU64(std::istringstream &in, const char *what)
{
    std::uint64_t v;
    if (!(in >> v))
        fatal("plan text: bad unsigned field %s", what);
    return v;
}

std::uint64_t
readHex(std::istringstream &in, const char *what)
{
    std::string s;
    if (!(in >> s))
        fatal("plan text: missing hex field %s", what);
    std::uint64_t v = 0;
    if (std::sscanf(s.c_str(), "0x%" SCNx64, &v) != 1)
        fatal("plan text: bad hex field %s: '%s'", what, s.c_str());
    return v;
}

std::uint64_t
wordBits(Word w)
{
    std::uint64_t u;
    std::memcpy(&u, &w, sizeof(u));
    return u;
}

Word
wordFromBits(std::uint64_t u)
{
    Word w;
    std::memcpy(&w, &u, sizeof(w));
    return w;
}

std::string
hexWord(std::uint64_t bits)
{
    char buf[32];
    std::snprintf(buf, sizeof(buf), "0x%016" PRIx64, bits);
    return buf;
}

void
writeNode(std::ostream &out, const Node &n)
{
    out << "node " << n.id << ' ' << kindName(n.kind) << ' ' << n.bits
        << ' ' << n.objId << ' '
        << (n.dir == AccessDir::Store ? 'S' : 'L') << ' '
        << (n.pattern == PatternKind::Indirect ? 'I' : 'A') << ' '
        << n.affine.constBase << ' ' << n.affine.ivCoeff << ' '
        << n.affine.paramCoeffs.size();
    for (std::int64_t c : n.affine.paramCoeffs)
        out << ' ' << c;
    out << ' ' << n.addrInput << ' ' << n.valueInput << ' '
        << n.predInput << ' ' << (n.elemIsFloat ? 1 : 0) << ' '
        << opName(n.op) << ' ' << n.inputA << ' ' << n.inputB
        << ' ' << n.inputC << ' ' << n.paramIdx << ' '
        << hexWord(wordBits(n.imm)) << ' '
        << hexWord(wordBits(n.carryInit)) << ' ' << n.carryUpdate << ' '
        << (n.carryIsFloat ? 1 : 0) << ' ' << sanitizeName(n.name)
        << '\n';
}

Node
readNode(std::istringstream &in)
{
    Node n;
    n.id = static_cast<int>(readI64(in, "node id"));
    std::string kind;
    in >> kind;
    n.kind = kindFromName(kind);
    n.bits = static_cast<std::uint32_t>(readU64(in, "bits"));
    n.objId = static_cast<int>(readI64(in, "objId"));
    std::string dir, pat;
    in >> dir >> pat;
    if (dir != "L" && dir != "S")
        fatal("plan text: bad access dir '%s'", dir.c_str());
    if (pat != "A" && pat != "I")
        fatal("plan text: bad access pattern '%s'", pat.c_str());
    n.dir = dir == "S" ? AccessDir::Store : AccessDir::Load;
    n.pattern = pat == "I" ? PatternKind::Indirect : PatternKind::Affine;
    n.affine.constBase = readI64(in, "constBase");
    n.affine.ivCoeff = readI64(in, "ivCoeff");
    const std::uint64_t npc = readU64(in, "paramCoeff count");
    if (npc > 64)
        fatal("plan text: absurd paramCoeff count %llu",
              static_cast<unsigned long long>(npc));
    n.affine.paramCoeffs.resize(npc);
    for (std::uint64_t k = 0; k < npc; ++k)
        n.affine.paramCoeffs[k] = readI64(in, "paramCoeff");
    n.addrInput = static_cast<int>(readI64(in, "addrInput"));
    n.valueInput = static_cast<int>(readI64(in, "valueInput"));
    n.predInput = static_cast<int>(readI64(in, "predInput"));
    n.elemIsFloat = readI64(in, "elemIsFloat") != 0;
    std::string op;
    in >> op;
    n.op = opFromName(op);
    n.inputA = static_cast<int>(readI64(in, "inputA"));
    n.inputB = static_cast<int>(readI64(in, "inputB"));
    n.inputC = static_cast<int>(readI64(in, "inputC"));
    n.paramIdx = static_cast<int>(readI64(in, "paramIdx"));
    n.imm = wordFromBits(readHex(in, "imm"));
    n.carryInit = wordFromBits(readHex(in, "carryInit"));
    n.carryUpdate = static_cast<int>(readI64(in, "carryUpdate"));
    n.carryIsFloat = readI64(in, "carryIsFloat") != 0;
    n.name = readName(in, "node name");
    return n;
}

void
writeKernelLines(std::ostream &out, const Kernel &k)
{
    out << "kernel " << sanitizeName(k.name) << '\n';
    out << "loop " << k.loop.staticExtent << ' ' << k.loop.extentParam
        << ' ' << sanitizeName(k.loop.name) << '\n';
    for (const MemObjectDecl &o : k.objects) {
        out << "kobject " << o.id << ' ' << o.elemCount << ' '
            << o.elemBytes << ' ' << (o.isFloat ? 1 : 0) << ' '
            << sanitizeName(o.name) << '\n';
    }
    for (const std::string &p : k.paramNames)
        out << "kparam " << sanitizeName(p) << '\n';
    for (const Node &n : k.nodes)
        writeNode(out, n);
    for (int r : k.resultCarries)
        out << "result " << r << '\n';
    out << "endkernel\n";
}

bool
KernelLineReader::consume(const std::string &tok, std::istringstream &in)
{
    if (tok == "kernel") {
        if (_active)
            fatal("plan text: nested kernel");
        _pending = Kernel{};
        _pending.name = readName(in, "kernel name");
        _active = true;
        return true;
    }
    if (tok == "loop") {
        if (!_active)
            fatal("plan text: loop outside kernel");
        _pending.loop.staticExtent = readI64(in, "staticExtent");
        _pending.loop.extentParam =
            static_cast<int>(readI64(in, "extentParam"));
        _pending.loop.name = readName(in, "loop name");
        return true;
    }
    if (tok == "kobject") {
        if (!_active)
            fatal("plan text: kobject outside kernel");
        MemObjectDecl o;
        o.id = static_cast<int>(readI64(in, "kobject id"));
        o.elemCount = readU64(in, "kobject count");
        o.elemBytes =
            static_cast<std::uint32_t>(readU64(in, "kobject bytes"));
        o.isFloat = readI64(in, "kobject float") != 0;
        o.name = readName(in, "kobject name");
        _pending.objects.push_back(std::move(o));
        return true;
    }
    if (tok == "kparam") {
        if (!_active)
            fatal("plan text: kparam outside kernel");
        _pending.paramNames.push_back(readName(in, "kparam name"));
        return true;
    }
    if (tok == "node") {
        if (!_active)
            fatal("plan text: node outside kernel");
        _pending.nodes.push_back(readNode(in));
        return true;
    }
    if (tok == "result") {
        if (!_active)
            fatal("plan text: result outside kernel");
        _pending.resultCarries.push_back(
            static_cast<int>(readI64(in, "result node")));
        return true;
    }
    if (tok == "endkernel") {
        if (!_active)
            fatal("plan text: endkernel without kernel");
        kernels.push_back(std::move(_pending));
        _pending = Kernel{};
        _active = false;
        return true;
    }
    return false;
}

} // namespace planio

namespace
{

using planio::hexWord;
using planio::readHex;
using planio::readI64;
using planio::readName;
using planio::readU64;
using planio::sanitizeName;
using planio::wordBits;
using planio::wordFromBits;

const char *
placementName(PlacementLevel l)
{
    return l == PlacementLevel::NearHost ? "nearhost" : "llc";
}

PlacementLevel
placementFromName(const std::string &s)
{
    if (s == "llc")
        return PlacementLevel::Llc;
    if (s == "nearhost")
        return PlacementLevel::NearHost;
    fatal("plan text: unknown placement level '%s'", s.c_str());
}

const char *
microKindName(MicroKind k)
{
    switch (k) {
      case MicroKind::Alu: return "alu";
      case MicroKind::LoadStream: return "loadstream";
      case MicroKind::StoreStream: return "storestream";
      case MicroKind::LoadIdx: return "loadidx";
      case MicroKind::StoreIdx: return "storeidx";
      case MicroKind::Consume: return "consume";
      case MicroKind::Produce: return "produce";
      case MicroKind::CarryWrite: return "carrywrite";
      default: panic("bad micro kind %d", static_cast<int>(k));
    }
}

MicroKind
microKindFromName(const std::string &s)
{
    for (int k = 0; k <= static_cast<int>(MicroKind::CarryWrite); ++k) {
        if (s == microKindName(static_cast<MicroKind>(k)))
            return static_cast<MicroKind>(k);
    }
    fatal("plan text: unknown micro kind '%s'", s.c_str());
}

DfgClass
dfgClassFromName(const std::string &s)
{
    for (int c = 0; c <= static_cast<int>(DfgClass::NonPartitionable);
         ++c) {
        if (s == dfgClassName(static_cast<DfgClass>(c)))
            return static_cast<DfgClass>(c);
    }
    fatal("plan text: unknown DFG class '%s'", s.c_str());
}

/** %.17g: shortest text that always round-trips binary64 exactly. */
std::string
fmtDouble(double v)
{
    char buf[40];
    std::snprintf(buf, sizeof(buf), "%.17g", v);
    return buf;
}

double
readDouble(std::istringstream &in, const char *what)
{
    double v;
    if (!(in >> v))
        fatal("plan text: bad double field %s", what);
    return v;
}

void
writeOptionsLine(std::ostream &out, const CompileOptions &opts)
{
    out << "options " << (opts.partition ? 1 : 0) << ' '
        << (opts.swPrefetch ? 1 : 0) << ' '
        << (opts.enableCombining ? 1 : 0) << ' ' << opts.bufferBytes
        << ' ' << opts.channelCapacity << '\n';
}

void
writeAccessorLine(std::ostream &out, const AccessorDef &a)
{
    out << "accessor " << a.node << ' ' << a.objId << ' '
        << (a.dir == AccessDir::Store ? 'S' : 'L') << ' '
        << (a.pattern == PatternKind::Indirect ? 'I' : 'A') << ' '
        << a.affine.constBase << ' ' << a.affine.ivCoeff << ' '
        << a.affine.paramCoeffs.size();
    for (std::int64_t c : a.affine.paramCoeffs)
        out << ' ' << c;
    out << ' ' << a.elemBytes << ' ' << (a.elemIsFloat ? 1 : 0) << ' '
        << a.accessId << ' ' << a.bufferSlot << ' ' << a.combinedWithSlot
        << ' ' << a.combineDistance << '\n';
}

AccessorDef
readAccessorLine(std::istringstream &in)
{
    AccessorDef a;
    a.node = static_cast<int>(readI64(in, "accessor node"));
    a.objId = static_cast<int>(readI64(in, "accessor objId"));
    std::string dir, pat;
    in >> dir >> pat;
    if (dir != "L" && dir != "S")
        fatal("plan text: bad accessor dir '%s'", dir.c_str());
    if (pat != "A" && pat != "I")
        fatal("plan text: bad accessor pattern '%s'", pat.c_str());
    a.dir = dir == "S" ? AccessDir::Store : AccessDir::Load;
    a.pattern = pat == "I" ? PatternKind::Indirect : PatternKind::Affine;
    a.affine.constBase = readI64(in, "accessor constBase");
    a.affine.ivCoeff = readI64(in, "accessor ivCoeff");
    const std::uint64_t npc = readU64(in, "accessor paramCoeff count");
    if (npc > 64)
        fatal("plan text: absurd accessor paramCoeff count %llu",
              static_cast<unsigned long long>(npc));
    a.affine.paramCoeffs.resize(npc);
    for (std::uint64_t k = 0; k < npc; ++k)
        a.affine.paramCoeffs[k] = readI64(in, "accessor paramCoeff");
    a.elemBytes =
        static_cast<std::uint32_t>(readU64(in, "accessor elemBytes"));
    a.elemIsFloat = readI64(in, "accessor elemIsFloat") != 0;
    a.accessId = static_cast<int>(readI64(in, "accessor accessId"));
    a.bufferSlot = static_cast<int>(readI64(in, "accessor bufferSlot"));
    a.combinedWithSlot =
        static_cast<int>(readI64(in, "accessor combinedWithSlot"));
    a.combineDistance = readI64(in, "accessor combineDistance");
    return a;
}

void
writePartitionLines(std::ostream &out, const Partition &p)
{
    out << "partition " << p.id << ' ' << p.objId << ' '
        << placementName(p.level) << ' ' << p.streamBuffers << ' '
        << p.nodes.size();
    for (int n : p.nodes)
        out << ' ' << n;
    out << '\n';
    out << "inch " << p.inChannels.size();
    for (int c : p.inChannels)
        out << ' ' << c;
    out << '\n';
    out << "outch " << p.outChannels.size();
    for (int c : p.outChannels)
        out << ' ' << c;
    out << '\n';
    for (const AccessorDef &a : p.accessors)
        writeAccessorLine(out, a);
    const MicroProgram &prog = p.program;
    out << "program " << prog.numRegs << ' ' << prog.ivReg << '\n';
    for (const MicroInst &inst : prog.insts) {
        out << "inst " << microKindName(inst.kind) << ' '
            << opName(inst.op) << ' ' << inst.dst << ' ' << inst.a << ' '
            << inst.b << ' ' << inst.c << ' ' << inst.slot << '\n';
    }
    for (const auto &[param, reg] : prog.paramRegs)
        out << "preg " << param << ' ' << reg << '\n';
    for (const MicroProgram::ConstReg &cr : prog.constRegs) {
        out << "creg " << cr.reg << ' ' << hexWord(wordBits(cr.value))
            << ' ' << (cr.isFloat ? 1 : 0) << '\n';
    }
    for (const CarrySlot &cs : prog.carries) {
        out << "carry " << cs.reg << ' ' << hexWord(wordBits(cs.init))
            << ' ' << (cs.isFloat ? 1 : 0) << ' ' << cs.node << '\n';
    }
    out << "endpartition\n";
}

std::uint16_t
readReg(std::istringstream &in, const char *what)
{
    const std::uint64_t v = readU64(in, what);
    if (v > 0xffff)
        fatal("plan text: register field %s out of range", what);
    return static_cast<std::uint16_t>(v);
}

} // namespace

std::string
planFingerprint(const Kernel &kernel, const CompileOptions &opts)
{
    std::ostringstream canon;
    planio::writeKernelLines(canon, kernel);
    writeOptionsLine(canon, opts);
    const std::string text = canon.str();
    // FNV-1a 64: stable across platforms, no dependence on pointer
    // values or container layout — only on the canonical text.
    std::uint64_t h = 14695981039346656037ULL;
    for (unsigned char c : text) {
        h ^= c;
        h *= 1099511628211ULL;
    }
    char buf[24];
    std::snprintf(buf, sizeof(buf), "%016" PRIx64, h);
    return buf;
}

std::string
serializePlan(const OffloadPlan &plan)
{
    std::ostringstream out;
    out << planMagic << '\n';
    out << "fingerprint "
        << (plan.fingerprint.empty()
                ? planFingerprint(plan.kernel, plan.options)
                : plan.fingerprint)
        << '\n';
    writeOptionsLine(out, plan.options);
    out << "dep " << dfgClassName(plan.dep.cls) << ' '
        << (plan.dep.hasCarry ? 1 : 0) << ' '
        << (plan.dep.hasIndirectWrite ? 1 : 0) << ' '
        << (plan.dep.hasCarriedMemDep ? 1 : 0) << ' '
        << (plan.dep.hasMemoryRecurrence ? 1 : 0) << ' '
        << plan.dep.loadChainDepth << ' ' << plan.dep.carryChainCycles
        << '\n';
    planio::writeKernelLines(out, plan.kernel);
    for (const ChannelDef &c : plan.channels) {
        out << "channel " << c.id << ' ' << c.srcPartition << ' '
            << c.dstPartition << ' ' << c.srcNode << ' ' << c.bits << ' '
            << (c.control ? 1 : 0) << '\n';
    }
    for (const Partition &p : plan.partitions)
        writePartitionLines(out, p);
    out << "mech";
    for (bool b : plan.mechanisms)
        out << ' ' << (b ? 1 : 0);
    out << '\n';
    const OffloadCharacteristics &ch = plan.characteristics;
    out << "chars " << ch.numPartitions << ' ' << ch.maxInsts << ' '
        << ch.dfgLevels << ' ' << ch.dfgWidth << ' ' << ch.maxInstBytes
        << ' ' << fmtDouble(ch.avgBuffers) << ' '
        << fmtDouble(ch.commBytesPerIter) << '\n';
    out << "end\n";
    return out.str();
}

OffloadPlan
parsePlan(const std::string &text)
{
    OffloadPlan plan;
    std::istringstream lines(text);
    std::string line;
    if (!std::getline(lines, line) || line != planMagic)
        fatal("plan artifact: bad header '%s'", line.c_str());
    planio::KernelLineReader kreader;
    Partition *part = nullptr;
    Partition pending;
    bool saw_end = false;
    bool saw_chars = false;
    while (std::getline(lines, line)) {
        if (line.empty() || line[0] == '#')
            continue;
        std::istringstream in(line);
        std::string tok;
        in >> tok;
        if (tok == "end") {
            saw_end = true;
            // The document ends here; anything after it is noise a
            // caller should know about, not silently drop.
            while (std::getline(lines, line)) {
                if (!line.empty() && line[0] != '#')
                    fatal("plan artifact: trailing content after "
                          "'end': '%s'",
                          line.c_str());
            }
            break;
        }
        if (kreader.consume(tok, in))
            continue;
        if (tok == "fingerprint") {
            plan.fingerprint = readName(in, "fingerprint");
        } else if (tok == "options") {
            plan.options.partition = readI64(in, "partition") != 0;
            plan.options.swPrefetch = readI64(in, "swPrefetch") != 0;
            plan.options.enableCombining =
                readI64(in, "enableCombining") != 0;
            plan.options.bufferBytes = static_cast<std::uint32_t>(
                readU64(in, "bufferBytes"));
            plan.options.channelCapacity =
                static_cast<int>(readI64(in, "channelCapacity"));
        } else if (tok == "dep") {
            plan.dep.cls = dfgClassFromName(readName(in, "dep class"));
            plan.dep.hasCarry = readI64(in, "hasCarry") != 0;
            plan.dep.hasIndirectWrite =
                readI64(in, "hasIndirectWrite") != 0;
            plan.dep.hasCarriedMemDep =
                readI64(in, "hasCarriedMemDep") != 0;
            plan.dep.hasMemoryRecurrence =
                readI64(in, "hasMemoryRecurrence") != 0;
            plan.dep.loadChainDepth =
                static_cast<int>(readI64(in, "loadChainDepth"));
            plan.dep.carryChainCycles =
                static_cast<int>(readI64(in, "carryChainCycles"));
        } else if (tok == "channel") {
            ChannelDef c;
            c.id = static_cast<int>(readI64(in, "channel id"));
            c.srcPartition =
                static_cast<int>(readI64(in, "channel srcPartition"));
            c.dstPartition =
                static_cast<int>(readI64(in, "channel dstPartition"));
            c.srcNode = static_cast<int>(readI64(in, "channel srcNode"));
            c.bits =
                static_cast<std::uint32_t>(readU64(in, "channel bits"));
            c.control = readI64(in, "channel control") != 0;
            plan.channels.push_back(c);
        } else if (tok == "partition") {
            if (part)
                fatal("plan artifact: nested partition");
            pending = Partition{};
            pending.id = static_cast<int>(readI64(in, "partition id"));
            pending.objId =
                static_cast<int>(readI64(in, "partition objId"));
            pending.level =
                placementFromName(readName(in, "partition level"));
            pending.streamBuffers =
                static_cast<int>(readI64(in, "streamBuffers"));
            const std::uint64_t nn = readU64(in, "partition node count");
            if (nn > 100000)
                fatal("plan artifact: absurd partition node count");
            for (std::uint64_t i = 0; i < nn; ++i) {
                pending.nodes.push_back(
                    static_cast<int>(readI64(in, "partition node")));
            }
            part = &pending;
        } else if (tok == "inch" || tok == "outch") {
            if (!part)
                fatal("plan artifact: %s outside partition",
                      tok.c_str());
            std::vector<int> &dst =
                tok == "inch" ? part->inChannels : part->outChannels;
            const std::uint64_t nc = readU64(in, "channel-list count");
            if (nc > 100000)
                fatal("plan artifact: absurd channel-list count");
            for (std::uint64_t i = 0; i < nc; ++i) {
                dst.push_back(
                    static_cast<int>(readI64(in, "channel-list id")));
            }
        } else if (tok == "accessor") {
            if (!part)
                fatal("plan artifact: accessor outside partition");
            part->accessors.push_back(readAccessorLine(in));
        } else if (tok == "program") {
            if (!part)
                fatal("plan artifact: program outside partition");
            part->program.numRegs =
                static_cast<int>(readI64(in, "program numRegs"));
            part->program.ivReg = readReg(in, "program ivReg");
        } else if (tok == "inst") {
            if (!part)
                fatal("plan artifact: inst outside partition");
            MicroInst inst;
            inst.kind = microKindFromName(readName(in, "inst kind"));
            inst.op = planio::opFromName(readName(in, "inst op"));
            inst.dst = readReg(in, "inst dst");
            inst.a = readReg(in, "inst a");
            inst.b = readReg(in, "inst b");
            inst.c = readReg(in, "inst c");
            inst.slot = static_cast<std::int32_t>(
                readI64(in, "inst slot"));
            part->program.insts.push_back(inst);
        } else if (tok == "preg") {
            if (!part)
                fatal("plan artifact: preg outside partition");
            const int param =
                static_cast<int>(readI64(in, "preg param"));
            part->program.paramRegs.emplace_back(
                param, readReg(in, "preg reg"));
        } else if (tok == "creg") {
            if (!part)
                fatal("plan artifact: creg outside partition");
            MicroProgram::ConstReg cr;
            cr.reg = readReg(in, "creg reg");
            cr.value = wordFromBits(readHex(in, "creg value"));
            cr.isFloat = readI64(in, "creg isFloat") != 0;
            part->program.constRegs.push_back(cr);
        } else if (tok == "carry") {
            if (!part)
                fatal("plan artifact: carry outside partition");
            CarrySlot cs;
            cs.reg = readReg(in, "carry reg");
            cs.init = wordFromBits(readHex(in, "carry init"));
            cs.isFloat = readI64(in, "carry isFloat") != 0;
            cs.node = static_cast<int>(readI64(in, "carry node"));
            part->program.carries.push_back(cs);
        } else if (tok == "endpartition") {
            if (!part)
                fatal("plan artifact: endpartition without partition");
            plan.partitions.push_back(std::move(pending));
            part = nullptr;
        } else if (tok == "mech") {
            for (bool &b : plan.mechanisms)
                b = readI64(in, "mech bit") != 0;
        } else if (tok == "chars") {
            OffloadCharacteristics &ch = plan.characteristics;
            ch.numPartitions =
                static_cast<int>(readI64(in, "numPartitions"));
            ch.maxInsts = static_cast<int>(readI64(in, "maxInsts"));
            ch.dfgLevels = static_cast<int>(readI64(in, "dfgLevels"));
            ch.dfgWidth = static_cast<int>(readI64(in, "dfgWidth"));
            ch.maxInstBytes =
                static_cast<int>(readI64(in, "maxInstBytes"));
            ch.avgBuffers = readDouble(in, "avgBuffers");
            ch.commBytesPerIter = readDouble(in, "commBytesPerIter");
            saw_chars = true;
        } else {
            fatal("plan artifact: unknown line '%s'", line.c_str());
        }
    }
    if (part || kreader.inKernel())
        fatal("plan artifact: unterminated section");
    if (!saw_end)
        fatal("plan artifact: missing end marker");
    if (kreader.kernels.size() != 1)
        fatal("plan artifact: expected exactly one kernel, got %zu",
              kreader.kernels.size());
    if (!saw_chars)
        fatal("plan artifact: missing chars line");
    if (plan.fingerprint.empty())
        fatal("plan artifact: missing fingerprint");
    plan.kernel = std::move(kreader.kernels.front());
    return plan;
}

std::string
validatePlanArtifact(const OffloadPlan &plan)
{
    const std::string kerr = plan.kernel.defect();
    if (!kerr.empty())
        return strfmt("kernel malformed: %s", kerr.c_str());
    const std::string fp =
        planFingerprint(plan.kernel, plan.options);
    if (plan.fingerprint != fp) {
        return strfmt("fingerprint mismatch: recorded %s, content %s",
                      plan.fingerprint.c_str(), fp.c_str());
    }
    return {};
}

std::string
planArtifactFile(const std::string &kernel_name,
                 const std::string &fingerprint)
{
    std::string stem = sanitizeName(kernel_name);
    for (char &c : stem) {
        if (c == '/' || c == '\\')
            c = '-';
    }
    return stem + "-" + fingerprint + ".plan";
}

void
savePlan(const OffloadPlan &plan, const std::string &path)
{
    // Temp-file + rename: concurrent writers of the same fingerprint
    // (sweep jobs, or processes sharing a --plan-dir) each write a
    // private temp file, so none truncates or renames away another's
    // and no reader ever sees a torn artifact.
    static std::atomic<unsigned> serial{0};
    const std::string tmp = strfmt("%s.tmp.%d.%u", path.c_str(),
                                   static_cast<int>(::getpid()),
                                   serial.fetch_add(1));
    {
        std::ofstream out(tmp);
        if (!out)
            fatal("cannot write plan artifact '%s'", tmp.c_str());
        out << serializePlan(plan);
        if (!out.good())
            fatal("write to plan artifact '%s' failed", tmp.c_str());
    }
    if (std::rename(tmp.c_str(), path.c_str()) != 0)
        fatal("cannot rename plan artifact into '%s'", path.c_str());
}

OffloadPlan
loadPlan(const std::string &path)
{
    std::ifstream in(path);
    if (!in)
        fatal("cannot read plan artifact '%s'", path.c_str());
    std::ostringstream buf;
    buf << in.rdbuf();
    return parsePlan(buf.str());
}

} // namespace distda::compiler
