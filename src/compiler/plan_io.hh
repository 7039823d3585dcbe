/**
 * @file
 * Serializable Plan artifacts: a versioned, line-oriented text
 * round-trip of OffloadPlan in the style of the fuzz `.repro` format,
 * plus the stable content fingerprint that keys the process-wide
 * PlanCache and names artifact files.
 *
 * The format is exact: serializePlan(parsePlan(serializePlan(p)))
 * is byte-identical to serializePlan(p). Doubles are printed with
 * %.17g (lossless for IEEE-754 binary64) and Word values as 16-digit
 * hex bit patterns, so a deserialized plan — never touched by a live
 * engine — instantiates and runs identically to a freshly compiled
 * one. The differential fuzzer's replan leg enforces this per case.
 *
 * The kernel-line sub-format (kernel/loop/kobject/kparam/node/result/
 * endkernel) is shared verbatim with the fuzz reproducer writer in
 * src/fuzz/case.cc through the planio helpers below, so committed
 * `.repro` corpus files stay byte-identical.
 */

#ifndef DISTDA_COMPILER_PLAN_IO_HH
#define DISTDA_COMPILER_PLAN_IO_HH

#include <iosfwd>
#include <sstream>
#include <string>
#include <vector>

#include "src/compiler/plan.hh"

namespace distda::compiler
{

/** First line of every plan artifact; bump on format changes. */
constexpr const char *planMagic = "distda-plan v2";

/**
 * Stable content fingerprint of (canonicalized kernel, options):
 * 16 lowercase hex digits (FNV-1a 64 over the canonical kernel text
 * and every CompileOptions field). Two compiles agree on the
 * fingerprint iff they would produce the same plan, which makes it
 * safe as a cache key and as the artifact-file stem.
 */
std::string planFingerprint(const Kernel &kernel,
                            const CompileOptions &opts);

/** Serialize @p plan to the versioned text artifact. */
std::string serializePlan(const OffloadPlan &plan);

/** Parse an artifact; fatal() on malformed or truncated input. */
OffloadPlan parsePlan(const std::string &text);

/**
 * Identity check of a (possibly deserialized) plan: kernel
 * well-formedness and that the recorded fingerprint matches the
 * recomputed one. Returns an empty string when both hold, else a
 * one-line description of the defect. The plan's contents are checked
 * by verify::verifyPlan, which ExecContext runs on every plan it
 * acquires.
 */
std::string validatePlanArtifact(const OffloadPlan &plan);

/**
 * Artifact file name for a kernel under a --plan-dir:
 * "<sanitized-kernel-name>-<fingerprint>.plan". The fingerprint in
 * the name makes stale artifacts (kernel or options changed) simply
 * miss instead of loading wrong plans.
 */
std::string planArtifactFile(const std::string &kernel_name,
                             const std::string &fingerprint);

/** Write @p plan to @p path atomically (temp file + rename). */
void savePlan(const OffloadPlan &plan, const std::string &path);

/** Load and parse an artifact file; fatal() on I/O or parse errors. */
OffloadPlan loadPlan(const std::string &path);

/**
 * The kernel-line sub-format shared between plan artifacts and fuzz
 * `.repro` files: low-level token readers/writers plus a line-dispatch
 * reader that both parsers feed.
 */
namespace planio
{

const char *kindName(NodeKind k);
NodeKind kindFromName(const std::string &s);
OpCode opFromName(const std::string &s);

/** Names are labels only; keep them one whitespace-free token. */
std::string sanitizeName(const std::string &name);

std::string readName(std::istringstream &in, const char *what);
std::int64_t readI64(std::istringstream &in, const char *what);
std::uint64_t readU64(std::istringstream &in, const char *what);
std::uint64_t readHex(std::istringstream &in, const char *what);

std::uint64_t wordBits(Word w);
Word wordFromBits(std::uint64_t u);

/** "0x%016x" rendering of a Word bit pattern. */
std::string hexWord(std::uint64_t bits);

void writeNode(std::ostream &out, const Node &n);
Node readNode(std::istringstream &in);

/** Emit the full kernel section (kernel .. endkernel lines). */
void writeKernelLines(std::ostream &out, const Kernel &k);

/**
 * Incremental reader for kernel sections inside a larger line-based
 * document. Feed it each line's leading token: it consumes the tokens
 * of the kernel sub-format and appends to @ref kernels at every
 * endkernel; any other token is left to the caller.
 */
class KernelLineReader
{
  public:
    /** True iff @p tok belonged to the kernel sub-format (consumed). */
    bool consume(const std::string &tok, std::istringstream &in);

    /** True while between "kernel" and its "endkernel". */
    bool inKernel() const { return _active; }

    std::vector<Kernel> kernels;

  private:
    Kernel _pending;
    bool _active = false;
};

} // namespace planio

} // namespace distda::compiler

#endif // DISTDA_COMPILER_PLAN_IO_HH
