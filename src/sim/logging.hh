/**
 * @file
 * Status-message and error-reporting helpers in the gem5 style.
 *
 * panic() is for internal invariant violations (simulator bugs) and
 * aborts; fatal() is for user errors (bad configuration) and exits with
 * an error code; warn()/inform() report conditions without stopping the
 * simulation.
 */

#ifndef DISTDA_SIM_LOGGING_HH
#define DISTDA_SIM_LOGGING_HH

#include <cstdarg>
#include <cstdio>
#include <stdexcept>
#include <string>

namespace distda
{

/**
 * Thrown instead of terminating when a ScopedFailureCapture is active
 * on the calling thread and panic()/fatal() fires. Carries the
 * formatted message; isPanic distinguishes invariant violations from
 * user errors.
 */
class SimFailure : public std::runtime_error
{
  public:
    SimFailure(const std::string &msg, bool is_panic)
        : std::runtime_error(msg), _isPanic(is_panic)
    {}

    bool isPanic() const { return _isPanic; }

  private:
    bool _isPanic;
};

/**
 * RAII guard converting panic()/fatal() on the *current thread* into a
 * SimFailure exception for the guard's lifetime. Used by the sweep
 * executor so one failing job reports as failed instead of taking the
 * whole process (and every queued sibling job) down with it. Nests;
 * death-path behavior elsewhere (tests' EXPECT_DEATH) is unaffected.
 */
class ScopedFailureCapture
{
  public:
    ScopedFailureCapture();
    ~ScopedFailureCapture();

    ScopedFailureCapture(const ScopedFailureCapture &) = delete;
    ScopedFailureCapture &operator=(const ScopedFailureCapture &) =
        delete;

    /** True when a capture guard is active on this thread. */
    static bool active();
};

/** Printf-style formatting into a std::string. */
std::string vstrfmt(const char *fmt, va_list ap);

/** Printf-style formatting into a std::string. */
std::string strfmt(const char *fmt, ...)
    __attribute__((format(printf, 1, 2)));

/**
 * Abort with a message: something that should never happen happened.
 * Throws SimFailure instead when a ScopedFailureCapture is active on
 * the calling thread.
 */
[[noreturn]] void panic(const char *fmt, ...)
    __attribute__((format(printf, 1, 2)));

/**
 * Exit with a message: the simulation cannot continue (user error).
 * Throws SimFailure instead when a ScopedFailureCapture is active on
 * the calling thread.
 */
[[noreturn]] void fatal(const char *fmt, ...)
    __attribute__((format(printf, 1, 2)));

/** Report a suspicious-but-survivable condition. */
void warn(const char *fmt, ...) __attribute__((format(printf, 1, 2)));

/** Report normal operating status. */
void inform(const char *fmt, ...) __attribute__((format(printf, 1, 2)));

/** Enable/disable inform() output (quiet mode for benches). */
void setInformEnabled(bool enabled);

/** Current inform() gating state. */
bool informEnabled();

/**
 * Enable/disable warn() output. The fuzzer runs thousands of random
 * kernels whose verifier smells (dead registers etc.) are expected;
 * it silences warnings process-wide rather than drowning stderr.
 */
void setWarnEnabled(bool enabled);

/** Current warn() gating state. */
bool warnEnabled();

/**
 * DISTDA_ASSERT's failure path: panic() with the condition text, the
 * location and the formatted message. Out of line and cold, so a
 * check on a hot path costs one compare and a call, not a string
 * temporary and its cleanup.
 */
[[noreturn, gnu::cold]] void assertFailed(const char *cond,
                                          const char *file, int line,
                                          const char *fmt, ...)
    __attribute__((format(printf, 4, 5)));

/**
 * Assert-like invariant check that survives NDEBUG builds.
 * Calls panic() with the condition text when cond is false.
 */
#define DISTDA_ASSERT(cond, ...)                                          \
    do {                                                                  \
        if (!(cond)) [[unlikely]]                                         \
            ::distda::assertFailed(#cond, __FILE__, __LINE__,             \
                                   __VA_ARGS__);                          \
    } while (0)

} // namespace distda

#endif // DISTDA_SIM_LOGGING_HH
