#include "src/sim/logging.hh"

#include <atomic>
#include <cstdlib>
#include <vector>

namespace distda
{

namespace
{
// Toggled by drivers while worker threads may be mid-run, so atomic;
// it only gates status output.
std::atomic<bool> informEnabledFlag{true};
std::atomic<bool> warnEnabledFlag{true};

// Per-thread nesting depth of active ScopedFailureCapture guards.
thread_local int captureDepth = 0;
} // namespace

ScopedFailureCapture::ScopedFailureCapture()
{
    ++captureDepth;
}

ScopedFailureCapture::~ScopedFailureCapture()
{
    --captureDepth;
}

bool
ScopedFailureCapture::active()
{
    return captureDepth > 0;
}

std::string
vstrfmt(const char *fmt, va_list ap)
{
    va_list ap_copy;
    va_copy(ap_copy, ap);
    int n = std::vsnprintf(nullptr, 0, fmt, ap_copy);
    va_end(ap_copy);
    if (n < 0)
        return std::string(fmt);
    std::vector<char> buf(static_cast<size_t>(n) + 1);
    std::vsnprintf(buf.data(), buf.size(), fmt, ap);
    return std::string(buf.data(), static_cast<size_t>(n));
}

std::string
strfmt(const char *fmt, ...)
{
    va_list ap;
    va_start(ap, fmt);
    std::string s = vstrfmt(fmt, ap);
    va_end(ap);
    return s;
}

void
panic(const char *fmt, ...)
{
    va_list ap;
    va_start(ap, fmt);
    std::string s = vstrfmt(fmt, ap);
    va_end(ap);
    if (ScopedFailureCapture::active())
        throw SimFailure("panic: " + s, true);
    std::fprintf(stderr, "panic: %s\n", s.c_str());
    std::abort();
}

void
assertFailed(const char *cond, const char *file, int line,
             const char *fmt, ...)
{
    va_list ap;
    va_start(ap, fmt);
    const std::string msg = vstrfmt(fmt, ap);
    va_end(ap);
    panic("assertion '%s' failed at %s:%d: %s", cond, file, line,
          msg.c_str());
}

void
fatal(const char *fmt, ...)
{
    va_list ap;
    va_start(ap, fmt);
    std::string s = vstrfmt(fmt, ap);
    va_end(ap);
    if (ScopedFailureCapture::active())
        throw SimFailure("fatal: " + s, false);
    std::fprintf(stderr, "fatal: %s\n", s.c_str());
    std::exit(1);
}

void
warn(const char *fmt, ...)
{
    if (!warnEnabledFlag.load(std::memory_order_relaxed))
        return;
    va_list ap;
    va_start(ap, fmt);
    std::string s = vstrfmt(fmt, ap);
    va_end(ap);
    std::fprintf(stderr, "warn: %s\n", s.c_str());
}

void
inform(const char *fmt, ...)
{
    if (!informEnabledFlag.load(std::memory_order_relaxed))
        return;
    va_list ap;
    va_start(ap, fmt);
    std::string s = vstrfmt(fmt, ap);
    va_end(ap);
    std::fprintf(stdout, "info: %s\n", s.c_str());
}

void
setInformEnabled(bool enabled)
{
    informEnabledFlag.store(enabled, std::memory_order_relaxed);
}

bool
informEnabled()
{
    return informEnabledFlag.load(std::memory_order_relaxed);
}

void
setWarnEnabled(bool enabled)
{
    warnEnabledFlag.store(enabled, std::memory_order_relaxed);
}

bool
warnEnabled()
{
    return warnEnabledFlag.load(std::memory_order_relaxed);
}

} // namespace distda
