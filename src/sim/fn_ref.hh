/**
 * @file
 * A non-owning reference to a callable: a function pointer plus a
 * context pointer. Memory ports and cache downstreams sit on the
 * per-access simulation hot path, where a std::function's type-erased
 * call (and possible heap allocation) showed up in profiles; this is
 * one indirect call through a plain pointer.
 */

#ifndef DISTDA_SIM_FN_REF_HH
#define DISTDA_SIM_FN_REF_HH

namespace distda::sim
{

template <typename Signature>
class FnRef;

/**
 * Calls `fn(ctx, args...)`. The context must outlive the reference;
 * users point it at simulator components owned alongside the holder.
 */
template <typename R, typename... Args>
class FnRef<R(Args...)>
{
  public:
    using Fn = R (*)(void *, Args...);

    FnRef() = default;
    FnRef(Fn fn, void *ctx) : _fn(fn), _ctx(ctx) {}

    /** Adapt any callable lvalue; @p f must outlive the reference. */
    template <typename F>
    static FnRef
    of(F &f)
    {
        return FnRef(
            [](void *ctx, Args... args) -> R {
                return (*static_cast<F *>(ctx))(args...);
            },
            &f);
    }

    R operator()(Args... args) const { return _fn(_ctx, args...); }

    explicit operator bool() const { return _fn != nullptr; }

  private:
    Fn _fn = nullptr;
    void *_ctx = nullptr;
};

} // namespace distda::sim

#endif // DISTDA_SIM_FN_REF_HH
