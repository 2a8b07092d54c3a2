/**
 * @file
 * Small-buffer callable for the event kernel.
 *
 * std::function heap-allocates any capture larger than its tiny
 * internal buffer (16 bytes in libstdc++), which used to cost the
 * simulator one allocation per scheduled event -- the single largest
 * line item on the host-side hot path (docs/PERFORMANCE.md).
 * EventCallback stores every simulator callback inline: the largest
 * capture on the hot path is Simulation::issueMemOp's
 * [this, &thread, OpRequest] at 56 bytes, so the 64-byte buffer covers
 * everything the timing model schedules.  A larger capture is a compile
 * error, not a silent per-event allocation (the steady-state allocation
 * tests in tests/event_queue_test.cpp guard the rest of the cycle).
 *
 * Callables that are trivially copyable and destructible (all hot-path
 * lambdas) move by plain memcpy with no manager call at all; other
 * callables get an inline move/destroy vtable.
 */

#ifndef CORD_SIM_INLINE_CALLBACK_H
#define CORD_SIM_INLINE_CALLBACK_H

#include <cstddef>
#include <cstring>
#include <new>
#include <type_traits>
#include <utility>

namespace cord
{

/** Move-only `void()` callable with 64 bytes of inline storage. */
class EventCallback
{
  public:
    /** Inline capture capacity, sized for the largest hot-path lambda
     *  (see the file comment) plus headroom. */
    static constexpr std::size_t kInlineBytes = 64;

    EventCallback() = default;

    /**
     * Destroy the held callable (if any) and store @p f in place.  The
     * event kernel uses this to build a callback directly inside its
     * arena slot, skipping the intermediate EventCallback a
     * construct-then-move would cost per scheduled event.
     */
    template <typename F>
    void
    emplace(F &&f)
    {
        reset();
        construct(std::forward<F>(f));
    }

    /** Move-only, and move-construct only: the kernel moves a callback
     *  out of its slot onto the stack and grows the slot arena, and
     *  never reassigns a live callback. */
    EventCallback(EventCallback &&other) noexcept { moveFrom(other); }
    EventCallback &operator=(EventCallback &&) = delete;

    EventCallback(const EventCallback &) = delete;
    EventCallback &operator=(const EventCallback &) = delete;

    ~EventCallback() { reset(); }

    void
    operator()()
    {
        invoke_(buf_);
    }

  private:
    /** Manager for callables that need real move/destroy calls. */
    struct Ops
    {
        void (*moveDestroy)(void *dst, void *src);
        void (*destroy)(void *obj);
    };

    template <typename Fn>
    static constexpr Ops kInlineOps = {
        [](void *dst, void *src) {
            ::new (dst) Fn(std::move(*static_cast<Fn *>(src)));
            static_cast<Fn *>(src)->~Fn();
        },
        [](void *obj) { static_cast<Fn *>(obj)->~Fn(); },
    };

    template <typename F>
    void
    construct(F &&f)
    {
        using Fn = std::decay_t<F>;
        static_assert(std::is_invocable_r_v<void, Fn &>,
                      "EventCallback requires a void() callable");
        static_assert(sizeof(Fn) <= kInlineBytes &&
                          alignof(Fn) <= alignof(std::max_align_t),
                      "capture too large for EventCallback's inline "
                      "buffer: capture less, or grow kInlineBytes");
        ::new (static_cast<void *>(buf_)) Fn(std::forward<F>(f));
        invoke_ = [](void *obj) { (*static_cast<Fn *>(obj))(); };
        if constexpr (!std::is_trivially_copyable_v<Fn> ||
                      !std::is_trivially_destructible_v<Fn>)
            ops_ = &kInlineOps<Fn>;
    }

    void
    moveFrom(EventCallback &other) noexcept
    {
        invoke_ = other.invoke_;
        ops_ = other.ops_;
        if (!invoke_)
            return;
        if (ops_) {
            ops_->moveDestroy(buf_, other.buf_);
        } else {
            // Trivial captures move by whole-buffer copy; bytes past
            // the capture are never read through invoke_, so copying
            // them (possibly indeterminate) is harmless for an
            // unsigned-char buffer.
#if defined(__GNUC__) && !defined(__clang__)
#pragma GCC diagnostic push
#pragma GCC diagnostic ignored "-Wmaybe-uninitialized"
#endif
            std::memcpy(buf_, other.buf_, kInlineBytes);
#if defined(__GNUC__) && !defined(__clang__)
#pragma GCC diagnostic pop
#endif
        }
        other.invoke_ = nullptr;
        other.ops_ = nullptr;
    }

    void
    reset() noexcept
    {
        if (invoke_ && ops_)
            ops_->destroy(buf_);
        invoke_ = nullptr;
        ops_ = nullptr;
    }

    void (*invoke_)(void *) = nullptr;
    const Ops *ops_ = nullptr;
    alignas(std::max_align_t) unsigned char buf_[kInlineBytes];
};

} // namespace cord

#endif // CORD_SIM_INLINE_CALLBACK_H
