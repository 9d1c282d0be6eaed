// Small-buffer-optimized move-only callable.
//
// The discrete-event core runs one callback per simulated event, and the
// I/O completion path (engine -> volume -> disk) carries one callback per
// volume op and one per disk fragment. std::function heap-allocates for
// any capture beyond libstdc++'s 16-byte internal buffer, and *copies* of
// a heap-backed std::function allocate again. InlineFn stores captures up
// to N bytes in place (every callback the hot path schedules today fits),
// falls back to the heap only for oversized captures (tests, fault
// tooling), and is move-only so a callback is never silently duplicated.
// emplace() builds a callable directly in an existing InlineFn, which is
// how the event queue and the disk queue construct callbacks in their
// pooled slots without a temporary.
#pragma once

#include <cstddef>
#include <new>
#include <type_traits>
#include <utility>

namespace pod {

template <typename Sig, std::size_t N = 48>
class InlineFn;

template <typename R, typename... Args, std::size_t N>
class InlineFn<R(Args...), N> {
 public:
  static constexpr std::size_t kInlineBytes = N;

  InlineFn() noexcept = default;
  InlineFn(std::nullptr_t) noexcept {}  // NOLINT(google-explicit-constructor)

  template <typename F,
            typename = std::enable_if_t<
                !std::is_same_v<std::decay_t<F>, InlineFn> &&
                std::is_invocable_r_v<R, std::decay_t<F>&, Args...>>>
  InlineFn(F&& fn) {  // NOLINT(google-explicit-constructor)
    construct(std::forward<F>(fn));
  }

  InlineFn(InlineFn&& other) noexcept { move_from(other); }

  InlineFn& operator=(InlineFn&& other) noexcept {
    if (this != &other) {
      reset();
      move_from(other);
    }
    return *this;
  }

  InlineFn& operator=(std::nullptr_t) noexcept {
    reset();
    return *this;
  }

  InlineFn(const InlineFn&) = delete;
  InlineFn& operator=(const InlineFn&) = delete;

  ~InlineFn() { reset(); }

  explicit operator bool() const noexcept { return invoke_ != nullptr; }

  R operator()(Args... args) {
    return invoke_(*this, std::forward<Args>(args)...);
  }

  void reset() noexcept {
    if (manage_ != nullptr) {
      manage_(*this, nullptr);
      invoke_ = nullptr;
      manage_ = nullptr;
    }
  }

  /// Replaces the held callable with `fn`, built in place. An InlineFn
  /// argument is moved in (a null one leaves this empty).
  template <typename F>
  void emplace(F&& fn) {
    if constexpr (std::is_same_v<std::decay_t<F>, InlineFn>) {
      *this = std::forward<F>(fn);
    } else {
      reset();
      construct(std::forward<F>(fn));
    }
  }

 private:
  using InvokeFn = R (*)(InlineFn&, Args...);
  /// Moves the callable into `dest` (when non-null) and destroys the source
  /// representation. One function pointer covers move and destroy so an
  /// instance costs two words of dispatch state, not three.
  using ManageFn = void (*)(InlineFn&, InlineFn*);

  template <typename F>
  void construct(F&& fn) {
    using Fn = std::decay_t<F>;
    if constexpr (sizeof(Fn) <= kInlineBytes &&
                  alignof(Fn) <= alignof(std::max_align_t)) {
      ::new (static_cast<void*>(storage_.buf)) Fn(std::forward<F>(fn));
      invoke_ = [](InlineFn& self, Args... args) -> R {
        return (*std::launder(reinterpret_cast<Fn*>(self.storage_.buf)))(
            std::forward<Args>(args)...);
      };
      manage_ = [](InlineFn& self, InlineFn* dest) {
        Fn* fn_ptr = std::launder(reinterpret_cast<Fn*>(self.storage_.buf));
        if (dest != nullptr)
          ::new (static_cast<void*>(dest->storage_.buf)) Fn(std::move(*fn_ptr));
        fn_ptr->~Fn();
      };
    } else {
      storage_.heap = new Fn(std::forward<F>(fn));
      invoke_ = [](InlineFn& self, Args... args) -> R {
        return (*static_cast<Fn*>(self.storage_.heap))(
            std::forward<Args>(args)...);
      };
      manage_ = [](InlineFn& self, InlineFn* dest) {
        if (dest != nullptr) {
          dest->storage_.heap = self.storage_.heap;
        } else {
          delete static_cast<Fn*>(self.storage_.heap);
        }
      };
    }
  }

  void move_from(InlineFn& other) noexcept {
    invoke_ = other.invoke_;
    manage_ = other.manage_;
    if (manage_ != nullptr) manage_(other, this);
    other.invoke_ = nullptr;
    other.manage_ = nullptr;
  }

  union Storage {
    alignas(std::max_align_t) unsigned char buf[kInlineBytes];
    void* heap;
  };

  Storage storage_;
  InvokeFn invoke_ = nullptr;
  ManageFn manage_ = nullptr;
};

}  // namespace pod
