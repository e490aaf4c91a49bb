// Non-owning reference to a callable: two pointers, no allocation.
//
// For callbacks that are invoked only during the call they are passed to,
// such as the block cache's per-block writeback. Unlike std::function it
// never copies the callable, so it must not outlive the argument it was
// built from: pass it by value as a parameter, never store it.
//
// A null function pointer, an empty std::function, nullptr and a
// default-constructed FunctionRef are all empty (operator bool is false).

#ifndef SPRITE_DFS_SRC_UTIL_FUNCTION_REF_H_
#define SPRITE_DFS_SRC_UTIL_FUNCTION_REF_H_

#include <cstddef>
#include <functional>
#include <memory>
#include <type_traits>
#include <utility>

namespace sprite {

template <typename Signature>
class FunctionRef;

template <typename R, typename... Args>
class FunctionRef<R(Args...)> {
 public:
  FunctionRef() noexcept = default;
  FunctionRef(std::nullptr_t) noexcept {}  // NOLINT(google-explicit-constructor)

  template <typename F>
    requires(!std::is_same_v<std::remove_cvref_t<F>, FunctionRef> &&
             std::is_invocable_r_v<R, F&, Args...>)
  FunctionRef(F&& f) noexcept {  // NOLINT(google-explicit-constructor)
    if constexpr (std::is_constructible_v<bool, F&>) {
      if (!static_cast<bool>(f)) {
        return;  // an empty std::function or null function pointer
      }
    }
    object_ = const_cast<void*>(static_cast<const void*>(std::addressof(f)));
    invoke_ = [](void* object, Args... args) -> R {
      return std::invoke(*static_cast<std::remove_reference_t<F>*>(object),
                         std::forward<Args>(args)...);
    };
  }

  R operator()(Args... args) const { return invoke_(object_, std::forward<Args>(args)...); }

  explicit operator bool() const noexcept { return invoke_ != nullptr; }

 private:
  void* object_ = nullptr;
  R (*invoke_)(void*, Args...) = nullptr;
};

}  // namespace sprite

#endif  // SPRITE_DFS_SRC_UTIL_FUNCTION_REF_H_
