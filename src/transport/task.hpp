// Task plumbing shared by every transport backend: the InlineTask callable,
// the TimerService cancellation interface, and the TaskHandle value type.
//
// A TaskHandle names its task as (slot index, generation) against whichever
// TimerService scheduled it — the simulated discrete-event scheduler and the
// live epoll event loop share the exact same slot-arena machinery, so handle
// semantics (cancel of a fired handle is a no-op; a stale handle can never
// cancel a later task that reuses its slot; handles may outlive the service)
// are identical across backends by construction, not by convention.
#pragma once

#include <cstddef>
#include <cstdint>
#include <functional>  // std::bad_function_call
#include <memory>
#include <new>
#include <type_traits>
#include <utility>

namespace indiss::transport {

/// Move-only callable with small-buffer optimization: callables up to
/// kInlineSize bytes (a unit's peer-delivery hop: its lifetime guard, this,
/// the origin and a shared stream) are stored in place; larger ones fall
/// back to the heap. This replaces std::function in the scheduler hot path
/// so scheduling a typical task allocates nothing.
class InlineTask {
 public:
  static constexpr std::size_t kInlineSize = 64;

  InlineTask() = default;

  template <typename F,
            typename = std::enable_if_t<
                !std::is_same_v<std::decay_t<F>, InlineTask> &&
                std::is_invocable_r_v<void, std::decay_t<F>&>>>
  // NOLINTNEXTLINE(google-explicit-constructor): implicit like std::function
  InlineTask(F&& f) {
    using Fn = std::decay_t<F>;
    if constexpr (sizeof(Fn) <= kInlineSize &&
                  alignof(Fn) <= alignof(std::max_align_t) &&
                  std::is_nothrow_move_constructible_v<Fn>) {
      ::new (static_cast<void*>(storage_)) Fn(std::forward<F>(f));
      vtable_ = &kInlineVTable<Fn>;
    } else {
      heap_ = new Fn(std::forward<F>(f));
      vtable_ = &kHeapVTable<Fn>;
    }
  }

  InlineTask(InlineTask&& other) noexcept { move_from(other); }
  InlineTask& operator=(InlineTask&& other) noexcept {
    if (this != &other) {
      reset();
      move_from(other);
    }
    return *this;
  }
  InlineTask(const InlineTask&) = delete;
  InlineTask& operator=(const InlineTask&) = delete;
  ~InlineTask() { reset(); }

  /// Invoking an empty task throws like std::function would.
  void operator()() {
    if (vtable_ == nullptr) throw std::bad_function_call();
    vtable_->invoke(payload());
  }
  explicit operator bool() const { return vtable_ != nullptr; }

  void reset() {
    if (vtable_ != nullptr) {
      vtable_->destroy(payload());
      vtable_ = nullptr;
      heap_ = nullptr;
    }
  }

 private:
  struct VTable {
    void (*invoke)(void*);
    void (*destroy)(void*);
    // Move-constructs dst's payload from src's and destroys src's; dst is
    // raw (no live payload). Callers reset src's vtable afterwards.
    void (*relocate)(InlineTask& dst, InlineTask& src);
  };

  [[nodiscard]] void* payload() {
    return heap_ != nullptr ? heap_ : static_cast<void*>(storage_);
  }

  void move_from(InlineTask& other) noexcept {
    if (other.vtable_ == nullptr) return;
    other.vtable_->relocate(*this, other);
    other.vtable_ = nullptr;
    other.heap_ = nullptr;
  }

  template <typename Fn>
  static void invoke_impl(void* p) {
    (*static_cast<Fn*>(p))();
  }
  template <typename Fn>
  static void destroy_inline(void* p) {
    static_cast<Fn*>(p)->~Fn();
  }
  template <typename Fn>
  static void destroy_heap(void* p) {
    delete static_cast<Fn*>(p);
  }
  template <typename Fn>
  static void relocate_inline(InlineTask& dst, InlineTask& src) {
    Fn* from = std::launder(reinterpret_cast<Fn*>(src.storage_));
    ::new (static_cast<void*>(dst.storage_)) Fn(std::move(*from));
    from->~Fn();
    dst.vtable_ = src.vtable_;
    dst.heap_ = nullptr;
  }
  static void relocate_heap(InlineTask& dst, InlineTask& src) {
    dst.heap_ = src.heap_;
    dst.vtable_ = src.vtable_;
  }

  template <typename Fn>
  static constexpr VTable kInlineVTable{&invoke_impl<Fn>, &destroy_inline<Fn>,
                                        &relocate_inline<Fn>};
  template <typename Fn>
  static constexpr VTable kHeapVTable{&invoke_impl<Fn>, &destroy_heap<Fn>,
                                      &relocate_heap};

  alignas(std::max_align_t) unsigned char storage_[kInlineSize];
  void* heap_ = nullptr;
  const VTable* vtable_ = nullptr;
};

/// The slice of a timer backend a TaskHandle needs: cancellation and
/// liveness queries addressed by (slot, generation). Implemented by
/// sim::Scheduler and (through its embedded scheduler) live::EventLoop.
class TimerService {
 public:
  virtual void cancel_task(std::uint32_t slot, std::uint64_t generation) = 0;
  [[nodiscard]] virtual bool task_pending(std::uint32_t slot,
                                          std::uint64_t generation) const = 0;

 protected:
  ~TimerService() = default;
};

/// Handle for a scheduled task; lets the owner cancel it (e.g. a periodic
/// advertisement loop stopped when a device leaves the network).
///
/// Once the task fires (one-shot) or is cancelled, the slot's generation
/// moves on and the handle goes inert — cancel() of a fired handle is a
/// no-op, and a stale handle can never cancel a later task that reuses the
/// same slot. Handles are cheap to copy and may outlive the TimerService
/// itself (they hold a liveness token and degrade to no-ops once it is
/// gone).
class TaskHandle {
 public:
  TaskHandle() = default;

  /// Backend plumbing — not for direct use; backends mint handles.
  TaskHandle(TimerService* service, std::weak_ptr<const void> live,
             std::uint32_t slot, std::uint64_t generation)
      : service_(service),
        live_(std::move(live)),
        slot_(slot),
        generation_(generation) {}

  void cancel() {
    if (service_ == nullptr || live_.expired()) return;
    service_->cancel_task(slot_, generation_);
  }

  /// True while the task is still queued (or, for periodic tasks, currently
  /// executing): i.e. cancel() would still suppress a future run.
  [[nodiscard]] bool pending() const {
    if (service_ == nullptr || live_.expired()) return false;
    return service_->task_pending(slot_, generation_);
  }

 private:
  TimerService* service_ = nullptr;
  std::weak_ptr<const void> live_;
  std::uint32_t slot_ = 0;
  // 64-bit so a long-held stale handle can never collide with a reused
  // slot's generation, even after billions of churn cycles (ABA safety).
  std::uint64_t generation_ = 0;
};

}  // namespace indiss::transport
