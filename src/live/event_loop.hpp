// The live event loop: epoll over real file descriptors plus the same timer
// wheel the simulator uses.
//
// Rather than reimplementing timers, the loop embeds a sim::Scheduler and
// drives it with real time: each pump iteration advances the scheduler's
// clock to CLOCK_MONOTONIC-elapsed-since-epoch (firing everything due), then
// arms a timerfd at the scheduler's next deadline (skipped when that
// deadline is already armed) and sleeps in epoll_wait. A zero delay is due
// at the scheduler's current reading, as on the simulator, so zero-delay
// work (the units' pipeline hops) runs without ever arming the timerfd.
// TaskHandle cancellation/liveness therefore shares the exact slot/generation
// machinery with the simulated backend — identical semantics by construction,
// which is what lets the transport-conformance suite run unmodified against
// both (docs/transport.md).
//
// Single-threaded by design, like the simulator: every callback (fd handler
// or timer task) runs inside run_for()/run() on the calling thread, so the
// unit pipeline needs no locks on either backend.
#pragma once

#include <atomic>
#include <cstdint>
#include <functional>
#include <memory>
#include <unordered_map>
#include <vector>

#include "sim/scheduler.hpp"
#include "transport/task.hpp"
#include "transport/time.hpp"

namespace indiss::live {

class EventLoop {
 public:
  /// Invoked with the epoll event mask (EPOLLIN/EPOLLOUT/EPOLLERR/...).
  using FdHandler = std::function<void(std::uint32_t events)>;

  EventLoop();
  ~EventLoop();

  EventLoop(const EventLoop&) = delete;
  EventLoop& operator=(const EventLoop&) = delete;

  // --- Time (CLOCK_MONOTONIC nanoseconds since construction) --------------

  [[nodiscard]] transport::TimePoint now() const;

  /// Runs `task` `delay` after real now. A zero delay is due now on the
  /// timer wheel's clock instead: the task runs once the running task
  /// returns (same run_for) or, queued by an fd handler, at the top of the
  /// next pump iteration before epoll_wait — never inside its caller.
  transport::TaskHandle schedule(transport::Duration delay,
                                 transport::InlineTask task);
  transport::TaskHandle schedule_periodic(transport::Duration period,
                                          transport::InlineTask task);

  // --- File descriptors ----------------------------------------------------

  /// Registers `fd` with epoll for `events`; `handler` runs on readiness.
  /// One handler per fd; watching an already-watched fd replaces it. Safe
  /// to call from inside the handler it replaces.
  void watch(int fd, std::uint32_t events, FdHandler handler);
  /// Changes the event mask of a watched fd (handler unchanged).
  void modify(int fd, std::uint32_t events);
  /// Unregisters `fd`. Safe to call from inside its own handler.
  void unwatch(int fd);

  // --- Pump ----------------------------------------------------------------

  /// Runs the loop for `d` of real time (fd events dispatched as they
  /// arrive, timers as they come due). Returns the number of timer task
  /// bodies invoked.
  std::size_t run_for(transport::Duration d);

  /// Runs until stop() is called.
  std::size_t run();

  /// Makes the innermost run()/run_for() return after the current pump
  /// iteration. Callable from handlers and from other threads (the sharded
  /// gateway stops shard loops from the dispatcher thread; pair with an
  /// eventfd write so a loop parked in epoll_wait wakes to notice).
  void stop() { stop_requested_.store(true, std::memory_order_relaxed); }

  /// The embedded timer wheel (tests; TaskHandles point into it).
  [[nodiscard]] sim::Scheduler& timer_wheel() { return scheduler_; }

 private:
  std::size_t pump_until(transport::TimePoint deadline);
  void arm_timerfd(transport::TimePoint wake);
  [[nodiscard]] std::int64_t monotonic_ns() const;

  int epoll_fd_ = -1;
  int timer_fd_ = -1;
  std::int64_t epoch_ns_ = 0;
  /// Deadline the timerfd holds (max = disarmed), so an unchanged next
  /// deadline costs no timerfd_settime.
  transport::TimePoint armed_ = transport::TimePoint::max();
  std::atomic<bool> stop_requested_{false};
  sim::Scheduler scheduler_;
  /// Each handler at a stable address, so dispatch calls it in place.
  std::unordered_map<int, std::unique_ptr<FdHandler>> handlers_;
  /// Handlers unwatched or replaced while a dispatch may be running one of
  /// them; destroyed once the dispatch round returns.
  std::vector<std::unique_ptr<FdHandler>> retired_;
};

}  // namespace indiss::live
