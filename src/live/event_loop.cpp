#include "live/event_loop.hpp"

#include <sys/epoll.h>
#include <sys/timerfd.h>
#include <unistd.h>

#include <cerrno>
#include <cstring>
#include <stdexcept>
#include <string>
#include <system_error>
#include <vector>

namespace indiss::live {

namespace {

[[noreturn]] void throw_errno(const char* what) {
  throw std::system_error(errno, std::generic_category(), what);
}

}  // namespace

EventLoop::EventLoop() {
  epoll_fd_ = ::epoll_create1(EPOLL_CLOEXEC);
  if (epoll_fd_ < 0) throw_errno("epoll_create1");
  timer_fd_ = ::timerfd_create(CLOCK_MONOTONIC, TFD_NONBLOCK | TFD_CLOEXEC);
  if (timer_fd_ < 0) {
    ::close(epoll_fd_);
    throw_errno("timerfd_create");
  }
  epoch_ns_ = monotonic_ns();
  watch(timer_fd_, EPOLLIN, [this](std::uint32_t) {
    std::uint64_t expirations = 0;
    while (::read(timer_fd_, &expirations, sizeof(expirations)) > 0) {
    }
    // Due timers run at the top of the next pump iteration.
  });
}

EventLoop::~EventLoop() {
  if (timer_fd_ >= 0) ::close(timer_fd_);
  if (epoll_fd_ >= 0) ::close(epoll_fd_);
}

std::int64_t EventLoop::monotonic_ns() const {
  timespec ts{};
  ::clock_gettime(CLOCK_MONOTONIC, &ts);
  return std::int64_t{ts.tv_sec} * 1'000'000'000 + ts.tv_nsec;
}

transport::TimePoint EventLoop::now() const {
  return transport::TimePoint(monotonic_ns() - epoch_ns_);
}

transport::TaskHandle EventLoop::schedule(transport::Duration delay,
                                          transport::InlineTask task) {
  // Zero delay is due now on the wheel's own clock, the simulator's rule: a
  // task queued by a running task fires in the same run_until once that
  // task returns, one queued by an fd handler at the top of the next pump
  // iteration. Neither touches the timerfd.
  if (delay <= transport::Duration::zero()) {
    return scheduler_.schedule(transport::Duration::zero(), std::move(task));
  }
  // The wheel's clock trails real time by at most one pump iteration; other
  // delays are relative to real now so back-to-back schedules stay monotone.
  transport::Duration lag = now() - scheduler_.now();
  if (lag.count() < 0) lag = transport::Duration::zero();
  return scheduler_.schedule(delay + lag, std::move(task));
}

transport::TaskHandle EventLoop::schedule_periodic(transport::Duration period,
                                                   transport::InlineTask task) {
  return scheduler_.schedule_periodic(period, std::move(task));
}

void EventLoop::watch(int fd, std::uint32_t events, FdHandler handler) {
  epoll_event ev{};
  ev.events = events;
  ev.data.fd = fd;
  auto& slot = handlers_[fd];
  if (::epoll_ctl(epoll_fd_, slot != nullptr ? EPOLL_CTL_MOD : EPOLL_CTL_ADD,
                  fd, &ev) != 0) {
    if (slot == nullptr) handlers_.erase(fd);
    throw_errno("epoll_ctl add");
  }
  if (slot != nullptr) retired_.push_back(std::move(slot));
  slot = std::make_unique<FdHandler>(std::move(handler));
}

void EventLoop::modify(int fd, std::uint32_t events) {
  epoll_event ev{};
  ev.events = events;
  ev.data.fd = fd;
  if (::epoll_ctl(epoll_fd_, EPOLL_CTL_MOD, fd, &ev) != 0) {
    throw_errno("epoll_ctl mod");
  }
}

void EventLoop::unwatch(int fd) {
  auto it = handlers_.find(fd);
  if (it == handlers_.end()) return;
  retired_.push_back(std::move(it->second));
  handlers_.erase(it);
  ::epoll_ctl(epoll_fd_, EPOLL_CTL_DEL, fd, nullptr);
}

void EventLoop::arm_timerfd(transport::TimePoint wake) {
  const bool disarm = wake == transport::TimePoint::max();
  const std::int64_t now_ns = monotonic_ns();
  const std::int64_t abs_ns = disarm ? 0 : epoch_ns_ + wake.count();
  // The timerfd already holds this deadline and it has not expired, so it
  // will still fire (or stays disarmed): skip the syscall.
  if (wake == armed_ && (disarm || abs_ns > now_ns)) return;
  armed_ = wake;
  itimerspec spec{};
  if (disarm) {
    // No pending timer and no pump deadline: disarm; epoll's bounded wait
    // keeps the loop responsive.
    ::timerfd_settime(timer_fd_, 0, &spec, nullptr);
    return;
  }
  const std::int64_t at_ns = abs_ns > now_ns ? abs_ns : now_ns + 1;
  spec.it_value.tv_sec = at_ns / 1'000'000'000;
  spec.it_value.tv_nsec = at_ns % 1'000'000'000;
  if (::timerfd_settime(timer_fd_, TFD_TIMER_ABSTIME, &spec, nullptr) != 0) {
    throw_errno("timerfd_settime");
  }
}

std::size_t EventLoop::pump_until(transport::TimePoint deadline) {
  constexpr int kMaxEvents = 64;
  epoll_event events[kMaxEvents];
  std::size_t executed = 0;
  // A pending stop() is *consumed* (exchange, not a read-then-clear at pump
  // entry): a stop flagged from another thread before the loop thread even
  // reaches here — the sharded pool can stop() a shard right after spawning
  // it — must still terminate this pump, not be erased by it.
  bool stopping = false;

  for (;;) {
    transport::TimePoint t = now();
    if (t > deadline) t = deadline;
    executed += scheduler_.run_until(t);
    if (stop_requested_.exchange(false) || t >= deadline) break;

    transport::TimePoint wake = deadline;
    if (auto next = scheduler_.next_deadline();
        next.has_value() && *next < wake) {
      wake = *next;
    }
    arm_timerfd(wake);

    // Bounded wait so an externally flagged stop() (e.g. a signal handler's
    // atomic polled by a periodic task) is honored promptly even when idle.
    int n = ::epoll_wait(epoll_fd_, events, kMaxEvents, 200);
    if (n < 0) {
      if (errno == EINTR) continue;
      throw_errno("epoll_wait");
    }
    for (int i = 0; i < n; ++i) {
      auto it = handlers_.find(events[i].data.fd);
      if (it == handlers_.end()) continue;  // unwatched by an earlier handler
      // Called in place: a handler that unwatches or replaces itself only
      // moves to retired_, which outlives the call.
      (*it->second)(events[i].events);
      if (stop_requested_.exchange(false)) {
        stopping = true;
        break;
      }
    }
    retired_.clear();
    if (stopping) break;
  }
  return executed;
}

std::size_t EventLoop::run_for(transport::Duration d) {
  return pump_until(now() + d);
}

std::size_t EventLoop::run() {
  return pump_until(transport::TimePoint::max());
}

}  // namespace indiss::live
