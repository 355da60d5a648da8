// The gateway as a child process, observed only from outside: fork/exec
// with a CPU pin, readiness from its own startup line, and CPU time, peak
// RSS and open descriptors read from /proc/<pid>.
#pragma once

#include <dirent.h>
#include <fcntl.h>
#include <sched.h>
#include <signal.h>
#include <sys/prctl.h>
#include <sys/wait.h>
#include <time.h>
#include <unistd.h>

#include <cstdint>
#include <cstdio>
#include <fstream>
#include <sstream>
#include <stdexcept>
#include <string>
#include <vector>

namespace indiss::bench_e2e {

inline std::int64_t realtime_ns() {
  timespec ts{};
  ::clock_gettime(CLOCK_REALTIME, &ts);
  return std::int64_t{ts.tv_sec} * 1'000'000'000 + ts.tv_nsec;
}

inline void sleep_ns(std::int64_t ns) {
  if (ns <= 0) return;
  timespec ts{ns / 1'000'000'000, ns % 1'000'000'000};
  ::nanosleep(&ts, nullptr);
}

inline std::string read_file(const std::string& path) {
  std::ifstream in(path);
  std::stringstream text;
  text << in.rdbuf();
  return text.str();
}

/// CPUs this process may run on, in ascending order.
inline std::vector<int> allowed_cpus() {
  cpu_set_t set;
  CPU_ZERO(&set);
  std::vector<int> cpus;
  if (::sched_getaffinity(0, sizeof(set), &set) != 0) return cpus;
  for (int cpu = 0; cpu < CPU_SETSIZE; ++cpu) {
    if (CPU_ISSET(cpu, &set)) cpus.push_back(cpu);
  }
  return cpus;
}

inline void pin_to(int cpu) {
  if (cpu < 0) return;
  cpu_set_t set;
  CPU_ZERO(&set);
  CPU_SET(cpu, &set);
  ::sched_setaffinity(0, sizeof(set), &set);
}

/// Keeps one CPU out of its idle state for its lifetime: a child process
/// pinned to `cpu` spins at SCHED_IDLE, so any other task that wakes there
/// preempts it at once. On a VM an idle vCPU halts and the host deschedules
/// it; waking it again takes from ~10 us to several ms depending on the
/// host's load, which would make the generator late.
class IdleSpinner {
 public:
  explicit IdleSpinner(int cpu) {
    if (cpu < 0) return;
    const pid_t parent = ::getpid();
    pid_ = ::fork();
    if (pid_ != 0) return;
    ::prctl(PR_SET_PDEATHSIG, SIGKILL);
    if (::getppid() != parent) ::_exit(0);
    pin_to(cpu);
    sched_param param{};
    ::sched_setscheduler(0, SCHED_IDLE, &param);
    for (;;) {
#if defined(__x86_64__) || defined(__i386__)
      __builtin_ia32_pause();
#endif
      asm volatile("" ::: "memory");
    }
  }
  ~IdleSpinner() {
    if (pid_ <= 0) return;
    ::kill(pid_, SIGKILL);
    int status = 0;
    ::waitpid(pid_, &status, 0);
  }
  IdleSpinner(const IdleSpinner&) = delete;
  IdleSpinner& operator=(const IdleSpinner&) = delete;

 private:
  pid_t pid_ = -1;
};

class GatewayProcess {
 public:
  GatewayProcess() = default;
  GatewayProcess(const GatewayProcess&) = delete;
  GatewayProcess& operator=(const GatewayProcess&) = delete;
  ~GatewayProcess() { stop(); }

  /// Starts `argv` pinned to `cpu` (-1 = unpinned) with stdout/stderr
  /// redirected to `out_path` / `err_path`. Returns the realtime instant
  /// just before fork, the start of the set-up clock.
  std::int64_t start(const std::vector<std::string>& argv, int cpu,
                     const std::string& out_path,
                     const std::string& err_path) {
    out_path_ = out_path;
    err_path_ = err_path;
    // A previous run's "up on" line must not read as this start's.
    ::unlink(out_path.c_str());
    ::unlink(err_path.c_str());
    std::vector<char*> args;
    for (const auto& a : argv) args.push_back(const_cast<char*>(a.c_str()));
    args.push_back(nullptr);
    std::int64_t t0 = realtime_ns();
    pid_ = ::fork();
    if (pid_ < 0) throw std::runtime_error("fork failed");
    if (pid_ == 0) {
      // The gateway must not outlive a generator that was killed (it would
      // keep the SDP ports bound).
      ::prctl(PR_SET_PDEATHSIG, SIGKILL);
      pin_to(cpu);
      int out = ::open(out_path.c_str(), O_WRONLY | O_CREAT | O_TRUNC, 0644);
      int err = ::open(err_path.c_str(), O_WRONLY | O_CREAT | O_TRUNC, 0644);
      if (out >= 0) ::dup2(out, 1);
      if (err >= 0) ::dup2(err, 2);
      ::execv(args[0], args.data());
      std::perror("execv");
      ::_exit(127);
    }
    return t0;
  }

  /// Waits until the gateway prints its "up on" startup line (its sockets
  /// are bound and joined by then). False when it exits first or stays
  /// silent for `timeout_ns`; the reason is in error().
  bool wait_ready(std::int64_t timeout_ns) {
    std::int64_t deadline = realtime_ns() + timeout_ns;
    while (realtime_ns() < deadline) {
      if (read_file(err_path_).find(" up on ") != std::string::npos) {
        return true;
      }
      int status = 0;
      if (::waitpid(pid_, &status, WNOHANG) == pid_) {
        pid_ = -1;
        error_ = "gateway exited during start-up: " + read_file(err_path_);
        return false;
      }
      sleep_ns(200'000);
    }
    error_ = "gateway not ready after start-up timeout";
    return false;
  }

  [[nodiscard]] bool alive() {
    if (pid_ <= 0) return false;
    int status = 0;
    if (::waitpid(pid_, &status, WNOHANG) == pid_) {
      pid_ = -1;
      return false;
    }
    return true;
  }

  /// Nanoseconds the gateway has spent on a CPU (/proc/<pid>/schedstat).
  [[nodiscard]] std::uint64_t cpu_ns() const {
    unsigned long long run = 0;
    std::string text = read_file(proc("schedstat"));
    std::sscanf(text.c_str(), "%llu", &run);
    return run;
  }

  /// A "Name:   value kB" field of /proc/<pid>/status, in kB.
  [[nodiscard]] std::uint64_t status_kb(const std::string& field) const {
    std::string text = read_file(proc("status"));
    auto at = text.find(field + ":");
    if (at == std::string::npos) return 0;
    return std::strtoull(text.c_str() + at + field.size() + 1, nullptr, 10);
  }

  [[nodiscard]] std::size_t open_fds() const {
    std::size_t count = 0;
    if (DIR* dir = ::opendir(proc("fd").c_str())) {
      while (dirent* entry = ::readdir(dir)) {
        if (entry->d_name[0] != '.') ++count;
      }
      ::closedir(dir);
    }
    return count;
  }

  void signal(int sig) const {
    if (pid_ > 0) ::kill(pid_, sig);
  }

  /// SIGTERM, then SIGKILL after 5 s; always reaps the child.
  void stop() {
    if (pid_ <= 0) return;
    ::kill(pid_, SIGTERM);
    std::int64_t deadline = realtime_ns() + 5'000'000'000;
    int status = 0;
    while (::waitpid(pid_, &status, WNOHANG) == 0) {
      if (realtime_ns() > deadline) {
        ::kill(pid_, SIGKILL);
        ::waitpid(pid_, &status, 0);
        break;
      }
      sleep_ns(1'000'000);
    }
    pid_ = -1;
  }

  [[nodiscard]] const std::string& error() const { return error_; }
  [[nodiscard]] std::string output() const { return read_file(out_path_); }

 private:
  [[nodiscard]] std::string proc(const char* leaf) const {
    return "/proc/" + std::to_string(pid_) + "/" + leaf;
  }

  pid_t pid_ = -1;
  std::string out_path_;
  std::string err_path_;
  std::string error_;
};

}  // namespace indiss::bench_e2e
