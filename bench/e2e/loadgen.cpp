// bench_e2e_loadgen: the live end-to-end benchmark's load generator.
//
// One process, one thread. It starts the gateway (indissd, or the traced
// twin), plays native SLP, SSDP and mDNS devices, clients and responders
// against it on 127.0.0.1 multicast, verifies every frame the gateway emits
// and prints one JSON object with the run's metrics as its last line.
//
//   bench_e2e_loadgen --workload adv-refresh --seed 1 --seconds 12
//                     --gateway build/indissd [--trace 1 --traced PATH]
//                     [--out-dir DIR] [--smoke]
//
// A run is kRounds rounds, each on a fresh gateway: set-up (exec -> ready ->
// priming -> warm-up), then a fixed-rate segment of --seconds / kRounds.
// Each metric is the median over the rounds. With --trace 1 a run is one
// untraced round and the same round through the traced twin. See README.md
// for the metrics and workloads.
#include <netinet/in.h>
#include <sys/resource.h>
#include <sys/socket.h>
#include <unistd.h>

#include <algorithm>
#include <cmath>
#include <csignal>
#include <cstdio>
#include <cstdlib>
#include <map>
#include <string>
#include <vector>

#include "engine.hpp"
#include "process.hpp"
#include "workloads.hpp"

namespace {

using namespace indiss::bench_e2e;
using indiss::Bytes;

/// Fresh gateways per run. The gateway's cost per op differs by ~5% from
/// one process to the next (same inputs, same seed), so a run measures
/// several and reports the median; set-up time is a median of as many.
constexpr int kRounds = 5;

struct Options {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 8;
  bool trace = false;
  bool smoke = false;
  std::string gateway;
  std::string traced;
  std::string out_dir = ".";
};

double percentile(std::vector<double> values, double q) {
  if (values.empty()) return 0;
  std::sort(values.begin(), values.end());
  auto rank = static_cast<std::size_t>(q * static_cast<double>(values.size()));
  return values[std::min(rank, values.size() - 1)];
}

double median(std::vector<double> values) { return percentile(values, 0.5); }

double cpu_seconds_self() {
  rusage u{};
  ::getrusage(RUSAGE_SELF, &u);
  return static_cast<double>(u.ru_utime.tv_sec + u.ru_stime.tv_sec) +
         static_cast<double>(u.ru_utime.tv_usec + u.ru_stime.tv_usec) / 1e6;
}

/// What one timed phase measured.
struct PhaseResult {
  std::size_t failed = 0;
  std::vector<double> latency_us;  // of each measured transaction
  double p50_us = 0;
  double p90_us = 0;
  std::vector<double> late_us;  // generator lateness of each op sent
  double gen_cpu_ratio = 0;
  std::uint64_t datagrams = 0;  // native datagrams sent (ops + answers)
  double cpu_us_per_datagram = 0;
  bool gateway_alive = true;
  std::uint64_t missing = 0;  // expected frames that never came
};

/// One round: a fresh gateway, set up, then driven at the fixed rate.
struct Round {
  double setup_s = 0;
  PhaseResult phase;
  double rss_mb = 0;
  double open_fds = 0;
};

/// Fetches a description LOCATION and returns its first <controlURL>.
std::string fetch_control_url(const std::string& location) {
  auto parsed = location.find("://");
  if (parsed == std::string::npos) return {};
  std::string rest = location.substr(parsed + 3);
  auto slash = rest.find('/');
  std::string hostport = rest.substr(0, slash);
  std::string path = slash == std::string::npos ? "/" : rest.substr(slash);
  auto colon = hostport.find(':');
  int port = colon == std::string::npos
                 ? 80
                 : std::atoi(hostport.c_str() + colon + 1);
  int fd = ::socket(AF_INET, SOCK_STREAM | SOCK_CLOEXEC, 0);
  if (fd < 0) return {};
  timeval tv{1, 0};
  ::setsockopt(fd, SOL_SOCKET, SO_RCVTIMEO, &tv, sizeof(tv));
  sockaddr_in sa{};
  sa.sin_family = AF_INET;
  sa.sin_port = htons(static_cast<std::uint16_t>(port));
  sa.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
  std::string body;
  if (::connect(fd, reinterpret_cast<sockaddr*>(&sa), sizeof(sa)) == 0) {
    std::string request = "GET " + path + " HTTP/1.1\r\nHOST: " + hostport +
                          "\r\nCONNECTION: close\r\n\r\n";
    ::send(fd, request.data(), request.size(), MSG_NOSIGNAL);
    char buf[4096];
    for (;;) {
      ssize_t n = ::recv(fd, buf, sizeof(buf), 0);
      if (n <= 0) break;
      body.append(buf, static_cast<std::size_t>(n));
      if (body.find("</root>") != std::string::npos) break;
    }
  }
  ::close(fd);
  auto open = body.find("<controlURL>");
  auto close = body.find("</controlURL>");
  if (open == std::string::npos || close == std::string::npos) return {};
  open += 12;
  return body.substr(open, close - open);
}

class Runner {
 public:
  Runner(const Options& opt, Workload& workload, int gateway_cpu)
      : opt_(opt),
        workload_(workload),
        rng_(opt.seed * 0x9E3779B97F4A7C15ULL),
        gateway_cpu_(gateway_cpu) {}

  /// Exec -> ready -> priming -> warm-up; returns set-up seconds, or a
  /// negative value when the gateway failed to come up.
  double setup(GatewayProcess& gw, const std::vector<std::string>& argv,
               int index) {
    engine_.reset();
    store_.clear();
    workload_.reset(engine_, store_);
    std::string base = opt_.out_dir + "/" + workload_.name() + "-gw" +
                       std::to_string(index);
    std::int64_t t0 = gw.start(argv, gateway_cpu_, base + ".out",
                               base + ".err");
    if (!gw.wait_ready(10'000'000'000)) {
      error_ = gw.error();
      return -1;
    }
    prime();
    // Warm-up at the fixed rate: lazy state (socket buffers, the units'
    // scratch capacity, the cache's steady set) fills before timing.
    setup_missing_ += run_phase(300'000'000, false, gw).missing;
    return static_cast<double>(realtime_ns() - t0) / 1e9;
  }

  /// Runs one open-loop phase at the workload's fixed rate for
  /// `duration_ns`, then serves the tail until every transaction has its
  /// frames (or timed out) and the gateway has worked off its backlog.
  PhaseResult run_phase(std::int64_t duration_ns, bool measured,
                        GatewayProcess& gw) {
    const double rate = workload_.fixed_rate();
    const std::size_t first = engine_.txn_count();
    std::vector<Op> ops;
    Plan plan{engine_, ops, store_, measured};
    std::int64_t start = realtime_ns() + 5'000'000;
    std::int64_t end = start + duration_ns;
    // Open loop: rate x duration arrivals at uniformly random instants, a
    // Poisson process given its count. Every round offers the same number
    // of ops, so state that grows with them (memory above all) does not
    // vary with the seed.
    const auto count = static_cast<std::size_t>(
        std::llround(rate * static_cast<double>(duration_ns) / 1e9));
    std::vector<std::int64_t> dues(count);
    for (auto& due : dues) {
      due = start + static_cast<std::int64_t>(
                        rng_.uniform() * static_cast<double>(duration_ns));
    }
    std::sort(dues.begin(), dues.end());
    for (std::int64_t due : dues) workload_.next(plan, due, rng_);
    // Retransmissions are due after the ops that follow their query.
    std::stable_sort(ops.begin(), ops.end(),
                     [](const Op& a, const Op& b) { return a.due < b.due; });
    PhaseStats stats;
    PhaseResult r;
    const std::uint64_t answers0 = engine_.verifier().answers_sent;
    const std::uint64_t cpu0 = gw.cpu_ns();
    const double self0 = cpu_seconds_self();
    const std::int64_t wall0 = realtime_ns();
    engine_.run(ops, store_, end, stats);
    r.gen_cpu_ratio = (cpu_seconds_self() - self0) /
                      (static_cast<double>(realtime_ns() - wall0) / 1e9);
    settle(first, end);
    wait_idle(gw);
    r.gateway_alive = gw.alive();
    r.datagrams = stats.ops_sent + engine_.verifier().answers_sent - answers0;
    if (r.gateway_alive) {
      r.cpu_us_per_datagram =
          static_cast<double>(gw.cpu_ns() - cpu0) / 1e3 /
          static_cast<double>(std::max<std::uint64_t>(1, r.datagrams));
    }
    r.missing = engine_.settle_missing(end);
    r.late_us = std::move(stats.late_us);
    evaluate(first, r);
    return r;
  }

  /// A round on a fresh gateway: set-up, then the fixed rate for
  /// `duration_ns`. False when the gateway failed to come up.
  bool round(GatewayProcess& gw, const std::vector<std::string>& argv,
             int index, std::int64_t duration_ns, Round& out) {
    out.setup_s = setup(gw, argv, index);
    if (out.setup_s < 0) return false;
    out.phase = run_phase(duration_ns, true, gw);
    out.rss_mb = static_cast<double>(gw.status_kb("VmHWM")) / 1024.0;
    out.open_fds = static_cast<double>(gw.open_fds());
    check_descriptions();
    return true;
  }

  /// The impersonated devices' descriptions, fetched from the gateway while
  /// it runs: each sampled LOCATION must serve a controlURL that is a
  /// service of the searched type.
  void check_descriptions() {
    for (const auto& check : engine_.description_checks()) {
      descriptions_checked_ += 1;
      if (!engine_.knows(fetch_control_url(check.location), check.type)) {
        descriptions_bad_ += 1;
      }
    }
    engine_.description_checks().clear();
  }

  [[nodiscard]] Engine& engine() { return engine_; }
  [[nodiscard]] const std::string& error() const { return error_; }
  /// Frames set-up (priming, warm-up) expected but never saw.
  [[nodiscard]] std::uint64_t setup_missing() const { return setup_missing_; }
  [[nodiscard]] std::size_t descriptions_checked() const {
    return descriptions_checked_;
  }
  [[nodiscard]] std::size_t descriptions_bad() const {
    return descriptions_bad_;
  }

 private:
  void prime() {
    std::size_t n = workload_.prime_count();
    std::size_t batch = workload_.prime_batch();
    for (std::size_t first = 0; first < n; first += batch) {
      std::int64_t t_batch = realtime_ns();
      std::vector<Op> ops;
      Plan plan{engine_, ops, store_, false};
      std::size_t before = engine_.txn_count();
      for (std::size_t i = first; i < std::min(n, first + batch); ++i) {
        workload_.prime(plan, i, t_batch);
      }
      PhaseStats stats;
      engine_.run(ops, store_, t_batch, stats);
      // Closed loop: the batch's bridged frames must arrive before the
      // next batch goes out, so priming time tracks the gateway's speed.
      std::int64_t deadline = realtime_ns() + 2'000'000'000;
      while (realtime_ns() < deadline && !complete(before)) {
        engine_.idle(200'000);
      }
      if (workload_.prime_gap_ns() > 0) engine_.idle(workload_.prime_gap_ns());
    }
  }

  /// True when every transaction from index `first` on has all its frames.
  bool complete(std::size_t first) {
    for (std::size_t t = first; t < engine_.txn_count(); ++t) {
      if (engine_.txn(t).received < engine_.txn(t).expected) return false;
    }
    return true;
  }

  /// Serves receives until every transaction from index `first` on has its
  /// frames or the timeout of the last one due (before `end`) has passed,
  /// then 50 ms more, so a stray frame still shows as a loop frame.
  void settle(std::size_t first, std::int64_t end) {
    const std::int64_t deadline = end + kTimeoutNs;
    std::size_t open = first;
    while (realtime_ns() < deadline) {
      while (open < engine_.txn_count() &&
             engine_.txn(open).received >= engine_.txn(open).expected) {
        ++open;
      }
      if (open == engine_.txn_count()) break;
      engine_.idle(5'000'000);
    }
    engine_.idle(50'000'000);
  }

  /// Serves receives until the gateway has worked off its backlog (under
  /// 5% of a CPU over 50 ms), at most 3 s: the next phase must not start
  /// against the last one's queue.
  void wait_idle(GatewayProcess& gw) {
    std::int64_t deadline = realtime_ns() + 3'000'000'000;
    std::uint64_t before = gw.cpu_ns();
    while (realtime_ns() < deadline && gw.alive()) {
      engine_.idle(50'000'000);
      std::uint64_t after = gw.cpu_ns();
      if (after - before < 2'500'000) return;
      before = after;
    }
  }

  void evaluate(std::size_t first, PhaseResult& r) {
    for (std::size_t i = first; i < engine_.txn_count(); ++i) {
      const Txn& t = engine_.txn(i);
      if (!t.measured) continue;
      double us = t.first_ts == 0
                      ? 1e12
                      : static_cast<double>(t.first_ts - t.due) / 1e3;
      // Failed: no correct frame within the timeout, a wrong frame, or an
      // expected frame that never came (a lost datagram is a failed op; a
      // wrong or unexpected frame makes the run incorrect).
      if (us > static_cast<double>(kTimeoutNs) / 1e3 || t.wrong ||
          t.received < t.expected) {
        r.failed += 1;
      }
      r.latency_us.push_back(us);
    }
    r.p50_us = median(r.latency_us);
    r.p90_us = percentile(r.latency_us, 0.90);
  }

  const Options& opt_;
  Workload& workload_;
  Engine engine_;
  Rng rng_;
  std::vector<Bytes> store_;
  int gateway_cpu_ = -1;
  std::uint64_t setup_missing_ = 0;
  std::size_t descriptions_checked_ = 0;
  std::size_t descriptions_bad_ = 0;
  std::string error_;
};

std::string json_number(double v) {
  char buf[64];
  std::snprintf(buf, sizeof(buf), "%.9g", v);
  return buf;
}

std::string json_string(const std::string& s) {
  std::string out = "\"";
  for (char c : s) {
    if (c == '"' || c == '\\') out += '\\';
    if (static_cast<unsigned char>(c) < 0x20) {
      out += ' ';
      continue;
    }
    out += c;
  }
  return out + "\"";
}

/// Parses the traced gateway's `trace key=value` summary lines.
std::map<std::string, double> parse_trace(const std::string& text) {
  std::map<std::string, double> out;
  std::size_t at = 0;
  while ((at = text.find("trace ", at)) != std::string::npos) {
    at += 6;
    auto eq = text.find('=', at);
    auto nl = text.find('\n', at);
    if (eq == std::string::npos || eq > nl) continue;
    out[text.substr(at, eq - at)] = std::atof(text.c_str() + eq + 1);
  }
  return out;
}

/// The per-layer metrics of a traced round, from the traced gateway's
/// `trace` summary, against the untraced round `base`.
void trace_metrics(const std::map<std::string, double>& summary,
                   const PhaseResult& traced, const Round& base,
                   std::map<std::string, double>& metrics) {
  auto tr = [&](const char* key) {
    auto it = summary.find(key);
    return it == summary.end() ? 0.0 : it->second;
  };
  const double ops = std::max<double>(1, traced.datagrams);
  auto per_op_us = [&](const char* key) { return tr(key) / ops / 1e3; };
  auto ratio = [](double a, double b) { return b > 0 ? a / b : 0.0; };
  metrics["gateway.internal_p50_us"] = tr("internal_p50_ns") / 1e3;
  metrics["gateway.chain_rx_us"] = tr("chain_rx_ns") / 1e3;
  metrics["gateway.chain_wait_us"] = tr("chain_wait_ns") / 1e3;
  metrics["gateway.chain_task_us"] = tr("chain_task_ns") / 1e3;
  metrics["monitor.rx_us"] = per_op_us("monitor.ns");
  metrics["monitor.filtered_ratio"] =
      ratio(tr("monitor_filtered"), tr("monitor_filtered") + tr("monitor_seen"));
  metrics["cache.hit_ratio"] =
      ratio(tr("cache_hits"), tr("cache_hits") + tr("cache_misses"));
  metrics["unit.ingress_us"] = per_op_us("unit.ingress.ns");
  metrics["unit.ingress_allocs"] = tr("unit.ingress.allocs") / ops;
  metrics["unit.peer_us"] = per_op_us("unit.peer.ns");
  metrics["unit.peer_allocs"] = tr("unit.peer.allocs") / ops;
  metrics["unit.response_rx_us"] = per_op_us("unit.response_rx.ns");
  metrics["transport.sockets_opened_per_op"] = tr("sockets_opened") / ops;
  metrics["transport.tx_us"] = per_op_us("transport.tx.ns");
  metrics["transport.tx_per_op"] = tr("transport.tx.count") / ops;
  metrics["gateway.open_fds"] = base.open_fds;
  metrics["unit.events_ignored_per_op"] = tr("events_ignored") / ops;
  metrics["bus.deliveries_per_op"] = tr("bus_deliveries") / ops;
  metrics["scheduler.wait_p50_us"] = tr("wait_p50_ns") / 1e3;
  metrics["scheduler.wait_p99_us"] = tr("wait_p99_ns") / 1e3;
  metrics["directory.answered_ratio"] =
      ratio(tr("directory_answered"),
            tr("directory_answered") + tr("directory_bridged"));
  metrics["directory.answer_cache_ratio"] =
      ratio(tr("directory_answer_replays"), tr("directory_answered"));
  metrics["gateway.allocs_per_op"] = tr("allocs") / ops;
  metrics["trace.overhead_ratio.latency_p50"] =
      ratio(traced.p50_us, base.phase.p50_us);
  metrics["trace.overhead_ratio.cpu"] =
      ratio(traced.cpu_us_per_datagram, base.phase.cpu_us_per_datagram);
}

int usage() {
  std::fprintf(stderr,
               "usage: bench_e2e_loadgen --workload NAME --gateway PATH "
               "[--seed N] [--seconds S] [--trace 0|1 --traced PATH] "
               "[--out-dir DIR] [--smoke]\n");
  return 2;
}

}  // namespace

int main(int argc, char** argv) {
  Options opt;
  for (int i = 1; i < argc; ++i) {
    std::string arg = argv[i];
    auto value = [&]() -> std::string {
      return i + 1 < argc ? argv[++i] : std::string();
    };
    if (arg == "--workload") {
      opt.workload = value();
    } else if (arg == "--seed") {
      opt.seed = std::strtoull(value().c_str(), nullptr, 10);
    } else if (arg == "--seconds") {
      opt.seconds = std::atof(value().c_str());
    } else if (arg == "--trace") {
      opt.trace = value() == "1";
    } else if (arg == "--traced") {
      opt.traced = value();
    } else if (arg == "--gateway") {
      opt.gateway = value();
    } else if (arg == "--out-dir") {
      opt.out_dir = value();
    } else if (arg == "--smoke") {
      opt.smoke = true;
    } else {
      return usage();
    }
  }
  auto workload = make_workload(opt.workload);
  if (workload == nullptr || opt.gateway.empty() || opt.seconds <= 0 ||
      (opt.trace && opt.traced.empty())) {
    return usage();
  }
  std::signal(SIGPIPE, SIG_IGN);

  // With 3 or more CPUs the gateway and the generator get one each. The
  // generator's is kept out of its idle state for the whole run (forked
  // before any socket exists, so the spinner holds none); the gateway's is
  // left alone (README.md, "Idle CPUs").
  int gateway_cpu = -1;
  int generator_cpu = -1;
  if (std::vector<int> cpus = allowed_cpus(); cpus.size() >= 3) {
    gateway_cpu = cpus.back();
    generator_cpu = cpus[cpus.size() - 2];
  }
  IdleSpinner generator_spinner(generator_cpu);
  pin_to(generator_cpu);

  std::unique_ptr<Runner> runner;
  try {
    runner = std::make_unique<Runner>(opt, *workload, gateway_cpu);
  } catch (const std::exception& e) {
    std::fprintf(stderr,
                 "bench_e2e_loadgen: %s\n"
                 "The benchmark binds the well-known SDP ports (SLP 427 needs "
                 "root or CAP_NET_BIND_SERVICE) and joins multicast groups on "
                 "lo.\n",
                 e.what());
    return 3;
  }

  std::vector<std::string> gw_argv = {opt.gateway, "--loopback"};
  for (const auto& a : workload->gateway_args()) gw_argv.push_back(a);
  const auto seconds_ns = static_cast<std::int64_t>(opt.seconds * 1e9);
  std::map<std::string, double> metrics;
  std::vector<std::string> notes;
  auto gateway_failed = [&]() {
    std::fprintf(stderr, "bench_e2e_loadgen: %s\n", runner->error().c_str());
    return 3;
  };

  // --- Rounds ---------------------------------------------------------------
  // A traced run is one untraced round (the overhead baseline), replayed
  // below through the traced twin.
  const int rounds = opt.trace || opt.smoke ? 1 : kRounds;
  const std::int64_t round_ns = seconds_ns / (opt.trace ? 2 : rounds);
  std::vector<Round> done;
  for (int k = 0; k < rounds; ++k) {
    GatewayProcess gw;
    Round r;
    if (!runner->round(gw, gw_argv, k, round_ns, r)) return gateway_failed();
    if (!r.phase.gateway_alive) notes.push_back("gateway died in a round");
    gw.stop();
    runner->engine().idle(50'000'000);
    done.push_back(std::move(r));
  }

  // Each metric is the median over the rounds; the tail percentile and the
  // generator's lateness pool every round's samples.
  auto over_rounds = [&](auto field) {
    std::vector<double> values;
    for (const Round& r : done) values.push_back(field(r));
    return median(values);
  };
  std::vector<double> latencies;
  std::vector<double> late;
  std::size_t attempted = 0;
  std::size_t failed = 0;
  std::uint64_t missing = runner->setup_missing();
  double gen_cpu = 0;
  bool gateway_alive = true;
  for (const Round& r : done) {
    const PhaseResult& p = r.phase;
    latencies.insert(latencies.end(), p.latency_us.begin(), p.latency_us.end());
    late.insert(late.end(), p.late_us.begin(), p.late_us.end());
    attempted += p.latency_us.size();
    failed += p.failed;
    missing += p.missing;
    gen_cpu = std::max(gen_cpu, p.gen_cpu_ratio);
    gateway_alive = gateway_alive && p.gateway_alive;
  }
  metrics["latency_p50_us"] =
      over_rounds([](const Round& r) { return r.phase.p50_us; });
  metrics["latency_p90_us"] =
      over_rounds([](const Round& r) { return r.phase.p90_us; });
  metrics["latency_p99_us"] = percentile(latencies, 0.99);
  metrics["gateway_cpu_us_per_op"] =
      over_rounds([](const Round& r) { return r.phase.cpu_us_per_datagram; });
  metrics["gateway_rss_mb"] = over_rounds([](const Round& r) { return r.rss_mb; });
  metrics["setup_s"] = over_rounds([](const Round& r) { return r.setup_s; });
  metrics["samples"] = static_cast<double>(attempted);
  metrics["fail_ratio"] =
      static_cast<double>(failed) / std::max<double>(1, attempted);
  metrics["gen_late_p90_us"] = percentile(late, 0.90);
  metrics["gen_late_p99_us"] = percentile(late, 0.99);
  metrics["gen_cpu_ratio"] = gen_cpu;
  metrics["offered_ops"] = workload->fixed_rate();
  // The generator must have kept its schedule. The 90th percentile of its
  // lateness is judged, not the 99th: on a shared VM the 99th sits on the
  // host's vCPU stalls, which delay the gateway just as much.
  const bool valid = metrics["gen_late_p90_us"] <= 50 && gen_cpu <= 0.5;
  if (!valid) {
    notes.push_back("generator out of bounds: late_p90_us=" +
                    json_number(metrics["gen_late_p90_us"]) +
                    " cpu=" + json_number(gen_cpu));
  }

  // --- Traced round: the same round through the traced twin. ---------------
  if (opt.trace) {
    GatewayProcess traced;
    std::vector<std::string> targv = {opt.traced, "--trace-out",
                                      opt.out_dir + "/" + workload->name() +
                                          ".trace.json"};
    for (const auto& a : workload->gateway_args()) targv.push_back(a);
    if (runner->setup(traced, targv, rounds) < 0) return gateway_failed();
    traced.signal(SIGUSR1);
    runner->engine().idle(5'000'000);
    PhaseResult t =
        runner->run_phase(round_ns, true, traced);
    traced.signal(SIGUSR2);
    runner->engine().idle(20'000'000);
    runner->check_descriptions();
    traced.stop();
    missing += t.missing;
    attempted += t.latency_us.size();
    failed += t.failed;
    gateway_alive = gateway_alive && t.gateway_alive;
    auto summary = parse_trace(traced.output());
    trace_metrics(summary, t, done.front(), metrics);
    if (summary["untraced_tasks"] > 0 || summary["pool_overflows"] > 0) {
      notes.push_back("tracer slabs overflowed; per-layer sums are partial");
    }
  }

  Engine& engine = runner->engine();
  engine.finish_translated();
  const VerifierStats& v = engine.verifier();
  // At most 0.1% of the measured transactions may fail (the SLO's failure
  // budget); any wrong or unexpected frame is a verifier failure.
  bool correct = gateway_alive && v.loop_frames == 0 && v.wrong_frames == 0 &&
                 runner->descriptions_bad() == 0 && attempted > 0 &&
                 static_cast<double>(failed) <=
                     0.001 * static_cast<double>(attempted);
  for (const auto& n : v.notes) notes.push_back(n);
  metrics["gateway_frames"] = static_cast<double>(v.gateway_frames);
  metrics["translated_queries"] = static_cast<double>(v.translated_queries);
  metrics["late_frames"] = static_cast<double>(v.late_frames);
  metrics["retransmits"] = static_cast<double>(v.retransmits);
  metrics["duplicate_answers"] = static_cast<double>(v.duplicate_answers);
  metrics["loop_frames"] = static_cast<double>(v.loop_frames);
  metrics["wrong_frames"] = static_cast<double>(v.wrong_frames);
  metrics["missing_frames"] = static_cast<double>(missing);
  metrics["descriptions_checked"] =
      static_cast<double>(runner->descriptions_checked());

  std::string out = "{\"workload\":" + json_string(workload->name()) +
                    ",\"valid\":" + (valid ? "true" : "false") +
                    ",\"correct\":" + (correct ? "true" : "false") +
                    ",\"attempted\":" + std::to_string(attempted) +
                    ",\"failed\":" + std::to_string(failed) + ",\"metrics\":{";
  bool first = true;
  for (const auto& [k, val] : metrics) {
    out += (first ? "" : ",") + json_string(k) + ":" + json_number(val);
    first = false;
  }
  out += "},\"rounds\":[";
  first = true;
  for (const Round& r : done) {
    out += std::string(first ? "" : ",") + "{\"setup_s\":" +
           json_number(r.setup_s) + ",\"latency_p50_us\":" +
           json_number(r.phase.p50_us) + ",\"latency_p90_us\":" +
           json_number(r.phase.p90_us) + ",\"gateway_cpu_us_per_op\":" +
           json_number(r.phase.cpu_us_per_datagram) +
           ",\"gateway_rss_mb\":" + json_number(r.rss_mb) + "}";
    first = false;
  }
  out += "],\"notes\":[";
  first = true;
  for (const auto& n : notes) {
    out += (first ? "" : ",") + json_string(n);
    first = false;
  }
  out += "]}";
  std::printf("%s\n", out.c_str());
  return 0;
}
