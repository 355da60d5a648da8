// bench_e2e_traced_gateway: indissd's unsharded loopback deployment with one
// change — core::Indiss runs over a TracingTransport that decorates the
// live::LiveTransport. Used only by the benchmark's traced run; end-to-end
// numbers always come from the untraced indissd.
//
// Usage:
//   bench_e2e_traced_gateway [--sdps slp,upnp,mdns] [--directory]
//                            [--trace-out trace.json]
//
// SIGUSR1 opens the recording window (the benchmark's fixed-rate phase) and
// SIGUSR2 closes it; SIGINT/SIGTERM stop the gateway, which then prints one
// `trace key=value` line per total over the window and writes the kept spans
// as Chrome trace JSON.
#include <algorithm>
#include <atomic>
#include <csignal>
#include <cstdio>
#include <string>
#include <vector>

#include "common/strings.hpp"
#include "core/indiss.hpp"
#include "live/event_loop.hpp"
#include "live/transport.hpp"
#include "tests/support/alloc_meter.hpp"
#include "tracing_transport.hpp"

namespace {

using namespace indiss;
using bench_e2e::SpanKind;

std::atomic<int> g_window{0};  // 0 idle, 1 open requested, 2 close requested
std::atomic<bool> g_stop{false};

void on_signal(int sig) {
  if (sig == SIGUSR1) g_window.store(1);
  if (sig == SIGUSR2) g_window.store(2);
  if (sig == SIGINT || sig == SIGTERM) g_stop.store(true);
}

/// The gateway's own counters, read through their public accessors.
struct Counters {
  std::uint64_t seen = 0;
  std::uint64_t filtered = 0;
  std::uint64_t cache_hits = 0;
  std::uint64_t cache_misses = 0;
  std::uint64_t events_ignored = 0;
  std::uint64_t deliveries = 0;
  std::uint64_t answered = 0;
  std::uint64_t bridged = 0;
  std::uint64_t answer_replays = 0;
  std::uint64_t allocs = 0;
};

Counters read_counters(core::Indiss& indiss) {
  Counters c;
  const auto& m = indiss.monitor().stats();
  c.seen = m.seen;
  c.filtered = m.filtered;
  for (core::SdpId sdp : indiss.enabled_sdps()) {
    auto t = indiss.monitor().translation_stats(sdp);
    c.cache_hits += t.hits;
    c.cache_misses += t.misses;
    if (core::Unit* unit = indiss.unit(sdp)) {
      c.events_ignored += unit->stats().events_ignored;
    }
    auto d = indiss.monitor().directory_stats(sdp);
    c.answered += d.answered;
    c.bridged += d.bridged;
  }
  if (const auto* dir = indiss.directory()) {
    c.answer_replays = dir->answer_replays();
  }
  c.deliveries = indiss.bus().stats().deliveries;
  c.allocs = indiss::testing::g_heap_allocs;
  return c;
}

std::int64_t percentile(std::vector<std::int64_t> values, double q) {
  if (values.empty()) return 0;
  std::sort(values.begin(), values.end());
  auto rank = static_cast<std::size_t>(q * static_cast<double>(values.size()));
  return values[std::min(rank, values.size() - 1)];
}

}  // namespace

int main(int argc, char** argv) {
  std::set<core::SdpId> sdps = {core::SdpId::kSlp, core::SdpId::kUpnp,
                                core::SdpId::kMdns};
  bool directory = false;
  std::string trace_out;
  for (int i = 1; i < argc; ++i) {
    std::string_view arg = argv[i];
    if (arg == "--directory") {
      directory = true;
    } else if (arg == "--trace-out" && i + 1 < argc) {
      trace_out = argv[++i];
    } else if (arg == "--sdps" && i + 1 < argc) {
      sdps.clear();
      for (auto part : str::split(argv[++i], ',')) {
        for (core::SdpId sdp : {core::SdpId::kSlp, core::SdpId::kUpnp,
                                core::SdpId::kJini, core::SdpId::kMdns}) {
          if (str::trim(part) == core::sdp_name(sdp)) sdps.insert(sdp);
        }
      }
    } else if (arg != "--loopback") {
      std::fprintf(stderr,
                   "usage: %s [--sdps slp,upnp,mdns] [--directory] "
                   "[--trace-out FILE]\n",
                   argv[0]);
      return 2;
    }
  }

  std::signal(SIGUSR1, on_signal);
  std::signal(SIGUSR2, on_signal);
  std::signal(SIGINT, on_signal);
  std::signal(SIGTERM, on_signal);

  live::EventLoop loop;
  live::LiveConfig live_config;
  live_config.name = "traced";
  live::LiveTransport transport(loop, live_config);
  bench_e2e::TracingTransport tracing(transport,
                                      &indiss::testing::g_heap_allocs);

  core::IndissConfig config;
  config.enabled_sdps = sdps;
  config.enable_directory = directory;
  core::Indiss indiss(tracing, config);
  indiss.start();
  std::fprintf(stderr, "traced-gateway: up on 127.0.0.1 (lo)\n");

  Counters at_open;
  Counters at_close;
  bool window_seen = false;
  // Signals only interrupt epoll_wait; a 1 ms poll turns them into window
  // edges and the stop from inside the loop thread.
  transport.schedule_periodic(transport::millis(1), [&]() {
    int edge = g_window.exchange(0);
    if (edge == 1 && !tracing.enabled()) {
      at_open = read_counters(indiss);
      tracing.set_enabled(true);
      window_seen = true;
    } else if (edge == 2 && tracing.enabled()) {
      tracing.set_enabled(false);
      at_close = read_counters(indiss);
    }
    if (g_stop.load()) loop.stop();
  });
  loop.run();
  if (tracing.enabled()) {
    tracing.set_enabled(false);
    at_close = read_counters(indiss);
  }
  if (!window_seen) at_close = at_open;

  const auto& t = tracing.totals();
  auto line = [](const char* key, double value) {
    std::printf("trace %s=%.6f\n", key, value);
  };
  for (int k = 0; k < bench_e2e::kSpanKinds; ++k) {
    std::string name = bench_e2e::span_name(static_cast<SpanKind>(k));
    line((name + ".ns").c_str(), static_cast<double>(t.self_ns[k]));
    line((name + ".allocs").c_str(), static_cast<double>(t.self_allocs[k]));
    line((name + ".count").c_str(), static_cast<double>(t.count[k]));
  }
  line("sockets_opened", static_cast<double>(t.sockets_opened));
  line("untraced_tasks", static_cast<double>(t.untraced_tasks));
  line("pool_overflows", static_cast<double>(tracing.pool_overflows()));

  std::vector<std::int64_t> waits(tracing.waits().begin(),
                                  tracing.waits().end());
  line("wait_p50_ns", static_cast<double>(percentile(waits, 0.50)));
  line("wait_p99_ns", static_cast<double>(percentile(waits, 0.99)));
  line("waits", static_cast<double>(waits.size()));

  // The chain split is reported for the chains around the median internal
  // latency (45th-55th percentile), whose parts add up to their latency
  // exactly and, averaged, to the median.
  std::vector<bench_e2e::Chain> chains = tracing.chains();
  std::sort(chains.begin(), chains.end(),
            [](const auto& a, const auto& b) {
              return a.internal_ns < b.internal_ns;
            });
  double internal_p50 = 0, rx = 0, wait = 0, task = 0;
  if (!chains.empty()) {
    internal_p50 = static_cast<double>(chains[chains.size() / 2].internal_ns);
    std::size_t lo = chains.size() * 45 / 100;
    std::size_t hi = std::max(lo + 1, chains.size() * 55 / 100);
    for (std::size_t i = lo; i < hi; ++i) {
      rx += static_cast<double>(chains[i].rx_ns);
      wait += static_cast<double>(chains[i].wait_ns);
      task += static_cast<double>(chains[i].task_ns);
    }
    double n = static_cast<double>(hi - lo);
    rx /= n;
    wait /= n;
    task /= n;
  }
  line("chains", static_cast<double>(chains.size()));
  line("internal_p50_ns", internal_p50);
  line("chain_rx_ns", rx);
  line("chain_wait_ns", wait);
  line("chain_task_ns", task);

  auto delta = [&](std::uint64_t Counters::*field) {
    return static_cast<double>(at_close.*field - at_open.*field);
  };
  line("monitor_seen", delta(&Counters::seen));
  line("monitor_filtered", delta(&Counters::filtered));
  line("cache_hits", delta(&Counters::cache_hits));
  line("cache_misses", delta(&Counters::cache_misses));
  line("events_ignored", delta(&Counters::events_ignored));
  line("bus_deliveries", delta(&Counters::deliveries));
  line("directory_answered", delta(&Counters::answered));
  line("directory_bridged", delta(&Counters::bridged));
  line("directory_answer_replays", delta(&Counters::answer_replays));
  line("allocs", delta(&Counters::allocs));

  if (!trace_out.empty() && !tracing.write_chrome_trace(trace_out)) {
    std::fprintf(stderr, "traced-gateway: cannot write %s\n",
                 trace_out.c_str());
  }
  std::fflush(stdout);
  indiss.stop();
  return 0;
}
