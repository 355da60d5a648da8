// bench_e2e_tracing_check: fails when the TracingTransport decorator itself
// allocates per operation. Each operation the gateway performs through the
// transport (schedule+fire, send_to, a receive, and the per-query socket
// open/re-wire/close) is run N times on the bare live::LiveTransport and N
// times through the decorator with recording on; the allocation counts must
// match exactly, so the traced run's allocation figures are the program's
// own.
#include <cstdio>
#include <functional>
#include <string>

#include "live/event_loop.hpp"
#include "live/transport.hpp"
#include "tests/support/alloc_meter.hpp"
#include "tracing_transport.hpp"

namespace {

using namespace indiss;

constexpr int kOps = 2000;

/// Allocations `op` makes per call, after a warm-up round.
std::uint64_t allocs_of(const std::function<void()>& op) {
  for (int i = 0; i < 64; ++i) op();
  std::uint64_t before = testing::g_heap_allocs;
  for (int i = 0; i < kOps; ++i) op();
  return testing::g_heap_allocs - before;
}

struct Rig {
  live::EventLoop& loop;
  transport::Transport& node;
  std::shared_ptr<transport::UdpSocket> rx;
  std::shared_ptr<transport::UdpSocket> tx;
  int fired = 0;
  int received = 0;

  Rig(live::EventLoop& l, transport::Transport& n) : loop(l), node(n) {
    rx = node.open_udp(0);
    tx = node.open_udp(0);
    rx->set_receive_handler([this](const net::Datagram&) { ++received; });
  }

  void schedule_fire() {
    node.schedule(transport::Duration::zero(), [this]() { ++fired; });
    loop.run_for(transport::Duration::zero());
  }
  void send() { tx->send_to(rx->local_endpoint(), Bytes(32, 0x5A)); }
  void send_and_receive() {
    send();
    int target = received + 1;
    for (int spins = 0; received < target && spins < 1000; ++spins) {
      loop.run_for(transport::micros(50));
    }
  }
  void per_query_socket() {
    auto socket = node.open_udp(0);
    socket->set_receive_handler([this](const net::Datagram&) { ++received; });
    socket->close();
  }
};

}  // namespace

int main() {
  live::EventLoop loop;
  live::LiveTransport bare(loop);

  Rig plain(loop, bare);
  bench_e2e::TracingTransport tracing(bare, &testing::g_heap_allocs);
  tracing.set_enabled(true);
  Rig traced(loop, tracing);

  struct Case {
    const char* name;
    void (Rig::*op)();
  };
  const Case cases[] = {
      {"schedule+fire", &Rig::schedule_fire},
      {"send_to", &Rig::send},
      {"send+receive", &Rig::send_and_receive},
      {"open+rewire+close socket", &Rig::per_query_socket},
  };
  int failures = 0;
  for (const Case& c : cases) {
    std::uint64_t base = allocs_of([&] { (plain.*c.op)(); });
    std::uint64_t with = allocs_of([&] { (traced.*c.op)(); });
    bool ok = with <= base;
    std::printf("%-26s bare=%.3f traced=%.3f allocs/op %s\n", c.name,
                static_cast<double>(base) / kOps,
                static_cast<double>(with) / kOps, ok ? "ok" : "FAIL");
    if (!ok) ++failures;
  }
  if (traced.received == 0 || tracing.totals().count[0] +
                                      tracing.totals().count[1] == 0) {
    std::printf("FAIL: the traced rig recorded no receive spans\n");
    ++failures;
  }
  if (tracing.pool_overflows() != 0) {
    std::printf("FAIL: socket pool overflowed\n");
    ++failures;
  }
  std::printf("tracing_check: %s\n", failures == 0 ? "PASS" : "FAIL");
  return failures == 0 ? 0 : 1;
}
