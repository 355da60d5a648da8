// Ablation A2: the DFA engine's cost — transition matching, guard
// evaluation, and the monitor's detection dispatch (which the paper claims
// is "reduced to a minimum" because it needs no content inspection).
#include <benchmark/benchmark.h>

#include "core/monitor.hpp"
#include "core/units/slp_unit.hpp"
#include "core/units/standard_fsm.hpp"
#include "net/host.hpp"
#include "net/udp.hpp"
#include "net/network.hpp"
#include "sim/scheduler.hpp"
#include "slp/wire.hpp"

namespace {

using namespace indiss;
using namespace indiss::core;

struct NullUnit : Unit {
  explicit NullUnit(net::Host& host) : Unit(SdpId::kSlp, host) {}

 protected:
  void compose_native_request(Session&) override {}
  void compose_native_reply(Session&) override {}
};

void BM_FsmStepThroughRequestStream(benchmark::State& state) {
  sim::Scheduler scheduler;
  net::Network network(scheduler, net::LinkProfile{}, 1);
  auto& host = network.add_host("h", net::IpAddress(10, 0, 0, 1));
  NullUnit unit(host);
  StateMachine fsm;
  build_standard_fsm(fsm);

  EventStream stream{
      Event(EventType::kControlStart),
      Event(EventType::kNetMulticast),
      Event(EventType::kNetSourceAddr, {{"addr", "10.0.0.1"}, {"port", "4"}}),
      Event(EventType::kServiceRequest),
      Event(EventType::kServiceTypeIs, {{"type", "clock"}}),
  };
  for (auto _ : state) {
    Session session;
    session.origin = Session::Origin::kNative;
    session.state = fsm.start();
    for (const auto& event : stream) {
      benchmark::DoNotOptimize(fsm_step(fsm, unit, session, event));
    }
  }
  state.SetItemsProcessed(
      static_cast<std::int64_t>(state.iterations() * stream.size()));
}
BENCHMARK(BM_FsmStepThroughRequestStream);

void BM_GuardEvaluation(benchmark::State& state) {
  Session session;
  session.kind = Kind::kRequest;
  Event event(EventType::kControlStop);
  const Guard guard{.kinds = bits(Kind::kRequest)};
  for (auto _ : state) {
    benchmark::DoNotOptimize(guard.admits(event, session));
  }
}
BENCHMARK(BM_GuardEvaluation);

// Monitor dispatch cost as the scanned-port count grows: the correspondence
// table lookup is per-socket, so cost per datagram should stay flat.
void BM_MonitorDetectionVsScannedPorts(benchmark::State& state) {
  sim::Scheduler scheduler;
  net::Network network(scheduler, net::LinkProfile{}, 1);
  auto& indiss_host = network.add_host("i", net::IpAddress(10, 0, 0, 1));
  auto& sender_host = network.add_host("s", net::IpAddress(10, 0, 0, 2));

  Monitor monitor(indiss_host);
  int ports = static_cast<int>(state.range(0));
  for (int i = 0; i < ports; ++i) {
    IanaEntry entry{SdpId::kSlp, net::IpAddress(239, 1, 0, static_cast<std::uint8_t>(i + 1)),
                    static_cast<std::uint16_t>(20000 + i)};
    monitor.scan(entry);
  }
  auto tx = sender_host.udp_socket(0);
  slp::SrvRqst request;
  Bytes wire = slp::encode(slp::Message(request));
  for (auto _ : state) {
    tx->send_to(net::Endpoint{net::IpAddress(239, 1, 0, 1), 20000}, wire);
    scheduler.run_all();
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()));
}
BENCHMARK(BM_MonitorDetectionVsScannedPorts)->Arg(1)->Arg(4)->Arg(16)->Arg(64);

}  // namespace

BENCHMARK_MAIN();
