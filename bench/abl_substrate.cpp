// Ablation A5: throughput of the simulation substrate itself.
//
// After the event pipeline went allocation-lean, the discrete-event scheduler
// and the network fan-out are what bound large-population experiments (the
// regime of Figures 6-9 and the scaling ablation). This harness tracks that
// cost with data: scheduler events/sec and allocs/op for the slot-arena
// scheduler and the shared-datagram fan-out, plus a macro benchmark that
// drives the abl_scaling topology at 100/500/2000 UPnP devices through
// client-side INDISS. scripts/bench.sh records the output as
// BENCH_scaling.json; the last recorded ratios against the retired std::map
// scheduler replica are in docs/simulation.md.
#include <benchmark/benchmark.h>

#include <memory>
#include <vector>

#include "net/host.hpp"
#include "net/udp.hpp"
#include "calibration.hpp"
#include "net/packet.hpp"
#include "sim/random.hpp"
#include "sim/scheduler.hpp"

// --- Allocation counting (same meter as abl_translation) --------------------

#include "tests/support/alloc_meter.hpp"

namespace {

using namespace indiss;

// --- Scheduler churn: a self-sustaining timer population --------------------
//
// Each armed task models a protocol timer: when it fires it rearms itself at
// a random future instant, so the pending population stays constant at the
// benchmark argument. Every fourth arm also schedules-and-cancels an extra
// task, exercising the cancellation path at a realistic rate (SLP retry and
// deadline timers are cancelled far more often than they fire).

class Churn {
 public:
  explicit Churn(int population) {
    for (int i = 0; i < population; ++i) arm();
  }

  void arm() {
    if ((++ticks_ & 3u) == 0) {
      auto handle = scheduler.schedule(next_delay(), [] {});
      handle.cancel();
    }
    scheduler.schedule(next_delay(), [this] { arm(); });
  }

  sim::Scheduler scheduler;

 private:
  sim::SimDuration next_delay() {
    return sim::SimDuration(rng_.uniform_int(1'000, 1'000'000));
  }

  sim::Random rng_{42};
  std::uint64_t ticks_ = 0;
};

void BM_SchedulerChurn(benchmark::State& state) {
  Churn churn(static_cast<int>(state.range(0)));
  std::uint64_t executed = 0;
  std::uint64_t allocs_before = indiss::testing::g_heap_allocs;
  for (auto _ : state) {
    executed += churn.scheduler.run_for(sim::millis(1));
  }
  std::uint64_t allocs = indiss::testing::g_heap_allocs - allocs_before;
  state.SetItemsProcessed(static_cast<std::int64_t>(executed));
  state.counters["events_per_sec"] = benchmark::Counter(
      static_cast<double>(executed), benchmark::Counter::kIsRate);
  state.counters["heap_allocs_per_op"] =
      benchmark::Counter(executed > 0 ? static_cast<double>(allocs) /
                                            static_cast<double>(executed)
                                      : 0.0);
}

BENCHMARK(BM_SchedulerChurn)->Arg(100)->Arg(500)->Arg(2000);

// --- Substrate fan-out: the shared-datagram hot path ------------------------
//
// A device population whose announcement timers drive multicast frames at a
// fixed fan-out, through Network::udp_send's recipe: pooled shared frames,
// one batched delivery task per arrival instant, inline tasks on the slot
// arena. The seed-era recipe (a by-value frame copy in a heap std::function
// per member, a tree node and a liveness shared_ptr per task) is retired;
// its last recorded ratio is in docs/simulation.md.

constexpr std::size_t kFrameBytes = 384;  // a typical SSDP NOTIFY

class SubstrateChurn {
 public:
  // Every device's monitor socket joins the SSDP group, so one frame fans
  // out to the whole population — the multicast amplification regime.
  explicit SubstrateChurn(int devices) : fan_out_(devices) {
    for (int i = 0; i < devices; ++i) {
      liveness_.push_back(std::make_shared<bool>(true));
      scheduler.schedule(next_delay(), [this] { announce(); });
    }
  }

  /// Simulated events (delivered datagrams + timer fires) in a 1 ms slice.
  std::uint64_t run_slice() {
    std::uint64_t before = events_;
    scheduler.run_for(sim::millis(1));
    return events_ - before;
  }

 private:
  struct Target {
    int member;
    std::shared_ptr<bool> alive;
  };

  void announce() {
    ++events_;
    // Publish once, share across the fan-out — Network::udp_send's recipe:
    // pooled frame, pooled target list, one batch task per arrival instant.
    std::shared_ptr<net::Datagram> frame;
    for (auto& pooled : frame_pool_) {
      if (pooled.use_count() == 1) {
        frame = pooled;
        break;
      }
    }
    if (frame == nullptr) {
      frame = std::make_shared<net::Datagram>();
      frame_pool_.push_back(frame);
    }
    frame->payload.assign(kFrameBytes, 0x55);
    frame->multicast = true;
    std::shared_ptr<std::vector<Target>> targets;
    for (auto& pooled : target_pool_) {
      if (pooled.use_count() == 1) {
        pooled->clear();
        targets = pooled;
        break;
      }
    }
    if (targets == nullptr) {
      targets = std::make_shared<std::vector<Target>>();
      target_pool_.push_back(targets);
    }
    for (int m = 0; m < fan_out_; ++m) {
      targets->push_back(Target{m, liveness_[static_cast<std::size_t>(m)]});
    }
    std::shared_ptr<const net::Datagram> shared = frame;
    scheduler.schedule(delivery_delay(), [this, shared, targets] {
      for (const Target& target : *targets) {
        if (*target.alive) deliver(*shared);
      }
    });
    scheduler.schedule(next_delay(), [this] { announce(); });
  }

  void deliver(const net::Datagram& datagram) {
    ++events_;
    sink_ ^= datagram.payload[0];
  }

  sim::SimDuration next_delay() {
    return sim::SimDuration(rng_.uniform_int(100'000, 2'000'000));
  }
  sim::SimDuration delivery_delay() {
    return sim::SimDuration(rng_.uniform_int(1'000, 10'000));
  }

 public:
  sim::Scheduler scheduler;

 private:
  int fan_out_;
  sim::Random rng_{42};
  std::uint64_t events_ = 0;
  std::vector<std::shared_ptr<bool>> liveness_;
  std::vector<std::shared_ptr<net::Datagram>> frame_pool_;
  std::vector<std::shared_ptr<std::vector<Target>>> target_pool_;
  std::uint8_t sink_ = 0;
};

void BM_SubstrateFanOut(benchmark::State& state) {
  SubstrateChurn substrate(static_cast<int>(state.range(0)));
  std::uint64_t executed = 0;
  std::uint64_t allocs_before = indiss::testing::g_heap_allocs;
  for (auto _ : state) {
    executed += substrate.run_slice();
  }
  std::uint64_t allocs = indiss::testing::g_heap_allocs - allocs_before;
  state.SetItemsProcessed(static_cast<std::int64_t>(executed));
  state.counters["events_per_sec"] = benchmark::Counter(
      static_cast<double>(executed), benchmark::Counter::kIsRate);
  state.counters["heap_allocs_per_op"] =
      benchmark::Counter(executed > 0 ? static_cast<double>(allocs) /
                                            static_cast<double>(executed)
                                      : 0.0);
}

BENCHMARK(BM_SubstrateFanOut)->Arg(100)->Arg(500)->Arg(2000);

// --- Macro benchmark: the abl_scaling topology at population ----------------
//
// The full stack the churn numbers stand in for: N devices on their own
// hosts (every fourth one an mDNS/DNS-SD responder, the rest UPnP),
// client-side INDISS bridging all of them, an SLP user agent searching for
// the lot. Every SSDP frame, mDNS answer, description fetch, FSM step and
// INDISS translation runs as scheduler tasks over the shared-datagram
// fan-out.

void BM_ScalingTopology(benchmark::State& state) {
  const int devices = static_cast<int>(state.range(0));
  std::uint64_t events = 0;
  std::uint64_t wire_bytes = 0;
  for (auto _ : state) {
    sim::Scheduler scheduler;
    net::Network network(scheduler, bench::calibrated_link(), 7);
    auto& client_host =
        network.add_host("client", net::IpAddress(10, 0, 0, 1));
    std::vector<std::unique_ptr<upnp::RootDevice>> fleet;
    std::vector<std::unique_ptr<mdns::MdnsResponder>> bonjour_fleet;
    fleet.reserve(static_cast<std::size_t>(devices));
    for (int i = 0; i < devices; ++i) {
      auto& host = network.add_host(
          "dev" + std::to_string(i),
          net::IpAddress(10, 0, static_cast<std::uint8_t>(1 + i / 250),
                         static_cast<std::uint8_t>(1 + i % 250)));
      if (i % 4 == 3) {
        auto responder = std::make_unique<mdns::MdnsResponder>(
            host,
            bench::calibrated_mdns_device(static_cast<std::uint64_t>(i)));
        responder->publish(bench::mdns_clock_instance(i));
        bonjour_fleet.push_back(std::move(responder));
        continue;
      }
      auto description =
          upnp::make_clock_device("uuid:Clock" + std::to_string(i));
      auto device = std::make_unique<upnp::RootDevice>(
          host, description, 4004,
          bench::calibrated_upnp_device(static_cast<std::uint64_t>(i)));
      device->start();
      fleet.push_back(std::move(device));
    }
    core::Indiss indiss(client_host, bench::calibrated_indiss());
    indiss.start();
    scheduler.run_for(sim::millis(5));

    slp::UserAgent ua(client_host, bench::calibrated_slp());
    std::size_t found = 0;
    ua.find_services(
        "service:clock", "", [&](const slp::SearchResult&) { ++found; },
        [](const std::vector<slp::SearchResult>&) {});
    scheduler.run_for(sim::seconds(2));
    benchmark::DoNotOptimize(found);
    // Substrate events: executed scheduler tasks plus datagram deliveries
    // (batched fan-out delivers many datagrams per scheduler task).
    events += scheduler.executed_tasks() + network.stats().udp_deliveries;
    wire_bytes += network.stats().wire_bytes();
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(events));
  state.counters["events_per_sec"] = benchmark::Counter(
      static_cast<double>(events), benchmark::Counter::kIsRate);
  state.counters["wire_bytes_per_run"] = benchmark::Counter(
      static_cast<double>(wire_bytes) /
      static_cast<double>(state.iterations()));
}
BENCHMARK(BM_ScalingTopology)
    ->Arg(100)
    ->Arg(500)
    ->Arg(2000)
    ->Unit(benchmark::kMillisecond);

}  // namespace

BENCHMARK_MAIN();
