// Ablation A6: the periodic-announcement storm — the workload the
// bridged-translation cache exists for.
//
// Steady-state gateway traffic is dominated by re-announcements (SSDP
// `alive` every ~30 s, SLP re-adverts, mDNS refresh bursts, Jini registrar
// heartbeats) that are byte-identical between periods. This harness drives N
// devices through repeated announcement cycles across all four SDPs,
// injected straight into the gateway's units (no simulated-wire cost in the
// measurement, so the number isolates the translation pipeline), and
// records announcements/sec, allocs/op and the cache hit rate with the
// TranslationCache enabled vs disabled. The ratio between the two is the
// difference between a bridge that scales with unique services and one that
// scales with raw message rate.
#include <benchmark/benchmark.h>

#include <memory>
#include <string>
#include <vector>

#include "core/indiss.hpp"
#include "core/shard/router.hpp"
#include "jini/discovery.hpp"
#include "jini/lookup.hpp"
#include "mdns/dns.hpp"
#include "mdns/dnssd.hpp"
#include "net/host.hpp"
#include "net/udp.hpp"
#include "net/network.hpp"
#include "sim/scheduler.hpp"
#include "slp/wire.hpp"
#include "upnp/ssdp.hpp"

#include "tests/support/alloc_meter.hpp"

namespace {

using namespace indiss;

struct Announcement {
  core::SdpId sdp;
  net::Datagram datagram;
};

Bytes slp_registration(int device) {
  slp::SrvReg reg;
  reg.url_entry = {300, "service:clock:soap://10.0.1." +
                            std::to_string(device % 250) + ":4005/dev" +
                            std::to_string(device)};
  reg.service_type = "service:clock";
  reg.attr_list = "(friendlyName=Dev " + std::to_string(device) + ")";
  return slp::encode(slp::Message(reg));
}

Bytes upnp_alive(int device) {
  upnp::Notify notify;
  notify.nt = "urn:schemas-upnp-org:device:clock:1";
  notify.usn = "uuid:Dev" + std::to_string(device) +
               "::urn:schemas-upnp-org:device:clock:1";
  notify.location = "http://10.0.1." + std::to_string(device % 250) +
                    ":4004/description.xml";
  return to_bytes(notify.to_http().serialize());
}

Bytes mdns_announce(int device) {
  mdns::DnsMessage message;
  message.flags = mdns::kFlagResponse | mdns::kFlagAuthoritative;
  std::string instance = "dev" + std::to_string(device) + "._clock._tcp.local";
  mdns::DnsRecord ptr;
  ptr.name = "_clock._tcp.local";
  ptr.type = mdns::kTypePtr;
  ptr.ttl = 120;
  ptr.target = instance;
  message.answers.push_back(ptr);
  mdns::DnsRecord txt;
  txt.name = instance;
  txt.type = mdns::kTypeTxt;
  txt.ttl = 120;
  txt.txt = {{"url", "soap://10.0.1." + std::to_string(device % 250) +
                         ":4006/dev" + std::to_string(device)}};
  message.answers.push_back(txt);
  return mdns::encode(message);
}

Bytes jini_heartbeat() {
  // One registrar heartbeating, as deployed: every Jini-class slot repeats
  // the same announcement bytes (a rotating set of distinct registrars would
  // re-trigger the registrar-changed invalidation by design).
  jini::MulticastAnnouncement announcement;
  announcement.registrar_host = "10.0.0.9";
  announcement.registrar_port = jini::kJiniPort;
  announcement.registrar_id = 9;
  announcement.groups = {""};
  return announcement.encode();
}

struct StormRig {
  sim::Scheduler scheduler;
  net::Network network{scheduler, net::LinkProfile{}, 17};
  net::Host& gateway = network.add_host("gw", net::IpAddress(10, 0, 0, 3));
  net::Host& registrar_host =
      network.add_host("reggie", net::IpAddress(10, 0, 0, 9));
  jini::LookupService registrar{registrar_host, longer_heartbeat()};
  std::unique_ptr<core::Indiss> indiss;
  std::vector<Announcement> announcements;

  static jini::LookupConfig longer_heartbeat() {
    jini::LookupConfig config;
    // The harness injects the heartbeat itself; keep the real registrar from
    // adding unsynchronized traffic mid-measurement.
    config.announcement_interval = sim::seconds(3600);
    return config;
  }

  /// With shard_count > 1 the rig models ONE shard of the sharded pipeline
  /// (docs/sharding.md): it keeps only the announcements whose wire hash
  /// routes to shard_index, using a 3-SDP mix (slp/upnp/mdns) because the
  /// deployed Jini heartbeat is a single repeated wire — it would land
  /// whole on one shard and say nothing about spreading.
  StormRig(int devices, bool cache_enabled, int shard_count = 1,
           int shard_index = 0, net::LinkProfile profile = {},
           core::MonitorConfig monitor = {})
      : network{scheduler, profile, 17} {
    core::IndissConfig config;
    config.monitor = monitor;
    config.enabled_sdps.insert(core::SdpId::kSlp);
    config.enabled_sdps.insert(core::SdpId::kUpnp);
    config.enabled_sdps.insert(core::SdpId::kJini);
    config.enabled_sdps.insert(core::SdpId::kMdns);
    config.enable_translation_cache = cache_enabled;
    indiss = std::make_unique<core::Indiss>(gateway, config);
    indiss->start();
    scheduler.run_for(sim::millis(10));

    const bool sharded = shard_count > 1;
    for (int i = 0; i < devices; ++i) {
      Announcement a;
      net::Endpoint source{net::IpAddress(10, 0, 1,
                                          static_cast<std::uint8_t>(i % 250)),
                           static_cast<std::uint16_t>(40000 + i)};
      switch (i % (sharded ? 3 : 4)) {
        case 0:
          a.sdp = core::SdpId::kSlp;
          a.datagram.payload = slp_registration(i);
          break;
        case 1:
          a.sdp = core::SdpId::kUpnp;
          a.datagram.payload = upnp_alive(i);
          break;
        case 2:
          a.sdp = core::SdpId::kMdns;
          a.datagram.payload = mdns_announce(i);
          break;
        default:
          a.sdp = core::SdpId::kJini;
          a.datagram.payload = jini_heartbeat();
          break;
      }
      a.datagram.source = source;
      a.datagram.multicast = true;
      if (sharded) {
        BytesView wire(a.datagram.payload.data(), a.datagram.payload.size());
        if (core::shard::shard_for(
                wire, static_cast<std::size_t>(shard_count)) !=
            static_cast<std::size_t>(shard_index)) {
          continue;
        }
      }
      announcements.push_back(std::move(a));
    }
  }

  /// One announcement period: every device re-announces, the gateway
  /// translates (or replays), and simulated time advances past the cache's
  /// settle window the way a real ~30 s period would.
  void cycle() {
    for (const auto& a : announcements) {
      indiss->unit(a.sdp)->on_native_message(a.datagram);
    }
    scheduler.run_for(sim::seconds(30));
  }

  /// The hostile period (docs/chaos.md): the legit fleet re-announces
  /// through the monitor path (ingest, so the per-source token bucket and
  /// the cache both run), and one misbehaving source floods byte-varying
  /// garbage between them — every flood datagram is a cache miss by
  /// construction, so whatever the limiter admits costs a full parse.
  void hostile_cycle(int flood_per_cycle) {
    for (const auto& a : announcements) {
      indiss->ingest(a.sdp, a.datagram);
    }
    net::Datagram junk;
    junk.source = net::Endpoint{net::IpAddress(10, 0, 0, 66), 41000};
    junk.multicast = true;
    for (int i = 0; i < flood_per_cycle; ++i) {
      junk.payload = to_bytes("hostile-" + std::to_string(flood_counter_++));
      indiss->ingest(core::SdpId::kSlp, junk);
    }
    scheduler.run_for(sim::seconds(30));
  }

  int flood_counter_ = 0;

  [[nodiscard]] double hit_rate() const {
    std::uint64_t hits = 0;
    std::uint64_t total = 0;
    for (core::SdpId sdp : {core::SdpId::kSlp, core::SdpId::kUpnp,
                            core::SdpId::kJini, core::SdpId::kMdns}) {
      auto stats = indiss->monitor().translation_stats(sdp);
      hits += stats.hits;
      total += stats.hits + stats.misses;
    }
    return total == 0 ? 0.0 : static_cast<double>(hits) /
                                  static_cast<double>(total);
  }
};

void run_storm(benchmark::State& state, bool cache_enabled) {
  const int devices = static_cast<int>(state.range(0));
  StormRig rig(devices, cache_enabled);
  // Warm-up periods: first translations happen here (and, with the cache,
  // fill it), so the timed loop measures the steady re-announcement state.
  rig.cycle();
  rig.cycle();

  std::uint64_t allocs_before = indiss::testing::g_heap_allocs;
  for (auto _ : state) {
    rig.cycle();
  }
  std::uint64_t announcements =
      state.iterations() * static_cast<std::uint64_t>(devices);
  state.counters["events_per_sec"] = benchmark::Counter(
      static_cast<double>(announcements), benchmark::Counter::kIsRate);
  state.counters["heap_allocs_per_op"] = benchmark::Counter(
      static_cast<double>(indiss::testing::g_heap_allocs - allocs_before) /
      static_cast<double>(announcements));
  state.counters["cache_hit_rate"] = benchmark::Counter(rig.hit_rate());
  state.SetItemsProcessed(static_cast<std::int64_t>(announcements));
}

void BM_StormCacheEnabled(benchmark::State& state) { run_storm(state, true); }
BENCHMARK(BM_StormCacheEnabled)->Arg(16)->Arg(64)->Unit(benchmark::kMicrosecond);

void BM_StormCacheDisabled(benchmark::State& state) { run_storm(state, false); }
BENCHMARK(BM_StormCacheDisabled)->Arg(16)->Arg(64)->Unit(benchmark::kMicrosecond);

// The same storm under hostile conditions (docs/chaos.md): ~5% bursty
// (Gilbert-Elliott) loss on every cross-host frame, plus a single
// misbehaving source flooding 4x the fleet's own traffic in byte-varying
// garbage each period, shed by the monitor's per-source token bucket.
// events_per_sec counts only the legit fleet — the figure of merit is how
// much of the clean-path BM_StormCacheEnabled rate survives an attack.
void BM_StormHostile(benchmark::State& state) {
  const int devices = static_cast<int>(state.range(0));
  net::LinkProfile profile;
  profile.faults.ge_p_good_to_bad = 0.02;
  profile.faults.ge_p_bad_to_good = 0.38;
  profile.faults.ge_loss_bad = 1.0;  // steady state: 0.02/0.40 = 5% loss
  core::MonitorConfig monitor;
  monitor.rate_limit_per_sec = 5.0;  // burst defaults to 10
  StormRig rig(devices, true, 1, 0, profile, monitor);

  // A cross-host subscriber: with a remote member in the mDNS group, the
  // gateway's composed announcements traverse the fault engine instead of
  // staying loopback-only (faults never touch loopback).
  net::Host& observer =
      rig.network.add_host("obs", net::IpAddress(10, 0, 0, 12));
  auto mdns_listener = observer.udp_socket(5353);
  mdns_listener->join_group(net::IpAddress(224, 0, 0, 251));

  const int flood_per_cycle = devices * 4;
  rig.hostile_cycle(flood_per_cycle);
  rig.hostile_cycle(flood_per_cycle);

  std::uint64_t allocs_before = indiss::testing::g_heap_allocs;
  for (auto _ : state) {
    rig.hostile_cycle(flood_per_cycle);
  }
  std::uint64_t announcements =
      state.iterations() * static_cast<std::uint64_t>(devices);
  state.counters["events_per_sec"] = benchmark::Counter(
      static_cast<double>(announcements), benchmark::Counter::kIsRate);
  state.counters["heap_allocs_per_op"] = benchmark::Counter(
      static_cast<double>(indiss::testing::g_heap_allocs - allocs_before) /
      static_cast<double>(announcements));
  state.counters["cache_hit_rate"] = benchmark::Counter(rig.hit_rate());
  state.counters["rate_limited"] = benchmark::Counter(
      static_cast<double>(rig.indiss->monitor().stats().rate_limited));
  state.counters["fault_lost"] = benchmark::Counter(
      static_cast<double>(rig.network.stats().fault_lost_packets));
  state.SetItemsProcessed(static_cast<std::int64_t>(announcements));
}
BENCHMARK(BM_StormHostile)->Arg(64)->Unit(benchmark::kMicrosecond);

// The cores axis: the same storm through the sharded pipeline at 1/2/4
// shards. Each benchmark thread is one shard — an independent gateway
// processing exactly the slice of the fleet the wire hash routes to it, the
// way a threaded Gateway's shard threads do. events_per_sec sums across
// threads (google-benchmark accumulates counters), so the N-thread entries
// measure aggregate translation throughput; the only cross-thread state is
// the internally synchronized SymbolTable, same as the threaded Gateway.
// Interpreting the scaling requires >= N physical cores — on fewer cores the
// threads time-slice and the aggregate stays flat (see docs/sharding.md).
void BM_StormSharded(benchmark::State& state) {
  const int devices = static_cast<int>(state.range(0));
  StormRig rig(devices, true, state.threads(), state.thread_index());
  rig.cycle();
  rig.cycle();

  // The alloc meter is thread_local, so this delta is exactly this shard's
  // allocations even while sibling shard threads allocate concurrently.
  std::uint64_t allocs_before = indiss::testing::g_heap_allocs;
  for (auto _ : state) {
    rig.cycle();
  }
  std::uint64_t announcements =
      state.iterations() * static_cast<std::uint64_t>(rig.announcements.size());
  state.counters["events_per_sec"] = benchmark::Counter(
      static_cast<double>(announcements), benchmark::Counter::kIsRate);
  state.counters["heap_allocs_per_op"] = benchmark::Counter(
      announcements == 0
          ? 0.0
          : static_cast<double>(indiss::testing::g_heap_allocs - allocs_before) /
                static_cast<double>(announcements),
      benchmark::Counter::kAvgThreads);
  state.counters["shards"] = benchmark::Counter(
      static_cast<double>(state.threads()), benchmark::Counter::kAvgThreads);
  state.counters["cache_hit_rate"] = benchmark::Counter(
      rig.hit_rate(), benchmark::Counter::kAvgThreads);
  state.SetItemsProcessed(static_cast<std::int64_t>(announcements));
}
BENCHMARK(BM_StormSharded)
    ->Arg(64)
    ->Threads(1)
    ->Threads(2)
    ->Threads(4)
    ->Unit(benchmark::kMicrosecond);

// The query-side storm --directory exists for (docs/directory.md): the
// fleet announces once, then clients re-browse every period. With the
// directory on, the gateway answers from the index — byte-identical repeats
// replay straight from the answer cache — instead of fanning every browse
// out to the origin networks. answered_ratio is the figure of merit: the
// fraction of browses that never left the gateway.
void run_browse_storm(benchmark::State& state, bool directory) {
  const int devices = static_cast<int>(state.range(0));
  const int requesters = 16;
  sim::Scheduler scheduler;
  net::Network network{scheduler, net::LinkProfile{}, 17};
  net::Host& gateway = network.add_host("gw", net::IpAddress(10, 0, 0, 3));
  core::IndissConfig config;
  config.enabled_sdps = {core::SdpId::kSlp, core::SdpId::kMdns};
  config.enable_directory = directory;
  core::Indiss indiss(gateway, config);
  indiss.start();
  scheduler.run_for(sim::millis(10));

  // The fleet's periodic mDNS adverts: the first period populates the index,
  // later byte-identical repeats just re-arm deadlines through the wire
  // index (a refresh never invalidates cached answers).
  std::vector<net::Datagram> adverts(static_cast<std::size_t>(devices));
  for (int i = 0; i < devices; ++i) {
    adverts[i].source =
        net::Endpoint{net::IpAddress(10, 0, 1,
                                     static_cast<std::uint8_t>(i % 250)),
                      static_cast<std::uint16_t>(40000 + i)};
    adverts[i].multicast = true;
    adverts[i].payload = mdns_announce(i);
  }

  // Byte-identical SrvRqsts from a rotating requester set: each
  // (wire, source) pair is its own answer-cache entry.
  slp::SrvRqst request;
  request.header.xid = 7;
  request.service_type = "service:clock";
  const Bytes query = slp::encode(slp::Message(request));
  std::vector<net::Datagram> browses(requesters);
  for (int i = 0; i < requesters; ++i) {
    browses[i].source =
        net::Endpoint{net::IpAddress(10, 0, 2, static_cast<std::uint8_t>(i)),
                      static_cast<std::uint16_t>(7000 + i)};
    browses[i].multicast = true;
    browses[i].payload = query;
  }
  auto cycle = [&] {
    for (const auto& a : adverts) {
      indiss.unit(core::SdpId::kMdns)->on_native_message(a);
    }
    for (const auto& b : browses) {
      indiss.unit(core::SdpId::kSlp)->on_native_message(b);
    }
    scheduler.run_for(sim::seconds(30));
  };
  cycle();
  cycle();

  std::uint64_t allocs_before = indiss::testing::g_heap_allocs;
  for (auto _ : state) {
    cycle();
  }
  std::uint64_t queries =
      state.iterations() * static_cast<std::uint64_t>(requesters);
  state.counters["events_per_sec"] = benchmark::Counter(
      static_cast<double>(queries), benchmark::Counter::kIsRate);
  state.counters["heap_allocs_per_op"] = benchmark::Counter(
      static_cast<double>(indiss::testing::g_heap_allocs - allocs_before) /
      static_cast<double>(queries));
  double answered_ratio = 0.0;
  if (indiss.directory() != nullptr) {
    auto stats = indiss.directory()->stats(core::SdpId::kSlp);
    std::uint64_t total = stats.answered + stats.bridged;
    answered_ratio = total == 0 ? 0.0
                                : static_cast<double>(stats.answered) /
                                      static_cast<double>(total);
  }
  state.counters["answered_ratio"] = benchmark::Counter(answered_ratio);
  state.SetItemsProcessed(static_cast<std::int64_t>(queries));
}

void BM_BrowseStormDirectory(benchmark::State& state) {
  run_browse_storm(state, true);
}
BENCHMARK(BM_BrowseStormDirectory)->Arg(64)->Unit(benchmark::kMicrosecond);

void BM_BrowseStormBridged(benchmark::State& state) {
  run_browse_storm(state, false);
}
BENCHMARK(BM_BrowseStormBridged)->Arg(64)->Unit(benchmark::kMicrosecond);

// Contested airwaves (docs/chaos.md): N probing responders all claim the
// SAME instance name with different rdata, so every §8.2 tiebreak is a real
// fight and the losers cycle through rename-and-retry until everyone holds a
// distinct established name. events_per_sec rates the probe engine's
// throughput (probes + conflicts processed); renames_per_run and
// established_ratio record how expensive and how complete convergence was
// inside the 60-simulated-second budget.
struct ProbeContestTotals {
  std::uint64_t probes = 0;
  std::uint64_t conflicts = 0;
  std::uint64_t renames = 0;
  std::uint64_t established = 0;
};

ProbeContestTotals run_probe_contest(int responders) {
  sim::Scheduler scheduler;
  net::Network network{scheduler, net::LinkProfile{}, 17};
  std::vector<std::unique_ptr<mdns::MdnsResponder>> fleet;
  for (int i = 0; i < responders; ++i) {
    net::Host& host = network.add_host(
        "r" + std::to_string(i),
        net::IpAddress(10, 0, 3, static_cast<std::uint8_t>(i + 1)));
    mdns::MdnsConfig config;
    config.probe = true;
    config.seed = static_cast<std::uint64_t>(i + 1);
    auto responder = std::make_unique<mdns::MdnsResponder>(host, config);
    mdns::ServiceInstance instance;
    instance.instance = "clock1";
    instance.service_type = "_clock._tcp";
    instance.port = static_cast<std::uint16_t>(4000 + i);
    instance.txt = {{"url", "soap://10.0.3." + std::to_string(i + 1) +
                                ":4006/r" + std::to_string(i)}};
    responder->publish(std::move(instance));
    fleet.push_back(std::move(responder));
  }
  scheduler.run_for(sim::seconds(60));
  ProbeContestTotals totals;
  for (const auto& responder : fleet) {
    mdns::ProbeStats stats = responder->probe_stats();
    totals.probes += stats.probes_sent;
    totals.conflicts += stats.conflicts;
    totals.renames += stats.renames;
    totals.established += stats.names_established;
  }
  return totals;
}

void BM_ProbeConflictStorm(benchmark::State& state) {
  const int responders = static_cast<int>(state.range(0));
  // Warm-up, like every other bench here: the first scenario after a
  // heap-heavy sibling (BM_BrowseStormBridged frees ~10^8 blocks on
  // teardown) absorbs glibc's free-list consolidation, which would
  // otherwise be billed to this benchmark's only measured iteration.
  run_probe_contest(responders);

  std::uint64_t probes = 0;
  std::uint64_t conflicts = 0;
  std::uint64_t renames = 0;
  std::uint64_t established = 0;
  std::uint64_t runs = 0;
  for (auto _ : state) {
    ProbeContestTotals totals = run_probe_contest(responders);
    probes += totals.probes;
    conflicts += totals.conflicts;
    renames += totals.renames;
    established += totals.established;
    ++runs;
  }
  state.counters["events_per_sec"] = benchmark::Counter(
      static_cast<double>(probes + conflicts), benchmark::Counter::kIsRate);
  state.counters["renames_per_run"] = benchmark::Counter(
      static_cast<double>(renames) / static_cast<double>(runs));
  state.counters["established_ratio"] = benchmark::Counter(
      static_cast<double>(established) /
      static_cast<double>(runs * static_cast<std::uint64_t>(responders)));
  state.SetItemsProcessed(static_cast<std::int64_t>(probes));
}
BENCHMARK(BM_ProbeConflictStorm)
    ->Arg(2)
    ->Arg(8)
    ->Unit(benchmark::kMillisecond);

}  // namespace

BENCHMARK_MAIN();
