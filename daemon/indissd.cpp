// indissd: the INDISS gateway as a deployable daemon.
//
// One live::LiveTransport on an epoll event loop carrying one core::Gateway:
// the unchanged unit pipeline (the same objects the simulated experiments
// run) bridging real SDP traffic on real multicast groups. `--loopback`
// confines everything to 127.0.0.1/lo — the configuration the CI smoke test
// uses to bridge a scripted SSDP alive into an mDNS announcement; on a LAN,
// pass the interface's name and address instead.
//
// Usage:
//   indissd --loopback [--name gw] [--duration 2s] [--sdps slp,upnp,mdns]
//           [--seed 7] [--shards N] [--rate-limit 200]
//   indissd --iface eth0 --addr 192.168.1.10 [--sdps upnp,mdns]
//
// `--shards N` sets the gateway's shard count (docs/sharding.md). At 1 (the
// default) the gateway is one scanning Indiss on the main loop. At N >= 2 the
// main loop runs the front monitor, which scans the well-known ports and
// hash-routes each datagram to one of N shard threads (live::ShardThreads),
// each a full scan-less gateway.
//
// Without --duration the daemon runs until SIGINT/SIGTERM. On exit it
// quiesces the shards and prints a machine-greppable summary (one
// `key=value` line per subsystem, counters merged across shards) that the
// smoke script asserts against.
#include <atomic>
#include <cctype>
#include <csignal>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <memory>
#include <optional>
#include <set>
#include <string>
#include <vector>

#include "common/strings.hpp"
#include "core/gateway.hpp"
#include "core/units/mdns_unit.hpp"
#include "core/units/upnp_unit.hpp"
#include "live/event_loop.hpp"
#include "live/shard_threads.hpp"
#include "live/transport.hpp"

namespace {

std::atomic<bool> g_stop{false};

void on_signal(int) { g_stop.store(true); }

using indiss::core::SdpId;

std::optional<SdpId> sdp_from_name(std::string_view name) {
  for (SdpId sdp : {SdpId::kSlp, SdpId::kUpnp, SdpId::kJini, SdpId::kMdns}) {
    if (name == indiss::core::sdp_name(sdp)) return sdp;
  }
  return std::nullopt;
}

/// "2s" / "1500ms" / "inf" -> duration; nullopt on a malformed value.
std::optional<indiss::transport::Duration> parse_duration(
    std::string_view text) {
  if (text == "inf") return indiss::transport::Duration::max();
  std::size_t digits = 0;
  while (digits < text.size() &&
         (std::isdigit(static_cast<unsigned char>(text[digits])) != 0)) {
    ++digits;
  }
  if (digits == 0) return std::nullopt;
  long long value = std::strtoll(std::string(text.substr(0, digits)).c_str(),
                                 nullptr, 10);
  std::string_view suffix = text.substr(digits);
  if (suffix == "ms") return indiss::transport::millis(value);
  if (suffix == "s" || suffix.empty()) {
    return indiss::transport::seconds(value);
  }
  return std::nullopt;
}

int usage(const char* argv0) {
  std::fprintf(stderr,
               "usage: %s (--loopback | --iface NAME --addr A.B.C.D)\n"
               "          [--name NAME] [--duration 2s|500ms|inf]\n"
               "          [--sdps slp,upnp,mdns,jini] [--seed N] [--shards N]\n"
               "          [--rate-limit N]   per-source datagrams/sec "
               "(0 = off, docs/chaos.md)\n"
               "          [--directory]      answer repeat queries from the "
               "service index (docs/directory.md)\n"
               "          [--probe]          RFC 6762 probe/tiebreak bridged "
               "mDNS names before announcing (docs/chaos.md)\n",
               argv0);
  return 2;
}

/// The exit summary: read after Gateway::stop() has quiesced the shards and
/// before the gateway (and with it every unit) is destroyed.
void print_summary(const std::string& name, double up_ms,
                   indiss::core::Gateway& gateway,
                   const indiss::transport::Transport& front,
                   const std::set<SdpId>& sdps, bool probe) {
  using namespace indiss;
  using ull = unsigned long long;

  std::printf("indissd name=%s up_ms=%.0f shards=%zu\n", name.c_str(), up_ms,
              gateway.shard_count());
  const auto& monitor = gateway.monitor().stats();
  std::printf("monitor datagrams_seen=%llu filtered=%llu rate_limited=%llu\n",
              static_cast<ull>(monitor.seen),
              static_cast<ull>(monitor.filtered),
              static_cast<ull>(monitor.rate_limited));
  for (const auto& [sdp, when] : gateway.monitor().detected()) {
    std::printf("detected sdp=%s at_ms=%.0f\n",
                std::string(core::sdp_name(sdp)).c_str(),
                transport::to_millis(when));
  }
  std::size_t records = 0;
  ull announcements = 0;
  std::size_t cached = 0;
  ull fetched = 0;
  ull reused = 0;
  std::size_t kept = 0;
  std::uint64_t wire_bytes = front.stats().wire_bytes();
  std::uint64_t wire_packets = front.stats().wire_packets();
  for (std::size_t i = 0; i < gateway.shard_count(); ++i) {
    core::Indiss& shard = gateway.shard(i);
    const auto& s = shard.monitor().stats();
    std::printf("shard index=%zu ingested=%llu\n", i,
                static_cast<ull>(s.seen + s.filtered + s.rate_limited));
    if (const auto* dir = shard.directory()) records += dir->size();
    if (auto* mdns = shard.unit_as<core::MdnsUnit>(SdpId::kMdns)) {
      announcements += mdns->announcements_sent();
      cached += mdns->foreign_services().size();
    }
    if (auto* upnp = shard.unit_as<core::UpnpUnit>(SdpId::kUpnp)) {
      fetched += upnp->descriptions_fetched();
      reused += upnp->descriptions_reused();
      kept += upnp->kept_descriptions();
    }
    if (&shard.transport() != &front) {
      wire_bytes += shard.transport().stats().wire_bytes();
      wire_packets += shard.transport().stats().wire_packets();
    }
  }
  std::printf("dispatch routed=%llu replicated=%llu ring_dropped=%llu\n",
              static_cast<ull>(gateway.datagrams_dispatched()),
              static_cast<ull>(gateway.datagrams_replicated()),
              static_cast<ull>(gateway.ring_dropped()));
  for (SdpId sdp : sdps) {
    const auto u = gateway.unit_stats(sdp);
    const auto cache = gateway.translation_stats(sdp);
    std::printf(
        "unit sdp=%s parsed=%llu composed=%llu sessions=%llu dispatched=%llu "
        "cache_hits=%llu\n",
        std::string(core::sdp_name(sdp)).c_str(),
        static_cast<ull>(u.messages_parsed),
        static_cast<ull>(u.messages_composed),
        static_cast<ull>(u.sessions_opened),
        static_cast<ull>(u.streams_dispatched),
        static_cast<ull>(cache.hits));
  }
  if (gateway.shard(0).directory() != nullptr) {
    std::printf("directory records=%zu\n", records);
    for (SdpId sdp : sdps) {
      const auto d = gateway.directory_stats(sdp);
      std::printf(
          "directory sdp=%s answered=%llu bridged=%llu stored=%llu "
          "withdrawals=%llu\n",
          std::string(core::sdp_name(sdp)).c_str(),
          static_cast<ull>(d.answered), static_cast<ull>(d.bridged),
          static_cast<ull>(d.records_stored),
          static_cast<ull>(d.withdrawals));
    }
  }
  if (sdps.contains(SdpId::kUpnp)) {
    std::printf("upnp descriptions_fetched=%llu reused=%llu kept=%zu\n",
                fetched, reused, kept);
  }
  if (sdps.contains(SdpId::kMdns)) {
    std::printf("mdns announcements_sent=%llu cached_services=%zu\n",
                announcements, cached);
    if (probe) {
      const auto p = gateway.probe_stats();
      std::printf(
          "mdns probes=%llu conflicts=%llu renames=%llu tiebreaks_lost=%llu "
          "defenses=%llu backoffs=%llu established=%llu\n",
          static_cast<ull>(p.probes_sent), static_cast<ull>(p.conflicts),
          static_cast<ull>(p.renames), static_cast<ull>(p.tiebreaks_lost),
          static_cast<ull>(p.defenses_sent),
          static_cast<ull>(p.backoffs_engaged),
          static_cast<ull>(p.names_established));
    }
  }
  std::printf("traffic wire_bytes=%llu wire_packets=%llu\n",
              static_cast<ull>(wire_bytes), static_cast<ull>(wire_packets));
}

}  // namespace

int main(int argc, char** argv) {
  using namespace indiss;

  live::LiveConfig live_config;
  live_config.name = "indissd";
  bool loopback = false;
  bool have_iface = false;
  bool have_addr = false;
  transport::Duration duration = transport::Duration::max();
  std::size_t shards = 1;
  double rate_limit = 0.0;
  bool directory = false;
  bool probe = false;
  std::set<core::SdpId> sdps = {core::SdpId::kSlp, core::SdpId::kUpnp,
                                core::SdpId::kMdns};

  for (int i = 1; i < argc; ++i) {
    std::string_view arg = argv[i];
    auto next = [&]() -> const char* {
      return i + 1 < argc ? argv[++i] : nullptr;
    };
    if (arg == "--loopback") {
      loopback = true;
    } else if (arg == "--name") {
      const char* v = next();
      if (v == nullptr) return usage(argv[0]);
      live_config.name = v;
    } else if (arg == "--iface") {
      const char* v = next();
      if (v == nullptr) return usage(argv[0]);
      live_config.interface = v;
      have_iface = true;
    } else if (arg == "--addr") {
      const char* v = next();
      if (v == nullptr) return usage(argv[0]);
      auto parsed = net::IpAddress::parse(v);
      if (!parsed.has_value()) {
        std::fprintf(stderr, "indissd: bad --addr '%s'\n", v);
        return 2;
      }
      live_config.address = *parsed;
      have_addr = true;
    } else if (arg == "--duration") {
      const char* v = next();
      if (v == nullptr) return usage(argv[0]);
      auto parsed = parse_duration(v);
      if (!parsed.has_value()) {
        std::fprintf(stderr, "indissd: bad --duration '%s'\n", v);
        return 2;
      }
      duration = *parsed;
    } else if (arg == "--sdps") {
      const char* v = next();
      if (v == nullptr) return usage(argv[0]);
      sdps.clear();
      for (auto part : str::split(v, ',')) {
        auto sdp = sdp_from_name(str::trim(part));
        if (!sdp.has_value()) {
          std::fprintf(stderr, "indissd: unknown SDP '%.*s'\n",
                       static_cast<int>(part.size()), part.data());
          return 2;
        }
        sdps.insert(*sdp);
      }
    } else if (arg == "--seed") {
      const char* v = next();
      if (v == nullptr) return usage(argv[0]);
      live_config.seed = std::strtoull(v, nullptr, 10);
    } else if (arg == "--shards") {
      const char* v = next();
      if (v == nullptr) return usage(argv[0]);
      shards = std::strtoul(v, nullptr, 10);
      if (shards == 0) {
        std::fprintf(stderr, "indissd: bad --shards '%s'\n", v);
        return 2;
      }
    } else if (arg == "--directory") {
      directory = true;
    } else if (arg == "--probe") {
      probe = true;
    } else if (arg == "--rate-limit") {
      const char* v = next();
      if (v == nullptr) return usage(argv[0]);
      char* end = nullptr;
      rate_limit = std::strtod(v, &end);
      if (end == v || rate_limit < 0.0) {
        std::fprintf(stderr, "indissd: bad --rate-limit '%s'\n", v);
        return 2;
      }
    } else {
      return usage(argv[0]);
    }
  }

  if (!loopback && !(have_iface && have_addr)) return usage(argv[0]);
  if (loopback) {
    live_config.interface = "lo";
    live_config.address = net::IpAddress(127, 0, 0, 1);
  }

  std::signal(SIGINT, on_signal);
  std::signal(SIGTERM, on_signal);

  live::EventLoop loop;
  live::LiveTransport transport(loop, live_config);

  core::GatewayConfig config;
  config.shards = shards;
  config.indiss.enabled_sdps = sdps;
  config.indiss.monitor.rate_limit_per_sec = rate_limit;
  config.indiss.enable_directory = directory;
  config.indiss.mdns.probe = probe;
  core::Gateway gateway(transport, config,
                        std::make_unique<live::ShardThreads>(transport));
  gateway.start();
  std::fprintf(stderr, "indissd: %s up on %s (%s), shards=%zu, bridging",
               live_config.name.c_str(),
               live_config.address.to_string().c_str(),
               live_config.interface.c_str(), gateway.shard_count());
  for (core::SdpId sdp : sdps) {
    std::fprintf(stderr, " %s", std::string(core::sdp_name(sdp)).c_str());
  }
  std::fprintf(stderr, "\n");

  // Signals only interrupt epoll_wait; a periodic check turns the flag into
  // a loop stop from inside the loop's own thread.
  transport.schedule_periodic(transport::millis(50), [&loop]() {
    if (g_stop.load()) loop.stop();
  });

  if (duration == transport::Duration::max()) {
    loop.run();
  } else {
    loop.run_for(duration);
  }
  gateway.stop();
  print_summary(live_config.name, transport::to_millis(loop.now()), gateway,
                transport, sdps, probe);
  return 0;
}
