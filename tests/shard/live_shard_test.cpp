// Threaded gateway tests (docs/sharding.md): a core::Gateway on
// live::ShardThreads — real shard threads, eventfd wakeups, and MPSC rings
// under a front monitor fed crafted datagrams straight through ingest()
// (scan_ports=false, so nothing binds the well-known ports). This binary is
// the primary ThreadSanitizer target for the sharded pipeline; it sends real
// multicast on loopback when units egress, hence RUN_SERIAL in
// tests/CMakeLists.txt.
//
// Timing notes: shard gateways run on real time, so the test waits on the
// rings' cross-thread progress counters (consumed == accepted) plus a real
// grace period covering the units' translate_delay (20us) and the
// translation cache's settle window (200ms) before expecting repeats to
// short-circuit. The waits are generous upper bounds, not sleeps the test
// depends on exactly; under TSan the polling just takes more laps.
#include <gtest/gtest.h>

#include <cstddef>
#include <cstdint>
#include <string>
#include <vector>

#include "core/gateway.hpp"
#include "core/shard/router.hpp"
#include "core/units/mdns_unit.hpp"
#include "live/event_loop.hpp"
#include "live/shard_threads.hpp"
#include "live/transport.hpp"
#include "transport/time.hpp"
#include "upnp/ssdp.hpp"

namespace indiss::live {
namespace {

using core::SdpId;

Bytes upnp_alive(int device) {
  upnp::Notify notify;
  notify.kind = upnp::Notify::Kind::kAlive;
  notify.nt = "urn:schemas-upnp-org:device:clock:1";
  notify.usn = "uuid:LiveDev" + std::to_string(device) +
               "::urn:schemas-upnp-org:device:clock:1";
  notify.location =
      "http://10.0.1." + std::to_string(device % 250) + ":4004/desc.xml";
  return to_bytes(notify.to_http().serialize());
}

Bytes upnp_msearch() {
  upnp::SearchRequest request;
  request.st = "ssdp:all";
  return to_bytes(request.to_http().serialize());
}

net::Datagram make_datagram(Bytes payload) {
  net::Datagram datagram;
  datagram.source = {net::IpAddress(10, 0, 1, 50), 40001};
  datagram.payload = std::move(payload);
  datagram.multicast = true;
  return datagram;
}

core::GatewayConfig make_config(std::size_t shards) {
  core::GatewayConfig config;
  config.shards = shards;
  config.indiss.scan_ports = false;  // traffic enters through ingest() only
  config.indiss.enabled_sdps = {SdpId::kUpnp, SdpId::kMdns};
  return config;
}

LiveConfig front_config() {
  LiveConfig config;
  config.name = "shardtest";
  config.seed = 91;
  return config;
}

/// The front loop and transport, the shard threads, and the gateway over
/// them; `threads` stays readable for the cross-thread progress counters.
struct Rig {
  explicit Rig(std::size_t shards, std::size_t ring_capacity = 4096)
      : transport(loop, front_config()),
        gateway(transport, make_config(shards), [&] {
          auto lanes =
              std::make_unique<ShardThreads>(transport, ring_capacity);
          threads = lanes.get();
          return lanes;
        }()) {}

  EventLoop loop;
  LiveTransport transport;
  ShardThreads* threads = nullptr;
  core::Gateway gateway;
};

// Pumps the front loop until every accepted ring entry has been picked up by
// its shard thread. Returns false on timeout (~5s of real time).
bool wait_drained(Rig& rig) {
  for (int i = 0; i < 1000; ++i) {
    if (rig.threads->consumed() == rig.threads->accepted()) return true;
    rig.loop.run_for(transport::millis(5));
  }
  return false;
}

TEST(ThreadedGateway, HashedAdvertisementsSpreadAndRepeatsShortCircuit) {
  Rig rig(2);
  core::Gateway& gateway = rig.gateway;
  gateway.start();

  // 16 distinct alives: the router hash decides each one's shard, and the
  // test recomputes the expected placement with the same function.
  constexpr int kDevices = 16;
  std::vector<Bytes> wires;
  std::vector<std::uint64_t> expected_parsed(2, 0);
  for (int device = 0; device < kDevices; ++device) {
    wires.push_back(upnp_alive(device));
    BytesView view(wires.back().data(), wires.back().size());
    expected_parsed[core::shard::shard_for(view, 2)] += 1;
  }
  // Distinct payloads must actually use both threads; a degenerate mapping
  // would make this "multi-core" pipeline single-core.
  ASSERT_GT(expected_parsed[0], 0u);
  ASSERT_GT(expected_parsed[1], 0u);

  for (const Bytes& wire : wires) {
    gateway.ingest(SdpId::kUpnp, make_datagram(wire));
  }
  ASSERT_TRUE(wait_drained(rig)) << "shard threads never drained";
  // Past translate_delay and the 200ms cache settle window, so the repeats
  // below are eligible for short-circuit replay.
  rig.loop.run_for(transport::millis(450));

  for (const Bytes& wire : wires) {
    gateway.ingest(SdpId::kUpnp, make_datagram(wire));
  }
  ASSERT_TRUE(wait_drained(rig)) << "repeat round never drained";
  rig.loop.run_for(transport::millis(250));

  gateway.stop();  // join(): per-shard stats are now safe to read

  EXPECT_EQ(gateway.datagrams_dispatched(), 2u * kDevices);
  EXPECT_EQ(gateway.datagrams_replicated(), 0u);
  EXPECT_EQ(rig.threads->accepted(), 2u * kDevices);
  EXPECT_EQ(rig.threads->consumed(), 2u * kDevices);
  EXPECT_EQ(gateway.ring_dropped(), 0u);

  // Each shard parsed exactly the advertisements the hash routed to it, and
  // every byte-identical repeat short-circuited on the same shard.
  core::Unit::Stats sum;
  for (std::size_t i = 0; i < gateway.shard_count(); ++i) {
    const core::Unit* unit = gateway.shard(i).unit(SdpId::kUpnp);
    ASSERT_NE(unit, nullptr);
    EXPECT_EQ(unit->stats().messages_parsed, expected_parsed[i])
        << "shard " << i;
    EXPECT_EQ(unit->stats().cache_short_circuits, expected_parsed[i])
        << "shard " << i;
    sum += unit->stats();
  }

  // The merged accessors agree with the by-hand sum (the satellite contract
  // for shard-safe statistics).
  core::Unit::Stats merged = gateway.unit_stats(SdpId::kUpnp);
  EXPECT_EQ(merged.messages_parsed, sum.messages_parsed);
  EXPECT_EQ(merged.cache_short_circuits, sum.cache_short_circuits);
  EXPECT_EQ(merged.messages_parsed, static_cast<std::uint64_t>(kDevices));
  EXPECT_EQ(merged.cache_short_circuits,
            static_cast<std::uint64_t>(kDevices));

  core::TranslationCache::SdpStats cache =
      gateway.translation_stats(SdpId::kUpnp);
  EXPECT_EQ(cache.hits, static_cast<std::uint64_t>(kDevices));
  EXPECT_EQ(cache.misses, static_cast<std::uint64_t>(kDevices));

  // The alives were bridged: the mdns units sent impersonation
  // announcements (their own counter — not messages_composed, which tracks
  // the request/response compose path).
  std::uint64_t announcements = 0;
  for (std::size_t i = 0; i < gateway.shard_count(); ++i) {
    if (const auto* mdns =
            gateway.shard(i).unit_as<core::MdnsUnit>(SdpId::kMdns)) {
      announcements += mdns->announcements_sent();
    }
  }
  EXPECT_GT(announcements, 0u);
}

TEST(ThreadedGateway, BroadcastControlTrafficReachesEveryShard) {
  Rig rig(2);
  core::Gateway& gateway = rig.gateway;
  gateway.start();

  gateway.ingest(SdpId::kUpnp, make_datagram(upnp_msearch()));
  ASSERT_TRUE(wait_drained(rig));
  rig.loop.run_for(transport::millis(50));

  gateway.stop();

  EXPECT_EQ(gateway.datagrams_dispatched(), 1u);
  EXPECT_EQ(gateway.datagrams_replicated(), 1u);
  EXPECT_EQ(rig.threads->accepted(), 2u);  // one copy per shard
  for (std::size_t i = 0; i < gateway.shard_count(); ++i) {
    const core::Unit* unit = gateway.shard(i).unit(SdpId::kUpnp);
    ASSERT_NE(unit, nullptr);
    EXPECT_EQ(unit->stats().messages_parsed, 1u) << "shard " << i;
  }
}

// Floods tiny rings from the front loop while the shard threads consume
// concurrently, then stops mid-stream: offer/poll/drop counters must stay
// consistent and shutdown must be prompt. (This is the contended path TSan
// watches; whether any drops actually occur depends on scheduling, so the
// test asserts accounting, not a specific drop count.)
TEST(ThreadedGateway, StopWithBackloggedRingsIsPromptAndAccountsEveryOffer) {
  Rig rig(2, /*ring_capacity=*/8);
  core::Gateway& gateway = rig.gateway;
  gateway.start();

  constexpr int kFlood = 200;
  for (int device = 0; device < kFlood; ++device) {
    gateway.ingest(SdpId::kUpnp, make_datagram(upnp_alive(device)));
  }
  gateway.stop();

  EXPECT_EQ(gateway.datagrams_dispatched(),
            static_cast<std::uint64_t>(kFlood));
  // Every hashed offer either entered a ring or was dropped-and-counted.
  EXPECT_EQ(rig.threads->accepted() + gateway.ring_dropped(),
            static_cast<std::uint64_t>(kFlood));
  EXPECT_LE(rig.threads->consumed(), rig.threads->accepted());
  // Whatever the shards consumed before the stop, they processed: the
  // monitor path parses or ignores, it never loses a consumed item.
  core::Unit::Stats merged = gateway.unit_stats(SdpId::kUpnp);
  EXPECT_LE(merged.messages_parsed, rig.threads->consumed());

  // A stopped gateway ignores late traffic instead of waking dead threads.
  gateway.ingest(SdpId::kUpnp, make_datagram(upnp_alive(0)));
  EXPECT_EQ(gateway.datagrams_dispatched(),
            static_cast<std::uint64_t>(kFlood));
}

}  // namespace
}  // namespace indiss::live
