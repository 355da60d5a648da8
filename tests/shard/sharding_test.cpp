// Shard routing and inline-shard gateway tests (docs/sharding.md):
// byte-identical wires always map to the same shard, the classifier sends
// advertisements to one shard and control traffic to all, the Gateway's
// merged statistics equal the per-shard sums, and shards=N sheds exactly
// what shards=1 sheds.
#include <gtest/gtest.h>

#include <set>
#include <string>
#include <vector>

#include "core/gateway.hpp"
#include "core/shard/router.hpp"
#include "mdns/dns.hpp"
#include "net/host.hpp"
#include "net/network.hpp"
#include "net/udp.hpp"
#include "sim/scheduler.hpp"
#include "slp/agents.hpp"
#include "slp/wire.hpp"
#include "upnp/ssdp.hpp"

namespace indiss::core::shard {
namespace {

Bytes slp_registration(int device) {
  slp::SrvReg reg;
  reg.url_entry = {300, "service:clock:soap://10.0.1." +
                            std::to_string(device % 250) + ":4005/dev" +
                            std::to_string(device)};
  reg.service_type = "service:clock";
  reg.attr_list = "(friendlyName=Dev " + std::to_string(device) + ")";
  return slp::encode(slp::Message(reg));
}

Bytes slp_request() {
  slp::SrvRqst request;
  request.service_type = "service:clock";
  return slp::encode(slp::Message(request));
}

Bytes slp_deregistration(int device) {
  slp::SrvDeReg dereg;
  dereg.url_entry = {0, "service:clock:soap://10.0.1." +
                            std::to_string(device % 250) + ":4005/dev" +
                            std::to_string(device)};
  return slp::encode(slp::Message(dereg));
}

Bytes upnp_notify(upnp::Notify::Kind kind) {
  upnp::Notify notify;
  notify.kind = kind;
  notify.nt = "urn:schemas-upnp-org:device:clock:1";
  notify.usn = "uuid:Dev7::urn:schemas-upnp-org:device:clock:1";
  notify.location = "http://10.0.1.7:4004/description.xml";
  return upnp::encode(notify);
}

Bytes upnp_msearch() {
  upnp::SearchRequest request;
  request.st = "ssdp:all";
  return upnp::encode(request);
}

Bytes mdns_message(bool response, std::uint32_t ttl) {
  mdns::DnsMessage message;
  if (response) message.flags = mdns::kFlagResponse;
  if (response) {
    mdns::DnsRecord ptr;
    ptr.name = "_clock._tcp.local";
    ptr.type = mdns::kTypePtr;
    ptr.ttl = ttl;
    ptr.target = "dev7._clock._tcp.local";
    message.answers.push_back(ptr);
  } else {
    mdns::DnsQuestion question;
    question.name = "_clock._tcp.local";
    message.questions.push_back(question);
  }
  return mdns::encode(message);
}

net::Datagram make_datagram(Bytes payload, std::uint16_t source_port) {
  net::Datagram datagram;
  datagram.source = {net::IpAddress(10, 0, 1, 50), source_port};
  datagram.payload = std::move(payload);
  datagram.multicast = true;
  return datagram;
}

TEST(ShardRouting, ByteIdenticalWiresAlwaysMapToTheSameShard) {
  for (int device = 0; device < 32; ++device) {
    Bytes wire = slp_registration(device);
    Bytes copy = wire;  // distinct buffer, identical bytes
    for (std::size_t shards : {1u, 2u, 4u, 8u}) {
      std::size_t index = shard_for(wire, shards);
      EXPECT_LT(index, shards);
      EXPECT_EQ(shard_for(copy, shards), index);
      EXPECT_EQ(shard_for(wire, shards), index);  // repeat call, same answer
    }
  }
}

TEST(ShardRouting, DistinctWiresSpreadAcrossShards) {
  std::set<std::size_t> seen;
  for (int device = 0; device < 200; ++device) {
    seen.insert(shard_for(slp_registration(device), 4));
  }
  // fnv1a64 over distinct payloads must reach every shard; a constant or
  // near-constant mapping would serialize the whole storm onto one core.
  EXPECT_EQ(seen.size(), 4u);
}

TEST(ShardRouting, ClassifierHashesAdvertisements) {
  EXPECT_EQ(classify(SdpId::kSlp,
                     make_datagram(slp_registration(1), 40001)),
            Route::kHashed);
  EXPECT_EQ(classify(SdpId::kUpnp,
                     make_datagram(upnp_notify(upnp::Notify::Kind::kAlive),
                                   40001)),
            Route::kHashed);
  EXPECT_EQ(classify(SdpId::kMdns,
                     make_datagram(mdns_message(true, 120), 40001)),
            Route::kHashed);
}

TEST(ShardRouting, ClassifierBroadcastsRequestsAndWithdrawals) {
  // Requests: every shard may hold the state that answers them.
  EXPECT_EQ(classify(SdpId::kSlp, make_datagram(slp_request(), 40001)),
            Route::kBroadcast);
  EXPECT_EQ(classify(SdpId::kUpnp, make_datagram(upnp_msearch(), 40001)),
            Route::kBroadcast);
  EXPECT_EQ(classify(SdpId::kMdns,
                     make_datagram(mdns_message(false, 0), 40001)),
            Route::kBroadcast);
  // Withdrawals: different bytes from the advertisement, so hashing could
  // strand the impersonated state on another shard.
  EXPECT_EQ(classify(SdpId::kSlp,
                     make_datagram(slp_deregistration(1), 40001)),
            Route::kBroadcast);
  EXPECT_EQ(classify(SdpId::kUpnp,
                     make_datagram(upnp_notify(upnp::Notify::Kind::kByeBye),
                                   40001)),
            Route::kBroadcast);
  EXPECT_EQ(classify(SdpId::kMdns,
                     make_datagram(mdns_message(true, 0), 40001)),
            Route::kBroadcast);
  // Jini announcement traffic carries the registrar every shard needs.
  EXPECT_EQ(classify(SdpId::kJini, make_datagram(Bytes{1, 2, 3}, 40001)),
            Route::kBroadcast);
  // Truncated/garbage SLP replicates too (cannot prove it is an advert).
  EXPECT_EQ(classify(SdpId::kSlp, make_datagram(Bytes{}, 40001)),
            Route::kBroadcast);
}

struct InlineShardFixture : ::testing::Test {
  sim::Scheduler scheduler;
  net::Network network{scheduler, net::LinkProfile{}, 7};
  net::Host& gateway_host =
      network.add_host("gw", net::IpAddress(10, 0, 0, 3));
  net::Host& device_host =
      network.add_host("dev", net::IpAddress(10, 0, 1, 50));

  GatewayConfig make_config(std::size_t shards) {
    GatewayConfig config;
    config.shards = shards;
    config.indiss.enabled_sdps = {SdpId::kSlp, SdpId::kUpnp};
    return config;
  }

  void send_slp(const Bytes& wire) {
    auto socket = device_host.udp_socket(0);
    socket->send_to(net::Endpoint{slp::kSlpMulticastGroup, slp::kSlpPort},
                    wire);
    scheduler.run_for(sim::seconds(30));  // past translate + settle windows
  }
};

TEST_F(InlineShardFixture, AdvertisementLandsOnExactlyOneShard) {
  Gateway gateway(gateway_host, make_config(2));
  gateway.start();
  scheduler.run_for(sim::millis(10));

  Bytes wire = slp_registration(7);
  std::size_t expected = gateway.shard_for(wire);
  send_slp(wire);
  send_slp(wire);  // byte-identical repeat: same shard, cache hit

  std::uint64_t parsed_total = 0;
  for (std::size_t i = 0; i < gateway.shard_count(); ++i) {
    const Unit* unit = gateway.shard(i).unit(SdpId::kSlp);
    ASSERT_NE(unit, nullptr);
    if (i == expected) {
      EXPECT_EQ(unit->stats().messages_parsed, 1u) << "shard " << i;
      EXPECT_EQ(gateway.shard(i).translation_cache()->stats(SdpId::kSlp).hits,
                1u)
          << "shard " << i;
    } else {
      EXPECT_EQ(unit->stats().messages_parsed, 0u) << "shard " << i;
    }
    parsed_total += unit->stats().messages_parsed;
  }
  EXPECT_EQ(parsed_total, 1u);
  EXPECT_EQ(gateway.datagrams_dispatched(), 2u);
  EXPECT_EQ(gateway.datagrams_replicated(), 0u);
  EXPECT_EQ(gateway.ring_dropped(), 0u);
  EXPECT_EQ(gateway.monitor().datagrams_seen(), 2u);
  EXPECT_TRUE(gateway.monitor().has_detected(SdpId::kSlp));
}

TEST_F(InlineShardFixture, RequestIsReplicatedToEveryShard) {
  Gateway gateway(gateway_host, make_config(2));
  gateway.start();
  scheduler.run_for(sim::millis(10));

  send_slp(slp_request());

  for (std::size_t i = 0; i < gateway.shard_count(); ++i) {
    const Unit* unit = gateway.shard(i).unit(SdpId::kSlp);
    ASSERT_NE(unit, nullptr);
    EXPECT_EQ(unit->stats().messages_parsed, 1u) << "shard " << i;
  }
  EXPECT_EQ(gateway.datagrams_dispatched(), 1u);
  EXPECT_EQ(gateway.datagrams_replicated(), 1u);
}

// The satellite fix for shard-safe statistics: counters stay plain per-shard
// members, and the gateway-level accessors merge them at read time. The
// merged view must equal the per-shard sums exactly.
TEST_F(InlineShardFixture, MergedStatsEqualPerShardSums) {
  Gateway gateway(gateway_host, make_config(2));
  gateway.start();
  scheduler.run_for(sim::millis(10));

  // Distinct registrations spread over the hash; repeats generate hits.
  for (int device = 0; device < 6; ++device) {
    send_slp(slp_registration(device));
  }
  for (int device = 0; device < 6; ++device) {
    send_slp(slp_registration(device));
  }

  Unit::Stats expected_unit;
  TranslationCache::SdpStats expected_cache;
  for (std::size_t i = 0; i < gateway.shard_count(); ++i) {
    expected_unit += gateway.shard(i).unit(SdpId::kSlp)->stats();
    expected_cache += gateway.shard(i).translation_cache()->stats(SdpId::kSlp);
  }
  Unit::Stats merged = gateway.unit_stats(SdpId::kSlp);
  EXPECT_EQ(merged.messages_parsed, expected_unit.messages_parsed);
  EXPECT_EQ(merged.sessions_opened, expected_unit.sessions_opened);
  EXPECT_EQ(merged.streams_dispatched, expected_unit.streams_dispatched);

  TranslationCache::SdpStats cache = gateway.translation_stats(SdpId::kSlp);
  EXPECT_EQ(cache.hits, expected_cache.hits);
  EXPECT_EQ(cache.misses, expected_cache.misses);
  EXPECT_EQ(cache.frames_replayed, expected_cache.frames_replayed);

  // And the totals are what the traffic implies: 6 first-time translations,
  // 6 byte-identical repeats short-circuited, spread across both shards.
  EXPECT_EQ(merged.messages_parsed, 6u);
  EXPECT_EQ(cache.hits, 6u);
  EXPECT_GT(gateway.shard(0).unit(SdpId::kSlp)->stats().messages_parsed, 0u);
  EXPECT_GT(gateway.shard(1).unit(SdpId::kSlp)->stats().messages_parsed, 0u);
}

// One source floods distinct-wire adverts past its rate limit. The limit is
// the node's, applied once at the scanning monitor: a source whose adverts
// hash across shards must not get N times its budget, so shards=2 sheds and
// admits exactly what shards=1 does.
TEST(InlineShards, RateLimitIsChargedOnceWhateverTheShardCount) {
  struct Counts {
    Monitor::Stats monitor;
    std::uint64_t parsed = 0;
  };
  auto flood = [](std::size_t shards) {
    sim::Scheduler scheduler;
    net::Network network{scheduler, net::LinkProfile{}, 7};
    net::Host& gw = network.add_host("gw", net::IpAddress(10, 0, 0, 3));
    net::Host& dev = network.add_host("dev", net::IpAddress(10, 0, 1, 50));
    GatewayConfig config;
    config.shards = shards;
    config.indiss.enabled_sdps = {SdpId::kSlp, SdpId::kUpnp};
    config.indiss.monitor.rate_limit_per_sec = 10.0;
    Gateway gateway(gw, config);
    gateway.start();
    scheduler.run_for(sim::millis(10));
    auto socket = dev.udp_socket(0);
    for (int device = 0; device < 120; ++device) {
      socket->send_to(net::Endpoint{slp::kSlpMulticastGroup, slp::kSlpPort},
                      slp_registration(device));
      scheduler.run_for(sim::millis(10));
    }
    scheduler.run_for(sim::seconds(30));
    return Counts{gateway.monitor().stats(),
                  gateway.unit_stats(SdpId::kSlp).messages_parsed};
  };

  Counts one = flood(1);
  Counts two = flood(2);
  // 1.2 s at 100/s against a 10/s budget with a 20-deep burst: most of the
  // flood is shed, and what is admitted is parsed once either way.
  EXPECT_GT(one.monitor.rate_limited, 0u);
  EXPECT_EQ(two.monitor.rate_limited, one.monitor.rate_limited);
  EXPECT_EQ(two.monitor.seen, one.monitor.seen);
  EXPECT_EQ(one.monitor.seen + one.monitor.rate_limited, 120u);
  EXPECT_EQ(two.parsed, one.parsed);
  EXPECT_EQ(one.parsed, one.monitor.seen);
}

}  // namespace
}  // namespace indiss::core::shard
