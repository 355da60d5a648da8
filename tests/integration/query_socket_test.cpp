// Per-query socket lifetime. When a unit translates a foreign request into
// its native SDP it sends the request from an ephemeral socket of its own
// (core::Unit::open_query_socket). For SLP, UPnP and mDNS this checks that
// the socket is closed by every path that can end the session: completion
// (a native service answered), the session timeout, eviction at the
// max_open_sessions cap, and detaching the unit. It also checks that the
// socket's endpoint leaves the own-endpoint loop filter one kSessionTimeout
// after the close, so the filter stays bounded however many queries the
// gateway bridges.
//
// The gateway runs on a transport that records every ephemeral UDP socket
// it opens. Unit reply sockets are opened by start(), so every ephemeral
// socket opened after start() is a query socket.
#include <gtest/gtest.h>

#include <memory>
#include <string>
#include <vector>

#include "core/indiss.hpp"
#include "mdns/dnssd.hpp"
#include "net/host.hpp"
#include "net/network.hpp"
#include "sim/scheduler.hpp"
#include "slp/agents.hpp"
#include "upnp/description.hpp"
#include "upnp/device.hpp"

namespace indiss::core {
namespace {

/// Forwards to a sim host and keeps every ephemeral UDP socket it opens.
class RecordingTransport : public transport::Transport {
 public:
  explicit RecordingTransport(net::Host& host) : host_(host) {}

  std::vector<std::shared_ptr<transport::UdpSocket>> ephemeral;

  [[nodiscard]] const std::string& name() const override {
    return host_.name();
  }
  [[nodiscard]] net::IpAddress address() const override {
    return host_.address();
  }
  std::shared_ptr<transport::UdpSocket> open_udp(std::uint16_t port) override {
    auto socket = host_.open_udp(port);
    if (port == 0) ephemeral.push_back(socket);
    return socket;
  }
  std::shared_ptr<transport::TcpListener> listen_tcp(
      std::uint16_t port) override {
    return host_.listen_tcp(port);
  }
  std::shared_ptr<transport::TcpSocket> connect_tcp(
      const net::Endpoint& to) override {
    return host_.connect_tcp(to);
  }
  [[nodiscard]] transport::TimePoint now() const override {
    return host_.now();
  }
  transport::TaskHandle schedule(transport::Duration delay,
                                 transport::InlineTask task) override {
    return host_.schedule(delay, std::move(task));
  }
  transport::TaskHandle schedule_periodic(transport::Duration period,
                                          transport::InlineTask task) override {
    return host_.schedule_periodic(period, std::move(task));
  }
  // The units charge translate_delay only on a simulated clock; without
  // this the gateway would run its hops at zero delay.
  [[nodiscard]] bool simulated_clock() const override {
    return host_.simulated_clock();
  }
  [[nodiscard]] const net::TrafficStats& stats() const override {
    return host_.stats();
  }
  [[nodiscard]] transport::Random& random() override {
    return host_.random();
  }

 private:
  net::Host& host_;
};

class QuerySocketLifetime : public ::testing::TestWithParam<SdpId> {
 protected:
  sim::Scheduler scheduler;
  net::Network network{scheduler, net::LinkProfile{}, 11};
  net::Host& service_host =
      network.add_host("service", net::IpAddress(10, 0, 0, 2));
  net::Host& gateway_host =
      network.add_host("gateway", net::IpAddress(10, 0, 0, 3));
  RecordingTransport gateway{gateway_host};

  std::unique_ptr<slp::ServiceAgent> slp_sa;
  std::unique_ptr<upnp::RootDevice> upnp_device;
  std::unique_ptr<mdns::MdnsResponder> mdns_responder;

  std::shared_ptr<OwnEndpoints> own = std::make_shared<OwnEndpoints>();

  std::unique_ptr<Indiss> start_gateway(std::size_t max_open_sessions = 0) {
    IndissConfig config;
    config.enabled_sdps = {SdpId::kSlp, SdpId::kUpnp, SdpId::kMdns};
    config.unit_options.max_open_sessions = max_open_sessions;
    config.own_endpoints = own;
    auto indiss = std::make_unique<Indiss>(gateway, config);
    indiss->start();
    gateway.ephemeral.clear();  // the units' reply sockets
    return indiss;
  }

  /// A native service of the SDP under test that answers the query.
  void start_service() {
    switch (GetParam()) {
      case SdpId::kSlp: {
        slp_sa = std::make_unique<slp::ServiceAgent>(service_host);
        slp::ServiceRegistration reg;
        reg.url = "service:clock:soap://10.0.0.2:4005/slp-clock";
        slp_sa->register_service(reg);
        break;
      }
      case SdpId::kUpnp:
        upnp_device = std::make_unique<upnp::RootDevice>(
            service_host, upnp::make_clock_device(), 4004);
        upnp_device->start();
        break;
      case SdpId::kMdns: {
        mdns_responder = std::make_unique<mdns::MdnsResponder>(service_host);
        mdns::ServiceInstance instance;
        instance.instance = "clock1";
        instance.service_type = "_clock._tcp";
        instance.port = 4006;
        instance.txt = {{"url", "soap://10.0.0.2:4006/mdns-clock"}};
        mdns_responder->publish(std::move(instance));
        break;
      }
      case SdpId::kJini:
        break;
    }
    scheduler.run_for(sim::seconds(2));
  }

  /// Hands the unit under test a foreign request for "clock", the way the
  /// bus delivers one from a peer unit, and returns the query socket its
  /// composer opened.
  std::shared_ptr<transport::UdpSocket> bridge_query(Indiss& indiss,
                                                     std::uint64_t origin) {
    auto stream = std::make_shared<EventStream>();
    stream->push_back(Event(EventType::kControlStart));
    stream->push_back(Event(EventType::kServiceRequest));
    stream->push_back(Event(EventType::kServiceTypeIs, {{"type", "clock"}}));
    stream->push_back(Event(EventType::kControlStop));
    SdpId peer = GetParam() == SdpId::kSlp ? SdpId::kUpnp : SdpId::kSlp;
    std::size_t before = gateway.ephemeral.size();
    Unit* unit = indiss.unit(GetParam());
    unit->on_peer_stream(peer, origin, std::move(stream));
    // Just long enough for the composer to run, so no answer is in yet.
    scheduler.run_for(unit->options().translate_delay);
    EXPECT_EQ(gateway.ephemeral.size(), before + 1)
        << "the request opens exactly one query socket";
    return gateway.ephemeral.back();
  }
};

TEST_P(QuerySocketLifetime, ClosedWhenTheSessionCompletes) {
  start_service();
  auto indiss = start_gateway();
  auto socket = bridge_query(*indiss, 1);
  EXPECT_FALSE(socket->closed());
  scheduler.run_for(sim::seconds(5));  // answered well inside the timeout
  EXPECT_TRUE(socket->closed());
  EXPECT_EQ(indiss->unit(GetParam())->open_sessions(), 0u);
}

TEST_P(QuerySocketLifetime, ClosedWhenTheSessionTimesOut) {
  auto indiss = start_gateway();  // nobody answers
  auto socket = bridge_query(*indiss, 1);
  scheduler.run_for(kSessionTimeout - sim::seconds(1));
  EXPECT_FALSE(socket->closed());
  scheduler.run_for(sim::seconds(2));
  EXPECT_TRUE(socket->closed());
}

TEST_P(QuerySocketLifetime, ClosedWhenTheSessionIsEvicted) {
  auto indiss = start_gateway(/*max_open_sessions=*/1);
  auto first = bridge_query(*indiss, 1);
  EXPECT_FALSE(first->closed());
  auto second = bridge_query(*indiss, 2);
  EXPECT_TRUE(first->closed());
  EXPECT_FALSE(second->closed());
  EXPECT_EQ(indiss->unit(GetParam())->stats().sessions_evicted, 1u);
}

TEST_P(QuerySocketLifetime, ClosedWhenTheUnitIsDisabled) {
  auto indiss = start_gateway();
  auto socket = bridge_query(*indiss, 1);
  EXPECT_FALSE(socket->closed());
  indiss->disable_unit(GetParam());
  EXPECT_TRUE(socket->closed());
}

/// Until one kSessionTimeout after the close a looped-back copy of the
/// socket's last send is still the gateway's own traffic; after it, a frame
/// from that endpoint (a native client on the recycled port) is taken in.
TEST_P(QuerySocketLifetime, EndpointRetiresOneSessionTimeoutAfterTheClose) {
  auto indiss = start_gateway();  // nobody answers
  auto socket = bridge_query(*indiss, 1);
  const net::Endpoint endpoint = socket->local_endpoint();
  EXPECT_TRUE(own->contains(endpoint));
  net::Datagram frame;
  frame.source = endpoint;
  frame.multicast = true;
  frame.payload = to_bytes("x");

  scheduler.run_for(kSessionTimeout + sim::millis(100));
  ASSERT_TRUE(socket->closed());
  EXPECT_TRUE(own->contains(endpoint));
  std::uint64_t filtered = indiss->monitor().stats().filtered;
  indiss->ingest(GetParam(), frame);
  EXPECT_EQ(indiss->monitor().stats().filtered, filtered + 1)
      << "a just-closed socket's endpoint is still filtered";

  scheduler.run_for(kSessionTimeout);
  EXPECT_FALSE(own->contains(endpoint));
  std::uint64_t seen = indiss->monitor().stats().seen;
  indiss->ingest(GetParam(), frame);
  EXPECT_EQ(indiss->monitor().stats().filtered, filtered + 1);
  EXPECT_EQ(indiss->monitor().stats().seen, seen + 1)
      << "a retired endpoint's frame is taken in";
}

/// Every bridged query opens a socket, and none of their endpoints stays in
/// the loop filter for good: over thousands of answered queries its size
/// settles at the sockets closed within the last kSessionTimeout.
TEST_P(QuerySocketLifetime, OwnEndpointSetStaysFlatOverThousandsOfQueries) {
  start_service();
  auto indiss = start_gateway();
  const std::size_t base = own->size();  // the units' reply sockets
  constexpr int kQueries = 3000;
  std::size_t at_half = 0;
  for (int i = 1; i <= kQueries; ++i) {
    bridge_query(*indiss, static_cast<std::uint64_t>(i));
    scheduler.run_for(sim::millis(50));
    if (i == kQueries / 2) at_half = own->size();
  }
  // 10 s of queries at one per 50 ms: ~200 sockets closed recently.
  EXPECT_GT(at_half, base);
  EXPECT_LE(own->size(), base + 250);
  EXPECT_LE(own->size(), at_half + 2);
  scheduler.run_for(sim::seconds(2));
  EXPECT_EQ(indiss->unit(GetParam())->open_sessions(), 0u)
      << "every query was answered, so every socket closed";
}

INSTANTIATE_TEST_SUITE_P(Sdps, QuerySocketLifetime,
                         ::testing::Values(SdpId::kSlp, SdpId::kUpnp,
                                           SdpId::kMdns),
                         [](const ::testing::TestParamInfo<SdpId>& info) {
                           return std::string(sdp_name(info.param));
                         });

}  // namespace
}  // namespace indiss::core
