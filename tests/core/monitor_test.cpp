// Monitor component tests: port-identity detection, own-traffic filtering,
// forwarding, and dynamic scan reconfiguration.
#include <gtest/gtest.h>

#include "core/monitor.hpp"
#include "core/unit.hpp"
#include "net/host.hpp"
#include "net/udp.hpp"
#include "net/network.hpp"
#include "sim/scheduler.hpp"
#include "slp/agents.hpp"
#include "slp/wire.hpp"
#include "upnp/ssdp.hpp"

namespace indiss::core {
namespace {

struct RecordingUnit : Unit {
  explicit RecordingUnit(net::Host& host) : Unit(SdpId::kSlp, host) {}
  std::vector<net::Datagram> received;
  void on_native_message(const net::Datagram& d) override {
    received.push_back(d);
  }

 protected:
  void compose_native_request(Session&) override {}
  void compose_native_reply(Session&) override {}
};

struct MonitorFixture : ::testing::Test {
  sim::Scheduler scheduler;
  net::Network network{scheduler, net::LinkProfile{}, 1};
  net::Host& indiss_host = network.add_host("indiss", net::IpAddress(10, 0, 0, 5));
  net::Host& other_host = network.add_host("other", net::IpAddress(10, 0, 0, 6));

  void send_slp_request_from(net::Host& host) {
    auto socket = host.udp_socket(0);
    slp::SrvRqst request;
    request.service_type = "service:clock";
    socket->send_to(net::Endpoint{slp::kSlpMulticastGroup, slp::kSlpPort},
                    slp::encode(slp::Message(request)));
    scheduler.run_all();
  }
};

TEST_F(MonitorFixture, DetectsSlpFromDataArrival) {
  Monitor monitor(indiss_host);
  monitor.scan_all();
  EXPECT_FALSE(monitor.has_detected(SdpId::kSlp));
  send_slp_request_from(other_host);
  EXPECT_TRUE(monitor.has_detected(SdpId::kSlp));
  EXPECT_FALSE(monitor.has_detected(SdpId::kUpnp));
  EXPECT_EQ(monitor.datagrams_seen(), 1u);
}

TEST_F(MonitorFixture, DetectsUpnpIndependently) {
  Monitor monitor(indiss_host);
  monitor.scan_all();
  auto socket = other_host.udp_socket(0);
  upnp::SearchRequest request;
  request.st = "ssdp:all";
  socket->send_to(net::Endpoint{upnp::kSsdpMulticastGroup, upnp::kSsdpPort},
                  upnp::encode(request));
  scheduler.run_all();
  EXPECT_TRUE(monitor.has_detected(SdpId::kUpnp));
  EXPECT_FALSE(monitor.has_detected(SdpId::kSlp));
}

TEST_F(MonitorFixture, DetectionIsContentBlind) {
  // Garbage on the SLP port still counts as SLP detection: detection is
  // based on data existence at the port, not content (paper §2.1).
  Monitor monitor(indiss_host);
  monitor.scan_all();
  auto socket = other_host.udp_socket(0);
  socket->send_to(net::Endpoint{slp::kSlpMulticastGroup, slp::kSlpPort},
                  to_bytes("not slp at all"));
  scheduler.run_all();
  EXPECT_TRUE(monitor.has_detected(SdpId::kSlp));
}

TEST_F(MonitorFixture, ForwardsRawDataToUnit) {
  Monitor monitor(indiss_host);
  monitor.scan_all();
  RecordingUnit unit(indiss_host);
  monitor.forward_to(SdpId::kSlp, &unit);
  send_slp_request_from(other_host);
  ASSERT_EQ(unit.received.size(), 1u);
  EXPECT_EQ(unit.received[0].destination.port, slp::kSlpPort);
}

TEST_F(MonitorFixture, FiltersOwnEndpoints) {
  auto own = std::make_shared<OwnEndpoints>();
  Monitor monitor(indiss_host, own);
  monitor.scan_all();
  // A socket INDISS itself sends from (e.g. a unit's client socket).
  auto own_socket = indiss_host.udp_socket(0);
  own->insert(own_socket->local_endpoint());
  slp::SrvRqst request;
  own_socket->send_to(net::Endpoint{slp::kSlpMulticastGroup, slp::kSlpPort},
                      slp::encode(slp::Message(request)));
  scheduler.run_all();
  EXPECT_FALSE(monitor.has_detected(SdpId::kSlp));
  EXPECT_EQ(monitor.datagrams_filtered(), 1u);
}

TEST_F(MonitorFixture, LocalNonIndissTrafficIsSeen) {
  // A native client on the *same host* as INDISS must be intercepted (the
  // Fig 9 client-side deployment depends on loopback interception).
  Monitor monitor(indiss_host, std::make_shared<OwnEndpoints>());
  monitor.scan_all();
  send_slp_request_from(indiss_host);
  EXPECT_TRUE(monitor.has_detected(SdpId::kSlp));
}

TEST_F(MonitorFixture, DetectionHandlerFiresPerDatagram) {
  Monitor monitor(indiss_host);
  monitor.scan_all();
  int detections = 0;
  monitor.set_detection_handler(
      [&](SdpId sdp, const net::Datagram&) {
        EXPECT_EQ(sdp, SdpId::kSlp);
        ++detections;
      });
  send_slp_request_from(other_host);
  send_slp_request_from(other_host);
  EXPECT_EQ(detections, 2);
}

TEST_F(MonitorFixture, StopScanningSilencesSdp) {
  Monitor monitor(indiss_host);
  monitor.scan_all();
  monitor.stop_scanning(SdpId::kSlp);
  send_slp_request_from(other_host);
  EXPECT_FALSE(monitor.has_detected(SdpId::kSlp));
}

TEST_F(MonitorFixture, IanaTableCoversAllSdps) {
  bool slp = false, upnp = false, jini = false;
  for (const auto& entry : iana_table()) {
    slp = slp || (entry.sdp == SdpId::kSlp && entry.port == 427);
    upnp = upnp || (entry.sdp == SdpId::kUpnp && entry.port == 1900);
    jini = jini || (entry.sdp == SdpId::kJini && entry.port == 4160);
  }
  EXPECT_TRUE(slp);
  EXPECT_TRUE(upnp);
  EXPECT_TRUE(jini);
}

// --- Rate limiting (docs/chaos.md) -----------------------------------------

TEST_F(MonitorFixture, RateLimiterShedsAFloodingSourceButNotItsNeighbours) {
  MonitorConfig config;
  config.rate_limit_per_sec = 10.0;  // burst defaults to 20
  Monitor monitor(indiss_host, nullptr, config);
  monitor.scan_all();

  // 100 datagrams from one source in one instant: the burst passes, the
  // rest are shed before any translation work.
  auto flooder = other_host.udp_socket(0);
  for (int i = 0; i < 100; ++i) {
    flooder->send_to(net::Endpoint{slp::kSlpMulticastGroup, slp::kSlpPort},
                     to_bytes("flood-" + std::to_string(i)));
  }
  scheduler.run_all();
  EXPECT_EQ(monitor.stats().seen, 20u);
  EXPECT_EQ(monitor.stats().rate_limited, 80u);

  // A well-behaved source on another address is untouched: buckets are
  // per-source, so the flooder cannot starve its neighbours.
  net::Host& polite = network.add_host("polite", net::IpAddress(10, 0, 0, 7));
  send_slp_request_from(polite);
  EXPECT_EQ(monitor.stats().seen, 21u);
  EXPECT_EQ(monitor.stats().rate_limited, 80u);
}

TEST_F(MonitorFixture, RateLimiterBucketsRefillOverTime) {
  MonitorConfig config;
  config.rate_limit_per_sec = 10.0;
  config.rate_limit_burst = 5.0;
  Monitor monitor(indiss_host, nullptr, config);
  monitor.scan_all();

  auto socket = other_host.udp_socket(0);
  auto burst = [&](int n) {
    for (int i = 0; i < n; ++i) {
      socket->send_to(net::Endpoint{slp::kSlpMulticastGroup, slp::kSlpPort},
                      to_bytes("x"));
    }
    scheduler.run_all();
  };
  burst(10);
  EXPECT_EQ(monitor.stats().seen, 5u);  // burst capacity
  scheduler.run_until(scheduler.now() + sim::seconds(1));  // refills 10 > cap 5
  burst(10);
  EXPECT_EQ(monitor.stats().seen, 10u);
}

TEST_F(MonitorFixture, TrackedSourcesAreBoundedAgainstAddressSpoofing) {
  MonitorConfig config;
  config.rate_limit_per_sec = 10.0;
  config.max_tracked_sources = 8;
  Monitor monitor(indiss_host, nullptr, config);
  monitor.scan_all();

  // 50 distinct spoofed sources: bucket state must stay at the cap (stalest
  // recycled), not grow per address.
  for (int i = 0; i < 50; ++i) {
    net::Host& host = network.add_host(
        "spoof" + std::to_string(i),
        net::IpAddress(10, 0, 1, static_cast<std::uint8_t>(i + 1)));
    auto socket = host.udp_socket(0);
    socket->send_to(net::Endpoint{slp::kSlpMulticastGroup, slp::kSlpPort},
                    to_bytes("s"));
  }
  scheduler.run_all();
  EXPECT_LE(monitor.stats().sources_tracked, 8u);
  EXPECT_EQ(monitor.stats().seen, 50u);  // each new source starts full
}

TEST_F(MonitorFixture, ZeroRateConfigDisablesLimiting) {
  Monitor monitor(indiss_host);  // default config: no limiting
  monitor.scan_all();
  auto socket = other_host.udp_socket(0);
  for (int i = 0; i < 200; ++i) {
    socket->send_to(net::Endpoint{slp::kSlpMulticastGroup, slp::kSlpPort},
                    to_bytes("x"));
  }
  scheduler.run_all();
  EXPECT_EQ(monitor.stats().seen, 200u);
  EXPECT_EQ(monitor.stats().rate_limited, 0u);
}

TEST_F(MonitorFixture, DetectionTimestampRecorded) {
  Monitor monitor(indiss_host);
  monitor.scan_all();
  scheduler.run_until(sim::millis(500));
  send_slp_request_from(other_host);
  auto it = monitor.detected().find(SdpId::kSlp);
  ASSERT_NE(it, monitor.detected().end());
  EXPECT_GE(it->second, sim::millis(500));
}

}  // namespace
}  // namespace indiss::core
