// End-to-end interoperability tests: the paper's §2.4 scenario (an SLP
// client discovering a UPnP clock service through INDISS) and its mirror,
// in both deployment locations of §4.3.
//
// Pair *coverage* lives in interop_matrix_test.cpp, which sweeps all 12
// directed requester/announcer pairs systematically; this file keeps the
// deployment-location variants and the exact URL/attribute shapes of the
// paper's figures.
#include <gtest/gtest.h>

#include "core/indiss.hpp"
#include "jini/client.hpp"
#include "net/host.hpp"
#include "net/udp.hpp"
#include "net/network.hpp"
#include "sim/scheduler.hpp"
#include "slp/agents.hpp"
#include "upnp/control_point.hpp"
#include "upnp/device.hpp"

namespace indiss::core {
namespace {

struct InteropFixture : ::testing::Test {
  sim::Scheduler scheduler;
  net::Network network{scheduler, net::LinkProfile{}, 1};
  net::Host& client_host = network.add_host("client", net::IpAddress(10, 0, 0, 1));
  net::Host& service_host = network.add_host("service", net::IpAddress(10, 0, 0, 2));
};

// --- SLP client -> UPnP service ------------------------------------------

TEST_F(InteropFixture, SlpClientFindsUpnpServiceIndissOnServiceSide) {
  // Fig 8 left: INDISS co-located with the UPnP service.
  upnp::RootDevice device(service_host, upnp::make_clock_device(), 4004);
  device.start();
  Indiss indiss(service_host);
  indiss.start();
  scheduler.run_for(sim::millis(10));

  slp::UserAgent client(client_host);
  std::vector<slp::SearchResult> results;
  client.find_services("service:clock", "", nullptr,
                       [&](const std::vector<slp::SearchResult>& r) {
                         results = r;
                       });
  scheduler.run_for(sim::seconds(2));

  ASSERT_FALSE(results.empty()) << "SLP client must discover the UPnP clock";
  const std::string& url = results[0].entry.url;
  // The composed SrvRply hands back the *control* endpoint, made absolute —
  // the paper's "service:clock:soap://128.93.8.112:4005/..." shape.
  EXPECT_TRUE(url.starts_with("service:clock:soap://10.0.0.2:4004"))
      << url;
  EXPECT_NE(url.find("/service/timer/control"), std::string::npos) << url;
  // Fig 4's SrvRply folds device attributes into the reply.
  EXPECT_NE(url.find("friendlyName:\"CyberGarage Clock Device\""),
            std::string::npos)
      << url;
  EXPECT_TRUE(indiss.monitor().has_detected(SdpId::kSlp));
}

TEST_F(InteropFixture, SlpClientFindsUpnpServiceIndissOnClientSide) {
  // Fig 9a: INDISS co-located with the SLP client; UPnP traffic crosses the
  // network.
  upnp::RootDevice device(service_host, upnp::make_clock_device(), 4004);
  device.start();
  Indiss indiss(client_host);
  indiss.start();
  scheduler.run_for(sim::millis(10));

  slp::UserAgent client(client_host);
  std::vector<slp::SearchResult> results;
  client.find_services("service:clock", "", nullptr,
                       [&](const std::vector<slp::SearchResult>& r) {
                         results = r;
                       });
  scheduler.run_for(sim::seconds(2));
  ASSERT_FALSE(results.empty());
  EXPECT_NE(results[0].entry.url.find("soap://10.0.0.2:4004"),
            std::string::npos);
}

TEST_F(InteropFixture, NoIndissMeansNoInterop) {
  // Negative control: without INDISS the SLP client hears nothing from a
  // UPnP-only environment (the isolation problem the paper motivates with).
  upnp::RootDevice device(service_host, upnp::make_clock_device(), 4004);
  device.start();
  slp::UserAgent client(client_host);
  std::vector<slp::SearchResult> results;
  bool complete = false;
  client.find_services("service:clock", "", nullptr,
                       [&](const std::vector<slp::SearchResult>& r) {
                         results = r;
                         complete = true;
                       });
  scheduler.run_for(sim::seconds(2));
  EXPECT_TRUE(complete);
  EXPECT_TRUE(results.empty());
}

// --- UPnP client -> SLP service -------------------------------------------

TEST_F(InteropFixture, UpnpClientFindsSlpServiceIndissOnServiceSide) {
  // Fig 8 right: INDISS impersonates a UPnP device for the SLP service.
  slp::ServiceAgent sa(service_host);
  slp::ServiceRegistration reg;
  reg.url = "service:clock:soap://10.0.0.2:4005/service/timer/control";
  reg.attributes.set("friendlyName", "SLP Clock");
  sa.register_service(reg);
  Indiss indiss(service_host);
  indiss.start();
  scheduler.run_for(sim::millis(10));

  upnp::ControlPoint client(client_host);
  std::vector<upnp::DiscoveredDevice> devices;
  client.search("urn:schemas-upnp-org:device:clock:1", nullptr,
                [&](const upnp::DiscoveredDevice& d) { devices.push_back(d); },
                nullptr);
  scheduler.run_for(sim::seconds(2));

  ASSERT_FALSE(devices.empty()) << "UPnP client must discover the SLP clock";
  ASSERT_TRUE(devices[0].description.has_value())
      << "the impersonated description must be fetchable";
  ASSERT_FALSE(devices[0].description->services.empty());
  // The bridged control URL leads to the real SLP service endpoint.
  EXPECT_EQ(devices[0].description->services[0].control_url,
            "soap://10.0.0.2:4005/service/timer/control");
  EXPECT_NE(devices[0].response.server.find("INDISS-bridge"),
            std::string::npos);
}

TEST_F(InteropFixture, UpnpClientFindsSlpServiceIndissOnClientSide) {
  // Fig 9b: only SLP crosses the network.
  slp::ServiceAgent sa(service_host);
  slp::ServiceRegistration reg;
  reg.url = "service:clock:soap://10.0.0.2:4005/service/timer/control";
  sa.register_service(reg);
  Indiss indiss(client_host);
  indiss.start();
  scheduler.run_for(sim::millis(10));

  upnp::ControlPoint client(client_host);
  std::vector<upnp::DiscoveredDevice> devices;
  client.search("urn:schemas-upnp-org:device:clock:1", nullptr,
                [&](const upnp::DiscoveredDevice& d) { devices.push_back(d); },
                nullptr);
  scheduler.run_for(sim::seconds(2));
  ASSERT_FALSE(devices.empty());
  ASSERT_TRUE(devices[0].description.has_value());
  EXPECT_EQ(devices[0].description->services[0].control_url,
            "soap://10.0.0.2:4005/service/timer/control");
}

// --- Transparency ------------------------------------------------------------

TEST_F(InteropFixture, NativeSlpTrafficStillWorksWithIndissPresent) {
  // INDISS must not break same-SDP discovery happening around it.
  slp::ServiceAgent sa(service_host);
  slp::ServiceRegistration reg;
  reg.url = "service:clock:soap://10.0.0.2:4005/c";
  sa.register_service(reg);
  Indiss indiss(service_host);
  indiss.start();

  slp::UserAgent client(client_host);
  std::vector<slp::SearchResult> results;
  client.find_services("service:clock", "", nullptr,
                       [&](const std::vector<slp::SearchResult>& r) {
                         results = r;
                       });
  scheduler.run_for(sim::seconds(2));
  ASSERT_GE(results.size(), 1u);
  EXPECT_EQ(results[0].entry.url, reg.url);
}

// --- Jini direction -----------------------------------------------------------

TEST_F(InteropFixture, UpnpAdvertisementReachesJiniClientsViaRegistrar) {
  net::Host& registrar_host =
      network.add_host("reggie", net::IpAddress(10, 0, 0, 9));
  jini::LookupConfig lk;
  lk.announcement_interval = sim::millis(200);  // INDISS starts after boot
  jini::LookupService registrar(registrar_host, lk);
  scheduler.run_for(sim::millis(10));

  IndissConfig config;
  config.enabled_sdps.insert(SdpId::kJini);
  Indiss indiss(service_host, config);
  indiss.start();
  // Let a registrar announcement teach the Jini unit before the device's
  // alive burst needs it.
  scheduler.run_for(sim::millis(500));
  ASSERT_TRUE(indiss.unit_as<JiniUnit>(SdpId::kJini)->known_registrar().has_value());

  // The UPnP device's alive burst is translated into a Jini registration.
  upnp::RootDevice device(service_host, upnp::make_clock_device(), 4004);
  device.start();
  scheduler.run_for(sim::seconds(2));
  EXPECT_GE(indiss.unit_as<JiniUnit>(SdpId::kJini)->foreign_registrations(), 1u);
  EXPECT_EQ(registrar.item_count(), 1u);

  jini::JiniClient client(client_host);
  std::vector<jini::ServiceItem> found;
  jini::ServiceTemplate tmpl;
  tmpl.service_type = "clock";
  client.lookup(tmpl, [&](const std::vector<jini::ServiceItem>& items) {
    found = items;
  });
  scheduler.run_for(sim::seconds(2));
  ASSERT_EQ(found.size(), 1u);
  bool bridged = false;
  for (const auto& [k, v] : found[0].attributes) {
    bridged = bridged || (k == "bridged-by" && v == "INDISS");
  }
  EXPECT_TRUE(bridged);
}

/// A bridged registration outlives its 300 s lease for as long as the UPnP
/// device lives: the Jini unit renews the lease at half its length, although
/// the device re-announces only every 900 s and its repeats are cache hits.
TEST_F(InteropFixture, BridgedJiniRegistrationLivesAsLongAsTheDevice) {
  net::Host& registrar_host =
      network.add_host("reggie", net::IpAddress(10, 0, 0, 9));
  jini::LookupConfig lk;
  lk.announcement_interval = sim::millis(200);  // INDISS starts after boot
  jini::LookupService registrar(registrar_host, lk);
  scheduler.run_for(sim::millis(10));

  IndissConfig config;
  config.enabled_sdps = {SdpId::kUpnp, SdpId::kJini};
  Indiss indiss(service_host, config);
  indiss.start();
  scheduler.run_for(sim::millis(500));
  ASSERT_TRUE(
      indiss.unit_as<JiniUnit>(SdpId::kJini)->known_registrar().has_value());

  upnp::RootDevice device(service_host, upnp::make_clock_device(), 4004);
  device.start();
  for (int t = 10; t <= 1500; t += 10) {
    scheduler.run_until(sim::SimTime(sim::seconds(t)));
    ASSERT_EQ(registrar.item_count(), 1u) << "at " << t << " s";
  }
  EXPECT_EQ(indiss.unit_as<JiniUnit>(SdpId::kJini)->foreign_registrations(),
            1u)
      << "renewals keep the one registration; nothing re-registers";
}

/// A registrar that lost the lease (it restarted empty on the same
/// endpoint) refuses the renewal: the unit forgets the lease, and the
/// device's next alive registers the service again.
TEST_F(InteropFixture, RefusedRenewalRegistersAgainOnTheNextAlive) {
  net::Host& registrar_host =
      network.add_host("reggie", net::IpAddress(10, 0, 0, 9));
  jini::LookupConfig lk;
  lk.announcement_interval = sim::millis(200);
  auto registrar = std::make_unique<jini::LookupService>(registrar_host, lk);
  scheduler.run_for(sim::millis(10));

  IndissConfig config;
  config.enabled_sdps = {SdpId::kUpnp, SdpId::kJini};
  Indiss indiss(service_host, config);
  indiss.start();
  scheduler.run_for(sim::millis(500));
  upnp::RootDevice device(service_host, upnp::make_clock_device(), 4004);
  device.start();
  scheduler.run_until(sim::SimTime(sim::seconds(100)));
  ASSERT_EQ(registrar->item_count(), 1u);

  registrar.reset();
  registrar = std::make_unique<jini::LookupService>(registrar_host, lk);
  scheduler.run_until(sim::SimTime(sim::seconds(800)));
  EXPECT_EQ(registrar->item_count(), 0u) << "nothing registers before an alive";
  scheduler.run_until(sim::SimTime(sim::seconds(1000)));
  EXPECT_EQ(registrar->item_count(), 1u)
      << "the 900 s alive must register the service again";
  EXPECT_EQ(indiss.unit_as<JiniUnit>(SdpId::kJini)->foreign_registrations(),
            2u);
}

TEST_F(InteropFixture, SlpClientFindsJiniServiceThroughIndiss) {
  net::Host& registrar_host =
      network.add_host("reggie", net::IpAddress(10, 0, 0, 9));
  jini::LookupConfig lk;
  lk.announcement_interval = sim::millis(200);  // INDISS must hear one soon
  jini::LookupService registrar(registrar_host, lk);
  jini::ServiceItem item;
  item.id = jini::ServiceId{1, 1};
  item.service_type = "clock";
  item.attributes = {{"url", "soap://10.0.0.2:4005/jini-clock"},
                     {"friendlyName", "Jini Clock"}};
  jini::JiniServiceProvider provider(service_host, item);
  provider.join();
  scheduler.run_for(sim::seconds(1));
  ASSERT_TRUE(provider.joined());

  IndissConfig config;
  config.enabled_sdps.insert(SdpId::kJini);
  config.enabled_sdps.erase(SdpId::kUpnp);
  Indiss indiss(client_host, config);
  indiss.start();
  scheduler.run_for(sim::millis(500));  // hear a registrar announcement? boot one passed already
  // The registrar announces at boot; ensure the Jini unit learned it by
  // forcing one more announcement cycle if needed.
  ASSERT_TRUE(indiss.unit_as<JiniUnit>(SdpId::kJini) != nullptr);

  slp::UserAgent client(client_host);
  std::vector<slp::SearchResult> results;
  client.find_services("service:clock", "", nullptr,
                       [&](const std::vector<slp::SearchResult>& r) {
                         results = r;
                       });
  scheduler.run_for(sim::seconds(3));
  ASSERT_TRUE(indiss.unit_as<JiniUnit>(SdpId::kJini)->known_registrar().has_value());
  ASSERT_FALSE(results.empty());
  EXPECT_NE(results[0].entry.url.find("soap://10.0.0.2:4005/jini-clock"),
            std::string::npos);
}

}  // namespace
}  // namespace indiss::core
