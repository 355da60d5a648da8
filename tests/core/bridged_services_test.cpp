// Bridged-state tests: the one table and rule core::Unit applies for every
// unit, checked against a plain-vector reference of the rule through the
// SLP, mDNS, UPnP and Jini units over seeded histories of adverts,
// refreshes, URL and USN withdrawals and expiry sweeps; the zero-allocation
// pin for a warm refresh of a known URL; the UPnP unit's description
// routes, which must go with the devices they describe; and the TTL each
// caller of the shared advert scan takes.
#include <gtest/gtest.h>

#include <algorithm>
#include <random>
#include <string>
#include <tuple>
#include <vector>

#include "core/directory/service_directory.hpp"
#include "core/units/bridged_services.hpp"
#include "core/units/jini_unit.hpp"
#include "core/units/mdns_unit.hpp"
#include "core/units/slp_unit.hpp"
#include "core/units/upnp_unit.hpp"
#include "jini/discovery.hpp"
#include "jini/lookup.hpp"
#include "mdns/dns.hpp"
#include "net/host.hpp"
#include "net/network.hpp"
#include "sim/scheduler.hpp"
#include "upnp/http_client.hpp"
#include "upnp/ssdp.hpp"

#include "tests/support/alloc_meter.hpp"

namespace indiss::core {
namespace {

struct TestSlpUnit : SlpUnit {
  using SlpUnit::expire_bridged_state;
  using SlpUnit::on_advertisement;
  using SlpUnit::SlpUnit;
};

struct TestMdnsUnit : MdnsUnit {
  using MdnsUnit::expire_bridged_state;
  using MdnsUnit::MdnsUnit;
  using MdnsUnit::on_advertisement;
};

struct TestUpnpUnit : UpnpUnit {
  using UpnpUnit::expire_bridged_state;
  using UpnpUnit::on_advertisement;
  using UpnpUnit::UpnpUnit;
};

struct TestJiniUnit : JiniUnit {
  using JiniUnit::expire_bridged_state;
  using JiniUnit::JiniUnit;
  using JiniUnit::on_advertisement;
};

/// A peer advertisement (or byebye) session the way deliver_advertisement
/// hands it to a unit. Empty `url` / `usn` leave the event out.
Session advert_session(bool byebye, std::string_view type,
                       std::string_view url, std::string_view usn,
                       int ttl_seconds) {
  Session session;
  session.id = 1;
  session.origin = Session::Origin::kPeer;
  session.set_var("kind", byebye ? "byebye" : "alive");
  session.set_var("service_type", type);
  session.collected.push_back(Event(EventType::kControlStart));
  session.collected.push_back(Event(byebye ? EventType::kServiceByeBye
                                           : EventType::kServiceAlive));
  session.collected.push_back(
      Event(EventType::kServiceTypeIs, {{"type", type}}));
  session.collected.push_back(Event(
      EventType::kResTtl, {{"seconds", std::to_string(ttl_seconds)}}));
  if (!usn.empty()) {
    session.collected.push_back(Event(EventType::kUpnpUsn, {{"usn", usn}}));
  }
  session.collected.push_back(
      Event(EventType::kServiceAttr, {{"key", "room"}, {"value", "lab"}}));
  if (!url.empty()) {
    session.collected.push_back(Event(EventType::kResServUrl, {{"url", url}}));
  }
  session.collected.push_back(Event(EventType::kControlStop));
  return session;
}

/// Plain-vector reference of the one bridged-service rule, in arrival
/// order, with every lookup a linear scan.
struct VectorReference {
  std::vector<ForeignService> services;

  ForeignService* find(std::string_view url) {
    for (auto& s : services) {
      if (s.url == url) return &s;
    }
    return nullptr;
  }

  // An alive with a URL and a meaningful type re-arms the entry holding its
  // URL, whatever type it names, or else adds one.
  void advert(std::string_view type, std::string_view url,
              std::string_view usn, transport::TimePoint deadline) {
    if (url.empty() || !meaningful_advert_type(type)) return;
    if (ForeignService* known = find(url)) {
      known->expires_at = deadline;
      return;
    }
    ForeignService service;
    service.canonical_type = type;
    service.url = url;
    service.usn = usn;
    service.expires_at = deadline;
    services.push_back(std::move(service));
  }

  // A byebye forgets one entry: by URL when it names one, else the oldest
  // entry carrying its USN.
  void byebye(std::string_view url, std::string_view usn) {
    auto gone = std::find_if(
        services.begin(), services.end(), [&](const ForeignService& s) {
          return url.empty() ? !usn.empty() && s.usn == usn : s.url == url;
        });
    if (gone != services.end()) services.erase(gone);
  }

  std::size_t sweep(transport::TimePoint now) {
    return std::erase_if(services, [now](const ForeignService& s) {
      return s.expires_at <= now;
    });
  }
};

using Row = std::tuple<std::string, std::string, std::string,
                       transport::TimePoint::rep>;

std::vector<Row> rows(const std::vector<ForeignService>& services) {
  std::vector<Row> out;
  for (const auto& s : services) {
    out.emplace_back(s.url, s.usn, s.canonical_type, s.expires_at.count());
  }
  std::sort(out.begin(), out.end());
  return out;
}

struct TableFixture : ::testing::Test {
  sim::Scheduler scheduler;
  net::Network network{scheduler, net::LinkProfile{}, 5};
  net::Host& host = network.add_host("gw", net::IpAddress(10, 0, 0, 3));
};

// All four units run the same seeded history side by side with the one
// reference (the Jini unit with a registrar, so its entries register and
// cancel leases). URLs come from a small universe so refreshes and repeat
// withdrawals are common; a URL is refreshed under either type; USNs are
// shared by several URLs, and a URL's adverts may carry a different USN
// than the one it was first learned with.
TEST_F(TableFixture, UnitsMatchTheOneRuleOverSeededHistories) {
  net::Host& registrar_host =
      network.add_host("reggie", net::IpAddress(10, 0, 0, 9));
  jini::LookupService registrar(registrar_host);
  const std::vector<std::string> types = {"clock", "printer", "*"};
  std::vector<std::string> urls;
  for (int i = 0; i < 16; ++i) {
    urls.push_back("soap://10.0.1." + std::to_string(i) + ":4005/dev" +
                   std::to_string(i));
  }
  const std::vector<std::string> usns = {"", "uuid:shared-a", "uuid:shared-b",
                                         "uuid:solo"};

  for (std::uint32_t seed = 1; seed <= 4; ++seed) {
    SCOPED_TRACE("seed=" + std::to_string(seed));
    TestSlpUnit slp(host);
    TestMdnsUnit mdns(host);
    TestUpnpUnit upnp(host);
    TestJiniUnit jini(host);
    jini::MulticastAnnouncement announcement;
    announcement.registrar_host = "10.0.0.9";
    announcement.registrar_port = jini::kJiniPort;
    announcement.registrar_id = registrar.registrar_id();
    net::Datagram datagram;
    datagram.source = net::Endpoint{registrar_host.address(), jini::kJiniPort};
    datagram.multicast = true;
    datagram.payload = announcement.encode();
    jini.on_native_message(datagram);
    scheduler.run_for(sim::millis(10));
    ASSERT_TRUE(jini.known_registrar().has_value());

    std::vector<Unit*> units = {&slp, &mdns, &upnp, &jini};
    auto deliver = [&](Session& session) {
      slp.on_advertisement(session);
      mdns.on_advertisement(session);
      upnp.on_advertisement(session);
      jini.on_advertisement(session);
    };
    VectorReference ref;
    std::mt19937 rng(seed);
    auto pick = [&](std::size_t n) {
      return static_cast<std::size_t>(rng() % static_cast<std::uint32_t>(n));
    };
    std::size_t usn_withdrawals = 0;

    for (int step = 0; step < 600; ++step) {
      std::size_t op = pick(100);
      const std::string& url = urls[pick(urls.size())];
      const std::string& usn = usns[pick(usns.size())];
      const std::string& type = types[pick(types.size())];
      if (op < 55) {
        int ttl = 1 + static_cast<int>(pick(6));
        Session session = advert_session(false, type, url, usn, ttl);
        deliver(session);
        ref.advert(type, url, usn, host.now() + transport::seconds(ttl));
      } else if (op < 80) {
        // Withdrawals: by URL, by USN only (a UPnP byebye), or both.
        std::size_t shape = pick(3);
        std::string_view by_url = shape == 1 ? std::string_view() : url;
        std::string_view by_usn = shape == 0 ? std::string_view() : usn;
        if (by_url.empty() && !by_usn.empty()) usn_withdrawals += 1;
        Session session = advert_session(true, type, by_url, by_usn, 0);
        deliver(session);
        ref.byebye(by_url, by_usn);
      } else if (op < 90) {
        std::size_t expired = ref.sweep(host.now());
        ASSERT_EQ(slp.expire_bridged_state(host.now()), expired);
        ASSERT_EQ(mdns.expire_bridged_state(host.now()), expired);
        ASSERT_EQ(upnp.expire_bridged_state(host.now()), expired);
        ASSERT_EQ(jini.expire_bridged_state(host.now()), expired);
      } else {
        scheduler.run_for(sim::millis(static_cast<std::int64_t>(pick(1500))));
      }
      for (Unit* unit : units) {
        ASSERT_EQ(rows(unit->foreign_services()), rows(ref.services))
            << sdp_name(unit->sdp()) << " diverged at step " << step;
      }
      // Every entry has its impersonated device, and only entries have one.
      ASSERT_EQ(upnp.description_routes(), ref.services.size());
    }
    EXPECT_GT(usn_withdrawals, 0u);
    scheduler.run_for(sim::seconds(1));
    EXPECT_GT(jini.foreign_registrations(), 0u);
    EXPECT_GT(jini.foreign_deregistrations(), 0u);
  }
}

// The table's own contract, including the oldest-first USN resolution
// across erases that move entries around inside the vector.
TEST(BridgedServiceTable, UsnBucketsStayOldestFirstAcrossSwapErases) {
  BridgedServiceTable table;
  auto add = [&](std::string url, std::string usn) {
    ForeignService service;
    service.url = std::move(url);
    service.usn = std::move(usn);
    table.insert(std::move(service));
  };
  add("u0", "shared");
  add("u1", "other");
  add("u2", "shared");
  add("u3", "shared");
  ASSERT_EQ(table.oldest_with_usn("shared")->url, "u0");

  // Erasing u0 swaps u3 into slot 0; u2 is now the oldest "shared" entry.
  ASSERT_TRUE(table.erase_url("u0"));
  EXPECT_EQ(table.entries()[0].url, "u3");
  EXPECT_EQ(table.oldest_with_usn("shared")->url, "u2");
  EXPECT_EQ(table.find("u3"), &table.entries()[0]);

  EXPECT_FALSE(table.erase_url("u0"));
  EXPECT_EQ(table.oldest_with_usn(""), nullptr);
  ASSERT_TRUE(table.erase_url("u2"));
  EXPECT_EQ(table.oldest_with_usn("shared")->url, "u3");
  ASSERT_TRUE(table.erase_url("u3"));
  EXPECT_EQ(table.oldest_with_usn("shared"), nullptr);
  ASSERT_EQ(table.entries().size(), 1u);
  EXPECT_EQ(table.find("u1")->usn, "other");
}

TEST_F(TableFixture, WarmRefreshOfAKnownUrlAllocatesNothing) {
  BridgedServiceTable table;
  for (int i = 0; i < 64; ++i) {
    ForeignService service;
    service.url = "soap://10.0.1.1:4005/a-long-enough-url-to-skip-sso-" +
                  std::to_string(i);
    service.usn = "uuid:dev-" + std::to_string(i % 8);
    table.insert(std::move(service));
  }
  const std::string url =
      "soap://10.0.1.1:4005/a-long-enough-url-to-skip-sso-17";
  std::string_view view = url;

  std::uint64_t before = indiss::testing::g_heap_allocs;
  for (int i = 0; i < 256; ++i) {
    ForeignService* known = table.find(view);
    ASSERT_NE(known, nullptr);
    known->expires_at = transport::seconds(i);
  }
  EXPECT_EQ(indiss::testing::g_heap_allocs - before, 0u)
      << "a refresh of a known URL must be an allocation-free lookup";

  // The same pin through the SLP unit's advertisement path.
  TestSlpUnit slp(host);
  Session session = advert_session(false, "clock", url, "uuid:dev-1", 60);
  slp.on_advertisement(session);
  ASSERT_EQ(slp.foreign_services().size(), 1u);
  before = indiss::testing::g_heap_allocs;
  for (int i = 0; i < 256; ++i) slp.on_advertisement(session);
  EXPECT_EQ(indiss::testing::g_heap_allocs - before, 0u)
      << "a warm SLP alive refresh must not allocate";
  EXPECT_EQ(slp.foreign_services().size(), 1u);
}

// Withdrawal and TTL expiry drop the impersonated device's description
// route: a withdrawn device is no longer described, and alive/byebye churn
// leaves the route table flat.
TEST_F(TableFixture, UpnpDescriptionRoutesGoWithTheirDevices) {
  net::Host& control_point =
      network.add_host("cp", net::IpAddress(10, 0, 0, 9));
  UpnpUnitConfig config;
  config.http_port = 4100;
  TestUpnpUnit unit(host, {}, config);
  auto get_status = [&](int device_index) {
    int status = 0;
    upnp::http_get(control_point,
                   *Uri::parse("http://10.0.0.3:4100/indiss/" +
                                     std::to_string(device_index) +
                                     "/description.xml"),
                   [&](std::optional<Bytes> response) {
                     upnp::SsdpReader reader;
                     status = response.has_value() &&
                                      reader.read(*response) ==
                                          upnp::SsdpReader::Kind::kHttpResponse
                                  ? reader.status()
                                  : -1;
                   });
    scheduler.run_for(sim::seconds(1));
    return status;
  };
  const std::string url = "soap://10.0.1.7:4005/clock";

  for (int cycle = 1; cycle <= 8; ++cycle) {
    Session alive = advert_session(false, "clock", url, "", 60);
    unit.on_advertisement(alive);
    ASSERT_EQ(unit.impersonated_devices(), 1u);
    EXPECT_EQ(unit.description_routes(), 1u) << "cycle " << cycle;
    EXPECT_EQ(get_status(cycle), 200) << "cycle " << cycle;

    Session byebye = advert_session(true, "clock", url, "", 0);
    unit.on_advertisement(byebye);
    EXPECT_EQ(unit.impersonated_devices(), 0u);
    EXPECT_EQ(unit.description_routes(), 0u) << "cycle " << cycle;
    EXPECT_EQ(get_status(cycle), 404) << "withdrawn device still described";
  }

  // A device that crashes without a byebye ages out the same way.
  Session alive = advert_session(false, "clock", url, "", 1);
  unit.on_advertisement(alive);
  ASSERT_EQ(get_status(9), 200);
  scheduler.run_for(sim::seconds(1));
  EXPECT_EQ(unit.expire_bridged_state(host.now()), 1u);
  EXPECT_EQ(unit.description_routes(), 0u);
  EXPECT_EQ(get_status(9), 404) << "expired device still described";
}

// The directory and the units share one advert scan but keep the two TTL
// rules they always had. The mDNS parser emits one SDP_RES_TTL per PTR, so
// a response whose first PTR carries TTL 0 and a later one 120 s reaches
// both: bridged unit state reads the first TTL (not positive, so the
// default lifetime), the directory the first non-zero one.
TEST_F(TableFixture, MixedZeroTtlAdvertKeepsEachCallersTtlRule) {
  mdns::DnsMessage message;
  message.flags = mdns::kFlagResponse | mdns::kFlagAuthoritative;
  for (auto [label, ttl] : {std::pair{"a", 0u}, std::pair{"b", 120u}}) {
    std::string instance = std::string(label) + "._clock._tcp.local";
    mdns::DnsRecord ptr;
    ptr.name = "_clock._tcp.local";
    ptr.type = mdns::kTypePtr;
    ptr.ttl = ttl;
    ptr.target = instance;
    message.answers.push_back(ptr);
    mdns::DnsRecord txt;
    txt.name = instance;
    txt.type = mdns::kTypeTxt;
    txt.ttl = 120;
    txt.txt = {{"url", "soap://10.0.1.7:4005/" + std::string(label)}};
    message.additionals.push_back(txt);
  }
  Bytes wire = mdns::encode(message);
  MessageContext ctx;
  ctx.multicast = true;
  CollectingSink sink;
  MdnsEventParser parser;
  parser.parse(wire, ctx, sink);

  AdvertView advert = scan_advert(sink.stream());
  EXPECT_EQ(advert.url, "soap://10.0.1.7:4005/a");
  EXPECT_EQ(advert.type, "clock");
  EXPECT_EQ(advert.first_ttl_seconds, 0);
  EXPECT_EQ(advert.ttl_seconds, 120);

  TestSlpUnit slp(host);
  Session session;
  session.id = 1;
  session.origin = Session::Origin::kPeer;
  session.set_var("kind", "alive");
  session.set_var("service_type", "clock");
  session.collected = sink.stream();
  slp.on_advertisement(session);
  ASSERT_EQ(slp.foreign_services().size(), 1u);
  EXPECT_EQ(slp.foreign_services().front().expires_at,
            host.now() + kDefaultAdvertTtl);

  ServiceDirectory directory;
  ASSERT_TRUE(directory.record_advertisement(SdpId::kMdns, sink.stream(), {},
                                             host.now()));
  const ServiceDirectory::Record* record =
      directory.find("soap://10.0.1.7:4005/a");
  ASSERT_NE(record, nullptr);
  EXPECT_EQ(record->ttl, transport::seconds(120));
}

}  // namespace
}  // namespace indiss::core
