// Bridged-state tests: the one service store core::Unit holds its bridged
// services in, checked against a plain-vector reference of its rule
// (refresh, URL and USN withdrawal, expiry on touch and by sweep, LRU
// eviction) through the SLP, mDNS, UPnP and Jini units over seeded
// histories; the oldest-first USN resolution across slot reuse; the
// zero-allocation pin for a warm refresh of a known URL; the UPnP unit's
// description routes, which must go with the devices they describe; the one
// TTL rule; and the store's bound under churn, in records and in the
// process-wide interner.
#include <gtest/gtest.h>

#include <algorithm>
#include <random>
#include <string>
#include <tuple>
#include <vector>

#include "common/interning.hpp"
#include "core/directory/service_directory.hpp"
#include "core/event_bus.hpp"
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
#include "slp/wire.hpp"
#include "upnp/http_client.hpp"
#include "upnp/ssdp.hpp"

#include "tests/support/alloc_meter.hpp"

namespace indiss::core {
namespace {

struct TestSlpUnit : SlpUnit {
  using SlpUnit::on_advertisement;
  using SlpUnit::SlpUnit;
};

struct TestMdnsUnit : MdnsUnit {
  using MdnsUnit::MdnsUnit;
  using MdnsUnit::on_advertisement;
};

struct TestUpnpUnit : UpnpUnit {
  using UpnpUnit::on_advertisement;
  using UpnpUnit::UpnpUnit;
};

struct TestJiniUnit : JiniUnit {
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
  session.kind = byebye ? Kind::kByeBye : Kind::kAlive;
  session.service_type = type;
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

/// Plain-vector reference of the store's rule for records the units hold,
/// in creation order, with every lookup a linear scan.
struct VectorReference {
  struct Service {
    std::string type;
    std::string url;
    std::string usn;
    transport::TimePoint expires_at{0};
    std::uint64_t last_used = 0;
  };
  std::size_t cap = 0;
  std::vector<Service> services;
  std::uint64_t tick = 0;
  std::size_t evictions = 0;

  Service* find(std::string_view url) {
    for (auto& s : services) {
      if (s.url == url) return &s;
    }
    return nullptr;
  }

  // An alive with a URL and a meaningful type re-arms the live record
  // holding its URL, whatever type it names. A record past its deadline is
  // expired first, so the alive creates a new one; at the cap the least
  // recently used record goes.
  void advert(std::string_view type, std::string_view url,
              std::string_view usn, transport::TimePoint now,
              transport::Duration ttl) {
    if (url.empty() || !meaningful_advert_type(type)) return;
    Service* known = find(url);
    if (known != nullptr && known->expires_at <= now) {
      std::erase_if(services, [&](const Service& s) { return s.url == url; });
      known = nullptr;
    }
    if (known == nullptr) {
      services.push_back({std::string(type), std::string(url),
                          std::string(usn), {}, 0});
      known = &services.back();
    }
    known->expires_at = now + ttl;
    known->last_used = ++tick;
    while (services.size() > cap) {
      services.erase(std::min_element(
          services.begin(), services.end(),
          [](const Service& a, const Service& b) {
            return a.last_used < b.last_used;
          }));
      evictions += 1;
    }
  }

  // A byebye forgets one record: by URL when it names one, else the oldest
  // record carrying its USN.
  void byebye(std::string_view url, std::string_view usn) {
    auto gone = std::find_if(
        services.begin(), services.end(), [&](const Service& s) {
          return url.empty() ? !usn.empty() && s.usn == usn : s.url == url;
        });
    if (gone != services.end()) services.erase(gone);
  }

  std::size_t sweep(transport::TimePoint now) {
    return std::erase_if(services, [now](const Service& s) {
      return s.expires_at <= now;
    });
  }
};

using Row = std::tuple<std::string, std::string, std::string,
                       transport::TimePoint::rep>;

std::vector<Row> rows(const std::vector<const ServiceDirectory::Record*>& got) {
  std::vector<Row> out;
  for (const auto* r : got) {
    out.emplace_back(r->url, r->usn, std::string(r->type()),
                     r->expires_at.count());
  }
  std::sort(out.begin(), out.end());
  return out;
}

std::vector<Row> rows(const VectorReference& ref) {
  std::vector<Row> out;
  for (const auto& s : ref.services) {
    out.emplace_back(s.url, s.usn, s.type, s.expires_at.count());
  }
  std::sort(out.begin(), out.end());
  return out;
}

struct TableFixture : ::testing::Test {
  sim::Scheduler scheduler;
  net::Network network{scheduler, net::LinkProfile{}, 5};
  net::Host& host = network.add_host("gw", net::IpAddress(10, 0, 0, 3));
};

// All four units share one small store and run the same seeded history
// side by side with the one reference (the Jini unit with a registrar, so
// its records register and cancel leases). URLs come from a universe twice
// the store's cap, so refreshes, repeat withdrawals and LRU evictions are
// all common; a URL is refreshed under either type; USNs are shared by
// several URLs, and a URL's adverts may carry a different USN than the one
// it was first learned with.
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
  constexpr std::size_t kCap = 8;

  for (std::uint32_t seed = 1; seed <= 4; ++seed) {
    SCOPED_TRACE("seed=" + std::to_string(seed));
    UnitOptions options;
    options.directory = std::make_shared<ServiceDirectory>(
        ServiceDirectory::Config{.max_records = kCap});
    ServiceDirectory& store = *options.directory;
    TestSlpUnit slp(host, options);
    TestMdnsUnit mdns(host, options);
    TestUpnpUnit upnp(host, options);
    TestJiniUnit jini(host, options);
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
    ref.cap = kCap;
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
        ref.advert(type, url, usn, host.now(), transport::seconds(ttl));
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
        ASSERT_EQ(store.sweep(host.now()), ref.sweep(host.now()));
      } else {
        scheduler.run_for(sim::millis(static_cast<std::int64_t>(pick(1500))));
      }
      for (Unit* unit : units) {
        ASSERT_EQ(rows(unit->foreign_services()), rows(ref))
            << sdp_name(unit->sdp()) << " diverged at step " << step;
      }
      ASSERT_EQ(store.size(), ref.services.size()) << "step " << step;
      // Every record has its impersonated device, and only records have one.
      ASSERT_EQ(upnp.description_routes(), ref.services.size());
    }
    EXPECT_GT(usn_withdrawals, 0u);
    EXPECT_EQ(store.evictions(), ref.evictions);
    EXPECT_GT(store.evictions(), 0u);
    scheduler.run_for(sim::seconds(1));
    EXPECT_GT(jini.foreign_registrations(), 0u);
    EXPECT_GT(jini.foreign_deregistrations(), 0u);
  }
}

EventStream usn_advert(std::string_view url, std::string_view usn) {
  EventStream stream;
  stream.push_back(Event(EventType::kControlStart));
  stream.push_back(Event(EventType::kServiceAlive));
  stream.push_back(Event(EventType::kServiceTypeIs, {{"type", "clock"}}));
  stream.push_back(Event(EventType::kUpnpUsn, {{"usn", usn}}));
  stream.push_back(Event(EventType::kResServUrl, {{"url", url}}));
  stream.push_back(Event(EventType::kControlStop));
  return stream;
}

EventStream usn_byebye(std::string_view usn) {
  EventStream stream;
  stream.push_back(Event(EventType::kControlStart));
  stream.push_back(Event(EventType::kServiceByeBye));
  stream.push_back(Event(EventType::kUpnpUsn, {{"usn", usn}}));
  stream.push_back(Event(EventType::kControlStop));
  return stream;
}

// A USN-only withdrawal takes the oldest record carrying the USN, also
// after erases free slots that newer records then reuse.
TEST(ServiceStore, UsnWithdrawalsStayOldestFirstAcrossSlotReuse) {
  ServiceDirectory store;
  transport::TimePoint now{0};
  for (auto [url, usn] : {std::pair{"u0", "shared"}, std::pair{"u1", "other"},
                          std::pair{"u2", "shared"},
                          std::pair{"u3", "shared"}}) {
    ASSERT_NE(store.record_advertisement(SdpId::kUpnp, usn_advert(url, usn),
                                         now),
              0u);
  }
  ASSERT_EQ(store.withdraw(SdpId::kUpnp, usn_byebye("shared")), 1u);
  EXPECT_EQ(store.find("u0"), nullptr);
  // u4 takes u0's freed slot, but it is the newest "shared" record.
  ASSERT_NE(store.record_advertisement(SdpId::kUpnp,
                                       usn_advert("u4", "shared"), now),
            0u);
  ASSERT_EQ(store.withdraw(SdpId::kUpnp, usn_byebye("shared")), 1u);
  EXPECT_EQ(store.find("u2"), nullptr);
  EXPECT_NE(store.find("u4"), nullptr);
  ASSERT_EQ(store.withdraw(SdpId::kUpnp, usn_byebye("shared")), 1u);
  EXPECT_EQ(store.find("u3"), nullptr);
  ASSERT_EQ(store.withdraw(SdpId::kUpnp, usn_byebye("shared")), 1u);
  EXPECT_EQ(store.find("u4"), nullptr);
  EXPECT_EQ(store.withdraw(SdpId::kUpnp, usn_byebye("shared")), 0u);
  EXPECT_EQ(store.withdraw(SdpId::kUpnp, usn_byebye("")), 0u);
  ASSERT_EQ(store.size(), 1u);
  EXPECT_EQ(store.find("u1")->usn, "other");
}

TEST_F(TableFixture, WarmRefreshOfAKnownUrlAllocatesNothing) {
  ServiceDirectory store;
  for (int i = 0; i < 64; ++i) {
    ASSERT_NE(store.record_advertisement(
                  SdpId::kUpnp,
                  usn_advert("soap://10.0.1.1:4005/a-long-enough-url-to-skip-"
                             "sso-" +
                                 std::to_string(i),
                             "uuid:dev-" + std::to_string(i % 8)),
                  host.now()),
              0u);
  }
  const std::string url =
      "soap://10.0.1.1:4005/a-long-enough-url-to-skip-sso-17";
  EventStream refresh = usn_advert(url, "uuid:dev-1");
  ServiceDirectory::Handle handle =
      store.record_advertisement(SdpId::kUpnp, refresh, host.now());

  std::uint64_t before = indiss::testing::g_heap_allocs;
  for (int i = 0; i < 256; ++i) {
    ASSERT_EQ(store.record_advertisement(SdpId::kUpnp, refresh, host.now()),
              handle);
    ASSERT_TRUE(store.refresh(handle, host.now()));
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
  EXPECT_EQ(unit.options().directory->sweep(host.now()), 1u);
  EXPECT_EQ(unit.description_routes(), 0u);
  EXPECT_EQ(get_status(9), 404) << "expired device still described";
}

// One TTL rule for the records units hold and the ones the directory
// answers from: the first non-zero SDP_RES_TTL. The mDNS parser emits one
// SDP_RES_TTL per PTR, so a response whose first PTR carries TTL 0 and a
// later one 120 s gives its first URL a 120 s lifetime, whoever records it.
TEST_F(TableFixture, MixedZeroTtlAdvertTakesTheFirstNonZeroTtl) {
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
  EXPECT_EQ(advert.ttl_seconds, 120);

  TestSlpUnit slp(host);
  Session session;
  session.id = 1;
  session.origin = Session::Origin::kPeer;
  session.kind = Kind::kAlive;
  session.service_type = "clock";
  session.collected = sink.stream();
  slp.on_advertisement(session);
  ASSERT_EQ(slp.foreign_services().size(), 1u);
  EXPECT_EQ(slp.foreign_services().front()->ttl, transport::seconds(120));
  EXPECT_EQ(slp.foreign_services().front()->expires_at,
            host.now() + transport::seconds(120));

  ServiceDirectory directory;
  ASSERT_NE(directory.record_advertisement(SdpId::kMdns, sink.stream(),
                                           host.now()),
            0u);
  const ServiceDirectory::Record* record =
      directory.find("soap://10.0.1.7:4005/a");
  ASSERT_NE(record, nullptr);
  EXPECT_EQ(record->ttl, transport::seconds(120));
}

// --- The store's bound under churn -------------------------------------------

/// An SLP + UPnP + mDNS gateway wired by hand around one store with a small
/// cap, fed native datagrams straight through on_native_message (the
/// monitor's forward path).
struct ChurnRig {
  static constexpr std::size_t kCap = 32;

  ChurnRig() {
    options.directory = std::make_shared<ServiceDirectory>(
        ServiceDirectory::Config{.max_records = kCap});
    options.translation_cache = std::make_shared<TranslationCache>();
    slp = std::make_unique<SlpUnit>(gateway, options);
    upnp = std::make_unique<UpnpUnit>(gateway, options);
    mdns = std::make_unique<MdnsUnit>(gateway, options);
    bus.subscribe(*slp);
    bus.subscribe(*upnp);
    bus.subscribe(*mdns);
    scheduler.run_for(sim::millis(10));
  }

  void deliver(Unit& unit, Bytes payload, std::uint16_t port) {
    net::Datagram datagram;
    datagram.source = net::Endpoint{device.address(), port};
    datagram.multicast = true;
    datagram.payload = std::move(payload);
    unit.on_native_message(datagram);
    scheduler.run_for(sim::millis(5));
  }

  /// One advertisement of a URL never seen before: an SLP registration
  /// with attributes, or a UPnP alive with its own USN.
  void advertise(std::mt19937& rng, int n) {
    std::string id = std::to_string(n) + "-" + std::to_string(rng() % 100000);
    if (rng() % 2 == 0) {
      slp::SrvReg reg;
      reg.service_type = "service:clock";
      reg.url_entry = {600, "service:clock:soap://10.0.7.1:4005/churn-" + id};
      reg.attr_list = "(room-" + id + "=lab),(owner=" + id + ")";
      deliver(*slp, slp::encode(slp::Message(reg)), 4270);
    } else {
      upnp::Notify alive;
      alive.nt = "urn:schemas-upnp-org:device:clock:1";
      alive.usn = "uuid:churn-" + id + "::" + alive.nt;
      alive.location = "http://10.0.7.2:4004/churn-" + id + ".xml";
      alive.max_age_seconds = 600;
      deliver(*upnp, upnp::encode(alive), 1900);
    }
  }

  sim::Scheduler scheduler;
  net::Network network{scheduler, net::LinkProfile{}, 9};
  net::Host& gateway = network.add_host("gw", net::IpAddress(10, 0, 0, 3));
  net::Host& device = network.add_host("dev", net::IpAddress(10, 0, 7, 1));
  UnitOptions options;
  EventBus bus;  // outlives the units, which unsubscribe on teardown
  std::unique_ptr<SlpUnit> slp;
  std::unique_ptr<UpnpUnit> upnp;
  std::unique_ptr<MdnsUnit> mdns;
};

// A seeded churn of distinct URLs, USNs and attribute keys, far more than
// the cap: once warm, the store, every unit's bridged state and the
// process-wide interner stay flat.
TEST(ServiceStoreBounds, ChurnPastTheCapKeepsStoreAndInternerFlat) {
  ChurnRig rig;
  ServiceDirectory& store = *rig.options.directory;
  std::mt19937 rng(2026);
  int n = 0;
  for (; n < 4 * static_cast<int>(ChurnRig::kCap); ++n) rig.advertise(rng, n);
  ASSERT_EQ(store.size(), ChurnRig::kCap);
  ASSERT_GT(store.evictions(), 0u);
  const std::size_t interned = SymbolTable::global().size();

  for (; n < 2000; ++n) {
    rig.advertise(rng, n);
    ASSERT_LE(store.size(), ChurnRig::kCap) << "advert " << n;
  }
  EXPECT_EQ(SymbolTable::global().size(), interned)
      << "the interner grew with the churning URLs, USNs or attribute keys";
  EXPECT_LE(rig.slp->foreign_services().size(), ChurnRig::kCap);
  EXPECT_LE(rig.mdns->foreign_services().size(), ChurnRig::kCap);
  EXPECT_LE(rig.upnp->foreign_services().size(), ChurnRig::kCap);
  EXPECT_LE(rig.upnp->description_routes(), ChurnRig::kCap);
}

}  // namespace
}  // namespace indiss::core
