// Steady-state allocation pins for the SLP, SSDP and Jini translation round
// trips — the PR-2/PR-4 zero-alloc guarantee (pinned for mDNS in
// tests/sdp/mdns_test.cpp) extended to all four SDPs: parse -> events ->
// compose -> wire must perform no heap allocation once every scratch buffer
// has reached its high-water capacity.
#include <gtest/gtest.h>

#include "core/directory/service_directory.hpp"
#include "core/units/jini_unit.hpp"
#include "core/units/mdns_unit.hpp"
#include "core/units/slp_unit.hpp"
#include "core/units/upnp_unit.hpp"
#include "jini/discovery.hpp"
#include "jini/lookup.hpp"
#include "net/host.hpp"
#include "net/network.hpp"
#include "sim/scheduler.hpp"
#include "slp/wire.hpp"
#include "upnp/ssdp.hpp"

#include "tests/support/alloc_meter.hpp"

namespace indiss::core {
namespace {

MessageContext multicast_ctx() {
  MessageContext ctx;
  ctx.source = net::Endpoint{net::IpAddress(10, 0, 0, 7), 41000};
  ctx.multicast = true;
  return ctx;
}

// --- SLP --------------------------------------------------------------------

TEST(SlpAllocs, ReplyParseComposeRoundTripIsZeroAllocSteadyState) {
  slp::SrvRply reply;
  reply.header.xid = 42;
  reply.url_entries = {
      slp::UrlEntry{300, "service:clock:soap://10.0.0.2:4005/control"},
      slp::UrlEntry{300, "service:clock:soap://10.0.0.3:4005/control"}};
  Bytes wire = slp::encode(slp::Message(reply));

  SlpEventParser parser;
  StreamPool pool;
  CollectingSink sink(pool);
  MessageContext ctx = multicast_ctx();
  slp::Message composed = slp::SrvRply{};
  std::string attr_scratch;
  ByteWriter writer;

  for (int i = 0; i < 16; ++i) {
    sink.reset();
    parser.parse(wire, ctx, sink);
    compose_slp_reply(sink.stream(), "clock", 42, 300, true,
                      std::get<slp::SrvRply>(composed), attr_scratch);
    slp::encode_into(composed, writer);
  }
  std::uint64_t before = indiss::testing::g_heap_allocs;
  for (int i = 0; i < 256; ++i) {
    sink.reset();
    parser.parse(wire, ctx, sink);
    std::size_t urls =
        compose_slp_reply(sink.stream(), "clock", 42, 300, true,
                          std::get<slp::SrvRply>(composed), attr_scratch);
    ASSERT_EQ(urls, 2u);
    BytesView out = slp::encode_into(composed, writer);
    ASSERT_FALSE(out.empty());
  }
  EXPECT_EQ(indiss::testing::g_heap_allocs - before, 0u)
      << "warm SLP parse -> events -> compose must not allocate";
}

TEST(SlpAllocs, RegistrationParseWithAttributesIsZeroAllocSteadyState) {
  slp::SrvReg reg;
  reg.url_entry = {120, "service:clock:soap://10.0.0.2:4005/slp-clock"};
  reg.service_type = "service:clock";
  reg.attr_list = "(friendlyName=SLP Clock),(room=hall),ready";
  Bytes wire = slp::encode(slp::Message(reg));

  SlpEventParser parser;
  StreamPool pool;
  CollectingSink sink(pool);
  MessageContext ctx = multicast_ctx();

  for (int i = 0; i < 16; ++i) {
    sink.reset();
    parser.parse(wire, ctx, sink);
  }
  std::uint64_t before = indiss::testing::g_heap_allocs;
  for (int i = 0; i < 256; ++i) {
    sink.reset();
    parser.parse(wire, ctx, sink);
    ASSERT_TRUE(well_framed(sink.stream()));
  }
  EXPECT_EQ(indiss::testing::g_heap_allocs - before, 0u)
      << "warm SLP registration parse must not allocate";
}

// --- SSDP -------------------------------------------------------------------

// Fills the scratch notify from a parsed alive stream the way the UPnP
// composer re-announces it, reusing the struct's string capacity.
void fill_notify_from(const EventStream& stream, upnp::Notify& notify) {
  notify.kind = upnp::Notify::Kind::kAlive;
  for (const auto& event : stream) {
    if (event.type == EventType::kServiceByeBye) {
      notify.kind = upnp::Notify::Kind::kByeBye;
    } else if (event.type == EventType::kServiceTypeIs) {
      notify.nt.assign(event.get("native"));
    } else if (event.type == EventType::kUpnpUsn) {
      notify.usn.assign(event.get("usn"));
    } else if (event.type == EventType::kUpnpDeviceUrlDesc) {
      notify.location.assign(event.get("url"));
    }
  }
}

TEST(SsdpAllocs, NotifyParseComposeRoundTripIsZeroAllocSteadyState) {
  upnp::Notify notify;
  notify.nt = "urn:schemas-upnp-org:device:clock:1";
  notify.usn = "uuid:ClockDevice::urn:schemas-upnp-org:device:clock:1";
  notify.location = "http://10.0.0.2:4004/description.xml";
  Bytes wire = upnp::encode(notify);

  SsdpEventParser parser;
  StreamPool pool;
  CollectingSink sink(pool);
  MessageContext ctx = multicast_ctx();
  upnp::Notify composed;
  std::string out;

  for (int i = 0; i < 16; ++i) {
    sink.reset();
    parser.parse(wire, ctx, sink);
    fill_notify_from(sink.stream(), composed);
    composed.serialize_into(out);
  }
  std::uint64_t before = indiss::testing::g_heap_allocs;
  for (int i = 0; i < 256; ++i) {
    sink.reset();
    parser.parse(wire, ctx, sink);
    ASSERT_TRUE(well_framed(sink.stream()));
    ASSERT_NE(find_event(sink.stream(), EventType::kServiceAlive), nullptr);
    fill_notify_from(sink.stream(), composed);
    composed.serialize_into(out);
    ASSERT_FALSE(out.empty());
  }
  EXPECT_EQ(indiss::testing::g_heap_allocs - before, 0u)
      << "warm SSDP parse -> events -> compose must not allocate";
}

TEST(SsdpAllocs, SearchRequestParseIsZeroAllocSteadyState) {
  upnp::SearchRequest request;
  request.st = "urn:schemas-upnp-org:device:clock:1";
  Bytes wire = upnp::encode(request);

  SsdpEventParser parser;
  StreamPool pool;
  CollectingSink sink(pool);
  MessageContext ctx = multicast_ctx();

  for (int i = 0; i < 16; ++i) {
    sink.reset();
    parser.parse(wire, ctx, sink);
  }
  std::uint64_t before = indiss::testing::g_heap_allocs;
  for (int i = 0; i < 256; ++i) {
    sink.reset();
    parser.parse(wire, ctx, sink);
    ASSERT_NE(find_event(sink.stream(), EventType::kUpnpSearchTarget),
              nullptr);
  }
  EXPECT_EQ(indiss::testing::g_heap_allocs - before, 0u)
      << "warm M-SEARCH parse must not allocate";
}

// --- Jini -------------------------------------------------------------------

TEST(JiniAllocs, AnnouncementParseComposeRoundTripIsZeroAllocSteadyState) {
  jini::MulticastAnnouncement announcement;
  announcement.registrar_host = "10.0.0.9";
  announcement.registrar_port = 4160;
  announcement.registrar_id = 0x1D155C0FFEEULL;  // > SSO digit budget
  announcement.groups = {"lab"};
  Bytes wire = announcement.encode();

  JiniEventParser parser;
  StreamPool pool;
  CollectingSink sink(pool);
  MessageContext ctx = multicast_ctx();
  jini::MulticastAnnouncement composed;
  ByteWriter writer;

  for (int i = 0; i < 16; ++i) {
    sink.reset();
    parser.parse(wire, ctx, sink);
    ASSERT_TRUE(compose_jini_announcement(sink.stream(), composed));
    composed.encode_into(writer);
  }
  std::uint64_t before = indiss::testing::g_heap_allocs;
  for (int i = 0; i < 256; ++i) {
    sink.reset();
    parser.parse(wire, ctx, sink);
    ASSERT_TRUE(compose_jini_announcement(sink.stream(), composed));
    BytesView out = composed.encode_into(writer);
    ASSERT_FALSE(out.empty());
  }
  EXPECT_EQ(indiss::testing::g_heap_allocs - before, 0u)
      << "warm Jini parse -> events -> compose must not allocate";
  EXPECT_EQ(composed.registrar_id, announcement.registrar_id);
  EXPECT_EQ(composed.registrar_host, announcement.registrar_host);
}

// --- Service directory (PR 9) ----------------------------------------------

TEST(DirectoryAllocs, RefreshTouchAndCollectAreZeroAllocSteadyState) {
  ServiceDirectory dir;
  EventStream advert;
  advert.push_back(Event(EventType::kControlStart));
  advert.push_back(Event(EventType::kServiceAlive));
  advert.push_back(Event(EventType::kServiceTypeIs, {{"type", "clock"}}));
  advert.push_back(Event(EventType::kResTtl, {{"seconds", "600"}}));
  advert.push_back(Event(EventType::kServiceAttr,
                         {{"key", "friendlyName"}, {"value", "Alloc Clock"}}));
  advert.push_back(Event(
      EventType::kResServUrl,
      {{"url", "service:clock:soap://10.0.0.2:4005/alloc-clock"}}));
  advert.push_back(Event(EventType::kControlStop));
  auto at = [](int s) { return transport::TimePoint(transport::seconds(s)); };
  ServiceDirectory::Handle handle =
      dir.record_advertisement(SdpId::kSlp, advert, at(0));
  ASSERT_NE(handle, 0u);
  std::vector<const ServiceDirectory::Record*> matches;
  for (int i = 0; i < 16; ++i) {
    ASSERT_EQ(dir.record_advertisement(SdpId::kSlp, advert, at(i)), handle);
    ASSERT_TRUE(dir.refresh(handle, at(i)));
    ASSERT_EQ(dir.collect("clock", at(i), matches), 1u);
    ASSERT_TRUE(dir.has_fresh("clock", at(i)));
  }
  std::uint64_t before = indiss::testing::g_heap_allocs;
  for (int i = 0; i < 256; ++i) {
    ASSERT_EQ(dir.record_advertisement(SdpId::kSlp, advert, at(i)), handle);
    ASSERT_TRUE(dir.refresh(handle, at(i)));
    ASSERT_EQ(dir.collect("clock", at(i), matches), 1u);
    ASSERT_TRUE(dir.has_fresh("clock", at(i)));
  }
  EXPECT_EQ(indiss::testing::g_heap_allocs - before, 0u)
      << "warm directory refresh/collect must not allocate";
  EXPECT_EQ(dir.size(), 1u);
  EXPECT_EQ(dir.stats(SdpId::kSlp).records_stored, 1u);
}

// --- Unit bridged-state refresh paths ----------------------------------------
//
// core::Unit finds a known URL in the service store through a string_view
// index, so the alive-refresh path — the steady-state case for a chatty
// announcer — only re-arms TTL clocks, and each unit's on_bridged hook adds
// no heap traffic to it. A hand-built peer session
// drives the protected Unit::on_advertisement directly, the way
// deliver_advertisement does.

Session foreign_alive_session(std::string_view type, std::string_view url,
                              std::string_view usn = "") {
  Session session;
  session.id = 1;
  session.origin = Session::Origin::kPeer;
  session.kind = Kind::kAlive;
  session.service_type = type;
  session.collected.push_back(Event(EventType::kControlStart));
  session.collected.push_back(Event(EventType::kServiceAlive));
  session.collected.push_back(
      Event(EventType::kServiceTypeIs, {{"type", type}}));
  session.collected.push_back(Event(EventType::kResTtl, {{"seconds", "60"}}));
  if (!usn.empty()) {
    session.collected.push_back(Event(EventType::kUpnpUsn, {{"usn", usn}}));
  }
  session.collected.push_back(Event(
      EventType::kServiceAttr,
      {{"key", "friendlyName"}, {"value", "Alloc Clock"}}));
  session.collected.push_back(Event(EventType::kResServUrl, {{"url", url}}));
  session.collected.push_back(Event(EventType::kControlStop));
  return session;
}

struct TestMdnsUnit : MdnsUnit {
  using MdnsUnit::MdnsUnit;
  using MdnsUnit::on_advertisement;
};

TEST(MdnsAllocs, ForeignAliveRefreshIsZeroAllocSteadyState) {
  sim::Scheduler scheduler;
  net::Network network{scheduler, net::LinkProfile{}, 7};
  net::Host& host = network.add_host("gw", net::IpAddress(10, 0, 0, 3));
  TestMdnsUnit unit(host);
  Session session = foreign_alive_session(
      "clock", "service:clock:soap://10.0.0.2:4005/alloc-clock");

  unit.on_advertisement(session);  // first announcement builds the mirror
  scheduler.run_for(sim::millis(10));
  ASSERT_EQ(unit.foreign_services().size(), 1u);
  for (int i = 0; i < 16; ++i) unit.on_advertisement(session);

  std::uint64_t before = indiss::testing::g_heap_allocs;
  for (int i = 0; i < 256; ++i) unit.on_advertisement(session);
  EXPECT_EQ(indiss::testing::g_heap_allocs - before, 0u)
      << "warm mDNS alive refresh must not allocate";
  EXPECT_EQ(unit.foreign_services().size(), 1u);
}

// The contested-airwaves extension of the same pin: with RFC 6762 §8 probing
// enabled, the first advertisement funds the probe cycle (claim bookkeeping,
// probe frames, the deferred announcement), but once the name is established
// the alive-refresh path must be as silent as the probe-less one — re-checking
// the claim and the name-override table costs no heap traffic.
TEST(MdnsAllocs, PostProbeAnnouncePathIsZeroAllocSteadyState) {
  sim::Scheduler scheduler;
  net::Network network{scheduler, net::LinkProfile{}, 7};
  net::Host& host = network.add_host("gw", net::IpAddress(10, 0, 0, 3));
  MdnsUnitConfig config;
  config.probe = true;
  TestMdnsUnit unit(host, {}, config);
  Session session = foreign_alive_session(
      "clock", "service:clock:soap://10.0.0.2:4005/alloc-clock");

  unit.on_advertisement(session);  // starts the §8.1 probe cycle
  EXPECT_EQ(unit.announcements_sent(), 0u)
      << "no announcing before the name is won";
  scheduler.run_for(sim::seconds(2));  // 3 unanswered probes -> established
  ASSERT_GE(unit.announcements_sent(), 1u);
  ASSERT_EQ(unit.probe_stats().names_established, 1u);
  for (int i = 0; i < 16; ++i) unit.on_advertisement(session);
  scheduler.run_for(sim::millis(100));

  std::uint64_t before = indiss::testing::g_heap_allocs;
  for (int i = 0; i < 256; ++i) unit.on_advertisement(session);
  EXPECT_EQ(indiss::testing::g_heap_allocs - before, 0u)
      << "warm post-probe alive refresh must not allocate";
  EXPECT_EQ(unit.probe_stats().renames, 0u);
  EXPECT_EQ(unit.foreign_services().size(), 1u);
}

// The whole peer hop, not just the refresh hook: a peer's shared alive
// stream delivered through on_peer_stream opens a session (a reused node),
// steps the FSM over the stream in place, refreshes the bridged entry and
// retires the session. The hop's callable, the session and the stream all
// stay off the heap once warm.
TEST(MdnsAllocs, WarmPeerStreamDeliveryIsZeroAlloc) {
  sim::Scheduler scheduler;
  net::Network network{scheduler, net::LinkProfile{}, 7};
  net::Host& host = network.add_host("gw", net::IpAddress(10, 0, 0, 3));
  MdnsUnit unit(host);
  auto stream = std::make_shared<const EventStream>(
      foreign_alive_session("clock",
                            "service:clock:soap://10.0.0.2:4005/alloc-clock")
          .collected);

  std::uint64_t origin_session = 1;
  auto deliver = [&]() {
    unit.on_peer_stream(SdpId::kSlp, origin_session++, stream);
    scheduler.run_for(sim::millis(1));
  };
  for (int i = 0; i < 16; ++i) deliver();
  ASSERT_EQ(unit.foreign_services().size(), 1u);

  std::uint64_t before = indiss::testing::g_heap_allocs;
  for (int i = 0; i < 256; ++i) deliver();
  EXPECT_EQ(indiss::testing::g_heap_allocs - before, 0u)
      << "warm peer-stream delivery must not allocate";
  EXPECT_EQ(unit.stats().sessions_completed, 16u + 256u);
  EXPECT_EQ(unit.open_sessions(), 0u);
  EXPECT_EQ(unit.foreign_services().size(), 1u);
}

struct TestUpnpUnit : UpnpUnit {
  using UpnpUnit::UpnpUnit;
  using UpnpUnit::on_advertisement;
};

TEST(UpnpAllocs, ForeignAliveRefreshIsZeroAllocSteadyState) {
  sim::Scheduler scheduler;
  net::Network network{scheduler, net::LinkProfile{}, 7};
  net::Host& host = network.add_host("gw", net::IpAddress(10, 0, 0, 3));
  TestUpnpUnit unit(host);  // active_advertising off: refresh is bookkeeping
  Session session = foreign_alive_session(
      "clock", "service:clock:soap://10.0.0.2:4005/alloc-clock");

  unit.on_advertisement(session);  // first advert builds the impersonation
  scheduler.run_for(sim::millis(10));
  for (int i = 0; i < 16; ++i) unit.on_advertisement(session);

  std::uint64_t before = indiss::testing::g_heap_allocs;
  for (int i = 0; i < 256; ++i) unit.on_advertisement(session);
  EXPECT_EQ(indiss::testing::g_heap_allocs - before, 0u)
      << "warm UPnP alive refresh must not allocate";
}

struct TestJiniUnit : JiniUnit {
  using JiniUnit::JiniUnit;
  using JiniUnit::on_advertisement;
};

TEST(JiniAllocs, ForeignAliveRefreshIsZeroAllocSteadyState) {
  sim::Scheduler scheduler;
  net::Network network{scheduler, net::LinkProfile{}, 7};
  net::Host& gateway = network.add_host("gw", net::IpAddress(10, 0, 0, 3));
  net::Host& registrar = network.add_host("reg", net::IpAddress(10, 0, 0, 9));
  jini::LookupService lookup(registrar);
  TestJiniUnit unit(gateway);

  // The unit learns the registrar the way the monitor delivers it: a
  // multicast announcement through on_native_message.
  jini::MulticastAnnouncement announcement;
  announcement.registrar_host = "10.0.0.9";
  announcement.registrar_port = jini::kJiniPort;
  announcement.registrar_id = lookup.registrar_id();
  net::Datagram datagram;
  datagram.source = net::Endpoint{net::IpAddress(10, 0, 0, 9), jini::kJiniPort};
  datagram.destination = net::Endpoint{net::IpAddress(224, 0, 1, 84), 4160};
  datagram.multicast = true;
  datagram.payload = announcement.encode();
  unit.on_native_message(datagram);
  scheduler.run_for(sim::millis(100));

  Session session = foreign_alive_session(
      "clock", "service:clock:soap://10.0.0.2:4005/alloc-clock");
  unit.on_advertisement(session);  // first advert registers with the lookup
  scheduler.run_for(sim::millis(100));
  ASSERT_EQ(unit.foreign_registrations(), 1u);
  for (int i = 0; i < 16; ++i) unit.on_advertisement(session);

  std::uint64_t before = indiss::testing::g_heap_allocs;
  for (int i = 0; i < 256; ++i) unit.on_advertisement(session);
  EXPECT_EQ(indiss::testing::g_heap_allocs - before, 0u)
      << "warm Jini alive refresh must not allocate";
  EXPECT_EQ(unit.foreign_registrations(), 1u)
      << "refreshes must not re-register at the registrar";
}

}  // namespace
}  // namespace indiss::core
