// Tests for the SDP event parsers: the paper's Fig 4 event sequences.
#include <gtest/gtest.h>

#include "core/units/jini_unit.hpp"
#include "core/units/mdns_unit.hpp"
#include "core/units/slp_unit.hpp"
#include "core/units/upnp_unit.hpp"
#include "jini/discovery.hpp"
#include "mdns/dns.hpp"
#include "slp/wire.hpp"
#include "upnp/description.hpp"
#include "upnp/http_server.hpp"
#include "upnp/ssdp.hpp"

namespace indiss::core {
namespace {

MessageContext multicast_ctx() {
  MessageContext ctx;
  ctx.source = net::Endpoint{net::IpAddress(10, 0, 0, 1), 41000};
  ctx.destination = net::Endpoint{net::IpAddress(239, 255, 255, 253), 427};
  ctx.multicast = true;
  return ctx;
}

bool has_event(const EventStream& s, EventType t) {
  return find_event(s, t) != nullptr;
}

TEST(SlpParser, SrvRqstProducesFig4Events) {
  slp::SrvRqst request;
  request.header.xid = 42;
  request.service_type = "service:clock";
  request.predicate = "(friendlyName=Clock*)";
  request.scope_list = "DEFAULT";

  SlpEventParser parser;
  CollectingSink sink;
  parser.parse(slp::encode(slp::Message(request)), multicast_ctx(), sink);
  const EventStream& s = sink.stream();

  // "The event stream always starts with SDP_C_START and ends with
  //  SDP_C_STOP" (paper §2.4).
  EXPECT_TRUE(well_framed(s));
  EXPECT_TRUE(has_event(s, EventType::kNetMulticast));
  EXPECT_TRUE(has_event(s, EventType::kNetSourceAddr));
  EXPECT_TRUE(has_event(s, EventType::kServiceRequest));
  // SLP-specific events of Fig 4.
  EXPECT_TRUE(has_event(s, EventType::kSlpReqVersion));
  EXPECT_TRUE(has_event(s, EventType::kSlpReqScope));
  EXPECT_TRUE(has_event(s, EventType::kSlpReqPredicate));
  EXPECT_TRUE(has_event(s, EventType::kSlpReqId));
  EXPECT_EQ(find_event(s, EventType::kSlpReqId)->get("xid"), "42");
  EXPECT_EQ(find_event(s, EventType::kServiceTypeIs)->get("type"), "clock");
}

TEST(SlpParser, SrvRplyCarriesUrlsAndTtls) {
  slp::SrvRply reply;
  reply.header.xid = 42;
  reply.url_entries = {
      slp::UrlEntry{300, "service:clock:soap://10.0.0.2:4005/control"}};
  SlpEventParser parser;
  CollectingSink sink;
  auto ctx = multicast_ctx();
  ctx.multicast = false;
  parser.parse(slp::encode(slp::Message(reply)), ctx, sink);
  const EventStream& s = sink.stream();
  EXPECT_TRUE(has_event(s, EventType::kServiceResponse));
  EXPECT_TRUE(has_event(s, EventType::kResOk));
  EXPECT_EQ(find_event(s, EventType::kResServUrl)->get("url"),
            "soap://10.0.0.2:4005/control");
  EXPECT_EQ(find_event(s, EventType::kResTtl)->get("seconds"), "300");
}

TEST(SlpParser, MalformedInputYieldsErrorEventNotCrash) {
  SlpEventParser parser;
  CollectingSink sink;
  Bytes garbage{0xFF, 0x00, 0x01};
  parser.parse(garbage, multicast_ctx(), sink);
  EXPECT_TRUE(well_framed(sink.stream()));
  EXPECT_TRUE(has_event(sink.stream(), EventType::kResErr));
}

TEST(SlpParser, SrvRegBecomesRegistrationEvents) {
  slp::SrvReg reg;
  reg.service_type = "service:clock";
  reg.url_entry = slp::UrlEntry{120, "service:clock:soap://10.0.0.2:4005/c"};
  reg.attr_list = "(friendlyName=Clock)";
  SlpEventParser parser;
  CollectingSink sink;
  parser.parse(slp::encode(slp::Message(reg)), multicast_ctx(), sink);
  EXPECT_TRUE(has_event(sink.stream(), EventType::kRegRegister));
  EXPECT_TRUE(has_event(sink.stream(), EventType::kServiceAttr));
}

// --- compose_slp_reply: each attribute goes to its own item's URL ---------

std::vector<std::string> composed_urls(const EventStream& stream) {
  slp::SrvRply reply;
  std::string scratch;
  compose_slp_reply(stream, "clock", 42, 300, /*attrs_in_url=*/true, reply,
                    scratch);
  std::vector<std::string> urls;
  for (const auto& entry : reply.url_entries) urls.push_back(entry.url);
  return urls;
}

Event attr(std::string_view key, std::string_view value) {
  return Event(EventType::kServiceAttr, {{"key", key}, {"value", value}});
}
Event url(std::string_view value) {
  return Event(EventType::kResServUrl, {{"url", value}});
}
Event type_is(std::string_view value) {
  return Event(EventType::kServiceTypeIs, {{"type", value}});
}

TEST(SlpCompose, JiniLookupItemAttributesPrecedeTheirUrl) {
  // JiniUnit::compose_native_request's shape: per item its attributes, its
  // URL, then its type.
  EventStream stream{Event(EventType::kControlStart),
                     Event(EventType::kNetType, {{"sdp", "jini"}}),
                     Event(EventType::kServiceResponse),
                     attr("room", "hall"),
                     attr("bridged-by", "INDISS"),
                     url("soap://10.0.0.2:4005/a"),
                     type_is("clock"),
                     attr("bridged-by", "INDISS"),
                     url("soap://10.0.0.3:4005/b"),
                     type_is("clock"),
                     url("soap://10.0.0.4:4005/c"),
                     type_is("clock"),
                     Event(EventType::kControlStop)};
  EXPECT_EQ(composed_urls(stream),
            (std::vector<std::string>{
                "service:clock:soap://10.0.0.2:4005/a;room:\"hall\";"
                "bridged-by:\"INDISS\"",
                "service:clock:soap://10.0.0.3:4005/b;bridged-by:\"INDISS\"",
                "service:clock:soap://10.0.0.4:4005/c"}));
}

TEST(SlpCompose, DirectoryRecordAttributesPrecedeTheirUrl) {
  // Unit::try_answer_from_directory's shape: per record its type, USN,
  // attributes, TTL and URL.
  EventStream stream{Event(EventType::kControlStart),
                     Event(EventType::kServiceResponse),
                     Event(EventType::kResOk),
                     type_is("clock"),
                     Event(EventType::kUpnpUsn, {{"usn", "uuid:a::clock"}}),
                     attr("friendlyName", "Hall Clock"),
                     Event(EventType::kResTtl, {{"seconds", "120"}}),
                     url("soap://10.0.0.2:4005/a"),
                     type_is("clock"),
                     Event(EventType::kResTtl, {{"seconds", "120"}}),
                     url("soap://10.0.0.3:4005/b"),
                     type_is("clock"),
                     attr("friendlyName", "Lab Clock"),
                     attr("room", "lab"),
                     Event(EventType::kResTtl, {{"seconds", "120"}}),
                     url("soap://10.0.0.4:4005/c"),
                     Event(EventType::kControlStop)};
  EXPECT_EQ(composed_urls(stream),
            (std::vector<std::string>{
                "service:clock:soap://10.0.0.2:4005/a;"
                "friendlyName:\"Hall Clock\"",
                "service:clock:soap://10.0.0.3:4005/b",
                "service:clock:soap://10.0.0.4:4005/c;"
                "friendlyName:\"Lab Clock\";room:\"lab\""}));
}

TEST(SlpCompose, MdnsTxtAttributesStayWithTheirInstanceEitherSideOfUrl) {
  // A DNS-SD response for two instances: the first TXT lists `url` before
  // its other keys, the second after them.
  mdns::DnsMessage response;
  response.flags = mdns::kFlagResponse | mdns::kFlagAuthoritative;
  for (std::string_view instance : {"hall._clock._tcp.local",
                                    "lab._clock._tcp.local"}) {
    mdns::DnsRecord ptr;
    ptr.name = "_clock._tcp.local";
    ptr.type = mdns::kTypePtr;
    ptr.ttl = 120;
    ptr.target = instance;
    response.answers.push_back(ptr);
  }
  auto srv = [](std::string name, std::uint16_t port) {
    mdns::DnsRecord record;
    record.name = std::move(name);
    record.type = mdns::kTypeSrv;
    record.ttl = 120;
    record.target = "host.local";
    record.port = port;
    return record;
  };
  auto txt = [](std::string name,
                std::vector<std::pair<std::string, std::string>> entries) {
    mdns::DnsRecord record;
    record.name = std::move(name);
    record.type = mdns::kTypeTxt;
    record.ttl = 120;
    record.txt = std::move(entries);
    return record;
  };
  response.additionals.push_back(srv("hall._clock._tcp.local", 4005));
  response.additionals.push_back(
      txt("hall._clock._tcp.local",
          {{"url", "soap://10.0.0.2:4005/a"}, {"room", "hall"}}));
  response.additionals.push_back(srv("lab._clock._tcp.local", 4006));
  response.additionals.push_back(
      txt("lab._clock._tcp.local",
          {{"room", "lab"}, {"url", "soap://10.0.0.3:4006/b"}}));

  MdnsEventParser parser;
  CollectingSink sink;
  MessageContext ctx;
  ctx.source = net::Endpoint{net::IpAddress(10, 0, 0, 2), mdns::kMdnsPort};
  parser.parse(mdns::encode(response), ctx, sink);
  ASSERT_TRUE(well_framed(sink.stream()));
  EXPECT_EQ(composed_urls(sink.stream()),
            (std::vector<std::string>{
                "service:clock:soap://10.0.0.2:4005/a;room:\"hall\"",
                "service:clock:soap://10.0.0.3:4006/b;room:\"lab\""}));
}

TEST(SlpCompose, AttributesStayOffTheUrlWhenNotFolded) {
  EventStream stream{Event(EventType::kControlStart), attr("room", "hall"),
                     url("soap://10.0.0.2:4005/a"),
                     Event(EventType::kControlStop)};
  slp::SrvRply reply;
  std::string scratch;
  ASSERT_EQ(compose_slp_reply(stream, "clock", 42, 300,
                              /*attrs_in_url=*/false, reply, scratch),
            1u);
  EXPECT_EQ(reply.url_entries[0].url, "service:clock:soap://10.0.0.2:4005/a");
}

TEST(SsdpParser, MSearchProducesRequestEvents) {
  upnp::SearchRequest request;
  request.st = "urn:schemas-upnp-org:device:clock:1";
  SsdpEventParser parser;
  CollectingSink sink;
  auto ctx = multicast_ctx();
  parser.parse(upnp::encode(request), ctx, sink);
  const EventStream& s = sink.stream();
  EXPECT_TRUE(well_framed(s));
  EXPECT_TRUE(has_event(s, EventType::kServiceRequest));
  EXPECT_EQ(find_event(s, EventType::kServiceTypeIs)->get("type"), "clock");
  EXPECT_EQ(find_event(s, EventType::kUpnpSearchTarget)->get("st"),
            request.st);
}

TEST(SsdpParser, SearchResponseLacksServUrlButHasDescriptionUrl) {
  // The pivotal §2.4 property: a UPnP search answer does NOT contain the
  // service URL, only the description LOCATION; INDISS must chase it.
  upnp::SearchResponse response;
  response.st = "urn:schemas-upnp-org:device:clock:1";
  response.usn = "uuid:ClockDevice::upnp:clock";
  response.location = "http://128.93.8.112:4004/description.xml";
  SsdpEventParser parser;
  CollectingSink sink;
  MessageContext ctx;
  parser.parse(upnp::encode(response), ctx, sink);
  const EventStream& s = sink.stream();
  EXPECT_FALSE(has_event(s, EventType::kResServUrl));
  EXPECT_EQ(find_event(s, EventType::kUpnpDeviceUrlDesc)->get("url"),
            response.location);
  EXPECT_TRUE(has_event(s, EventType::kServiceResponse));
}

TEST(SsdpParser, HttpDescriptionResponseEmitsParserSwitch) {
  std::string xml = upnp::make_clock_device().to_xml();

  SsdpEventParser parser;
  CollectingSink sink;
  MessageContext ctx;
  parser.parse(upnp::http_response("200 OK", {}, xml), ctx, sink);
  const EventStream& s = sink.stream();
  const Event* sw = find_event(s, EventType::kControlParserSwitch);
  ASSERT_NE(sw, nullptr);
  EXPECT_EQ(sw->get("parser"), "upnp-xml");
  EXPECT_EQ(sw->get("payload"), xml);
  // The SSDP parser stops at the switch; SDP_C_STOP comes from the XML
  // parser continuation.
  EXPECT_NE(s.back().type, EventType::kControlStop);
}

TEST(DescriptionParser, EmitsAttrsTypeAndControlUrl) {
  auto description = upnp::make_clock_device();
  UpnpDescriptionParser parser;
  CollectingSink sink;
  MessageContext ctx;
  ctx.continuation = true;
  parser.parse(to_bytes(description.to_xml()), ctx, sink);
  const EventStream& s = sink.stream();
  EXPECT_EQ(s.back().type, EventType::kControlStop);
  EXPECT_EQ(find_event(s, EventType::kResServUrl)->get("url"),
            "/service/timer/control");
  EXPECT_EQ(find_event(s, EventType::kServiceTypeIs)->get("type"), "clock");
  bool friendly = false;
  for (const auto& e : s) {
    if (e.type == EventType::kServiceAttr &&
        e.get("key") == "friendlyName") {
      friendly = e.get("value") == "CyberGarage Clock Device";
    }
  }
  EXPECT_TRUE(friendly);
}

TEST(DescriptionParser, BadXmlYieldsError) {
  UpnpDescriptionParser parser;
  CollectingSink sink;
  MessageContext ctx;
  ctx.continuation = true;
  parser.parse(to_bytes("<broken"), ctx, sink);
  EXPECT_TRUE(has_event(sink.stream(), EventType::kResErr));
  EXPECT_EQ(sink.stream().back().type, EventType::kControlStop);
}

TEST(JiniParser, AnnouncementYieldsRepositoryEvent) {
  jini::MulticastAnnouncement announcement;
  announcement.registrar_host = "10.0.0.9";
  announcement.registrar_port = 4160;
  announcement.registrar_id = 77;
  JiniEventParser parser;
  CollectingSink sink;
  parser.parse(announcement.encode(), multicast_ctx(), sink);
  const EventStream& s = sink.stream();
  EXPECT_TRUE(well_framed(s));
  const Event* repo = find_event(s, EventType::kDiscRepositoryFound);
  ASSERT_NE(repo, nullptr);
  EXPECT_EQ(repo->get("host"), "10.0.0.9");
  EXPECT_EQ(repo->get("id"), "77");
}

TEST(JiniParser, RequestYieldsRepoQueryEvent) {
  jini::MulticastRequest request;
  request.response_port = 45000;
  JiniEventParser parser;
  CollectingSink sink;
  parser.parse(request.encode(), multicast_ctx(), sink);
  EXPECT_TRUE(
      has_event(sink.stream(), EventType::kDiscRepositoryQuery));
}

// Property: every parser frames correctly on arbitrary junk input.
class JunkInput : public ::testing::TestWithParam<int> {};

TEST_P(JunkInput, AllParsersStayWellFramedOnJunk) {
  Bytes junk;
  unsigned seed = static_cast<unsigned>(GetParam());
  for (int i = 0; i < 64; ++i) {
    seed = seed * 1103515245 + 12345;
    junk.push_back(static_cast<std::uint8_t>(seed >> 16));
  }
  for (auto make : {+[]() -> SdpParser* { return new SlpEventParser; },
                    +[]() -> SdpParser* { return new SsdpEventParser; },
                    +[]() -> SdpParser* { return new JiniEventParser; }}) {
    std::unique_ptr<SdpParser> parser(make());
    CollectingSink sink;
    parser->parse(junk, multicast_ctx(), sink);
    EXPECT_TRUE(well_framed(sink.stream())) << parser->name();
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, JunkInput, ::testing::Range(1, 21));

}  // namespace
}  // namespace indiss::core
