// Tests for the SDP event parsers: the paper's Fig 4 event sequences.
#include <gtest/gtest.h>

#include "core/units/jini_unit.hpp"
#include "core/units/slp_unit.hpp"
#include "core/units/upnp_unit.hpp"
#include "jini/discovery.hpp"
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
