// UPnP stack tests: SSDP message round trips, description documents, root
// device behaviour and control-point discovery.
#include <gtest/gtest.h>

#include <algorithm>
#include <iterator>
#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "core/units/upnp_unit.hpp"
#include "net/host.hpp"
#include "net/udp.hpp"
#include "net/network.hpp"
#include "sim/scheduler.hpp"
#include "upnp/control_point.hpp"
#include "upnp/description.hpp"
#include "upnp/device.hpp"
#include "upnp/http_client.hpp"
#include "upnp/ssdp.hpp"

namespace indiss::upnp {
namespace {

TEST(Ssdp, SearchRequestRoundTrip) {
  SearchRequest request;
  request.st = "urn:schemas-upnp-org:device:clock:1";
  request.mx = 2;
  auto parsed = parse_ssdp(encode(request));
  ASSERT_TRUE(parsed.has_value());
  auto* req = std::get_if<SearchRequest>(&*parsed);
  ASSERT_NE(req, nullptr);
  EXPECT_EQ(req->st, request.st);
  EXPECT_EQ(req->mx, 2);
}

TEST(Ssdp, SearchResponseRoundTrip) {
  SearchResponse response;
  response.st = "upnp:clock";
  response.usn = "uuid:ClockDevice::upnp:clock";
  response.location = "http://128.93.8.112:4004/description.xml";
  response.max_age_seconds = 900;
  auto parsed = parse_ssdp(encode(response));
  ASSERT_TRUE(parsed.has_value());
  auto* rsp = std::get_if<SearchResponse>(&*parsed);
  ASSERT_NE(rsp, nullptr);
  EXPECT_EQ(rsp->location, response.location);
  EXPECT_EQ(rsp->max_age_seconds, 900);
}

TEST(Ssdp, NotifyAliveAndByeByeRoundTrip) {
  Notify alive;
  alive.kind = Notify::Kind::kAlive;
  alive.nt = "urn:schemas-upnp-org:device:clock:1";
  alive.usn = "uuid:X::" + alive.nt;
  alive.location = "http://10.0.0.2:4004/description.xml";
  auto parsed = parse_ssdp(encode(alive));
  auto* a = std::get_if<Notify>(&*parsed);
  ASSERT_NE(a, nullptr);
  EXPECT_EQ(a->kind, Notify::Kind::kAlive);
  EXPECT_EQ(a->location, alive.location);

  Notify bye = alive;
  bye.kind = Notify::Kind::kByeBye;
  auto parsed2 = parse_ssdp(encode(bye));
  auto* b = std::get_if<Notify>(&*parsed2);
  ASSERT_NE(b, nullptr);
  EXPECT_EQ(b->kind, Notify::Kind::kByeBye);
}

TEST(Ssdp, RejectsNonSsdpTraffic) {
  EXPECT_FALSE(parse_ssdp(to_bytes("GET / HTTP/1.1\r\n\r\n")).has_value());
  EXPECT_FALSE(parse_ssdp(to_bytes("binary\x01\x02garbage")).has_value());
}

// The reading rule for malformed input, shared by the native stacks
// (parse_ssdp) and the gateway (SsdpEventParser) through SsdpReader.
TEST(SsdpReader, FirstOccurrenceOfAHeaderWins) {
  auto parsed = parse_ssdp(to_bytes(
      "NOTIFY * HTTP/1.1\r\nNT: urn:a\r\nNT: urn:b\r\nNTS: ssdp:alive\r\n"
      "USN: uuid:1\r\nUSN: uuid:2\r\n\r\n"));
  ASSERT_TRUE(parsed.has_value());
  const auto& notify = std::get<Notify>(*parsed);
  EXPECT_EQ(notify.nt, "urn:a");
  EXPECT_EQ(notify.usn, "uuid:1");
}

TEST(SsdpReader, MoreThanOneMessageIsInvalid) {
  std::string one =
      "NOTIFY * HTTP/1.1\r\nNT: urn:a\r\nNTS: ssdp:alive\r\nUSN: uuid:1\r\n"
      "\r\n";
  EXPECT_TRUE(parse_ssdp(to_bytes(one)).has_value());
  EXPECT_FALSE(parse_ssdp(to_bytes(one + one)).has_value());
  // A second start line alone is already a second message.
  EXPECT_FALSE(parse_ssdp(to_bytes(one + "NOTIFY * HTTP/1.1\r\n")).has_value());
  SsdpReader reader;
  EXPECT_EQ(reader.read(to_bytes(one + one)), SsdpReader::Kind::kInvalid);
  EXPECT_EQ(reader.read(to_bytes(one)), SsdpReader::Kind::kAlive);
}

TEST(SsdpReader, MaxAgeReadOnNotifyAndResponse) {
  auto notify = parse_ssdp(to_bytes(
      "NOTIFY * HTTP/1.1\r\nNT: urn:a\r\nNTS: ssdp:alive\r\nUSN: uuid:1\r\n"
      "CACHE-CONTROL: max-age=120\r\n\r\n"));
  ASSERT_TRUE(notify.has_value());
  EXPECT_EQ(std::get<Notify>(*notify).max_age_seconds, 120);
  auto response = parse_ssdp(to_bytes(
      "HTTP/1.1 200 OK\r\nST: urn:a\r\nUSN: uuid:1\r\n"
      "CACHE-CONTROL: max-age=60\r\nCACHE-CONTROL: max-age=5\r\n\r\n"));
  ASSERT_TRUE(response.has_value());
  EXPECT_EQ(std::get<SearchResponse>(*response).max_age_seconds, 60);
}

TEST(SsdpReader, SortsEveryKind) {
  SsdpReader reader;
  SearchRequest search;
  search.st = "ssdp:all";
  EXPECT_EQ(reader.read(encode(search)), SsdpReader::Kind::kSearch);
  EXPECT_EQ(reader.mx(), 3);
  EXPECT_EQ(reader.man(), "\"ssdp:discover\"");
  SearchResponse response;
  response.st = "upnp:rootdevice";
  response.usn = "uuid:1";
  EXPECT_EQ(reader.read(encode(response)), SsdpReader::Kind::kSearchResponse);
  Notify bye;
  bye.kind = Notify::Kind::kByeBye;
  bye.nt = "upnp:rootdevice";
  bye.usn = "uuid:1";
  EXPECT_EQ(reader.read(encode(bye)), SsdpReader::Kind::kByeBye);
  EXPECT_EQ(reader.read(to_bytes("HTTP/1.1 404 Not Found\r\n"
                                 "Content-Length: 3\r\n\r\nabc")),
            SsdpReader::Kind::kHttpResponse);
  EXPECT_EQ(reader.status(), 404);
  EXPECT_EQ(reader.body(), "abc");
  // A response with ST but no USN is neither a search response nor a plain
  // HTTP response.
  EXPECT_EQ(reader.read(to_bytes("HTTP/1.1 200 OK\r\nST: x\r\n\r\n")),
            SsdpReader::Kind::kInvalid);
  EXPECT_EQ(reader.read(to_bytes("NOTIFY * HTTP/1.1\r\nNT: x\r\nUSN: u\r\n"
                                 "NTS: ssdp:update\r\n\r\n")),
            SsdpReader::Kind::kInvalid);
}

// Exact SSDP wire bytes, one golden per message kind. They pin the writer:
// every SSDP frame a native stack or the gateway sends comes out of
// serialize_into.
std::string serialized(const auto& message) {
  std::string out = "stale scratch contents";
  message.serialize_into(out);
  return out;
}

TEST(SsdpGolden, SearchRequestWithUserAgentBytes) {
  SearchRequest request;
  request.st = "urn:schemas-upnp-org:device:clock:1";
  request.mx = 2;
  request.user_agent = "INDISS-bridge/1.0 UPnP/1.0";
  EXPECT_EQ(serialized(request),
            "M-SEARCH * HTTP/1.1\r\n"
            "HOST: 239.255.255.250:1900\r\n"
            "MAN: \"ssdp:discover\"\r\n"
            "MX: 2\r\n"
            "ST: urn:schemas-upnp-org:device:clock:1\r\n"
            "USER-AGENT: INDISS-bridge/1.0 UPnP/1.0\r\n"
            "\r\n");
}

TEST(SsdpGolden, SearchRequestWithoutUserAgentBytes) {
  SearchRequest request;
  request.st = "ssdp:all";
  EXPECT_EQ(serialized(request),
            "M-SEARCH * HTTP/1.1\r\n"
            "HOST: 239.255.255.250:1900\r\n"
            "MAN: \"ssdp:discover\"\r\n"
            "MX: 3\r\n"
            "ST: ssdp:all\r\n"
            "\r\n");
}

TEST(SsdpGolden, SearchResponseBytes) {
  SearchResponse response;
  response.st = "urn:schemas-upnp-org:device:clock:1";
  response.usn = "uuid:ClockDevice::urn:schemas-upnp-org:device:clock:1";
  response.location = "http://10.0.0.2:4004/description.xml";
  response.max_age_seconds = 900;
  EXPECT_EQ(serialized(response),
            "HTTP/1.1 200 OK\r\n"
            "CACHE-CONTROL: max-age=900\r\n"
            "EXT: \r\n"
            "LOCATION: http://10.0.0.2:4004/description.xml\r\n"
            "SERVER: INDISS-sim/1.0 UPnP/1.0\r\n"
            "ST: urn:schemas-upnp-org:device:clock:1\r\n"
            "USN: uuid:ClockDevice::urn:schemas-upnp-org:device:clock:1\r\n"
            "Content-Length: 0\r\n"
            "\r\n");
}

TEST(SsdpGolden, NotifyAliveBytes) {
  Notify notify;
  notify.nt = "upnp:rootdevice";
  notify.usn = "uuid:ClockDevice::upnp:rootdevice";
  notify.location = "http://10.0.0.2:4004/description.xml";
  notify.server = "INDISS-bridge/1.0 UPnP/1.0";
  notify.max_age_seconds = 120;
  EXPECT_EQ(serialized(notify),
            "NOTIFY * HTTP/1.1\r\n"
            "HOST: 239.255.255.250:1900\r\n"
            "NT: upnp:rootdevice\r\n"
            "NTS: ssdp:alive\r\n"
            "USN: uuid:ClockDevice::upnp:rootdevice\r\n"
            "CACHE-CONTROL: max-age=120\r\n"
            "LOCATION: http://10.0.0.2:4004/description.xml\r\n"
            "SERVER: INDISS-bridge/1.0 UPnP/1.0\r\n"
            "\r\n");
}

TEST(SsdpGolden, NotifyByeByeBytes) {
  Notify notify;
  notify.kind = Notify::Kind::kByeBye;
  notify.nt = "urn:schemas-upnp-org:device:clock:1";
  notify.usn = "uuid:ClockDevice::urn:schemas-upnp-org:device:clock:1";
  notify.location = "http://10.0.0.2:4004/description.xml";  // not written
  EXPECT_EQ(serialized(notify),
            "NOTIFY * HTTP/1.1\r\n"
            "HOST: 239.255.255.250:1900\r\n"
            "NT: urn:schemas-upnp-org:device:clock:1\r\n"
            "NTS: ssdp:byebye\r\n"
            "USN: uuid:ClockDevice::urn:schemas-upnp-org:device:clock:1\r\n"
            "\r\n");
}

TEST(Description, XmlRoundTripPreservesEverything) {
  DeviceDescription device = make_clock_device();
  auto xml = device.to_xml();
  auto parsed = DeviceDescription::from_xml(xml);
  ASSERT_TRUE(parsed.has_value());
  EXPECT_EQ(*parsed, device);
}

TEST(Description, RejectsMissingMandatoryFields) {
  EXPECT_FALSE(DeviceDescription::from_xml("<root><device/></root>")
                   .has_value());
  EXPECT_FALSE(DeviceDescription::from_xml("not xml").has_value());
}

// --- Description goldens -----------------------------------------------------
//
// The writer's exact bytes and the reader's extraction rule. A served
// description is part of the wire, and the rule decides which elements of a
// foreign document count, so an expected value here changes only with the
// protocol behaviour it pins.

std::string fields(const std::optional<DeviceDescription>& d) {
  if (!d.has_value()) return "nullopt";
  std::string out = d->device_type + "|" + d->friendly_name + "|" +
                    d->manufacturer + "|" + d->manufacturer_url + "|" +
                    d->model_description + "|" + d->model_name + "|" +
                    d->model_number + "|" + d->model_url + "|" + d->udn + "|" +
                    d->presentation_url + "|" + std::to_string(d->spec_major) +
                    "." + std::to_string(d->spec_minor);
  for (const auto& s : d->services) {
    out += "|[" + s.service_type + "," + s.service_id + "," + s.scpd_url +
           "," + s.control_url + "," + s.event_sub_url + "]";
  }
  return out;
}

constexpr char kClockXml[] =
    "<?xml version=\"1.0\"?>\n"
    "<root xmlns=\"urn:schemas-upnp-org:device-1-0\">\n"
    "  <specVersion>\n"
    "    <major>1</major>\n"
    "    <minor>0</minor>\n"
    "  </specVersion>\n"
    "  <device>\n"
    "    <deviceType>urn:schemas-upnp-org:device:clock:1</deviceType>\n"
    "    <friendlyName>CyberGarage Clock Device</friendlyName>\n"
    "    <manufacturer>CyberGarage</manufacturer>\n"
    "    <manufacturerURL>http://www.cybergarage.org</manufacturerURL>\n"
    "    <modelDescription>CyberUPnP Clock Device</modelDescription>\n"
    "    <modelName>Clock</modelName>\n"
    "    <modelNumber>1.0</modelNumber>\n"
    "    <modelURL>http://www.cybergarage.org</modelURL>\n"
    "    <UDN>uuid:ClockDevice</UDN>\n"
    "    <serviceList>\n"
    "      <service>\n"
    "        <serviceType>urn:schemas-upnp-org:service:timer:1</serviceType>\n"
    "        <serviceId>urn:upnp-org:serviceId:timer</serviceId>\n"
    "        <SCPDURL>/service/timer/scpd.xml</SCPDURL>\n"
    "        <controlURL>/service/timer/control</controlURL>\n"
    "        <eventSubURL>/service/timer/event</eventSubURL>\n"
    "      </service>\n"
    "    </serviceList>\n"
    "  </device>\n"
    "</root>\n";

constexpr char kEmptyXml[] =
    "<?xml version=\"1.0\"?>\n"
    "<root xmlns=\"urn:schemas-upnp-org:device-1-0\">\n"
    "  <specVersion>\n"
    "    <major>2</major>\n"
    "    <minor>7</minor>\n"
    "  </specVersion>\n"
    "  <device>\n"
    "    <deviceType>urn:schemas-upnp-org:device:empty:1</deviceType>\n"
    "    <friendlyName/>\n"
    "    <manufacturer/>\n"
    "    <modelName/>\n"
    "    <UDN>uuid:Empty</UDN>\n"
    "    <serviceList>\n"
    "      <service>\n"
    "        <serviceType/>\n"
    "        <serviceId/>\n"
    "        <SCPDURL/>\n"
    "        <controlURL/>\n"
    "        <eventSubURL/>\n"
    "      </service>\n"
    "    </serviceList>\n"
    "  </device>\n"
    "</root>\n";

constexpr char kEscapedXml[] =
    "<?xml version=\"1.0\"?>\n"
    "<root xmlns=\"urn:schemas-upnp-org:device-1-0\">\n"
    "  <specVersion>\n"
    "    <major>1</major>\n"
    "    <minor>0</minor>\n"
    "  </specVersion>\n"
    "  <device>\n"
    "    <deviceType>urn:schemas-upnp-org:device:clock:1</deviceType>\n"
    "    <friendlyName>Tom &amp; Jerry&apos;s &lt;&quot;Clock&quot;&gt;"
    "</friendlyName>\n"
    "    <manufacturer>CyberGarage</manufacturer>\n"
    "    <manufacturerURL>http://www.cybergarage.org</manufacturerURL>\n"
    "    <modelDescription>CyberUPnP Clock Device</modelDescription>\n"
    "    <modelName>Clock</modelName>\n"
    "    <modelNumber>1.0</modelNumber>\n"
    "    <modelURL>http://www.cybergarage.org</modelURL>\n"
    "    <UDN>uuid:&lt;&amp;&gt;</UDN>\n"
    "    <presentationURL>/present?a&amp;b</presentationURL>\n"
    "    <serviceList>\n"
    "      <service>\n"
    "        <serviceType>urn:schemas-upnp-org:service:timer:1</serviceType>\n"
    "        <serviceId>urn:upnp-org:serviceId:timer</serviceId>\n"
    "        <SCPDURL>/service/timer/scpd.xml</SCPDURL>\n"
    "        <controlURL>/c?a=1&amp;b=&apos;2&apos;</controlURL>\n"
    "        <eventSubURL>/service/timer/event</eventSubURL>\n"
    "      </service>\n"
    "    </serviceList>\n"
    "  </device>\n"
    "</root>\n";

TEST(DescriptionGolden, ClockDeviceBytes) {
  EXPECT_EQ(make_clock_device().to_xml(), kClockXml);
}

TEST(DescriptionGolden, EmptyOptionalFieldsBytes) {
  DeviceDescription device;
  device.device_type = "urn:schemas-upnp-org:device:empty:1";
  device.udn = "uuid:Empty";
  device.spec_major = 2;
  device.spec_minor = 7;
  device.services.push_back(ServiceDescription{});
  std::string xml = device.to_xml();
  EXPECT_EQ(xml, kEmptyXml);
  EXPECT_EQ(DeviceDescription::from_xml(xml), device);
}

TEST(DescriptionGolden, EscapedFieldBytes) {
  DeviceDescription device = make_clock_device("uuid:<&>");
  device.friendly_name = "Tom & Jerry's <\"Clock\">";
  device.presentation_url = "/present?a&b";
  device.services.front().control_url = "/c?a=1&b='2'";
  std::string xml = device.to_xml();
  EXPECT_EQ(xml, kEscapedXml);
  EXPECT_EQ(DeviceDescription::from_xml(xml), device);
}

TEST(DescriptionGolden, FirstElementOfEachNameWins) {
  EXPECT_EQ(fields(DeviceDescription::from_xml(
                "<root><device>"
                "<deviceType>urn:a:device:first:1</deviceType>"
                "<deviceType>urn:a:device:second:1</deviceType>"
                "<UDN>uuid:one</UDN><UDN>uuid:two</UDN>"
                "<friendlyName/><friendlyName>late</friendlyName>"
                "</device></root>")),
            "urn:a:device:first:1||||||||uuid:one||1.0");
}

TEST(DescriptionGolden, EmbeddedDeviceListIgnored) {
  EXPECT_EQ(fields(DeviceDescription::from_xml(
                "<root><device><deviceList><device>"
                "<deviceType>urn:a:device:inner:1</deviceType>"
                "<friendlyName>Inner</friendlyName><UDN>uuid:inner</UDN>"
                "<serviceList><service><serviceType>inner-svc</serviceType>"
                "</service></serviceList>"
                "</device></deviceList>"
                "<deviceType>urn:a:device:outer:1</deviceType>"
                "<UDN>uuid:outer</UDN></device></root>")),
            "urn:a:device:outer:1||||||||uuid:outer||1.0");
}

TEST(DescriptionGolden, OnlyServicesOfTheFirstServiceListCount) {
  EXPECT_EQ(fields(DeviceDescription::from_xml(
                "<root><device><deviceType>t</deviceType><UDN>u</UDN>"
                "<serviceList>"
                "<service><serviceType>s1</serviceType>"
                "<serviceType>s1b</serviceType><controlURL>/c1</controlURL>"
                "</service>"
                "<other><serviceType>x</serviceType></other>"
                "<service><controlURL>/c2</controlURL></service>"
                "</serviceList>"
                "<serviceList><service><serviceType>s3</serviceType>"
                "</service></serviceList>"
                "</device></root>")),
            "t||||||||u||1.0|[s1,,,/c1,]|[,,,/c2,]");
}

TEST(DescriptionGolden, MixedContentKeepsOnlyOwnTrimmedText) {
  EXPECT_EQ(fields(DeviceDescription::from_xml(
                "<root><device><deviceType>t</deviceType><UDN>u</UDN>"
                "<friendlyName> Big <b>bold</b> Clock </friendlyName>"
                "<modelName>a<x>b<y>c</y></x>d</modelName>"
                "</device></root>")),
            "t|BigClock||||ad|||u||1.0");
}

TEST(DescriptionGolden, CommentsCdataAndEntities) {
  EXPECT_EQ(fields(DeviceDescription::from_xml(
                "<?xml version=\"1.0\"?><!-- lead --><root><device>"
                "<deviceType>t</deviceType><UDN>u&#x41;&#66;</UDN>"
                "<friendlyName>A &amp; B<!-- c --> <![CDATA[<C> & D]]> "
                "&lt;E&gt;</friendlyName>"
                "<modelNumber><![CDATA[]]></modelNumber>"
                "</device></root>")),
            "t|A & B <C> & D <E>|||||||uAB||1.0");
}

TEST(DescriptionGolden, RootAndDevicePlacement) {
  EXPECT_EQ(fields(DeviceDescription::from_xml(
                "<notroot><device><deviceType>t</deviceType><UDN>u</UDN>"
                "</device></notroot>")),
            "nullopt");
  EXPECT_EQ(fields(DeviceDescription::from_xml(
                "<root><wrapper><device><deviceType>t</deviceType><UDN>u</UDN>"
                "</device></wrapper></root>")),
            "nullopt");
  EXPECT_EQ(fields(DeviceDescription::from_xml(
                "<root><device><specVersion><major>5</major></specVersion>"
                "<deviceType>t</deviceType></device></root>")),
            "nullopt");
  EXPECT_EQ(fields(DeviceDescription::from_xml(
                "<root><device><deviceType>t</deviceType>"
                "<UDN><!-- only a comment --></UDN></device></root>")),
            "nullopt");
  EXPECT_EQ(fields(DeviceDescription::from_xml(
                "<root xmlns=\"urn:schemas-upnp-org:device-1-0\">"
                "<device a=\"1\"><deviceType>t</deviceType><UDN>u</UDN>"
                "<serviceList/></device></root>")),
            "t||||||||u||1.0");
}

TEST(DescriptionGolden, SpecVersionDefaults) {
  EXPECT_EQ(fields(DeviceDescription::from_xml(
                "<root><specVersion><major/><minor></minor></specVersion>"
                "<device><deviceType>t</deviceType><UDN>u</UDN></device>"
                "</root>")),
            "t||||||||u||1.0");
  EXPECT_EQ(fields(DeviceDescription::from_xml(
                "<root><specVersion><major> 3 </major><major>4</major>"
                "<minor>x</minor></specVersion>"
                "<specVersion><major>9</major><minor>9</minor></specVersion>"
                "<device><deviceType>t</deviceType><UDN>u</UDN></device>"
                "<device><deviceType>t2</deviceType><UDN>u2</UDN>"
                "<friendlyName>second</friendlyName></device></root>")),
            "t||||||||u||3.0");
}

TEST(Description, UsnForms) {
  auto device = make_clock_device("uuid:X");
  EXPECT_EQ(device.usn_for("uuid:X"), "uuid:X");
  EXPECT_EQ(device.usn_for(device.device_type),
            "uuid:X::" + device.device_type);
}

struct UpnpFixture : ::testing::Test {
  sim::Scheduler scheduler;
  net::Network network{scheduler, net::LinkProfile{}, 1};
  net::Host& client_host = network.add_host("cp", net::IpAddress(10, 0, 0, 1));
  net::Host& device_host = network.add_host("dev", net::IpAddress(10, 0, 0, 2));
};

TEST_F(UpnpFixture, DeviceAnswersMatchingSearch) {
  RootDevice device(device_host, make_clock_device(), 4004);
  device.start();
  scheduler.run_for(sim::millis(10));  // let the alive burst drain

  ControlPoint cp(client_host);
  std::vector<SearchResponse> responses;
  cp.search("urn:schemas-upnp-org:device:clock:1",
            [&](const SearchResponse& r) { responses.push_back(r); }, nullptr,
            nullptr);
  scheduler.run_for(sim::seconds(1));
  ASSERT_EQ(responses.size(), 1u);
  EXPECT_EQ(responses[0].location,
            "http://10.0.0.2:4004/description.xml");
  EXPECT_EQ(device.msearches_seen(), 1u);
}

TEST_F(UpnpFixture, SearchResponseTakesAboutStackDelay) {
  // Fig 7's UPnP reference: device-side M-SEARCH handling dominates.
  RootDevice device(device_host, make_clock_device(), 4004);
  device.profile().msearch_handling = sim::millis(30);
  device.start();
  scheduler.run_for(sim::millis(10));

  ControlPoint cp(client_host);
  sim::SimTime started = scheduler.now();
  sim::SimTime answered{};
  cp.search("ssdp:all",
            [&](const SearchResponse&) { answered = scheduler.now(); },
            nullptr, nullptr);
  scheduler.run_for(sim::seconds(1));
  ASSERT_GT(answered.count(), 0);
  double ms = sim::to_millis(answered - started);
  EXPECT_GT(ms, 29.0);
  EXPECT_LT(ms, 35.0);
}

TEST_F(UpnpFixture, NonMatchingTargetIgnored) {
  RootDevice device(device_host, make_clock_device(), 4004);
  device.start();
  scheduler.run_for(sim::millis(10));
  ControlPoint cp(client_host);
  int responses = 0;
  cp.search("urn:schemas-upnp-org:device:printer:1",
            [&](const SearchResponse&) { ++responses; }, nullptr, nullptr);
  scheduler.run_for(sim::seconds(1));
  EXPECT_EQ(responses, 0);
  EXPECT_EQ(device.responses_sent(), 0u);
}

TEST_F(UpnpFixture, ControlPointFetchesDescription) {
  RootDevice device(device_host, make_clock_device(), 4004);
  device.start();
  scheduler.run_for(sim::millis(10));
  ControlPoint cp(client_host);
  std::optional<DiscoveredDevice> found;
  cp.search("ssdp:all", nullptr,
            [&](const DiscoveredDevice& d) { found = d; }, nullptr);
  scheduler.run_for(sim::seconds(2));
  ASSERT_TRUE(found.has_value());
  ASSERT_TRUE(found->description.has_value());
  EXPECT_EQ(found->description->friendly_name, "CyberGarage Clock Device");
  ASSERT_EQ(found->description->services.size(), 1u);
  EXPECT_EQ(found->description->services[0].control_url,
            "/service/timer/control");
}

TEST_F(UpnpFixture, PassiveListeningHearsAliveAndByeBye) {
  ControlPoint cp(client_host);
  std::vector<std::string> alive_usns;
  std::vector<std::string> byebye_usns;
  cp.enable_passive_listening(
      [&](const DiscoveredDevice& d) { alive_usns.push_back(d.response.usn); },
      [&](const Notify& n) { byebye_usns.push_back(n.usn); });

  RootDevice device(device_host, make_clock_device(), 4004);
  device.start();
  scheduler.run_for(sim::seconds(1));
  EXPECT_FALSE(alive_usns.empty());
  device.stop();
  scheduler.run_for(sim::seconds(1));
  EXPECT_FALSE(byebye_usns.empty());
}

TEST_F(UpnpFixture, StoppedDeviceIsSilent) {
  RootDevice device(device_host, make_clock_device(), 4004);
  device.start();
  scheduler.run_for(sim::millis(10));
  device.stop();
  scheduler.run_for(sim::millis(10));

  ControlPoint cp(client_host);
  int responses = 0;
  cp.search("ssdp:all", [&](const SearchResponse&) { ++responses; }, nullptr,
            nullptr);
  scheduler.run_for(sim::seconds(1));
  EXPECT_EQ(responses, 0);
}

TEST_F(UpnpFixture, SearchCompleteDeliversAllDevices) {
  RootDevice d1(device_host, make_clock_device("uuid:A"), 4004);
  net::Host& h2 = network.add_host("dev2", net::IpAddress(10, 0, 0, 3));
  RootDevice d2(h2, make_clock_device("uuid:B"), 4004);
  d1.start();
  d2.start();
  scheduler.run_for(sim::millis(10));

  ControlPoint cp(client_host);
  std::vector<DiscoveredDevice> all;
  cp.search("ssdp:all", nullptr, nullptr,
            [&](const std::vector<DiscoveredDevice>& devices) {
              all = devices;
            });
  scheduler.run_for(sim::seconds(2));
  EXPECT_EQ(all.size(), 2u);
}

/// Reads a fetched response the way the control point does.
struct FetchedResponse {
  SsdpReader::Kind kind = SsdpReader::Kind::kInvalid;
  int status = 0;
  std::string body;
};

FetchedResponse read_fetched(BytesView response) {
  SsdpReader reader;
  FetchedResponse fetched;
  fetched.kind = reader.read(response);
  fetched.status = reader.status();
  fetched.body = reader.body();
  return fetched;
}

TEST_F(UpnpFixture, HttpGetAgainstDeviceServer) {
  RootDevice device(device_host, make_clock_device(), 4004);
  device.start();
  std::optional<Bytes> response;
  http_get(client_host,
           *Uri::parse("http://10.0.0.2:4004/description.xml"),
           [&](std::optional<Bytes> r) { response = std::move(r); });
  scheduler.run_for(sim::seconds(1));
  ASSERT_TRUE(response.has_value());
  FetchedResponse fetched = read_fetched(*response);
  EXPECT_EQ(fetched.kind, SsdpReader::Kind::kHttpResponse);
  EXPECT_EQ(fetched.status, 200);
  EXPECT_TRUE(DeviceDescription::from_xml(fetched.body).has_value());
}

TEST_F(UpnpFixture, HttpGet404ForUnknownPath) {
  RootDevice device(device_host, make_clock_device(), 4004);
  device.start();
  std::optional<Bytes> response;
  http_get(client_host, *Uri::parse("http://10.0.0.2:4004/nope"),
           [&](std::optional<Bytes> r) { response = std::move(r); });
  scheduler.run_for(sim::seconds(1));
  ASSERT_TRUE(response.has_value());
  EXPECT_EQ(read_fetched(*response).status, 404);
}

// The client hands over the bytes of the first response exactly as
// received: a second message in the same segment is cut off, and a response
// without Content-Length runs to the close.
TEST_F(UpnpFixture, HttpGetHandsOverTheFirstResponseAsReceived) {
  const std::string first =
      "HTTP/1.1 404 Not Found\r\nContent-Length: 3\r\n\r\nabc";
  const std::string until_close =
      "HTTP/1.1 200 OK\r\nSERVER: x\r\n\r\n<root/>";
  std::string reply;
  std::vector<std::shared_ptr<transport::TcpSocket>> accepted;
  auto listener = device_host.listen_tcp(4004);
  listener->set_accept_handler(
      [&](std::shared_ptr<transport::TcpSocket> socket) {
        transport::TcpSocket* server = socket.get();
        socket->set_data_handler([&, server](BytesView) {
          server->send(to_bytes(reply));
          // A simulated close drops bytes still in flight.
          device_host.schedule(sim::millis(10),
                               [server]() { server->close(); });
        });
        accepted.push_back(std::move(socket));
      });
  auto fetch = [&](std::string bytes) {
    reply = std::move(bytes);
    std::optional<Bytes> response;
    http_get(client_host, *Uri::parse("http://10.0.0.2:4004/description.xml"),
             [&](std::optional<Bytes> r) { response = std::move(r); });
    scheduler.run_for(sim::seconds(1));
    return response;
  };

  EXPECT_EQ(fetch(first + "HTTP/1.1 200 OK\r\n\r\n"), to_bytes(first));
  EXPECT_EQ(fetch(until_close), to_bytes(until_close));
  EXPECT_FALSE(fetch(first.substr(0, first.size() - 1)).has_value())
      << "a response cut short by the close is no response";
}

TEST_F(UpnpFixture, HttpGetConnectionRefusedReportsFailure) {
  bool called = false;
  std::optional<Bytes> response;
  http_get(client_host, *Uri::parse("http://10.0.0.2:4004/description.xml"),
           [&](std::optional<Bytes> r) {
             called = true;
             response = std::move(r);
           });
  scheduler.run_for(sim::seconds(1));
  EXPECT_TRUE(called);
  EXPECT_FALSE(response.has_value());
}

// ---------------------------------------------------------------------------
// Exact HTTP bytes on TCP. Raw sockets capture what goes on the wire, so
// these goldens pin the request and response writers whatever builds the
// frames: the gateway's description GET, the 200s a native device and the
// gateway's impersonated device serve, and the 404.
// ---------------------------------------------------------------------------

std::string text_of(BytesView data) {
  return std::string(reinterpret_cast<const char*>(data.data()), data.size());
}

/// Passes every event a wrapped parser emits on, logging it first.
class RecordingParser : public core::SdpParser {
 public:
  RecordingParser(std::unique_ptr<core::SdpParser> inner,
                  std::vector<std::string>& log)
      : inner_(std::move(inner)), log_(log) {}

  [[nodiscard]] std::string_view name() const override {
    return inner_->name();
  }
  void parse(BytesView raw, const core::MessageContext& ctx,
             core::EventSink& sink) override {
    struct Sink : core::EventSink {
      core::EventSink& inner;
      std::vector<std::string>& log;
      Sink(core::EventSink& i, std::vector<std::string>& l)
          : inner(i), log(l) {}
      void emit(core::Event event) override {
        log.push_back(event.to_string());
        inner.emit(std::move(event));
      }
      core::Event scratch(core::EventType type) override {
        return inner.scratch(type);
      }
    } recording(sink, log_);
    inner_->parse(raw, ctx, recording);
  }

 private:
  std::unique_ptr<core::SdpParser> inner_;
  std::vector<std::string>& log_;
};

/// The UPnP unit with both of its parsers logging what they emit.
struct RecordingUpnpUnit : core::UpnpUnit {
  RecordingUpnpUnit(transport::Transport& host, core::UpnpUnitConfig config)
      : UpnpUnit(host, {}, config) {
    register_parser(std::make_unique<RecordingParser>(
        std::make_unique<core::SsdpEventParser>(), events));
    register_parser(std::make_unique<RecordingParser>(
        std::make_unique<core::UpnpDescriptionParser>(), events));
  }
  using UpnpUnit::on_advertisement;

  std::vector<std::string> events;
};

constexpr std::string_view kSmallDescription =
    "<?xml version=\"1.0\"?>\n"
    "<root xmlns=\"urn:schemas-upnp-org:device-1-0\">"
    "<specVersion><major>1</major><minor>0</minor></specVersion>"
    "<device><deviceType>urn:schemas-upnp-org:device:clock:1</deviceType>"
    "<friendlyName>Clock</friendlyName><UDN>uuid:Clock</UDN>"
    "<serviceList><service><controlURL>/control</controlURL></service>"
    "</serviceList></device></root>\n";

/// The description the gateway serves for a bridged clock service.
constexpr char kBridgedClockXml[] =
    "<?xml version=\"1.0\"?>\n"
    "<root xmlns=\"urn:schemas-upnp-org:device-1-0\">\n"
    "  <specVersion>\n"
    "    <major>1</major>\n"
    "    <minor>0</minor>\n"
    "  </specVersion>\n"
    "  <device>\n"
    "    <deviceType>urn:schemas-upnp-org:device:clock:1</deviceType>\n"
    "    <friendlyName>INDISS bridged clock</friendlyName>\n"
    "    <manufacturer>INDISS</manufacturer>\n"
    "    <modelDescription>Foreign clock service bridged by INDISS"
    "</modelDescription>\n"
    "    <modelName>clock</modelName>\n"
    "    <UDN>uuid:indiss-1</UDN>\n"
    "    <serviceList>\n"
    "      <service>\n"
    "        <serviceType>urn:schemas-upnp-org:service:clock:1</serviceType>\n"
    "        <serviceId>urn:upnp-org:serviceId:clock</serviceId>\n"
    "        <SCPDURL>/indiss/1/description.xml</SCPDURL>\n"
    "        <controlURL>soap://10.0.1.7:4005/clock</controlURL>\n"
    "        <eventSubURL>soap://10.0.1.7:4005/clock</eventSubURL>\n"
    "      </service>\n"
    "    </serviceList>\n"
    "  </device>\n"
    "</root>\n";

/// What the unit's parsers emit for kSmallDescription served with a 200,
/// whichever way the response is framed: SDP_C_PARSER_SWITCH hands the
/// body to the description parser, which closes the stream.
const std::vector<std::string> kExpectedDescriptionEvents = {
    "SDP_C_START",
    "SDP_NET_TYPE{sdp=upnp}",
    "SDP_NET_UNICAST",
    "SDP_NET_SOURCE_ADDR{addr=0.0.0.0, port=0, local=0}",
    "SDP_RES_OK",
    "SDP_C_PARSER_SWITCH{parser=upnp-xml, payload=" +
        std::string(kSmallDescription) + "}",
    "SDP_SERVICE_ATTR{key=friendlyName, value=Clock}",
    "SDP_SERVICE_ATTR{key=major, value=1}",
    "SDP_SERVICE_ATTR{key=minor, value=0}",
    "SDP_SERVICE_TYPE{type=clock, native=urn:schemas-upnp-org:device:clock:1}",
    "SDP_RES_SERV_URL{url=/control, scheme=soap}",
    "SDP_C_STOP",
};

struct HttpGolden : UpnpFixture {
  net::Host& gateway_host =
      network.add_host("gw", net::IpAddress(10, 0, 0, 3));

  /// Sends `request` on a fresh connection from the control point's host
  /// and returns every byte that comes back within a second.
  std::string exchange(std::uint16_t port, std::string_view request,
                       net::IpAddress to = net::IpAddress(10, 0, 0, 2)) {
    std::string received;
    auto socket = client_host.connect_tcp(net::Endpoint{to, port});
    EXPECT_NE(socket, nullptr);
    if (socket == nullptr) return received;
    socket->set_data_handler(
        [&received](BytesView data) { received += text_of(data); });
    socket->send(to_bytes(std::string(request)));
    scheduler.run_for(sim::seconds(1));
    socket->close();
    scheduler.run_for(sim::seconds(1));  // deliver the FIN
    return received;
  }

  /// Runs a probe through `unit` whose one SSDP answer points at a
  /// description server on the device's host. The server replies
  /// `response` to the first request, then closes the connection when
  /// `close_after` (read-until-close framing). Returns the request bytes
  /// the server read.
  std::string chase_description(RecordingUpnpUnit& unit,
                                const std::string& response,
                                bool close_after) {
    auto ssdp = device_host.open_udp(kSsdpPort);
    ssdp->join_group(kSsdpMulticastGroup);
    transport::UdpSocket* responder = ssdp.get();
    ssdp->set_receive_handler([responder](const net::Datagram& datagram) {
      SearchResponse answer;
      answer.st = "urn:schemas-upnp-org:device:clock:1";
      answer.usn = "uuid:Clock::urn:schemas-upnp-org:device:clock:1";
      answer.location = "http://10.0.0.2:4004/description.xml";
      responder->send_to(datagram.source, encode(answer));
    });
    std::string request;
    std::vector<std::shared_ptr<transport::TcpSocket>> accepted;
    auto listener = device_host.listen_tcp(4004);
    listener->set_accept_handler(
        [&](std::shared_ptr<transport::TcpSocket> socket) {
          transport::TcpSocket* server = socket.get();
          socket->set_data_handler([&, server](BytesView data) {
            request += text_of(data);
            if (request.find("\r\n\r\n") == std::string::npos) return;
            server->send(to_bytes(response));
            // A simulated close drops bytes still in flight: let the
            // response land first.
            if (close_after) {
              device_host.schedule(sim::millis(10),
                                   [server]() { server->close(); });
            }
          });
          accepted.push_back(std::move(socket));
        });
    unit.probe("clock");
    scheduler.run_for(sim::seconds(2));
    listener->close();
    ssdp->close();
    return request;
  }

  /// The events the unit's parsers emitted from the description response
  /// on: the last SDP_C_START and everything after it.
  static std::vector<std::string> description_events(
      const RecordingUpnpUnit& unit) {
    auto start = std::find(unit.events.rbegin(), unit.events.rend(),
                           std::string("SDP_C_START"));
    if (start == unit.events.rend()) return {};
    return std::vector<std::string>(std::prev(start.base()),
                                    unit.events.end());
  }
};

TEST_F(HttpGolden, UnitDescriptionGetBytes) {
  RecordingUpnpUnit unit(gateway_host, {});
  std::string response = "HTTP/1.1 200 OK\r\nContent-Length: " +
                         std::to_string(kSmallDescription.size()) +
                         "\r\n\r\n" + std::string(kSmallDescription);
  EXPECT_EQ(chase_description(unit, response, false),
            "GET /description.xml HTTP/1.1\r\n"
            "HOST: 10.0.0.2:4004\r\n"
            "\r\n");
}

TEST_F(HttpGolden, UnitEventsForContentLengthResponse) {
  RecordingUpnpUnit unit(gateway_host, {});
  std::string response =
      "HTTP/1.1 200 OK\r\nCONTENT-TYPE: text/xml\r\nContent-Length: " +
      std::to_string(kSmallDescription.size()) + "\r\n\r\n" +
      std::string(kSmallDescription);
  chase_description(unit, response, false);
  EXPECT_EQ(description_events(unit), kExpectedDescriptionEvents);
}

TEST_F(HttpGolden, UnitEventsForResponseReadUntilClose) {
  RecordingUpnpUnit unit(gateway_host, {});
  std::string response = "HTTP/1.1 200 OK\r\nSERVER: x\r\n\r\n" +
                         std::string(kSmallDescription);
  chase_description(unit, response, true);
  EXPECT_EQ(description_events(unit), kExpectedDescriptionEvents);
}

TEST_F(HttpGolden, UnitImpersonatedDeviceResponseBytes) {
  core::UpnpUnitConfig config;
  config.http_port = 4100;
  RecordingUpnpUnit unit(gateway_host, config);
  core::Session session;
  session.id = 1;
  session.origin = core::Session::Origin::kPeer;
  session.kind = core::Kind::kAlive;
  session.service_type = "clock";
  session.collected.push_back(core::Event(core::EventType::kControlStart));
  session.collected.push_back(core::Event(core::EventType::kServiceAlive));
  session.collected.push_back(core::Event(
      core::EventType::kResServUrl, {{"url", "soap://10.0.1.7:4005/clock"}}));
  session.collected.push_back(core::Event(core::EventType::kControlStop));
  unit.on_advertisement(session);
  ASSERT_EQ(unit.impersonated_devices(), 1u);

  EXPECT_EQ(exchange(4100,
                     "GET /indiss/1/description.xml HTTP/1.1\r\n"
                     "HOST: 10.0.0.3:4100\r\n\r\n",
                     net::IpAddress(10, 0, 0, 3)),
            "HTTP/1.1 200 OK\r\n"
            "CONTENT-TYPE: text/xml\r\n"
            "SERVER: INDISS-bridge/1.0 UPnP/1.0\r\n"
            "Content-Length: 854\r\n"
            "\r\n" +
                std::string(kBridgedClockXml));
}

TEST_F(HttpGolden, RootDeviceDescriptionResponseBytes) {
  RootDevice device(device_host, make_clock_device(), 4004);
  device.start();
  EXPECT_EQ(exchange(4004,
                     "GET /description.xml HTTP/1.1\r\n"
                     "HOST: 10.0.0.2:4004\r\n\r\n"),
            "HTTP/1.1 200 OK\r\n"
            "CONTENT-TYPE: text/xml\r\n"
            "SERVER: INDISS-sim/1.0 UPnP/1.0\r\n"
            "Content-Length: 990\r\n"
            "\r\n" +
                std::string(kClockXml));
}

TEST_F(HttpGolden, RootDeviceControlResponseBytes) {
  RootDevice device(device_host, make_clock_device(), 4004);
  device.start();
  EXPECT_EQ(exchange(4004,
                     "GET /service/timer/control HTTP/1.1\r\n"
                     "HOST: 10.0.0.2:4004\r\n\r\n"),
            "HTTP/1.1 200 OK\r\n"
            "CONTENT-TYPE: text/xml\r\n"
            "Content-Length: 191\r\n"
            "\r\n"
            "<?xml version=\"1.0\"?>\n"
            "<s:Envelope xmlns:s=\"http://schemas.xmlsoap.org/soap/envelope/\">"
            "<s:Body><u:GetTimeResponse><CurrentTime>00:00:00"
            "</CurrentTime></u:GetTimeResponse></s:Body></s:Envelope>\n");
}

TEST_F(HttpGolden, NotFoundBytes) {
  RootDevice device(device_host, make_clock_device(), 4004);
  device.start();
  EXPECT_EQ(exchange(4004,
                     "GET /nope HTTP/1.1\r\n"
                     "HOST: 10.0.0.2:4004\r\n\r\n"),
            "HTTP/1.1 404 Not Found\r\n"
            "Content-Length: 0\r\n"
            "\r\n");
}

}  // namespace
}  // namespace indiss::upnp
