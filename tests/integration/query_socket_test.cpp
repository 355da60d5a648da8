// Bridged queries. When a unit translates a foreign request into its native
// SDP it sends the query from its one long-lived socket (core::Unit::
// send_query, the socket its native replies leave on) and routes each
// response that socket receives to the open session(s) it answers, by the
// key the protocol carries: the SLP XID, the mDNS ID, the SSDP search target
// (an ssdp:all search takes every response). For SLP, UPnP and mDNS this
// checks that bridged queries open no socket and leave the loop filter as it
// is, that a response reaches only the sessions its key names, and only
// while they are open.
//
// The UPnP unit also keeps the description documents it fetched for its
// searches: DescriptionReuse checks that a repeated query costs no TCP and
// answers byte for byte the same, and when a kept document is fetched again.
//
// The gateway runs on a transport that records every ephemeral UDP socket
// it opens. Unit reply sockets are opened by start(), so every ephemeral
// socket opened after start() would be a per-query socket.
#include <gtest/gtest.h>

#include <memory>
#include <string>
#include <vector>

#include "core/indiss.hpp"
#include "core/units/upnp_unit.hpp"
#include "mdns/dns.hpp"
#include "mdns/dnssd.hpp"
#include "net/host.hpp"
#include "net/network.hpp"
#include "sim/scheduler.hpp"
#include "slp/agents.hpp"
#include "slp/wire.hpp"
#include "upnp/description.hpp"
#include "upnp/device.hpp"
#include "upnp/http_server.hpp"
#include "upnp/ssdp.hpp"

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

net::Endpoint group_of(SdpId sdp) {
  switch (sdp) {
    case SdpId::kSlp:
      return {slp::kSlpMulticastGroup, slp::kSlpPort};
    case SdpId::kUpnp:
      return {upnp::kSsdpMulticastGroup, upnp::kSsdpPort};
    default:
      return {mdns::kMdnsGroup, mdns::kMdnsPort};
  }
}

std::string upnp_st(const std::string& type) {
  return "urn:schemas-upnp-org:device:" + type + ":1";
}

/// A gateway bridging SLP, UPnP and mDNS, a host with a native service of
/// the SDP under test, and a host that hears the translated queries on the
/// SDP's group and can answer them by hand.
class BridgedQueries : public ::testing::Test {
 protected:
  sim::Scheduler scheduler;
  net::Network network{scheduler, net::LinkProfile{}, 11};
  net::Host& service_host =
      network.add_host("service", net::IpAddress(10, 0, 0, 2));
  net::Host& gateway_host =
      network.add_host("gateway", net::IpAddress(10, 0, 0, 3));
  net::Host& responder_host =
      network.add_host("responder", net::IpAddress(10, 0, 0, 4));
  RecordingTransport gateway{gateway_host};
  SdpId sdp = SdpId::kSlp;

  std::unique_ptr<slp::ServiceAgent> slp_sa;
  std::unique_ptr<upnp::RootDevice> upnp_device;
  std::unique_ptr<mdns::MdnsResponder> mdns_responder;

  std::shared_ptr<OwnEndpoints> own = std::make_shared<OwnEndpoints>();
  std::unique_ptr<Indiss> indiss;

  /// The responder: every translated query heard on the group, and the
  /// description the UPnP answers it composes point at.
  std::shared_ptr<transport::UdpSocket> listener;
  std::vector<net::Datagram> queries;
  std::unique_ptr<upnp::HttpServer> description_server;

  void start(SdpId under_test, std::size_t max_open_sessions = 0) {
    sdp = under_test;
    net::Endpoint group = group_of(sdp);
    listener = responder_host.open_udp(group.port);
    listener->join_group(group.address);
    listener->set_receive_handler([this](const net::Datagram& d) {
      if (is_query(d.payload)) queries.push_back(d);
    });
    // Serving a description takes a while, so a test can count the search
    // responses a session parsed before the description arrives.
    description_server = std::make_unique<upnp::HttpServer>(
        responder_host, 4004, sim::millis(200));
    description_server->route("/clock.xml", [] {
      upnp::DeviceDescription description =
          upnp::make_clock_device("uuid:responder-clock");
      description.services.front().control_url = "/responder-control";
      return upnp::http_response("200 OK", "Responder/1.0 UPnP/1.0",
                                 description.to_xml());
    });

    IndissConfig config;
    config.enabled_sdps = {SdpId::kSlp, SdpId::kUpnp, SdpId::kMdns};
    config.unit_options.max_open_sessions = max_open_sessions;
    config.own_endpoints = own;
    indiss = std::make_unique<Indiss>(gateway, config);
    indiss->start();
    gateway.ephemeral.clear();  // the units' reply sockets
  }

  Unit& unit() { return *indiss->unit(sdp); }

  [[nodiscard]] bool is_query(BytesView payload) const {
    switch (sdp) {
      case SdpId::kSlp: {
        auto message = slp::decode(payload);
        return message.has_value() &&
               std::holds_alternative<slp::SrvRqst>(*message);
      }
      case SdpId::kUpnp: {
        auto message = upnp::parse_ssdp(payload);
        return message.has_value() &&
               std::holds_alternative<upnp::SearchRequest>(*message);
      }
      default: {
        auto message = mdns::decode(payload);
        return message.has_value() && !message->is_response();
      }
    }
  }

  /// A native service of the SDP under test that answers the query.
  void start_service() {
    switch (sdp) {
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

  /// Hands the unit under test a foreign request for `type`, the way the
  /// bus delivers one from a peer unit, and returns the translated query
  /// the responder heard.
  net::Datagram bridge_query(std::uint64_t origin,
                             const std::string& type = "clock") {
    auto stream = std::make_shared<EventStream>();
    stream->push_back(Event(EventType::kControlStart));
    stream->push_back(Event(EventType::kServiceRequest));
    stream->push_back(Event(EventType::kServiceTypeIs, {{"type", type}}));
    stream->push_back(Event(EventType::kControlStop));
    SdpId peer = sdp == SdpId::kSlp ? SdpId::kUpnp : SdpId::kSlp;
    std::size_t heard = queries.size();
    unit().on_peer_stream(peer, origin, std::move(stream));
    // Just long enough for the composer to run and the query to cross the
    // LAN, so no answer is in yet.
    scheduler.run_for(unit().options().translate_delay + sim::millis(2));
    EXPECT_EQ(queries.size(), heard + 1) << "one translated query";
    return queries.empty() ? net::Datagram{} : queries.back();
  }

  /// The responder's answer to `query` naming a clock service. `foreign`
  /// answers under another key: another XID or ID, or another ST.
  [[nodiscard]] Bytes answer_to(const net::Datagram& query,
                                bool foreign = false) const {
    switch (sdp) {
      case SdpId::kSlp: {
        auto request = std::get<slp::SrvRqst>(*slp::decode(query.payload));
        slp::SrvRply reply;
        reply.header.xid =
            static_cast<std::uint16_t>(request.header.xid + (foreign ? 1 : 0));
        reply.url_entries.push_back(
            {300, "service:clock:soap://10.0.0.4:4005/responder-clock"});
        return slp::encode(slp::Message(reply));
      }
      case SdpId::kUpnp: {
        auto search =
            std::get<upnp::SearchRequest>(*upnp::parse_ssdp(query.payload));
        upnp::SearchResponse response;
        response.st = foreign ? upnp_st("lamp") : search.st;
        response.usn = "uuid:responder-clock::" + response.st;
        response.location = "http://10.0.0.4:4004/clock.xml";
        response.server = "Responder/1.0 UPnP/1.0";
        return upnp::encode(response);
      }
      default: {
        auto request = *mdns::decode(query.payload);
        mdns::DnsMessage message;
        message.id = static_cast<std::uint16_t>(request.id + (foreign ? 1 : 0));
        message.flags = mdns::kFlagResponse | mdns::kFlagAuthoritative;
        mdns::DnsRecord ptr;
        ptr.name = "_clock._tcp.local";
        ptr.type = mdns::kTypePtr;
        ptr.ttl = 120;
        ptr.target = "responder._clock._tcp.local";
        message.answers.push_back(ptr);
        mdns::DnsRecord txt;
        txt.name = ptr.target;
        txt.type = mdns::kTypeTxt;
        txt.ttl = 120;
        txt.txt = {{"url", "soap://10.0.0.4:4006/responder-clock"}};
        message.additionals.push_back(txt);
        return mdns::encode(message);
      }
    }
  }

  void answer(const net::Datagram& query, bool foreign = false) {
    listener->send_to(query.source, answer_to(query, foreign));
  }

  /// The unit's live session translating the request of `origin`, if any.
  Session* session_of(std::uint64_t origin) {
    for (std::uint64_t id = 1; id < 4096; ++id) {
      Session* session = unit().find_session(id);
      if (session != nullptr && session->origin == Session::Origin::kPeer &&
          session->origin_session == origin) {
        return session;
      }
    }
    return nullptr;
  }
};

class RoutingPerSdp : public BridgedQueries,
                      public ::testing::WithParamInterface<SdpId> {};

std::string sdp_param_name(const ::testing::TestParamInfo<SdpId>& info) {
  return std::string(sdp_name(info.param));
}

/// Every bridged query leaves on the unit's one socket: a thousand answered
/// queries open no socket and add nothing to the loop filter.
TEST_P(RoutingPerSdp, AThousandBridgedQueriesOpenNoSocket) {
  start(GetParam());
  start_service();
  const std::size_t base = own->size();  // the units' reply sockets
  const std::uint64_t completed = unit().stats().sessions_completed;
  constexpr int kQueries = 1000;
  for (int i = 1; i <= kQueries; ++i) {
    bridge_query(static_cast<std::uint64_t>(i));
    scheduler.run_for(sim::millis(50));
  }
  scheduler.run_for(sim::seconds(2));
  EXPECT_TRUE(gateway.ephemeral.empty())
      << gateway.ephemeral.size() << " sockets opened";
  EXPECT_EQ(own->size(), base);
  EXPECT_EQ(unit().stats().sessions_completed - completed,
            static_cast<std::uint64_t>(kQueries))
      << "every query was answered";
  EXPECT_EQ(unit().open_sessions(), 0u);
}

/// A response under another key reaches no session; one under the query's
/// key completes it.
TEST_P(RoutingPerSdp, AResponseWithAForeignKeyReachesNoSession) {
  start(GetParam());
  net::Datagram query = bridge_query(1);
  const std::uint64_t parsed = unit().stats().messages_parsed;
  answer(query, /*foreign=*/true);
  scheduler.run_for(sim::millis(100));
  EXPECT_EQ(unit().stats().messages_parsed, parsed);
  EXPECT_EQ(unit().open_sessions(), 1u);

  answer(query);
  scheduler.run_for(sim::seconds(1));
  EXPECT_GT(unit().stats().messages_parsed, parsed);
  EXPECT_EQ(unit().open_sessions(), 0u) << "the answer completed the session";
}

/// Once its session completed, timed out or was evicted, a query's key
/// routes nothing: a late response is not parsed at all.
TEST_P(RoutingPerSdp, ALateResponseReachesNoSession) {
  start(GetParam(), /*max_open_sessions=*/1);

  net::Datagram completed = bridge_query(1);
  answer(completed);
  scheduler.run_for(sim::seconds(1));
  ASSERT_EQ(unit().open_sessions(), 0u);
  std::uint64_t parsed = unit().stats().messages_parsed;
  answer(completed);
  scheduler.run_for(sim::millis(100));
  EXPECT_EQ(unit().stats().messages_parsed, parsed) << "after completion";

  net::Datagram timed_out = bridge_query(2);
  scheduler.run_for(kSessionTimeout + sim::seconds(1));
  ASSERT_EQ(unit().open_sessions(), 0u);
  parsed = unit().stats().messages_parsed;
  answer(timed_out);
  scheduler.run_for(sim::millis(100));
  EXPECT_EQ(unit().stats().messages_parsed, parsed) << "after the timeout";

  // The evicting query searches another type, so under SSDP its ST is not
  // the evicted one's.
  net::Datagram evicted = bridge_query(3);
  bridge_query(4, "lamp");
  ASSERT_EQ(unit().stats().sessions_evicted, 1u);
  parsed = unit().stats().messages_parsed;
  answer(evicted);
  scheduler.run_for(sim::millis(100));
  EXPECT_EQ(unit().stats().messages_parsed, parsed) << "after the eviction";
}

/// Disabling the unit with a query open closes its socket; a response
/// arriving afterwards goes nowhere.
TEST_P(RoutingPerSdp, DisablingTheUnitWithAnOpenQueryIsSafe) {
  start(GetParam());
  net::Datagram query = bridge_query(1);
  indiss->disable_unit(GetParam());
  answer(query);
  scheduler.run_for(sim::seconds(1));
  EXPECT_EQ(indiss->unit(GetParam()), nullptr);
}

INSTANTIATE_TEST_SUITE_P(Sdps, RoutingPerSdp,
                         ::testing::Values(SdpId::kSlp, SdpId::kUpnp,
                                           SdpId::kMdns),
                         sdp_param_name);

/// SLP and mDNS queries carry an id: two open at once never share it, and
/// each takes only the response that echoes its own.
class IdRouting : public RoutingPerSdp {};

TEST_P(IdRouting, TwoConcurrentSessionsEachGetOnlyTheirOwnReply) {
  start(GetParam());
  net::Datagram first = bridge_query(1);
  net::Datagram second = bridge_query(2);
  ASSERT_NE(answer_to(first), answer_to(second)) << "the ids differ";

  const std::uint64_t parsed = unit().stats().messages_parsed;
  answer(second);
  scheduler.run_for(sim::millis(100));
  EXPECT_EQ(unit().stats().messages_parsed, parsed + 1);
  EXPECT_EQ(session_of(2), nullptr) << "the second query completed";
  Session* waiting = session_of(1);
  ASSERT_NE(waiting, nullptr) << "the first is still open";
  EXPECT_FALSE(waiting->has(Field::kUrl)) << "and saw no answer";

  answer(first);
  scheduler.run_for(sim::millis(100));
  EXPECT_EQ(unit().stats().messages_parsed, parsed + 2);
  EXPECT_EQ(session_of(1), nullptr);
  EXPECT_EQ(unit().open_sessions(), 0u);
}

INSTANTIATE_TEST_SUITE_P(Ids, IdRouting,
                         ::testing::Values(SdpId::kSlp, SdpId::kMdns),
                         sdp_param_name);

/// SSDP correlates by search target: every open search for the ST takes a
/// response, and so does an ssdp:all search.
TEST_F(BridgedQueries, TwoConcurrentSearchesForOneStBothGetTheAnswer) {
  start(SdpId::kUpnp);
  net::Datagram first = bridge_query(1);
  bridge_query(2);
  const std::uint64_t parsed = unit().stats().messages_parsed;
  answer(first);
  scheduler.run_for(sim::millis(20));
  EXPECT_EQ(unit().stats().messages_parsed, parsed + 2)
      << "one response, parsed into both sessions";
  scheduler.run_for(sim::seconds(1));
  EXPECT_EQ(unit().open_sessions(), 0u) << "both completed";
}

TEST_F(BridgedQueries, AnSsdpAllSearchTakesEveryResponse) {
  start(SdpId::kUpnp);
  net::Datagram all = bridge_query(1, "*");
  net::Datagram clock = bridge_query(2);
  EXPECT_EQ(std::get<upnp::SearchRequest>(*upnp::parse_ssdp(all.payload)).st,
            upnp::kSearchTargetAll);
  const std::uint64_t parsed = unit().stats().messages_parsed;
  answer(clock);
  scheduler.run_for(sim::millis(20));
  EXPECT_EQ(unit().stats().messages_parsed, parsed + 2);
  answer(clock, /*foreign=*/true);  // a lamp: only the ssdp:all search
  scheduler.run_for(sim::millis(20));
  EXPECT_EQ(unit().stats().messages_parsed, parsed + 3);
  scheduler.run_for(sim::seconds(1));  // the description fetches finish
}

// ---------------------------------------------------------------------------
// Description reuse (UpnpUnit::compose_follow_up)
// ---------------------------------------------------------------------------

/// A gateway, a UPnP clock device, and a native SLP client and mDNS browser
/// that query the gateway with fixed transaction ids, so equal answers are
/// equal bytes.
class DescriptionReuse : public ::testing::Test {
 protected:
  sim::Scheduler scheduler;
  net::Network network{scheduler, net::LinkProfile{}, 5};
  net::Host& device_host =
      network.add_host("device", net::IpAddress(10, 0, 0, 2));
  net::Host& gateway_host =
      network.add_host("gateway", net::IpAddress(10, 0, 0, 3));
  net::Host& client_host =
      network.add_host("client", net::IpAddress(10, 0, 0, 7));
  std::unique_ptr<Indiss> indiss;
  std::unique_ptr<upnp::RootDevice> device;
  std::shared_ptr<transport::UdpSocket> slp_client;
  std::shared_ptr<transport::UdpSocket> mdns_client;
  std::vector<Bytes> slp_replies;
  std::vector<Bytes> mdns_replies;

  void SetUp() override {
    IndissConfig config;
    config.enabled_sdps = {SdpId::kSlp, SdpId::kUpnp, SdpId::kMdns};
    indiss = std::make_unique<Indiss>(gateway_host, config);
    indiss->start();
    slp_client = client_host.open_udp(0);
    slp_client->set_receive_handler(
        [this](const net::Datagram& d) { slp_replies.push_back(d.payload); });
    mdns_client = client_host.open_udp(0);
    mdns_client->set_receive_handler(
        [this](const net::Datagram& d) { mdns_replies.push_back(d.payload); });
  }

  void start_device(const std::string& control_url,
                    upnp::UpnpStackProfile profile = {}) {
    upnp::DeviceDescription description = upnp::make_clock_device();
    description.services.front().control_url = control_url;
    device = std::make_unique<upnp::RootDevice>(device_host, description,
                                                4004, profile);
    device->start();
    scheduler.run_for(sim::seconds(1));
  }

  UpnpUnit& upnp_unit() {
    return static_cast<UpnpUnit&>(*indiss->unit(SdpId::kUpnp));
  }

  /// A native SLP SrvRqst and a legacy mDNS browse for clocks; returns the
  /// replies' bytes, SLP first.
  std::pair<Bytes, Bytes> query() {
    slp::SrvRqst request;
    request.header.xid = 0x1234;
    request.service_type = "service:clock";
    slp_client->send_to(group_of(SdpId::kSlp),
                        slp::encode(slp::Message(request)));
    mdns::DnsMessage browse;
    browse.id = 0x2222;
    mdns::DnsQuestion question;
    question.name = "_clock._tcp.local";
    question.unicast_response = true;
    browse.questions.push_back(question);
    mdns_client->send_to(group_of(SdpId::kMdns), mdns::encode(browse));
    std::size_t slp_before = slp_replies.size();
    std::size_t mdns_before = mdns_replies.size();
    scheduler.run_for(sim::seconds(1));
    EXPECT_EQ(slp_replies.size(), slp_before + 1);
    EXPECT_EQ(mdns_replies.size(), mdns_before + 1);
    if (slp_replies.size() == slp_before ||
        mdns_replies.size() == mdns_before) {
      return {};
    }
    return {slp_replies.back(), mdns_replies.back()};
  }

  static std::string slp_url(const Bytes& reply) {
    auto message = slp::decode(reply);
    if (!message.has_value()) return {};
    const auto* srvrply = std::get_if<slp::SrvRply>(&*message);
    if (srvrply == nullptr || srvrply->url_entries.empty()) return {};
    return srvrply->url_entries.front().url;
  }
};

TEST_F(DescriptionReuse, ASecondQueryAddsNoTcpAndAnswersTheSameBytes) {
  start_device("/service/timer/control");
  std::uint64_t segments = network.stats().tcp_segments;
  auto [slp_first, mdns_first] = query();
  EXPECT_NE(slp_url(slp_first).find("/service/timer/control"),
            std::string::npos)
      << slp_url(slp_first);
  EXPECT_GT(network.stats().tcp_segments, segments) << "the first fetches";
  EXPECT_EQ(upnp_unit().kept_descriptions(), 1u);

  segments = network.stats().tcp_segments;
  auto [slp_second, mdns_second] = query();
  EXPECT_EQ(network.stats().tcp_segments, segments) << "the second does not";
  EXPECT_EQ(slp_second, slp_first);
  EXPECT_EQ(mdns_second, mdns_first);
}

TEST_F(DescriptionReuse, PastTheMaxAgeTheNextQueryFetchesAgain) {
  upnp::UpnpStackProfile profile;
  profile.max_age_seconds = 5;
  start_device("/service/timer/control", profile);
  query();
  scheduler.run_for(sim::seconds(5));
  std::uint64_t segments = network.stats().tcp_segments;
  auto [slp_reply, mdns_reply] = query();
  EXPECT_GT(network.stats().tcp_segments, segments);
  EXPECT_NE(slp_url(slp_reply).find("/service/timer/control"),
            std::string::npos);
}

TEST_F(DescriptionReuse, AByebyeDropsTheKeptDescription) {
  start_device("/old-control");
  EXPECT_NE(slp_url(query().first).find("/old-control"), std::string::npos);
  EXPECT_EQ(upnp_unit().kept_descriptions(), 1u);

  // The same device, at the same LOCATION, comes back with another
  // description after saying goodbye.
  device->stop();
  scheduler.run_for(sim::seconds(1));
  EXPECT_EQ(upnp_unit().kept_descriptions(), 0u);
  start_device("/new-control");
  EXPECT_NE(slp_url(query().first).find("/new-control"), std::string::npos);
}

TEST_F(DescriptionReuse, TheTableHoldsAtMostItsCapacity) {
  // One device per LOCATION, each of its own type, searched once each.
  constexpr std::size_t kDevices = UpnpUnit::kDescriptionCapacity + 6;
  std::vector<std::unique_ptr<upnp::RootDevice>> devices;
  for (std::size_t i = 0; i < kDevices; ++i) {
    net::Host& host = network.add_host(
        "device" + std::to_string(i),
        net::IpAddress(10, 0, 1, static_cast<std::uint8_t>(i + 1)));
    upnp::DeviceDescription description =
        upnp::make_clock_device("uuid:clock-" + std::to_string(i));
    description.device_type = upnp_st("clock" + std::to_string(i));
    devices.push_back(
        std::make_unique<upnp::RootDevice>(host, description, 4004));
    devices.back()->start();
  }
  scheduler.run_for(sim::seconds(1));
  for (std::size_t i = 0; i < kDevices; ++i) {
    auto stream = std::make_shared<EventStream>();
    stream->push_back(Event(EventType::kControlStart));
    stream->push_back(Event(EventType::kServiceRequest));
    stream->push_back(Event(EventType::kServiceTypeIs,
                            {{"type", "clock" + std::to_string(i)}}));
    stream->push_back(Event(EventType::kControlStop));
    upnp_unit().on_peer_stream(SdpId::kSlp, i + 1, std::move(stream));
    scheduler.run_for(sim::millis(200));
    EXPECT_EQ(upnp_unit().kept_descriptions(),
              std::min(i + 1, UpnpUnit::kDescriptionCapacity));
  }
  EXPECT_EQ(upnp_unit().kept_descriptions(), UpnpUnit::kDescriptionCapacity);
}

}  // namespace
}  // namespace indiss::core
