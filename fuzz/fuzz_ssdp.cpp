// SSDP (HTTP-over-UDP) codec + event parser fuzz target (docs/chaos.md).
//
// The native stacks read SSDP with upnp::parse_ssdp and the gateway with
// core::SsdpEventParser; both sit on the one upnp::SsdpReader, so they must
// agree on every input: the same head event (or none), the same ST or NT,
// USN and TTL. Every message parse_ssdp accepts must also re-serialize into
// bytes that parse again and re-serialize to the same bytes.
//
// Every input is also served as the response to a description GET, framed
// by upnp::http_get over a simulated TCP connection. The unit and the control
// point must read what the client hands over alike: the control point finds a
// description only in a 200 description response (SsdpReader's
// kHttpResponse), and its body must be the payload of the unit's
// SDP_C_PARSER_SWITCH; any other status of a description response must be
// the code of the unit's SDP_RES_ERR.
//
// Every input is also read as a UPnP device description: the document reader
// must reproduce any description it accepts from its own output, and the
// description parser (the unit's continuation after SDP_C_PARSER_SWITCH) must
// close its stream with SDP_C_STOP.
#include "harness.hpp"

#include <cstdio>
#include <cstdlib>
#include <memory>
#include <optional>
#include <string>
#include <string_view>
#include <variant>

#include "common/uri.hpp"
#include "core/units/upnp_unit.hpp"
#include "net/host.hpp"
#include "net/network.hpp"
#include "sim/scheduler.hpp"
#include "upnp/description.hpp"
#include "upnp/http_client.hpp"
#include "upnp/ssdp.hpp"

namespace indiss::fuzz {
namespace {

void expect(bool ok, const char* what) {
  if (ok) return;
  std::fprintf(stderr, "fuzz_ssdp: %s\n", what);
  std::abort();
}

/// The head event of an SSDP stream (request, response, alive or byebye).
const core::Event* head_event(const core::EventStream& stream) {
  for (const auto& event : stream) {
    switch (event.type) {
      case core::EventType::kServiceRequest:
      case core::EventType::kServiceResponse:
      case core::EventType::kServiceAlive:
      case core::EventType::kServiceByeBye:
        return &event;
      default:
        break;
    }
  }
  return nullptr;
}

std::string_view value_of(const core::EventStream& stream,
                          core::EventType type, std::string_view key) {
  const core::Event* event = core::find_event(stream, type);
  return event == nullptr ? std::string_view{} : event->get(key);
}

void check_agreement(const std::optional<upnp::SsdpMessage>& message,
                     const core::EventStream& stream) {
  using core::EventType;
  const core::Event* head = head_event(stream);
  if (!message.has_value()) {
    expect(head == nullptr, "event parser accepted what parse_ssdp rejects");
    return;
  }
  expect(head != nullptr, "event parser rejected what parse_ssdp accepts");
  std::string_view native = value_of(stream, EventType::kServiceTypeIs,
                                     "native");
  std::string_view usn = value_of(stream, EventType::kUpnpUsn, "usn");
  std::string_view ttl = value_of(stream, EventType::kResTtl, "seconds");
  if (const auto* search = std::get_if<upnp::SearchRequest>(&*message)) {
    expect(head->type == EventType::kServiceRequest, "search head");
    expect(head->get("server") == search->user_agent, "search user agent");
    expect(value_of(stream, EventType::kUpnpSearchTarget, "st") == search->st,
           "search ST");
    expect(native == search->st, "search type");
  } else if (const auto* rsp = std::get_if<upnp::SearchResponse>(&*message)) {
    expect(head->type == EventType::kServiceResponse, "response head");
    expect(native == rsp->st, "response ST");
    expect(usn == rsp->usn, "response USN");
    expect(ttl == std::to_string(rsp->max_age_seconds), "response TTL");
  } else {
    const auto& notify = std::get<upnp::Notify>(*message);
    expect(head->type == (notify.kind == upnp::Notify::Kind::kAlive
                              ? EventType::kServiceAlive
                              : EventType::kServiceByeBye),
           "notify head");
    expect(head->get("server") == notify.server, "notify server");
    expect(native == notify.nt, "notify NT");
    expect(usn == notify.usn, "notify USN");
    expect(ttl == std::to_string(notify.max_age_seconds), "notify TTL");
  }
}

std::string reserialize(const upnp::SsdpMessage& message) {
  std::string out;
  std::visit([&](const auto& m) { m.serialize_into(out); }, message);
  return out;
}

void check_round_trip(const upnp::SsdpMessage& message) {
  std::string first = reserialize(message);
  auto again = upnp::parse_ssdp(to_bytes(first));
  expect(again.has_value(), "re-serialized SSDP does not parse");
  expect(reserialize(*again) == first, "SSDP does not re-serialize stably");
}

/// Serves `input` as the response to a description GET, in two TCP segments
/// followed by a close, and returns what upnp::http_get hands its caller.
std::optional<Bytes> fetch_as_response(BytesView input) {
  static sim::Scheduler scheduler;
  static net::Network network(scheduler);
  static net::Host& client =
      network.add_host("cp", net::IpAddress(10, 0, 0, 1));
  static net::Host& server =
      network.add_host("dev", net::IpAddress(10, 0, 0, 2));
  static Bytes reply;
  static const std::shared_ptr<transport::TcpListener> listener = [] {
    auto tcp = server.listen_tcp(80);
    tcp->set_accept_handler([](std::shared_ptr<transport::TcpSocket> socket) {
      socket->set_data_handler([socket](BytesView) {
        auto half = reply.begin() + static_cast<long>(reply.size() / 2);
        socket->send(Bytes(reply.begin(), half));
        socket->send(Bytes(half, reply.end()));
        // A simulated close drops bytes still in flight: close once they
        // have landed.
        server.schedule(sim::millis(10), [socket]() { socket->close(); });
      });
    });
    return tcp;
  }();

  reply.assign(input.begin(), input.end());
  Uri uri;
  uri.scheme = "http";
  uri.host = "10.0.0.2";
  uri.port = listener->port();
  uri.path = "/description.xml";
  bool called = false;
  std::optional<Bytes> response;
  upnp::http_get(client, uri, [&](std::optional<Bytes> r) {
    called = true;
    response = std::move(r);
  });
  scheduler.run_for(sim::seconds(1));
  expect(called, "description GET never finished");
  return response;
}

void check_http_agreement(BytesView input) {
  using core::EventType;
  std::optional<Bytes> response = fetch_as_response(input);
  if (!response.has_value()) return;

  static core::SsdpEventParser parser;
  core::EventStream stream = check_parser(parser, *response);
  const core::Event* parser_switch =
      core::find_event(stream, EventType::kControlParserSwitch);
  const core::Event* error = core::find_event(stream, EventType::kResErr);

  // The control point's reading.
  upnp::SsdpReader reader;
  bool description_response =
      reader.read(*response) == upnp::SsdpReader::Kind::kHttpResponse;
  if (description_response && reader.status() == 200) {
    expect(parser_switch != nullptr, "200 without SDP_C_PARSER_SWITCH");
    expect(parser_switch->get("payload") == reader.body(),
           "parser-switch payload differs from the control point's body");
    return;
  }
  expect(parser_switch == nullptr,
         "unit switches parser where the control point reads no description");
  if (description_response) {
    expect(error != nullptr && error->get("code") ==
                                   std::to_string(reader.status()),
           "SDP_RES_ERR code differs from the control point's status");
  }
}

}  // namespace
}  // namespace indiss::fuzz

extern "C" int LLVMFuzzerTestOneInput(const std::uint8_t* data,
                                      std::size_t size) {
  using namespace indiss;
  BytesView wire(data, size);

  auto message = upnp::parse_ssdp(wire);
  static core::SsdpEventParser parser;
  fuzz::check_agreement(message, fuzz::check_parser(parser, wire));
  if (message.has_value()) fuzz::check_round_trip(*message);
  fuzz::check_http_agreement(wire);

  auto description = upnp::DeviceDescription::from_xml(
      std::string_view(reinterpret_cast<const char*>(data), size));
  if (description.has_value() &&
      upnp::DeviceDescription::from_xml(description->to_xml()) !=
          description) {
    std::fprintf(stderr, "description does not survive to_xml/from_xml\n");
    std::abort();
  }

  static core::UpnpDescriptionParser description_parser;
  fuzz::check_continuation(description_parser, wire);
  return 0;
}
