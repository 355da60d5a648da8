// SSDP (HTTP-over-UDP) codec + event parser fuzz target (docs/chaos.md).
//
// The native stacks read SSDP with upnp::parse_ssdp and the gateway with
// core::SsdpEventParser; both sit on the one upnp::SsdpReader, so they must
// agree on every input: the same head event (or none), the same ST or NT,
// USN and TTL. Every message parse_ssdp accepts must also re-serialize into
// bytes that parse again and re-serialize to the same bytes.
//
// Every input is also read as a UPnP device description: the document reader
// must reproduce any description it accepts from its own output, and the
// description parser (the unit's continuation after SDP_C_PARSER_SWITCH) must
// close its stream with SDP_C_STOP.
#include "harness.hpp"

#include <cstdio>
#include <cstdlib>
#include <string>
#include <string_view>
#include <variant>

#include "core/units/upnp_unit.hpp"
#include "upnp/description.hpp"
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
