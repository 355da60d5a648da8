// Developer's view: the Fig 4 event streams, printed.
//
// Parses an SLP search request and a UPnP description document with the
// INDISS parsers and prints the semantic event streams — the exact artifact
// the paper's Fig 4 tabulates ("Generated Events").
//
//   build/examples/events_trace
#include <cstdio>

#include "core/units/slp_unit.hpp"
#include "core/units/upnp_unit.hpp"
#include "slp/wire.hpp"
#include "upnp/description.hpp"
#include "upnp/ssdp.hpp"

namespace {

void dump(const char* title, const indiss::core::EventStream& stream) {
  std::printf("%s\n", title);
  for (const auto& event : stream) {
    std::printf("    %s\n", event.to_string().c_str());
  }
  std::printf("\n");
}

}  // namespace

int main() {
  using namespace indiss;
  core::MessageContext ctx;
  ctx.source = net::Endpoint{net::IpAddress(10, 0, 0, 1), 41000};
  ctx.destination = net::Endpoint{net::IpAddress(239, 255, 255, 253), 427};
  ctx.multicast = true;

  // Step 1 of Fig 4: the SLP search request.
  slp::SrvRqst request;
  request.header.xid = 42;
  request.service_type = "service:clock";
  request.scope_list = "DEFAULT";
  request.predicate = "";
  core::SlpEventParser slp_parser;
  core::CollectingSink slp_sink;
  slp_parser.parse(slp::encode(slp::Message(request)), ctx, slp_sink);
  dump("SLP SrvRqst -> events (Fig 4, step 1):", slp_sink.stream());

  // Step 2: the UPnP search response — note the absence of
  // SDP_RES_SERV_URL and the presence of SDP_DEVICE_URL_DESC.
  upnp::SearchResponse response;
  response.st = "urn:schemas-upnp-org:device:clock:1";
  response.usn = "uuid:ClockDevice::upnp:clock";
  response.location = "http://128.93.8.112:4004/description.xml";
  core::SsdpEventParser ssdp_parser;
  core::CollectingSink ssdp_sink;
  core::MessageContext unicast_ctx;
  ssdp_parser.parse(upnp::encode(response), unicast_ctx, ssdp_sink);
  dump("UPnP search response -> events (Fig 4, step 2):", ssdp_sink.stream());

  // Step 3: the description document, after the parser switch.
  core::UpnpDescriptionParser xml_parser;
  core::CollectingSink xml_sink;
  core::MessageContext continuation;
  continuation.continuation = true;
  xml_parser.parse(to_bytes(upnp::make_clock_device().to_xml()), continuation,
                   xml_sink);
  dump("description.xml -> events (Fig 4, step 3, via SDP_C_PARSER_SWITCH):",
       xml_sink.stream());
  return 0;
}
