// SSDP (HTTP-over-UDP) codec + event parser fuzz target (docs/chaos.md).
//
// Every input is also read as a UPnP device description: the document reader
// must reproduce any description it accepts from its own output, and the
// description parser (the unit's continuation after SDP_C_PARSER_SWITCH) must
// close its stream with SDP_C_STOP.
#include "harness.hpp"

#include <cstdio>
#include <cstdlib>
#include <string_view>

#include "core/units/upnp_unit.hpp"
#include "upnp/description.hpp"
#include "upnp/ssdp.hpp"

extern "C" int LLVMFuzzerTestOneInput(const std::uint8_t* data,
                                      std::size_t size) {
  using namespace indiss;
  BytesView wire(data, size);

  auto message = upnp::parse_ssdp(wire);
  (void)message;

  static core::SsdpEventParser parser;
  fuzz::check_parser(parser, wire);

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
