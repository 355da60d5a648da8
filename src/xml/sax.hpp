// SAX-style event XML parser.
//
// UPnP device descriptions are XML; in the paper's §2.4 scenario the UPnP
// unit's SSDP parser emits SDP_C_PARSER_SWITCH and the unit continues parsing
// the HTTP body with an XML parser. This is that parser: it pushes start/
// text/end events to a handler. The one handler in the gateway is
// upnp::DeviceDescription::from_xml's extractor, which keeps only the
// elements a description counts and fills the fields the unit turns into
// semantic events; no document tree is ever built. Element names reach the
// handler as views into the document.
//
// Supported: elements, attributes, character data, XML declaration, comments,
// CDATA, the five predefined entities and numeric character references
// ("&#65;", "&#x41;": one or more digits, naming tab, LF, CR or 32-127).
// Not supported (rejected): DOCTYPE/external entities — none of the SDP
// payloads use them and they are a classic attack surface.
#pragma once

#include <string>
#include <string_view>
#include <utility>
#include <vector>

namespace indiss::xml {

using Attributes = std::vector<std::pair<std::string, std::string>>;

class SaxHandler {
 public:
  virtual ~SaxHandler() = default;
  virtual void on_start_element(std::string_view name,
                                const Attributes& attributes) = 0;
  virtual void on_text(std::string_view text) = 0;
  virtual void on_end_element(std::string_view name) = 0;
};

struct ParseResult {
  bool ok = true;
  std::string error;      // empty when ok
  std::size_t position = 0;  // byte offset of the error
};

/// Parses a complete document, firing events on `handler`. Checks
/// well-formedness (tag balance); stops at the first error.
ParseResult parse(std::string_view document, SaxHandler& handler);

/// Appends `text` to `out` with <, >, &, ", ' escaped, for use in text
/// content or attribute values.
void escape_into(std::string& out, std::string_view text);

}  // namespace indiss::xml
