// mDNS/DNS-SD codec + event parser fuzz target (docs/chaos.md).
//
// Besides the shared parser invariant, any message the decoder accepts must
// survive a codec round trip: encode(decode(encode(m))) == encode(m).
#include "harness.hpp"

#include <cstdio>
#include <cstdlib>
#include <string_view>

#include "core/units/mdns_unit.hpp"
#include "mdns/dns.hpp"

namespace {

using namespace indiss;

/// True when the encoder can write `name` back as the labels it spells.
/// A decoded label may contain '.', which the encoder then splits into
/// more labels; the dotted name, and so the next encode, stays the same.
/// An empty label (a leading dot, "..", or two trailing dots) would be
/// written as the zero byte that ends a name, so such names are skipped.
bool writable(std::string_view name) {
  if (name.empty()) return true;
  if (name.back() == '.') name.remove_suffix(1);  // dropped by the encoder
  return !name.empty() && name.front() != '.' && name.back() != '.' &&
         name.find("..") == std::string_view::npos;
}

bool writable(const mdns::DnsMessage& message) {
  for (const auto& question : message.questions) {
    if (!writable(question.name)) return false;
  }
  for (const auto* section :
       {&message.answers, &message.authorities, &message.additionals}) {
    for (const auto& record : *section) {
      if (!writable(record.name) || !writable(record.target)) return false;
    }
  }
  return true;
}

void check_round_trip(const mdns::DnsMessage& message) {
  Bytes first = mdns::encode(message);
  std::string error;
  auto again = mdns::decode(first, &error);
  if (!again.has_value()) {
    std::fprintf(stderr, "encoded message does not decode: %s\n",
                 error.c_str());
    std::abort();
  }
  if (mdns::encode(*again) != first) {
    std::fprintf(stderr, "encode(decode(encode(m))) != encode(m)\n");
    std::abort();
  }
}

}  // namespace

extern "C" int LLVMFuzzerTestOneInput(const std::uint8_t* data,
                                      std::size_t size) {
  BytesView wire(data, size);

  std::string error;
  if (auto decoded = mdns::decode(wire, &error)) {
    if (writable(*decoded)) check_round_trip(*decoded);
  }

  static core::MdnsEventParser parser;
  fuzz::check_parser(parser, wire);
  return 0;
}
