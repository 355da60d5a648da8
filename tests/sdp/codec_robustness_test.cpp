// Codec-robustness sweep shared by all four SDPs.
//
// Every golden packet of every protocol is fed to its wire decoder and its
// event parser in three corrupted families — truncated at every length,
// bit-flipped (seeded, deterministic), and length-field-corrupted (every
// byte position forced to 0x00 / 0xFF / a seeded random value) — and the
// decode must fail or succeed *cleanly*: no crash, no UB (this suite runs
// under the ASan/UBSan CI job), and every event parser must still deliver a
// START..STOP-framed stream (or end on a parser switch), because malformed
// network input reaching a unit must degrade to SDP_RES_ERR, never take the
// system down.
//
// Determinism: corruption draws come from sim::Random with fixed seeds —
// no wall clock, no global RNG state.
#include <gtest/gtest.h>

#include <functional>
#include <string>
#include <vector>

#include "core/units/jini_unit.hpp"
#include "core/units/mdns_unit.hpp"
#include "core/units/slp_unit.hpp"
#include "core/units/upnp_unit.hpp"
#include "jini/discovery.hpp"
#include "mdns/dns.hpp"
#include "sim/random.hpp"
#include "slp/wire.hpp"
#include "upnp/description.hpp"
#include "upnp/ssdp.hpp"

namespace indiss {
namespace {

using core::EventType;

// --- Golden packets ---------------------------------------------------------

struct Golden {
  std::string name;
  Bytes wire;
};

std::vector<Golden> slp_goldens() {
  std::vector<Golden> goldens;
  slp::SrvRqst request;
  request.service_type = "service:clock";
  request.predicate = "(friendlyName=Clock*)";
  goldens.push_back({"SrvRqst", slp::encode(slp::Message(request))});

  slp::SrvRply reply;
  reply.header.xid = 42;
  reply.url_entries = {
      slp::UrlEntry{300, "service:clock:soap://10.0.0.2:4005/control"}};
  goldens.push_back({"SrvRply", slp::encode(slp::Message(reply))});

  slp::SrvReg reg;
  reg.service_type = "service:clock";
  reg.url_entry = slp::UrlEntry{300, "service:clock:soap://10.0.0.2:4005/c"};
  reg.attr_list = "(friendlyName=Clock),(room=lab)";
  goldens.push_back({"SrvReg", slp::encode(slp::Message(reg))});

  slp::DAAdvert advert;
  advert.url = "service:directory-agent://10.0.0.9";
  advert.boot_timestamp = 7;
  goldens.push_back({"DAAdvert", slp::encode(slp::Message(advert))});
  return goldens;
}

std::vector<Golden> upnp_goldens() {
  std::vector<Golden> goldens;
  upnp::SearchRequest search;
  search.st = "urn:schemas-upnp-org:device:clock:1";
  goldens.push_back({"MSearch", upnp::encode(search)});

  upnp::SearchResponse response;
  response.st = "urn:schemas-upnp-org:device:clock:1";
  response.usn = "uuid:ClockDevice::upnp:clock";
  response.location = "http://10.0.0.2:4004/description.xml";
  goldens.push_back({"SearchResponse", upnp::encode(response)});

  upnp::Notify notify;
  notify.nt = "urn:schemas-upnp-org:device:clock:1";
  notify.usn = "uuid:ClockDevice::urn:schemas-upnp-org:device:clock:1";
  notify.location = "http://10.0.0.2:4004/description.xml";
  goldens.push_back({"NotifyAlive", upnp::encode(notify)});

  goldens.push_back(
      {"Description", to_bytes(upnp::make_clock_device().to_xml())});
  return goldens;
}

std::vector<Golden> jini_goldens() {
  std::vector<Golden> goldens;
  jini::MulticastRequest request;
  request.response_port = 41000;
  request.groups = {"", "lab"};
  request.heard = {"10.0.0.9"};
  goldens.push_back({"MulticastRequest", request.encode()});

  jini::MulticastAnnouncement announcement;
  announcement.registrar_host = "10.0.0.9";
  announcement.registrar_port = 4160;
  announcement.registrar_id = 0xA11CE;
  announcement.groups = {""};
  goldens.push_back({"MulticastAnnouncement", announcement.encode()});
  return goldens;
}

std::vector<Golden> mdns_goldens() {
  std::vector<Golden> goldens;
  mdns::DnsMessage query;
  query.id = 7;
  mdns::DnsQuestion question;
  question.name = "_clock._tcp.local";
  question.unicast_response = true;
  query.questions.push_back(question);
  goldens.push_back({"BrowseQuery", mdns::encode(query)});

  mdns::DnsMessage announce;
  announce.flags = mdns::kFlagResponse | mdns::kFlagAuthoritative;
  mdns::DnsRecord ptr;
  ptr.name = "_clock._tcp.local";
  ptr.type = mdns::kTypePtr;
  ptr.ttl = 120;
  ptr.target = "clock1._clock._tcp.local";
  announce.answers.push_back(ptr);
  mdns::DnsRecord srv;
  srv.name = "clock1._clock._tcp.local";
  srv.type = mdns::kTypeSrv;
  srv.port = 4006;
  srv.target = "service.local";
  srv.ttl = 120;
  announce.answers.push_back(srv);
  mdns::DnsRecord txt;
  txt.name = "clock1._clock._tcp.local";
  txt.type = mdns::kTypeTxt;
  txt.ttl = 120;
  txt.txt = {{"url", "soap://10.0.0.2:4006/mdns-clock"}};
  announce.answers.push_back(txt);
  mdns::DnsRecord a;
  a.name = "service.local";
  a.type = mdns::kTypeA;
  a.ttl = 120;
  a.address = net::IpAddress(10, 0, 0, 2);
  announce.answers.push_back(a);
  goldens.push_back({"Announce", mdns::encode(announce)});
  return goldens;
}

// --- Corruption families (seeded, deterministic) -----------------------------

std::vector<Bytes> truncations(const Bytes& wire) {
  std::vector<Bytes> variants;
  for (std::size_t len = 0; len < wire.size(); ++len) {
    variants.emplace_back(wire.begin(),
                          wire.begin() + static_cast<std::ptrdiff_t>(len));
  }
  return variants;
}

std::vector<Bytes> bit_flips(const Bytes& wire, std::uint64_t seed) {
  sim::Random rng(seed);
  std::vector<Bytes> variants;
  for (int trial = 0; trial < 200; ++trial) {
    Bytes variant = wire;
    int flips = static_cast<int>(rng.uniform_int(1, 8));
    for (int i = 0; i < flips && !variant.empty(); ++i) {
      auto at = static_cast<std::size_t>(
          rng.uniform_int(0, static_cast<std::int64_t>(variant.size()) - 1));
      variant[at] ^= static_cast<std::uint8_t>(1u << rng.uniform_int(0, 7));
    }
    variants.push_back(std::move(variant));
  }
  return variants;
}

/// Forces every byte position to the extremes and a seeded random value —
/// wherever a length field lives, this lies about it.
std::vector<Bytes> length_field_corruptions(const Bytes& wire,
                                            std::uint64_t seed) {
  sim::Random rng(seed);
  std::vector<Bytes> variants;
  for (std::size_t at = 0; at < wire.size(); ++at) {
    for (std::uint8_t forced :
         {std::uint8_t{0x00}, std::uint8_t{0xFF},
          static_cast<std::uint8_t>(rng.uniform_int(1, 254))}) {
      Bytes variant = wire;
      variant[at] = forced;
      variants.push_back(std::move(variant));
    }
  }
  return variants;
}

std::vector<Bytes> all_corruptions(const Bytes& wire, std::uint64_t seed) {
  std::vector<Bytes> variants = truncations(wire);
  for (auto& v : bit_flips(wire, seed)) variants.push_back(std::move(v));
  for (auto& v : length_field_corruptions(wire, seed + 1)) {
    variants.push_back(std::move(v));
  }
  return variants;
}

// --- Harness ----------------------------------------------------------------

core::MessageContext corrupt_ctx() {
  core::MessageContext ctx;
  ctx.source = net::Endpoint{net::IpAddress(10, 0, 0, 66), 41000};
  ctx.multicast = true;
  return ctx;
}

/// Feeds every corrupted variant of every golden to `decode` (exceptions
/// escaping the decoder are a bug) and to `parser`, asserting the parser
/// still frames its stream.
void sweep(const std::vector<Golden>& goldens,
           const std::function<void(BytesView)>& decode,
           core::SdpParser& parser, std::uint64_t seed) {
  core::StreamPool pool;
  core::CollectingSink sink(pool);
  core::MessageContext ctx = corrupt_ctx();
  std::size_t variants_run = 0;
  for (const auto& golden : goldens) {
    for (const Bytes& variant : all_corruptions(golden.wire, seed)) {
      decode(variant);

      sink.reset();
      parser.parse(variant, ctx, sink);
      const core::EventStream& stream = sink.stream();
      ASSERT_FALSE(stream.empty())
          << golden.name << ": parser emitted nothing";
      ASSERT_EQ(stream.front().type, EventType::kControlStart) << golden.name;
      EventType last = stream.back().type;
      ASSERT_TRUE(last == EventType::kControlStop ||
                  last == EventType::kControlParserSwitch)
          << golden.name << ": stream not closed (last event "
          << core::event_name(last) << ")";
      variants_run += 1;
    }
  }
  // ~wire_size + 200 + 3*wire_size variants per golden: the sweep must have
  // actually swept.
  EXPECT_GT(variants_run, 500u);
}

TEST(CodecRobustness, SlpSurvivesCorruptedPackets) {
  core::SlpEventParser parser;
  sweep(slp_goldens(),
        [](BytesView wire) {
          std::string error;
          auto decoded = slp::decode(wire, &error);
          if (decoded.has_value()) slp::encode(*decoded);  // and re-encodes
        },
        parser, /*seed=*/101);
}

TEST(CodecRobustness, UpnpSurvivesCorruptedPackets) {
  core::SsdpEventParser parser;
  sweep(upnp_goldens(),
        [](BytesView wire) {
          auto message = upnp::parse_ssdp(wire);
          (void)message;
        },
        parser, /*seed=*/202);
}

TEST(CodecRobustness, UpnpDescriptionParserSurvivesCorruptedXml) {
  // The parser-switch target: corrupted description documents arrive as
  // continuation parses, so only the closing STOP is guaranteed.
  core::UpnpDescriptionParser parser;
  core::StreamPool pool;
  core::CollectingSink sink(pool);
  core::MessageContext ctx;
  ctx.continuation = true;
  Bytes xml = to_bytes(upnp::make_clock_device().to_xml());
  for (const Bytes& variant : all_corruptions(xml, 303)) {
    sink.reset();
    parser.parse(variant, ctx, sink);
    ASSERT_FALSE(sink.stream().empty());
    ASSERT_EQ(sink.stream().back().type, EventType::kControlStop);
  }
}

TEST(CodecRobustness, JiniSurvivesCorruptedPackets) {
  core::JiniEventParser parser;
  sweep(jini_goldens(),
        [](BytesView wire) {
          auto kind = jini::packet_kind(wire);
          auto request = jini::MulticastRequest::decode(wire);
          auto announcement = jini::MulticastAnnouncement::decode(wire);
          (void)kind;
          (void)request;
          (void)announcement;
        },
        parser, /*seed=*/404);
}

TEST(CodecRobustness, MdnsSurvivesCorruptedPackets) {
  core::MdnsEventParser parser;
  sweep(mdns_goldens(),
        [](BytesView wire) {
          std::string error;
          auto decoded = mdns::decode(wire, &error);
          if (decoded.has_value()) mdns::encode(*decoded);  // and re-encodes
        },
        parser, /*seed=*/505);
}

}  // namespace
}  // namespace indiss
