// mDNS/DNS-SD protocol tests: wire-codec round trips for every record type,
// name-compression pointer edge cases (self-referencing, forward, looping
// and truncated pointers must fail cleanly), golden-packet parse/compose
// through the MdnsUnit parser, the RFC 6762 suppression rules on the
// simulated network, and the zero-steady-state-allocation pins for the
// parse -> events -> compose round trip (the PR-2 guarantee extended to the
// fourth SDP).
#include <gtest/gtest.h>

#include <algorithm>
#include <cstring>
#include <random>
#include <string>
#include <vector>

#include "core/units/mdns_unit.hpp"
#include "mdns/dns.hpp"
#include "mdns/dnssd.hpp"
#include "net/host.hpp"
#include "net/udp.hpp"
#include "net/network.hpp"
#include "sim/scheduler.hpp"

#include "tests/support/alloc_meter.hpp"

namespace indiss::mdns {
namespace {

using core::Event;
using core::EventStream;
using core::EventType;

// --- Codec round trips ------------------------------------------------------

DnsMessage announce_message() {
  DnsMessage message;
  message.flags = kFlagResponse | kFlagAuthoritative;

  DnsRecord ptr;
  ptr.name = "_clock._tcp.local";
  ptr.type = kTypePtr;
  ptr.ttl = 120;
  ptr.target = "clock1._clock._tcp.local";
  message.answers.push_back(ptr);

  DnsRecord srv;
  srv.name = "clock1._clock._tcp.local";
  srv.type = kTypeSrv;
  srv.cache_flush = true;
  srv.ttl = 120;
  srv.priority = 1;
  srv.weight = 7;
  srv.port = 4006;
  srv.target = "service.local";
  message.answers.push_back(srv);

  DnsRecord txt;
  txt.name = "clock1._clock._tcp.local";
  txt.type = kTypeTxt;
  txt.cache_flush = true;
  txt.ttl = 120;
  txt.txt = {{"url", "soap://10.0.0.2:4006/mdns-clock"},
             {"friendlyName", "Bonjour Clock"},
             {"ready", ""}};
  message.answers.push_back(txt);

  DnsRecord a;
  a.name = "service.local";
  a.type = kTypeA;
  a.cache_flush = true;
  a.ttl = 120;
  a.address = net::IpAddress(10, 0, 0, 2);
  message.answers.push_back(a);
  return message;
}

TEST(DnsCodec, RoundTripsEveryRecordType) {
  DnsMessage message = announce_message();
  message.id = 0x1234;
  DnsQuestion question;
  question.name = "_clock._tcp.local";
  question.qtype = kTypePtr;
  question.unicast_response = true;
  message.questions.push_back(question);
  DnsRecord unknown;
  unknown.name = "odd.local";
  unknown.type = 47;  // NSEC: carried verbatim
  unknown.ttl = 9;
  unknown.raw = {0xDE, 0xAD, 0xBE, 0xEF};
  message.additionals.push_back(unknown);

  Bytes wire = encode(message);
  std::string error;
  auto decoded = decode(wire, &error);
  ASSERT_TRUE(decoded.has_value()) << error;
  EXPECT_EQ(decoded->id, 0x1234);
  EXPECT_TRUE(decoded->is_response());
  ASSERT_EQ(decoded->questions.size(), 1u);
  EXPECT_EQ(decoded->questions[0].name, "_clock._tcp.local");
  EXPECT_TRUE(decoded->questions[0].unicast_response);
  ASSERT_EQ(decoded->answers.size(), 4u);

  const DnsRecord& ptr = decoded->answers[0];
  EXPECT_EQ(ptr.type, kTypePtr);
  EXPECT_EQ(ptr.name, "_clock._tcp.local");
  EXPECT_EQ(ptr.target, "clock1._clock._tcp.local");
  EXPECT_EQ(ptr.ttl, 120u);
  EXPECT_FALSE(ptr.cache_flush);

  const DnsRecord& srv = decoded->answers[1];
  EXPECT_EQ(srv.type, kTypeSrv);
  EXPECT_TRUE(srv.cache_flush);
  EXPECT_EQ(srv.priority, 1);
  EXPECT_EQ(srv.weight, 7);
  EXPECT_EQ(srv.port, 4006);
  EXPECT_EQ(srv.target, "service.local");

  const DnsRecord& txt = decoded->answers[2];
  EXPECT_EQ(txt.type, kTypeTxt);
  ASSERT_EQ(txt.txt.size(), 3u);
  EXPECT_EQ(txt.txt[0].first, "url");
  EXPECT_EQ(txt.txt[0].second, "soap://10.0.0.2:4006/mdns-clock");
  EXPECT_EQ(txt.txt[2].first, "ready");
  EXPECT_EQ(txt.txt[2].second, "");

  const DnsRecord& a = decoded->answers[3];
  EXPECT_EQ(a.type, kTypeA);
  EXPECT_EQ(a.address, net::IpAddress(10, 0, 0, 2));

  ASSERT_EQ(decoded->additionals.size(), 1u);
  EXPECT_EQ(decoded->additionals[0].type, 47);
  EXPECT_EQ(decoded->additionals[0].raw, (Bytes{0xDE, 0xAD, 0xBE, 0xEF}));
}

TEST(DnsCodec, CompressionShrinksTheWireAndRoundTrips) {
  DnsMessage message = announce_message();
  Bytes wire = encode(message);

  // The shared "_clock._tcp.local" / "service.local" suffixes must have
  // collapsed into pointers (0xC0 top bits).
  std::size_t pointers = 0;
  for (std::size_t i = 0; i + 1 < wire.size(); ++i) {
    if ((wire[i] & 0xC0) == 0xC0) ++pointers;
  }
  EXPECT_GE(pointers, 3u) << "expected compression pointers on the wire";

  // An uncompressed lower bound: the sum of all name spellings.
  std::size_t spelled = 0;
  for (const auto& r : message.answers) spelled += r.name.size() + 2;
  EXPECT_LT(wire.size(), spelled + 120)
      << "compressed message should be far smaller than spelled-out names";

  auto decoded = decode(wire);
  ASSERT_TRUE(decoded.has_value());
  EXPECT_EQ(decoded->answers[1].name, "clock1._clock._tcp.local");
  EXPECT_EQ(decoded->answers[3].name, "service.local");
}

// --- Compression pointer edge cases ----------------------------------------

// A minimal header claiming one question, followed by `name` bytes.
Bytes wire_with_question_name(const Bytes& name) {
  Bytes wire = {0, 0, 0, 0, 0, 1, 0, 0, 0, 0, 0, 0};
  wire.insert(wire.end(), name.begin(), name.end());
  wire.push_back(0);  // qtype
  wire.push_back(12);
  wire.push_back(0);  // qclass
  wire.push_back(1);
  return wire;
}

TEST(DnsCodec, SelfReferencingPointerFailsCleanly) {
  // Name at offset 12 is a pointer to offset 12: itself.
  std::string error;
  auto decoded = decode(wire_with_question_name({0xC0, 12}), &error);
  EXPECT_FALSE(decoded.has_value());
  EXPECT_NE(error.find("backwards"), std::string::npos) << error;
}

TEST(DnsCodec, ForwardPointerFailsCleanly) {
  auto decoded = decode(wire_with_question_name({0xC0, 14}));
  EXPECT_FALSE(decoded.has_value());
}

TEST(DnsCodec, OutOfBoundsPointerFailsCleanly) {
  // 0x3FFF is far past the end of this message; also a forward reference.
  auto decoded = decode(wire_with_question_name({0xFF, 0xFF}));
  EXPECT_FALSE(decoded.has_value());
}

TEST(DnsCodec, PointerLoopFailsCleanly) {
  // Offset 12: label "a", then a pointer back to offset 12 — every hop
  // passes a naive "points backwards" check but the chain never terminates.
  std::string error;
  auto decoded =
      decode(wire_with_question_name({1, 'a', 0xC0, 12}), &error);
  EXPECT_FALSE(decoded.has_value());
  EXPECT_NE(error.find("backwards"), std::string::npos) << error;
}

TEST(DnsCodec, TruncatedPointerFailsCleanly) {
  Bytes wire = {0, 0, 0, 0, 0, 1, 0, 0, 0, 0, 0, 0, 0xC0};
  EXPECT_FALSE(decode(wire).has_value());
}

TEST(DnsCodec, ReservedLabelTypeFailsCleanly) {
  EXPECT_FALSE(decode(wire_with_question_name({0x40, 'x'})).has_value());
}

TEST(DnsCodec, LabelRunningPastEndFailsCleanly) {
  Bytes wire = {0, 0, 0, 0, 0, 1, 0, 0, 0, 0, 0, 0, 63, 'a', 'b'};
  EXPECT_FALSE(decode(wire).has_value());
}

TEST(DnsCodec, TruncatedHeaderAndSectionsFailCleanly) {
  EXPECT_FALSE(decode(Bytes{}).has_value());
  EXPECT_FALSE(decode(Bytes{0, 1, 2}).has_value());
  // Header claims 3 questions, provides none.
  Bytes lying = {0, 0, 0, 0, 0, 3, 0, 0, 0, 0, 0, 0};
  EXPECT_FALSE(decode(lying).has_value());
}

TEST(DnsCodec, RdlengthMismatchFailsCleanly) {
  DnsMessage message;
  message.flags = kFlagResponse;
  DnsRecord a;
  a.name = "h.local";
  a.type = kTypeA;
  a.address = net::IpAddress(1, 2, 3, 4);
  message.answers.push_back(a);
  Bytes wire = encode(message);
  // Find the A record's RDLENGTH (last 6 bytes are rdlen + 4 rdata bytes)
  // and lie about it.
  wire[wire.size() - 5] = 7;
  EXPECT_FALSE(decode(wire).has_value());
}

// --- Differential compression check -----------------------------------------
//
// DnsEncoder finds compression targets through a hash table. The reference
// below is the plain RFC 1035 compressor it must agree with byte for byte:
// every name suffix is compared against every earlier name offset, and the
// first match wins. It lives only here, as the specification.

class LinearScanEncoder {
 public:
  Bytes encode(const DnsMessage& message) {
    writer_.clear();
    offsets_.clear();
    writer_.u16(message.id);
    writer_.u16(message.flags);
    writer_.u16(static_cast<std::uint16_t>(message.questions.size()));
    writer_.u16(static_cast<std::uint16_t>(message.answers.size()));
    writer_.u16(static_cast<std::uint16_t>(message.authorities.size()));
    writer_.u16(static_cast<std::uint16_t>(message.additionals.size()));
    for (const auto& q : message.questions) {
      write_name(q.name);
      writer_.u16(q.qtype);
      writer_.u16(q.unicast_response ? (kClassIn | kClassTopBit) : kClassIn);
    }
    for (const auto& r : message.answers) write_record(r);
    for (const auto& r : message.authorities) write_record(r);
    for (const auto& r : message.additionals) write_record(r);
    return Bytes(writer_.bytes());
  }

 private:
  // Does the (possibly pointer-chained) wire name at `offset` spell
  // `dotted`? One trailing dot in `dotted` is allowed.
  bool name_at_equals(std::size_t offset, std::string_view dotted) const {
    const Bytes& b = writer_.bytes();
    std::size_t pos = offset;
    std::size_t s = 0;
    while (pos < b.size()) {
      std::uint8_t len = b[pos];
      if ((len & 0xC0) == 0xC0) {
        pos = (static_cast<std::size_t>(len & 0x3F) << 8) | b[pos + 1];
        continue;
      }
      if (len == 0) return s == dotted.size();
      if (pos + 1 + len > b.size()) return false;
      auto dot = dotted.find('.', s);
      std::size_t end = dot == std::string_view::npos ? dotted.size() : dot;
      if (end - s != len ||
          std::memcmp(b.data() + pos + 1, dotted.data() + s, len) != 0) {
        return false;
      }
      s = dot == std::string_view::npos ? dotted.size() : dot + 1;
      pos += 1 + static_cast<std::size_t>(len);
    }
    return false;
  }

  void write_name(std::string_view name) {
    std::size_t start = 0;
    while (start < name.size()) {
      for (std::uint16_t at : offsets_) {
        if (name_at_equals(at, name.substr(start))) {
          writer_.u16(static_cast<std::uint16_t>(0xC000 | at));
          return;
        }
      }
      auto dot = name.find('.', start);
      std::size_t end = dot == std::string_view::npos ? name.size() : dot;
      std::string_view label =
          name.substr(start, std::min<std::size_t>(end - start, 63));
      if (!label.empty() && writer_.size() < 0x3FFF) {
        offsets_.push_back(static_cast<std::uint16_t>(writer_.size()));
      }
      writer_.u8(static_cast<std::uint8_t>(label.size()));
      writer_.raw(label);
      start = dot == std::string_view::npos ? name.size() : dot + 1;
    }
    writer_.u8(0);
  }

  void write_record(const DnsRecord& r) {
    write_name(r.name);
    writer_.u16(r.type);
    writer_.u16(r.cache_flush ? (kClassIn | kClassTopBit) : kClassIn);
    writer_.u32(r.ttl);
    std::size_t rdlen_at = writer_.size();
    writer_.u16(0);
    std::size_t rdata_start = writer_.size();
    if (r.type == kTypePtr) {
      write_name(r.target);
    } else if (r.type == kTypeSrv) {
      writer_.u16(r.priority);
      writer_.u16(r.weight);
      writer_.u16(r.port);
      write_name(r.target);
    } else if (r.type == kTypeTxt) {
      for (const auto& [key, value] : r.txt) {
        std::size_t len = key.size() + (value.empty() ? 0 : 1 + value.size());
        if (len == 0 || len > 255) continue;
        writer_.u8(static_cast<std::uint8_t>(len));
        writer_.raw(key);
        if (!value.empty()) {
          writer_.raw("=");
          writer_.raw(value);
        }
      }
    } else if (r.type == kTypeA) {
      writer_.u32(r.address.bits());
    } else {
      writer_.raw(r.raw);
    }
    writer_.patch_u16(rdlen_at,
                      static_cast<std::uint16_t>(writer_.size() - rdata_start));
  }

  ByteWriter writer_;
  std::vector<std::uint16_t> offsets_;
};

/// The reply a directory-mode gateway composes for a browse that matches
/// `instances` services: PTR answers plus SRV/TXT/A additionals each.
DnsMessage dnssd_bundle(std::size_t instances) {
  EventStream stream;
  stream.push_back(Event(EventType::kControlStart));
  for (std::size_t i = 0; i < instances; ++i) {
    std::string url = "soap://10.0." + std::to_string(i / 200) + "." +
                      std::to_string(i % 200 + 1) + ":4006/clock" +
                      std::to_string(i);
    stream.push_back(Event(EventType::kResServUrl, {{"url", url}}));
  }
  stream.push_back(Event(EventType::kControlStop));
  DnsMessage message;
  core::compose_dnssd_answers(stream, "_clock._tcp.local", 120, message);
  return message;
}

/// A name drawn from labels that share suffixes, differ only in case, are
/// empty, sit at the 63-byte cap or exceed it (and then truncate onto a
/// capped twin), with occasional leading and trailing dots.
std::string random_name(std::mt19937& rng) {
  static const std::vector<std::string> kLabels = {
      "_clock", "_tcp", "local", "Local", "LOCAL", "_printer", "_udp",
      "host",   "Host", "a",     "",      std::string(63, 'x'),
      std::string(64, 'x'),      std::string(70, 'x'),
      std::string(62, 'y')};
  std::string name;
  if (rng() % 16 == 0) name.push_back('.');
  std::size_t labels = 1 + rng() % 5;
  for (std::size_t i = 0; i < labels; ++i) {
    if (i > 0) name.push_back('.');
    name += kLabels[rng() % kLabels.size()];
  }
  if (rng() % 8 == 0) name.push_back('.');
  return name;
}

DnsRecord random_record(std::mt19937& rng) {
  static const std::uint16_t kTypes[] = {kTypePtr, kTypeSrv, kTypeTxt, kTypeA,
                                         99};
  DnsRecord record;
  record.name = random_name(rng);
  record.type = kTypes[rng() % 5];
  record.cache_flush = rng() % 2 == 0;
  record.ttl = rng() % 4500;
  switch (record.type) {
    case kTypePtr:
      record.target = random_name(rng);
      break;
    case kTypeSrv:
      record.port = static_cast<std::uint16_t>(rng());
      record.target = random_name(rng);
      break;
    case kTypeTxt:
      record.txt = {{"url", random_name(rng)}, {"k", ""}};
      break;
    case kTypeA:
      record.address = net::IpAddress(10, 0, 0, rng() % 256);
      break;
    default:
      record.raw = Bytes(rng() % 9, 0xAB);
      break;
  }
  return record;
}

DnsMessage random_message(std::mt19937& rng, std::size_t max_records) {
  DnsMessage message;
  message.id = static_cast<std::uint16_t>(rng());
  message.flags = kFlagResponse;
  for (std::size_t i = rng() % 3; i > 0; --i) {
    message.questions.push_back(DnsQuestion{random_name(rng), kTypePtr});
  }
  for (std::size_t i = 1 + rng() % max_records; i > 0; --i) {
    auto& section = rng() % 3 == 0 ? message.additionals : message.answers;
    section.push_back(random_record(rng));
  }
  return message;
}

TEST(DnsCompression, MatchesTheLinearScanOnDnssdBundles) {
  LinearScanEncoder reference;
  DnsEncoder encoder;
  for (std::size_t instances : {1u, 16u, 64u, 256u}) {
    DnsMessage bundle = dnssd_bundle(instances);
    ASSERT_EQ(bundle.answers.size(), instances);
    Bytes expected = reference.encode(bundle);
    BytesView got = encoder.encode(bundle);
    EXPECT_TRUE(std::equal(got.begin(), got.end(), expected.begin(),
                           expected.end()))
        << instances << "-instance bundle differs from the linear scan";
    EXPECT_EQ(encode(bundle), expected);
    if (instances == 256) {
      EXPECT_GT(expected.size(), 0x3FFFu)
          << "the big bundle must reach past the pointer range";
    }
    ASSERT_TRUE(decode(expected).has_value());
  }
}

TEST(DnsCompression, MatchesTheLinearScanOnEdgeCaseNames) {
  DnsMessage message;
  for (std::string_view name :
       {"_clock._tcp.local", "_clock._tcp.local.", "_CLOCK._tcp.local",
        "x._Clock._tcp.local", "", ".", "..", "a.", "a..", ".a", "a..a",
        "b.a..a", "a.b.", "a.b..", "local", "LOCAL.", "a.local"}) {
    DnsRecord record;
    record.name = std::string(name);
    record.type = kTypePtr;
    record.target = "a." + std::string(name);
    message.answers.push_back(record);
  }
  DnsRecord long_labels;
  long_labels.name = std::string(70, 'z') + ".local";
  long_labels.type = kTypeSrv;
  long_labels.target = std::string(63, 'z') + ".local";
  message.answers.push_back(long_labels);
  message.answers.push_back(long_labels);

  LinearScanEncoder reference;
  EXPECT_EQ(encode(message), reference.encode(message));
}

TEST(DnsCompression, MatchesTheLinearScanOnGeneratedMessages) {
  std::mt19937 rng(20051130);
  LinearScanEncoder reference;
  DnsEncoder warm;  // reused across messages, like a unit's encoder
  std::size_t past_pointer_range = 0;
  for (int i = 0; i < 300; ++i) {
    DnsMessage message = random_message(rng, i % 40 == 0 ? 700 : 40);
    Bytes expected = reference.encode(message);
    BytesView got = warm.encode(message);
    ASSERT_TRUE(std::equal(got.begin(), got.end(), expected.begin(),
                           expected.end()))
        << "message " << i << " differs from the linear scan";
    if (expected.size() > 0x3FFF) past_pointer_range += 1;
  }
  EXPECT_GE(past_pointer_range, 3u)
      << "some generated messages must pass the 14-bit pointer range";
}

// --- Golden-packet parse through the unit parser ----------------------------

core::MessageContext multicast_ctx() {
  core::MessageContext ctx;
  ctx.source = net::Endpoint{net::IpAddress(10, 0, 0, 2), 5353};
  ctx.destination = net::Endpoint{kMdnsGroup, kMdnsPort};
  ctx.multicast = true;
  return ctx;
}

TEST(MdnsEventParser, AnnouncementBecomesAliveAdvertisement) {
  Bytes wire = encode(announce_message());
  core::MdnsEventParser parser;
  core::StreamPool pool;
  core::CollectingSink sink(pool);
  parser.parse(wire, multicast_ctx(), sink);

  const EventStream& stream = sink.stream();
  ASSERT_TRUE(core::well_framed(stream));
  ASSERT_NE(core::find_event(stream, EventType::kServiceAlive), nullptr);
  auto* type = core::find_event(stream, EventType::kServiceTypeIs);
  ASSERT_NE(type, nullptr);
  EXPECT_EQ(type->get("type"), "clock");
  EXPECT_EQ(type->get("native"), "_clock._tcp.local");
  auto* instance = core::find_event(stream, EventType::kMdnsInstance);
  ASSERT_NE(instance, nullptr);
  EXPECT_EQ(instance->get("instance"), "clock1");
  auto* srv = core::find_event(stream, EventType::kMdnsSrv);
  ASSERT_NE(srv, nullptr);
  EXPECT_EQ(srv->get("port"), "4006");
  EXPECT_EQ(srv->get("target"), "service.local");
  auto* url = core::find_event(stream, EventType::kResServUrl);
  ASSERT_NE(url, nullptr);
  EXPECT_EQ(url->get("url"), "soap://10.0.0.2:4006/mdns-clock");
  auto* attr = core::find_event(stream, EventType::kServiceAttr);
  ASSERT_NE(attr, nullptr);
  EXPECT_EQ(attr->get("key"), "friendlyName");
}

TEST(MdnsEventParser, GoodbyeBecomesByeBye) {
  DnsMessage message = announce_message();
  for (auto& record : message.answers) record.ttl = 0;
  Bytes wire = encode(message);
  core::MdnsEventParser parser;
  core::StreamPool pool;
  core::CollectingSink sink(pool);
  parser.parse(wire, multicast_ctx(), sink);
  EXPECT_NE(core::find_event(sink.stream(), EventType::kServiceByeBye),
            nullptr);
  EXPECT_EQ(core::find_event(sink.stream(), EventType::kServiceAlive),
            nullptr);
}

TEST(MdnsEventParser, BrowseQueryBecomesServiceRequest) {
  DnsMessage query;
  query.id = 77;
  DnsQuestion question;
  question.name = "_clock._tcp.local";
  query.questions.push_back(question);
  Bytes wire = encode(query);

  core::MdnsEventParser parser;
  core::StreamPool pool;
  core::CollectingSink sink(pool);
  parser.parse(wire, multicast_ctx(), sink);
  const EventStream& stream = sink.stream();
  auto* request = core::find_event(stream, EventType::kServiceRequest);
  ASSERT_NE(request, nullptr);
  EXPECT_EQ(request->get("server"), "");
  auto* q = core::find_event(stream, EventType::kMdnsQuestion);
  ASSERT_NE(q, nullptr);
  EXPECT_EQ(q->get("name"), "_clock._tcp.local");
  EXPECT_EQ(q->get("id"), "77");
  auto* type = core::find_event(stream, EventType::kServiceTypeIs);
  ASSERT_NE(type, nullptr);
  EXPECT_EQ(type->get("type"), "clock");
}

TEST(MdnsEventParser, UnicastResponseBecomesServiceResponse) {
  Bytes wire = encode(announce_message());
  core::MdnsEventParser parser;
  core::StreamPool pool;
  core::CollectingSink sink(pool);
  core::MessageContext ctx;
  ctx.source = net::Endpoint{net::IpAddress(10, 0, 0, 2), 5353};
  ctx.multicast = false;
  parser.parse(wire, ctx, sink);
  EXPECT_NE(core::find_event(sink.stream(), EventType::kServiceResponse),
            nullptr);
  EXPECT_NE(core::find_event(sink.stream(), EventType::kResOk), nullptr);
}

TEST(MdnsEventParser, MalformedPacketYieldsErrorNotCrash) {
  Bytes wire = {0xFF, 0x00, 0x01};
  core::MdnsEventParser parser;
  core::StreamPool pool;
  core::CollectingSink sink(pool);
  parser.parse(wire, multicast_ctx(), sink);
  ASSERT_TRUE(core::well_framed(sink.stream()));
  EXPECT_NE(core::find_event(sink.stream(), EventType::kResErr), nullptr);
}

TEST(MdnsEventParser, SynthesizesUrlFromSrvWhenTxtHasNone) {
  DnsMessage message = announce_message();
  message.answers[2].txt = {{"friendlyName", "Bonjour Clock"}};
  Bytes wire = encode(message);
  core::MdnsEventParser parser;
  core::StreamPool pool;
  core::CollectingSink sink(pool);
  parser.parse(wire, multicast_ctx(), sink);
  auto* url = core::find_event(sink.stream(), EventType::kResServUrl);
  ASSERT_NE(url, nullptr);
  EXPECT_EQ(url->get("url"), "mdns://10.0.0.2:4006");
}

// --- Compose: translated reply stream -> DNS-SD answer bundle ---------------

EventStream reply_stream() {
  EventStream stream;
  stream.push_back(Event(EventType::kControlStart));
  stream.push_back(Event(EventType::kNetType, {{"sdp", "upnp"}}));
  stream.push_back(Event(EventType::kServiceResponse));
  stream.push_back(Event(EventType::kServiceTypeIs, {{"type", "clock"}}));
  stream.push_back(Event(EventType::kServiceAttr,
                         {{"key", "friendlyName"}, {"value", "Foreign"}}));
  stream.push_back(Event(EventType::kResServUrl,
                         {{"url", "soap://10.0.0.9:4004/control"}}));
  stream.push_back(Event(EventType::kControlStop));
  return stream;
}

TEST(MdnsCompose, BuildsPtrSrvTxtABundleWithBridgeMarker) {
  DnsMessage out;
  std::size_t groups = core::compose_dnssd_answers(
      reply_stream(), "_clock._tcp.local", 120, out);
  ASSERT_EQ(groups, 1u);
  ASSERT_EQ(out.answers.size(), 1u);
  EXPECT_EQ(out.answers[0].type, kTypePtr);
  EXPECT_EQ(out.answers[0].name, "_clock._tcp.local");
  EXPECT_TRUE(out.answers[0].target.ends_with("._clock._tcp.local"));

  // SRV + TXT + A + bridge marker in additionals.
  ASSERT_EQ(out.additionals.size(), 4u);
  const DnsRecord& srv = out.additionals[0];
  EXPECT_EQ(srv.type, kTypeSrv);
  EXPECT_EQ(srv.port, 4004);
  EXPECT_EQ(srv.target, "10.0.0.9");
  const DnsRecord& txt = out.additionals[1];
  ASSERT_GE(txt.txt.size(), 2u);
  EXPECT_EQ(txt.txt[0].first, "url");
  EXPECT_EQ(txt.txt[0].second, "soap://10.0.0.9:4004/control");
  const DnsRecord& a = out.additionals[2];
  EXPECT_EQ(a.type, kTypeA);
  EXPECT_EQ(a.address, net::IpAddress(10, 0, 0, 9));
  EXPECT_EQ(out.additionals[3].name, "_indiss-bridge._udp.local");

  // The composed bundle survives a wire round trip.
  auto decoded = decode(encode(out));
  ASSERT_TRUE(decoded.has_value());
  EXPECT_EQ(decoded->answers[0].target, out.answers[0].target);
}

TEST(MdnsCompose, BridgeMarkerIsSurfacedAsServerStamp) {
  DnsMessage out;
  ASSERT_EQ(core::compose_dnssd_answers(reply_stream(), "_clock._tcp.local",
                                        120, out),
            1u);
  Bytes wire = encode(out);
  core::MdnsEventParser parser;
  core::StreamPool pool;
  core::CollectingSink sink(pool);
  parser.parse(wire, multicast_ctx(), sink);
  auto* head = core::find_event(sink.stream(), EventType::kServiceAlive);
  ASSERT_NE(head, nullptr);
  EXPECT_NE(head->get("server").find("INDISS-bridge"), std::string::npos);
}

// --- Native actors on the simulated network ---------------------------------

struct DnssdFixture : ::testing::Test {
  sim::Scheduler scheduler;
  net::Network network{scheduler, net::LinkProfile{}, 3};
  net::Host& service_host =
      network.add_host("service", net::IpAddress(10, 0, 0, 2));
  net::Host& client_host =
      network.add_host("client", net::IpAddress(10, 0, 0, 1));

  static ServiceInstance clock_instance(const std::string& name) {
    ServiceInstance service;
    service.instance = name;
    service.service_type = "_clock._tcp";
    service.port = 4006;
    service.txt = {{"url", "soap://10.0.0.2:4006/mdns-clock"}};
    return service;
  }
};

TEST_F(DnssdFixture, BrowserResolvesPublishedInstance) {
  MdnsResponder responder(service_host);
  responder.publish(clock_instance("clock1"));
  scheduler.run_for(sim::millis(10));

  MdnsBrowser browser(client_host);
  std::vector<BrowseResult> results;
  browser.browse("_clock._tcp",
                 [&](const std::vector<BrowseResult>& r) { results = r; });
  scheduler.run_for(sim::seconds(1));

  ASSERT_EQ(results.size(), 1u);
  EXPECT_EQ(results[0].instance, "clock1");
  EXPECT_EQ(results[0].port, 4006);
  EXPECT_EQ(results[0].address, net::IpAddress(10, 0, 0, 2));
  EXPECT_EQ(results[0].url(), "soap://10.0.0.2:4006/mdns-clock");
  EXPECT_GE(responder.queries_seen(), 1u);
  EXPECT_GE(responder.responses_sent(), 1u);
}

TEST_F(DnssdFixture, KnownAnswerSuppressionKeepsResponderSilent) {
  MdnsResponder responder(service_host);
  responder.publish(clock_instance("clock1"));
  scheduler.run_for(sim::seconds(3));  // past the whole announce burst
  std::uint64_t announced = responder.responses_sent();

  MdnsConfig no_retry;
  no_retry.browse_retransmits = 0;
  MdnsBrowser quiet(client_host, no_retry);
  std::vector<BrowseResult> results;
  quiet.browse("_clock._tcp",
               [&](const std::vector<BrowseResult>& r) { results = r; },
               /*known_answers=*/{"clock1"});
  scheduler.run_for(sim::seconds(1));

  EXPECT_TRUE(results.empty());
  EXPECT_EQ(responder.responses_sent(), announced);
  EXPECT_GE(responder.known_answer_suppressed(), 1u);
}

TEST_F(DnssdFixture, DuplicateAnswerSuppressionCancelsThePacedTimer) {
  // Two responders advertise the same shared PTR record; a full mDNS
  // querier (source port 5353) makes both schedule paced multicast answers.
  // The slower one must cancel when it hears the faster one's answer.
  MdnsConfig fast;
  fast.seed = 11;
  MdnsConfig slow;
  slow.seed = 12;
  MdnsResponder first(service_host, fast);
  MdnsResponder second(client_host, slow);
  first.publish(clock_instance("shared"));
  second.publish(clock_instance("shared"));
  scheduler.run_for(sim::seconds(3));  // past both announce bursts
  std::uint64_t sent_before = first.responses_sent() + second.responses_sent();

  net::Host& querier_host =
      network.add_host("querier", net::IpAddress(10, 0, 0, 7));
  auto socket = querier_host.udp_socket(kMdnsPort);
  DnsMessage query;
  DnsQuestion question;
  question.name = "_clock._tcp.local";
  query.questions.push_back(question);
  socket->send_to(net::Endpoint{kMdnsGroup, kMdnsPort}, encode(query));
  scheduler.run_for(sim::seconds(1));

  std::uint64_t answers =
      first.responses_sent() + second.responses_sent() - sent_before;
  EXPECT_EQ(answers, 1u) << "exactly one multicast answer must go out";
  EXPECT_EQ(first.duplicates_cancelled() + second.duplicates_cancelled(), 1u);
}

TEST_F(DnssdFixture, GoodbyeWithdrawsTheInstance) {
  MdnsResponder responder(service_host);
  responder.publish(clock_instance("clock1"));
  scheduler.run_for(sim::millis(10));
  responder.goodbye();
  scheduler.run_for(sim::millis(10));

  MdnsBrowser browser(client_host);
  std::vector<BrowseResult> results;
  bool complete = false;
  browser.browse("_clock._tcp", [&](const std::vector<BrowseResult>& r) {
    results = r;
    complete = true;
  });
  scheduler.run_for(sim::seconds(1));
  EXPECT_TRUE(complete);
  EXPECT_TRUE(results.empty());
}

// --- RFC 6762 §8 probing ----------------------------------------------------

TEST(ProbeHelpers, RdataComparisonIsSignSymmetricAndZeroOnIdentity) {
  DnsRecord mine;
  mine.name = "clock1._clock._tcp.local";
  mine.type = kTypeTxt;
  mine.txt = {{"url", "soap://10.0.0.2:4006/a"}};
  DnsRecord theirs = mine;
  EXPECT_EQ(compare_rdata_sets({mine}, {theirs}), 0)
      << "identical rdata is never a conflict";

  theirs.txt = {{"url", "soap://10.0.0.9:4006/z"}};
  int forward = compare_rdata_sets({mine}, {theirs});
  int backward = compare_rdata_sets({theirs}, {mine});
  EXPECT_NE(forward, 0);
  EXPECT_EQ(forward > 0, backward < 0) << "exactly one side wins a tiebreak";

  // §8.2.1: the cache-flush bit is excluded from the comparison key.
  theirs = mine;
  theirs.cache_flush = !mine.cache_flush;
  EXPECT_EQ(compare_rdata_sets({mine}, {theirs}), 0);
}

TEST(ProbeHelpers, RenamedLabelIsBoundedAndHashStable) {
  std::string first = renamed_label("clock1", 1);
  EXPECT_EQ(first, renamed_label("clock1", 1)) << "renames are reproducible";
  EXPECT_EQ(first.size(), std::string("clock1").size() + 4)
      << "base plus '-' plus 3 hex digits";
  EXPECT_EQ(first.compare(0, 6, "clock1"), 0);
  EXPECT_NE(first, renamed_label("clock1", 2));
  for (int attempt = 1; attempt < 50; ++attempt) {
    EXPECT_LE(renamed_label("clock1", attempt).size(),
              std::string("clock1").size() + 4)
        << "the suffix must stay bounded however many conflicts pile up";
  }
}

/// Harness for driving a ProbeEngine directly: collects every sent message
/// and lets tests feed hand-crafted inbound traffic.
struct ProbeFixture : ::testing::Test {
  sim::Scheduler scheduler;
  net::Network network{scheduler, net::LinkProfile{}, 7};
  net::Host& host = network.add_host("gw", net::IpAddress(10, 0, 0, 3));

  std::vector<DnsMessage> sent;
  std::vector<std::string> established;
  std::vector<std::pair<std::string, std::string>> renamed;

  ProbeEngine::Callbacks callbacks() {
    ProbeEngine::Callbacks cb;
    cb.send = [this](const DnsMessage& m) { sent.push_back(m); };
    cb.on_established = [this](const std::string& n) {
      established.push_back(n);
    };
    cb.on_renamed = [this](const std::string& o, const std::string& n) {
      renamed.emplace_back(o, n);
    };
    return cb;
  }

  static std::vector<DnsRecord> claim_records(const std::string& name,
                                              const std::string& url) {
    DnsRecord txt;
    txt.name = name;
    txt.type = kTypeTxt;
    txt.ttl = 120;
    txt.txt = {{"url", url}};
    return {txt};
  }
};

TEST_F(ProbeFixture, ThreeUnansweredProbesWinTheName) {
  ProbeEngine engine(host, callbacks());
  const std::string name = "clock1._clock._tcp.local";
  engine.claim(name, claim_records(name, "soap://10.0.0.2:4006/a"));
  EXPECT_TRUE(engine.busy());
  EXPECT_FALSE(engine.established(name));

  scheduler.run_for(sim::millis(1100));
  ASSERT_EQ(sent.size(), 3u) << "three probes, 250 ms apart";
  for (const DnsMessage& probe : sent) {
    EXPECT_FALSE(probe.is_response());
    ASSERT_EQ(probe.questions.size(), 1u);
    EXPECT_EQ(probe.questions[0].name, name);
    EXPECT_EQ(probe.questions[0].qtype, kTypeAny);
    ASSERT_EQ(probe.authorities.size(), 1u)
        << "§8.1: proposed records ride in the authority section";
    EXPECT_EQ(probe.authorities[0].name, name);
  }
  EXPECT_TRUE(engine.established(name));
  EXPECT_FALSE(engine.busy());
  ASSERT_EQ(established.size(), 1u);
  EXPECT_EQ(established[0], name);
  EXPECT_EQ(engine.stats().probes_sent, 3u);
  EXPECT_EQ(engine.stats().names_established, 1u);
  EXPECT_EQ(engine.stats().conflicts, 0u);
}

TEST_F(ProbeFixture, SimultaneousProbeTiebreakLoserDefersWinnerProceeds) {
  ProbeEngine engine(host, callbacks());
  const std::string name = "clock1._clock._tcp.local";
  engine.claim(name, claim_records(name, "soap://10.0.0.2:4006/a"));
  scheduler.run_for(sim::millis(10));  // first probe out

  // A simultaneous probe with lexicographically greater rdata: we lose.
  DnsMessage their_probe;
  DnsQuestion question;
  question.name = name;
  question.qtype = kTypeAny;
  their_probe.questions.push_back(question);
  their_probe.authorities =
      claim_records(name, "soap://10.0.0.9:4006/z");  // "z" > "a"
  engine.handle_query(their_probe);
  EXPECT_EQ(engine.stats().tiebreaks_lost, 1u);
  EXPECT_FALSE(engine.established(name));

  // The deferred claim restarts after tiebreak_defer (1 s) and, unopposed
  // this time, wins: 3 original-claim probes would have finished by 750 ms,
  // the deferred rerun by ~1.75 s.
  scheduler.run_for(sim::seconds(3));
  EXPECT_TRUE(engine.established(name));
  EXPECT_EQ(engine.stats().renames, 0u)
      << "a lost tiebreak defers, it never renames";

  // And the mirror image: a probe with lesser rdata loses to us.
  ProbeEngine winner(host, callbacks());
  const std::string other = "clock2._clock._tcp.local";
  winner.claim(other, claim_records(other, "soap://10.0.0.9:4006/z"));
  scheduler.run_for(sim::millis(10));
  DnsMessage lesser;
  question.name = other;
  lesser.questions.push_back(question);
  lesser.authorities = claim_records(other, "soap://10.0.0.2:4006/a");
  winner.handle_query(lesser);
  EXPECT_EQ(winner.stats().tiebreaks_won, 1u);
  EXPECT_EQ(winner.stats().tiebreaks_lost, 0u);
}

TEST_F(ProbeFixture, ConflictingResponseRenamesWithTheBoundedSuffix) {
  ProbeEngine engine(host, callbacks());
  const std::string name = "clock1._clock._tcp.local";
  engine.claim(name, claim_records(name, "soap://10.0.0.2:4006/a"));
  scheduler.run_for(sim::millis(10));

  DnsMessage defense;
  defense.flags = kFlagResponse | kFlagAuthoritative;
  defense.answers = claim_records(name, "soap://10.0.0.9:4006/z");
  engine.handle_response(defense);

  ASSERT_EQ(renamed.size(), 1u);
  EXPECT_EQ(renamed[0].first, name);
  std::string expected =
      renamed_label("clock1", 1) + "._clock._tcp.local";
  EXPECT_EQ(renamed[0].second, expected);
  EXPECT_EQ(engine.stats().conflicts, 1u);
  EXPECT_EQ(engine.stats().renames, 1u);

  // The renamed claim re-probes and, unopposed, establishes — and its
  // records were rewritten to the new name.
  scheduler.run_for(sim::seconds(2));
  EXPECT_TRUE(engine.established(expected));
  const auto* records = engine.claim_records(expected);
  ASSERT_NE(records, nullptr);
  ASSERT_EQ(records->size(), 1u);
  EXPECT_EQ((*records)[0].name, expected);
}

TEST_F(ProbeFixture, IdenticalRdataFromAPeerIsNeverAConflict) {
  // The two-gateway coexistence property at engine level: a response (or
  // probe) carrying byte-identical records must not rename or defer us.
  ProbeEngine engine(host, callbacks());
  const std::string name = "clock1._clock._tcp.local";
  const std::string url = "soap://10.0.0.2:4006/a";
  engine.claim(name, claim_records(name, url));
  scheduler.run_for(sim::millis(10));

  DnsMessage twin_announce;
  twin_announce.flags = kFlagResponse | kFlagAuthoritative;
  twin_announce.answers = claim_records(name, url);
  engine.handle_response(twin_announce);

  DnsMessage twin_probe;
  DnsQuestion question;
  question.name = name;
  question.qtype = kTypeAny;
  twin_probe.questions.push_back(question);
  twin_probe.authorities = claim_records(name, url);
  engine.handle_query(twin_probe);

  scheduler.run_for(sim::seconds(2));
  EXPECT_TRUE(engine.established(name));
  EXPECT_EQ(engine.stats().conflicts, 0u);
  EXPECT_EQ(engine.stats().renames, 0u);
  EXPECT_EQ(engine.stats().tiebreaks_lost, 0u);

  // Goodbyes (TTL 0) assert absence, not ownership: never a conflict.
  DnsMessage goodbye;
  goodbye.flags = kFlagResponse | kFlagAuthoritative;
  goodbye.answers = claim_records(name, "soap://10.0.0.9:4006/z");
  goodbye.answers[0].ttl = 0;
  engine.handle_response(goodbye);
  EXPECT_EQ(engine.stats().conflicts, 0u);
  EXPECT_TRUE(engine.established(name));
}

TEST_F(ProbeFixture, EstablishedNamesAreDefendedWithCacheFlushAnswers) {
  ProbeEngine engine(host, callbacks());
  const std::string name = "clock1._clock._tcp.local";
  engine.claim(name, claim_records(name, "soap://10.0.0.2:4006/a"));
  scheduler.run_for(sim::seconds(2));
  ASSERT_TRUE(engine.established(name));
  sent.clear();

  DnsMessage hostile_probe;
  DnsQuestion question;
  question.name = name;
  question.qtype = kTypeAny;
  hostile_probe.questions.push_back(question);
  hostile_probe.authorities = claim_records(name, "soap://10.0.0.9:4006/z");
  engine.handle_query(hostile_probe);

  ASSERT_EQ(sent.size(), 1u) << "the defending answer goes out immediately";
  EXPECT_TRUE(sent[0].is_response());
  ASSERT_EQ(sent[0].answers.size(), 1u);
  EXPECT_EQ(sent[0].answers[0].name, name);
  EXPECT_TRUE(sent[0].answers[0].cache_flush)
      << "§10.2: defended records carry the cache-flush bit";
  EXPECT_EQ(engine.stats().defenses_sent, 1u);
  EXPECT_TRUE(engine.established(name)) << "defending never renames us";
}

TEST_F(ProbeFixture, ConflictStormEngagesExponentialBackoff) {
  // A hostile responder defends every name we try: every probe draws a
  // conflicting response. ≥15 conflicts inside 10 s must engage backoff —
  // the rename count stays bounded instead of flooding the wire.
  const std::string name = "clock1._clock._tcp.local";

  // Auto-responder: answer each probe (observed via the send callback) with
  // a conflicting response one millisecond later.
  ProbeEngine* engine_ptr = nullptr;
  int answered = 0;
  ProbeEngine::Callbacks cb = callbacks();
  cb.send = [&](const DnsMessage& m) {
    sent.push_back(m);
    if (m.is_response() || m.questions.empty()) return;
    DnsMessage conflict;
    conflict.flags = kFlagResponse | kFlagAuthoritative;
    conflict.answers =
        claim_records(m.questions[0].name, "soap://10.0.0.9:4006/z");
    ++answered;
    host.schedule(transport::millis(1),
                  [&, conflict]() { engine_ptr->handle_response(conflict); });
  };
  ProbeEngine hostile_target(host, std::move(cb));
  engine_ptr = &hostile_target;
  hostile_target.claim(name, claim_records(name, "soap://10.0.0.2:4006/a"));

  scheduler.run_for(sim::seconds(60));
  const ProbeStats& stats = hostile_target.stats();
  EXPECT_GE(stats.conflicts, 15u);
  EXPECT_GE(stats.backoffs_engaged, 1u)
      << "the §8.1 rate limit must have engaged";
  EXPECT_EQ(stats.names_established, 0u);
  EXPECT_LT(stats.renames, 40u)
      << "backoff must bound the rename rate (one per 5..60 s once engaged)";
  EXPECT_GT(answered, 0);
}

// Responder-level coexistence: two probing responders claim the same
// instance name with different rdata. The tiebreak sorts out who keeps
// "clock1"; the loser renames once and both end up answerable under
// distinct names.
TEST_F(DnssdFixture, TwoProbingRespondersConvergeOnDistinctNames) {
  MdnsConfig probing;
  probing.probe = true;
  MdnsResponder first(service_host, probing);
  MdnsResponder second(client_host, probing);
  first.publish(clock_instance("clock1"));
  ServiceInstance other = clock_instance("clock1");
  other.txt = {{"url", "soap://10.0.0.1:4006/mdns-clock"}};  // different rdata
  second.publish(std::move(other));

  scheduler.run_for(sim::seconds(8));
  const ProbeStats& a = first.probe_stats();
  const ProbeStats& b = second.probe_stats();
  EXPECT_EQ(a.names_established + b.names_established, 2u)
      << "both must win some name";
  EXPECT_EQ(a.renames + b.renames, 1u) << "exactly one side renames once";
  EXPECT_EQ(a.tiebreaks_lost + b.tiebreaks_lost, 1u);

  net::Host& browser_host =
      network.add_host("browser", net::IpAddress(10, 0, 0, 9));
  MdnsBrowser browser(browser_host);
  std::vector<BrowseResult> results;
  browser.browse("_clock._tcp",
                 [&](const std::vector<BrowseResult>& r) { results = r; });
  scheduler.run_for(sim::seconds(1));
  ASSERT_EQ(results.size(), 2u);
  EXPECT_NE(results[0].instance, results[1].instance);
  bool one_is_base =
      results[0].instance == "clock1" || results[1].instance == "clock1";
  EXPECT_TRUE(one_is_base) << "the tiebreak winner keeps the original name";
}

// --- Allocation pins --------------------------------------------------------

TEST(MdnsAllocs, CodecDecodeEncodeRoundTripIsZeroAllocSteadyState) {
  Bytes wire = encode(announce_message());
  DnsMessage scratch;
  DnsEncoder encoder;
  // Warm-up: grow every buffer to its high-water mark.
  for (int i = 0; i < 16; ++i) {
    ASSERT_TRUE(decode_into(wire, scratch));
    encoder.encode(scratch);
  }
  std::uint64_t before = indiss::testing::g_heap_allocs;
  for (int i = 0; i < 256; ++i) {
    ASSERT_TRUE(decode_into(wire, scratch));
    BytesView out = encoder.encode(scratch);
    ASSERT_FALSE(out.empty());
  }
  EXPECT_EQ(indiss::testing::g_heap_allocs - before, 0u)
      << "warm decode_into/encode must not allocate";
}

TEST(MdnsAllocs, WarmEncoderOnA64InstanceBundleIsZeroAlloc) {
  // A directory answer to a busy browse: 256 records whose names all share
  // suffixes. The compression table is cleared, not freed, between calls.
  DnsMessage bundle = dnssd_bundle(64);
  DnsEncoder encoder;
  for (int i = 0; i < 4; ++i) encoder.encode(bundle);
  std::uint64_t before = indiss::testing::g_heap_allocs;
  for (int i = 0; i < 64; ++i) {
    BytesView out = encoder.encode(bundle);
    ASSERT_FALSE(out.empty());
  }
  EXPECT_EQ(indiss::testing::g_heap_allocs - before, 0u)
      << "a warm encoder must not allocate on a 64-instance bundle";
}

TEST(MdnsAllocs, ParseEventComposeRoundTripIsZeroAllocSteadyState) {
  // The full translation leg for the fourth SDP: golden announcement off
  // the wire -> event stream (pooled sink, recycled events) -> DNS-SD
  // answer bundle (slot-reused message) -> wire (warm encoder). Steady
  // state must be allocation-free, mirroring the PR-2 pipeline guarantees.
  Bytes wire = encode(announce_message());
  core::MdnsEventParser parser;
  core::StreamPool pool;
  core::CollectingSink sink(pool);
  core::MessageContext ctx = multicast_ctx();
  DnsMessage composed;
  DnsEncoder encoder;

  for (int i = 0; i < 16; ++i) {
    sink.reset();
    parser.parse(wire, ctx, sink);
    core::compose_dnssd_answers(sink.stream(), "_clock._tcp.local", 120,
                                composed);
    encoder.encode(composed);
  }
  std::uint64_t before = indiss::testing::g_heap_allocs;
  for (int i = 0; i < 256; ++i) {
    sink.reset();
    parser.parse(wire, ctx, sink);
    std::size_t groups = core::compose_dnssd_answers(
        sink.stream(), "_clock._tcp.local", 120, composed);
    ASSERT_EQ(groups, 1u);
    BytesView out = encoder.encode(composed);
    ASSERT_FALSE(out.empty());
  }
  EXPECT_EQ(indiss::testing::g_heap_allocs - before, 0u)
      << "warm parse -> events -> compose must not allocate";
}

}  // namespace
}  // namespace indiss::mdns
