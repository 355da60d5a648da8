// DNS wire format for mDNS/DNS-SD (RFC 1035 / 2782 / 6762 / 6763 subset).
//
// Bonjour rides plain DNS messages over the IANA multicast pair
// 224.0.0.251:5353 — the mDNS entry in INDISS's monitor correspondence
// table. The codec covers what DNS-SD needs: PTR (service enumeration), SRV
// (instance location), TXT (instance attributes) and A (host address)
// records, with RFC 1035 §4.1.4 name compression on both sides.
//
// Decoding is hardened against hostile input: every read is bounds-checked,
// compression pointers must point strictly backwards (which kills
// self-referencing pointers, forward references and pointer loops with one
// rule), names are capped at 255 bytes, and RDLENGTH must exactly cover the
// typed rdata. Malformed input yields `false` plus an error string — never
// UB (the codec-robustness sweep runs every corruption family under
// ASan/UBSan).
//
// decode_into() and DnsEncoder reuse caller-owned storage so the steady
// state of a message flow with a stable shape performs zero heap
// allocations (pinned by tests/sdp/mdns_test.cpp).
#pragma once

#include <cstdint>
#include <optional>
#include <string>
#include <utility>
#include <vector>

#include "common/bytes.hpp"
#include "net/address.hpp"

namespace indiss::mdns {

/// IANA assignment for multicast DNS (RFC 6762 §3): the monitor component's
/// correspondence-table entry for Bonjour.
inline constexpr std::uint16_t kMdnsPort = 5353;
inline const net::IpAddress kMdnsGroup(224, 0, 0, 251);

// Record types (RFC 1035 §3.2.2, RFC 2782).
inline constexpr std::uint16_t kTypeA = 1;
inline constexpr std::uint16_t kTypePtr = 12;
inline constexpr std::uint16_t kTypeTxt = 16;
inline constexpr std::uint16_t kTypeSrv = 33;
inline constexpr std::uint16_t kTypeAny = 255;

inline constexpr std::uint16_t kClassIn = 1;
/// Top bit of the class field: cache-flush on records (RFC 6762 §10.2),
/// unicast-response on questions (§5.4).
inline constexpr std::uint16_t kClassTopBit = 0x8000;

/// The header ID: bytes 0-1. A response echoes its query's ID there (a
/// legacy unicast querier picks a random one per query, RFC 6762 §6.7).
inline constexpr IdSpan kIdSpan{0, 2};

// Header flag bits.
inline constexpr std::uint16_t kFlagResponse = 0x8000;      // QR
inline constexpr std::uint16_t kFlagAuthoritative = 0x0400;  // AA

/// DNS-SD browse/resolve questions ("_clock._tcp.local PTR?").
struct DnsQuestion {
  std::string name;  // dotted, no trailing dot
  std::uint16_t qtype = kTypePtr;
  bool unicast_response = false;
};

/// One resource record. The rdata lives in flat typed fields (selected by
/// `type`) rather than a variant so decode_into() can overwrite a recycled
/// record in place, reusing its string and vector capacity.
struct DnsRecord {
  std::string name;
  std::uint16_t type = kTypePtr;
  bool cache_flush = false;
  std::uint32_t ttl = 0;

  std::string target;  // kTypePtr: target name; kTypeSrv: target host
  std::uint16_t priority = 0;  // kTypeSrv
  std::uint16_t weight = 0;    // kTypeSrv
  std::uint16_t port = 0;      // kTypeSrv
  std::vector<std::pair<std::string, std::string>> txt;  // kTypeTxt "k=v"
  net::IpAddress address;  // kTypeA
  Bytes raw;               // any other type, kept verbatim
};

struct DnsMessage {
  std::uint16_t id = 0;
  std::uint16_t flags = 0;
  std::vector<DnsQuestion> questions;
  std::vector<DnsRecord> answers;
  std::vector<DnsRecord> authorities;
  std::vector<DnsRecord> additionals;

  [[nodiscard]] bool is_response() const {
    return (flags & kFlagResponse) != 0;
  }

  void clear();
};

/// Decodes one message, reusing `out`'s storage (strings are assigned in
/// place, vectors keep their capacity). Returns false and fills *error on
/// malformed input.
[[nodiscard]] bool decode_into(BytesView wire, DnsMessage& out,
                               std::string* error = nullptr);

/// Convenience decode into a fresh message.
[[nodiscard]] std::optional<DnsMessage> decode(BytesView wire,
                                               std::string* error = nullptr);

/// Encodes messages with RFC 1035 name compression into an internal buffer
/// that is reused across calls (clear-not-free), so a warm encoder composes
/// without allocating.
///
/// Compression targets live in an open-addressing hash table keyed by the
/// hash of each name suffix as it sits on the wire, so writing a name costs
/// O(its length) however many names precede it (docs/protocols.md). Every
/// hit is verified byte-for-byte and the first-written offset wins, so the
/// output equals that of a linear scan over every earlier name.
class DnsEncoder {
 public:
  /// The returned view aliases the encoder's buffer; it is valid until the
  /// next encode() call.
  BytesView encode(const DnsMessage& message);

  [[nodiscard]] const Bytes& bytes() const { return writer_.bytes(); }

 private:
  static constexpr std::uint16_t kNoOffset = 0xFFFF;

  /// One label of the name being written, as write_name() walks it.
  struct Label {
    std::size_t start = 0;  // in the dotted name
    std::size_t size = 0;   // uncapped
    std::uint64_t key = 0;  // hash of the wire suffix this label begins
  };
  struct Slot {
    std::uint64_t key = 0;
    std::uint16_t offset = kNoOffset;  // kNoOffset: empty
  };

  void write_name(std::string_view name);
  void write_question(const DnsQuestion& question);
  void write_record(const DnsRecord& record);
  void remember(std::uint64_t key, std::uint16_t offset);
  void grow_table();
  [[nodiscard]] bool find_suffix(std::uint64_t key, std::string_view suffix,
                                 std::uint16_t* offset) const;
  [[nodiscard]] bool name_at_equals(std::size_t offset,
                                    std::string_view dotted) const;

  ByteWriter writer_;
  std::vector<Label> labels_;        // write_name() scratch
  std::vector<Slot> table_;          // power-of-two capacity, load <= 1/2
  std::vector<std::uint32_t> used_;  // occupied slots, in insertion order
};

/// Convenience one-shot encode.
[[nodiscard]] Bytes encode(const DnsMessage& message);

// --- DNS-SD name helpers ----------------------------------------------------

/// First label of an instance name: "clock1._clock._tcp.local" -> "clock1".
[[nodiscard]] std::string_view instance_label(std::string_view name);

/// Everything after the first label: "clock1._clock._tcp.local" ->
/// "_clock._tcp.local". Empty when there is no dot.
[[nodiscard]] std::string_view type_of_instance(std::string_view name);

}  // namespace indiss::mdns
