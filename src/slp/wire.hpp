// SLPv2 wire format (RFC 2608 subset).
//
// Binary big-endian messages. The subset covers everything the INDISS
// scenarios and the paper's evaluation need: service request/reply,
// registration with acknowledgement, deregistration, attribute
// request/reply, service-type request/reply, and DA advertisements for the
// repository-based mode. Authentication blocks are encoded as always-empty
// (count 0), matching common 2005 deployments.
//
// Header (RFC 2608 §8):
//   version(1)=2 | function-id(1) | length(3) | flags(2) | next-ext(3) |
//   xid(2) | lang-tag(str16)
#pragma once

#include <cstdint>
#include <optional>
#include <string>
#include <string_view>
#include <variant>
#include <vector>

#include "common/bytes.hpp"

namespace indiss::slp {

enum class FunctionId : std::uint8_t {
  kSrvRqst = 1,
  kSrvRply = 2,
  kSrvReg = 3,
  kSrvDeReg = 4,
  kSrvAck = 5,
  kAttrRqst = 6,
  kAttrRply = 7,
  kDAAdvert = 8,
  kSrvTypeRqst = 9,
  kSrvTypeRply = 10,
};

/// RFC 2608 error codes (subset).
enum class ErrorCode : std::uint16_t {
  kOk = 0,
  kLanguageNotSupported = 1,
  kParseError = 2,
  kInvalidRegistration = 3,
  kScopeNotSupported = 4,
  kInvalidUpdate = 13,
};

// Header flags (upper byte of the 16-bit flags field).
inline constexpr std::uint16_t kFlagOverflow = 0x8000;
inline constexpr std::uint16_t kFlagFresh = 0x4000;
inline constexpr std::uint16_t kFlagRequestMcast = 0x2000;

/// The header XID: bytes 10-11, after version, function-id, length, flags
/// and next-ext. A reply carries its request's XID there.
inline constexpr IdSpan kXidSpan{10, 2};

struct Header {
  FunctionId function = FunctionId::kSrvRqst;
  std::uint16_t flags = 0;
  std::uint16_t xid = 0;
  std::string language = "en";
};

struct UrlEntry {
  std::uint16_t lifetime_seconds = 0;
  std::string url;

  bool operator==(const UrlEntry&) const = default;
};

struct SrvRqst {
  Header header{FunctionId::kSrvRqst};
  std::string previous_responders;  // comma-separated addresses
  std::string service_type;         // "service:clock"
  std::string scope_list = "DEFAULT";
  std::string predicate;            // LDAPv3 filter subset
  std::string spi;                  // security parameter index (unused)
};

/// Whether a previous-responder list (comma-separated addresses) names
/// `address`: RFC 2608 §8.1 says an agent it names must not answer the
/// request again. Allocation-free.
[[nodiscard]] bool pr_list_names(std::string_view pr_list,
                                 std::string_view address);

struct SrvRply {
  Header header{FunctionId::kSrvRply};
  ErrorCode error = ErrorCode::kOk;
  std::vector<UrlEntry> url_entries;
};

struct SrvReg {
  Header header{FunctionId::kSrvReg};
  UrlEntry url_entry;
  std::string service_type;
  std::string scope_list = "DEFAULT";
  std::string attr_list;  // "(key=value),(key2=value2)"
};

struct SrvDeReg {
  Header header{FunctionId::kSrvDeReg};
  std::string scope_list = "DEFAULT";
  UrlEntry url_entry;
  std::string tag_list;
};

struct SrvAck {
  Header header{FunctionId::kSrvAck};
  ErrorCode error = ErrorCode::kOk;
};

struct AttrRqst {
  Header header{FunctionId::kAttrRqst};
  std::string previous_responders;
  std::string url;  // either a full URL or a service type
  std::string scope_list = "DEFAULT";
  std::string tag_list;
  std::string spi;
};

struct AttrRply {
  Header header{FunctionId::kAttrRply};
  ErrorCode error = ErrorCode::kOk;
  std::string attr_list;
};

struct DAAdvert {
  Header header{FunctionId::kDAAdvert};
  ErrorCode error = ErrorCode::kOk;
  std::uint32_t boot_timestamp = 0;
  std::string url;  // "service:directory-agent://host"
  std::string scope_list = "DEFAULT";
  std::string attr_list;
  std::string spi;
};

struct SrvTypeRqst {
  Header header{FunctionId::kSrvTypeRqst};
  std::string previous_responders;
  std::string naming_authority;  // "*" = all
  std::string scope_list = "DEFAULT";
};

struct SrvTypeRply {
  Header header{FunctionId::kSrvTypeRply};
  ErrorCode error = ErrorCode::kOk;
  std::string type_list;  // comma-separated service types
};

using Message = std::variant<SrvRqst, SrvRply, SrvReg, SrvDeReg, SrvAck,
                             AttrRqst, AttrRply, DAAdvert, SrvTypeRqst,
                             SrvTypeRply>;

[[nodiscard]] FunctionId function_of(const Message& message);
[[nodiscard]] const Header& header_of(const Message& message);
[[nodiscard]] Header& header_of(Message& message);

/// Encodes a message, patching the header length field.
[[nodiscard]] Bytes encode(const Message& message);

/// Encodes into a caller-owned writer (cleared first, capacity kept): a
/// writer reused across messages settles into zero allocations. Returns a
/// view of the writer's buffer, valid until its next use.
BytesView encode_into(const Message& message, ByteWriter& writer);

/// Decodes one message. Returns nullopt and fills *error on malformed input
/// (truncation, bad version, unknown function id).
[[nodiscard]] std::optional<Message> decode(BytesView bytes,
                                            std::string* error = nullptr);

/// Decodes into a caller-owned scratch message, reusing its string and
/// vector storage when `scratch` already holds the same alternative (the
/// steady-state case: periodic re-announcements repeat one message shape).
/// Returns false and fills *error on malformed input; `scratch` contents are
/// unspecified then.
bool decode_into(BytesView bytes, Message& scratch,
                 std::string* error = nullptr);

}  // namespace indiss::slp
