// SSDP: the Simple Service Discovery Protocol layer of UPnP (UPnP Device
// Architecture 1.0, section 1). HTTP-formatted messages carried in UDP
// datagrams ("HTTPU") on the IANA pair 239.255.255.250:1900 — the UPnP entry
// in INDISS's monitor correspondence table.
//
// Three message kinds:
//   M-SEARCH * HTTP/1.1          (search request, multicast)
//   HTTP/1.1 200 OK              (search response, unicast back)
//   NOTIFY * HTTP/1.1            (alive / byebye announcements, multicast)
//
// One writer (serialize_into) and one reader (SsdpReader) serve the native
// UPnP stacks and the gateway's UPnP unit alike.
//
// SSDP carries no transaction id: a search response matches its M-SEARCH by
// the requester's endpoint and the ST alone (an empty IdSpan).
#pragma once

#include <array>
#include <cstdint>
#include <optional>
#include <string>
#include <string_view>
#include <variant>

#include "common/bytes.hpp"
#include "http/parser.hpp"
#include "net/address.hpp"

namespace indiss::upnp {

inline constexpr std::uint16_t kSsdpPort = 1900;
inline const net::IpAddress kSsdpMulticastGroup(239, 255, 255, 250);

inline constexpr std::string_view kSearchTargetAll = "ssdp:all";
inline constexpr std::string_view kSearchTargetRoot = "upnp:rootdevice";

struct SearchRequest {
  std::string st;        // search target: ssdp:all, upnp:rootdevice, urn:...
  int mx = 3;            // max response delay in seconds
  std::string man = "\"ssdp:discover\"";
  std::string user_agent;

  /// Serializes into `out` (cleared first, capacity kept), allocation-free
  /// once `out` is warm.
  void serialize_into(std::string& out) const;
};

struct SearchResponse {
  std::string st;
  std::string usn;       // uuid:...::urn:...
  std::string location;  // URL of the device description document
  std::string server = "INDISS-sim/1.0 UPnP/1.0";
  int max_age_seconds = 1800;

  /// See SearchRequest::serialize_into.
  void serialize_into(std::string& out) const;
};

struct Notify {
  enum class Kind { kAlive, kByeBye };
  Kind kind = Kind::kAlive;
  std::string nt;        // notification type (device/service type or root)
  std::string usn;
  std::string location;  // alive only
  std::string server = "INDISS-sim/1.0 UPnP/1.0";
  int max_age_seconds = 1800;

  /// See SearchRequest::serialize_into.
  void serialize_into(std::string& out) const;
};

using SsdpMessage = std::variant<SearchRequest, SearchResponse, Notify>;

/// One-shot serialization for callers that keep no scratch string.
template <typename Message>
[[nodiscard]] Bytes encode(const Message& message) {
  std::string text;
  message.serialize_into(text);
  return to_bytes(text);
}

/// The SSDP reader: collects the header fields of one HTTPU datagram from
/// the incremental http::HttpParser into reused member strings (a warm
/// reader allocates nothing) and sorts the datagram into a Kind. Malformed
/// input follows one rule:
///   - the first occurrence of a header wins;
///   - a datagram holding more than one message is invalid;
///   - CACHE-CONTROL max-age is read on responses and NOTIFYs alike.
class SsdpReader : private http::HttpEventHandler {
 public:
  enum class Kind {
    kInvalid,         // not HTTP, more than one message, or not SSDP
    kSearch,          // M-SEARCH carrying ST
    kSearchResponse,  // 200 response carrying ST and USN
    kAlive,           // NOTIFY ssdp:alive carrying NT and USN
    kByeBye,          // NOTIFY ssdp:byebye carrying NT and USN
    kHttpResponse,    // a response with neither ST nor NT (description GET)
  };

  SsdpReader() : http_(*this) {}
  SsdpReader(const SsdpReader&) = delete;
  SsdpReader& operator=(const SsdpReader&) = delete;

  Kind read(BytesView datagram);
  /// Whether the last datagram held exactly one complete HTTP message; an
  /// invalid datagram that did is HTTP, just not SSDP.
  [[nodiscard]] bool one_http_message() const { return one_message_; }

  // Fields of the last read(); the views die with the next one. A missing
  // header reads as empty unless noted.
  [[nodiscard]] std::string_view st() const { return field(kSt); }
  [[nodiscard]] std::string_view nt() const { return field(kNt); }
  [[nodiscard]] std::string_view usn() const { return field(kUsn); }
  [[nodiscard]] std::string_view location() const { return field(kLocation); }
  [[nodiscard]] std::string_view server() const { return field(kServer); }
  [[nodiscard]] std::string_view user_agent() const {
    return field(kUserAgent);
  }
  /// MAN; "ssdp:discover" (quoted) when missing.
  [[nodiscard]] std::string_view man() const;
  /// MX; 3 when missing or not a number.
  [[nodiscard]] int mx() const;
  /// CACHE-CONTROL max-age; 1800 when missing or not a number.
  [[nodiscard]] int max_age() const;
  [[nodiscard]] int status() const { return status_; }
  /// Body of a kHttpResponse (the description document).
  [[nodiscard]] std::string_view body() const { return body_; }

 private:
  enum Field {
    kSt, kNt, kNts, kUsn, kLocation, kServer, kUserAgent, kMan, kMx,
    kCacheControl, kFieldCount
  };

  void on_request_line(std::string_view method, std::string_view target,
                       std::string_view version) override;
  void on_status_line(int status, std::string_view reason,
                      std::string_view version) override;
  void on_header(std::string_view name, std::string_view value) override;
  void on_body(std::string_view chunk) override;
  void on_message_complete() override;

  [[nodiscard]] bool has(Field f) const { return (seen_ >> f) & 1U; }
  [[nodiscard]] std::string_view field(Field f) const {
    return has(f) ? std::string_view(values_[f]) : std::string_view();
  }
  [[nodiscard]] Kind classify() const;

  http::HttpParser http_;
  std::array<std::string, kFieldCount> values_;
  std::uint32_t seen_ = 0;  // bit per Field: first occurrence wins
  std::string method_, body_;
  int status_ = 0;  // 0 for a request
  int start_lines_ = 0;
  bool complete_ = false;
  bool one_message_ = false;
};

/// Classifies and parses one HTTPU datagram. Returns nullopt for anything
/// that is not a well-formed SSDP message.
[[nodiscard]] std::optional<SsdpMessage> parse_ssdp(BytesView datagram);

}  // namespace indiss::upnp
