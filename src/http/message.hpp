// HTTP/1.1 message model for UPnP description retrieval over TCP
// (GET /description.xml). SSDP's HTTPU datagrams skip this model: they are
// read straight off the event parser and written directly (upnp/ssdp.hpp).
// Header field names are case-insensitive per RFC 2616; insertion order is
// preserved so serialized messages are stable for tests.
#pragma once

#include <optional>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include "common/bytes.hpp"

namespace indiss::http {

/// Ordered, case-insensitive header map.
class Headers {
 public:
  void set(std::string_view name, std::string_view value);
  void add(std::string_view name, std::string_view value);
  [[nodiscard]] std::optional<std::string> get(std::string_view name) const;
  [[nodiscard]] bool contains(std::string_view name) const;
  [[nodiscard]] const std::vector<std::pair<std::string, std::string>>& all()
      const {
    return fields_;
  }
  [[nodiscard]] std::size_t size() const { return fields_.size(); }

 private:
  std::vector<std::pair<std::string, std::string>> fields_;
};

struct HttpMessage {
  enum class Kind { kRequest, kResponse };

  Kind kind = Kind::kRequest;
  // Request fields.
  std::string method;  // "M-SEARCH", "NOTIFY", "GET"
  std::string target;  // "*", "/description.xml"
  // Response fields.
  int status = 0;
  std::string reason;

  std::string version = "HTTP/1.1";
  Headers headers;
  std::string body;

  [[nodiscard]] bool is_request() const { return kind == Kind::kRequest; }

  /// Serializes with CRLF line endings; adds Content-Length when a body is
  /// present and the header was not set explicitly.
  [[nodiscard]] std::string serialize() const;
  [[nodiscard]] Bytes serialize_bytes() const;

  static HttpMessage request(std::string method, std::string target);
  static HttpMessage response(int status, std::string reason);
};

}  // namespace indiss::http
