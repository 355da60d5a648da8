#include "http/message.hpp"

#include "common/strings.hpp"

namespace indiss::http {

void Headers::set(std::string_view name, std::string_view value) {
  for (auto& [n, v] : fields_) {
    if (str::iequals(n, name)) {
      v = std::string(value);
      return;
    }
  }
  fields_.emplace_back(std::string(name), std::string(value));
}

void Headers::add(std::string_view name, std::string_view value) {
  fields_.emplace_back(std::string(name), std::string(value));
}

std::optional<std::string> Headers::get(std::string_view name) const {
  for (const auto& [n, v] : fields_) {
    if (str::iequals(n, name)) return v;
  }
  return std::nullopt;
}

bool Headers::contains(std::string_view name) const {
  return get(name).has_value();
}

HttpMessage HttpMessage::request(std::string method, std::string target) {
  HttpMessage m;
  m.kind = Kind::kRequest;
  m.method = std::move(method);
  m.target = std::move(target);
  return m;
}

HttpMessage HttpMessage::response(int status, std::string reason) {
  HttpMessage m;
  m.kind = Kind::kResponse;
  m.status = status;
  m.reason = std::move(reason);
  return m;
}

std::string HttpMessage::serialize() const {
  std::string out;
  if (kind == Kind::kRequest) {
    out = method + " " + target + " " + version + "\r\n";
  } else {
    out = version + " " + std::to_string(status) + " " + reason + "\r\n";
  }
  bool has_content_length = headers.contains("Content-Length");
  for (const auto& [name, value] : headers.all()) {
    out += name + ": " + value + "\r\n";
  }
  if (!has_content_length && (!body.empty() || kind == Kind::kResponse)) {
    out += "Content-Length: " + std::to_string(body.size()) + "\r\n";
  }
  out += "\r\n";
  out += body;
  return out;
}

Bytes HttpMessage::serialize_bytes() const { return to_bytes(serialize()); }

}  // namespace indiss::http
