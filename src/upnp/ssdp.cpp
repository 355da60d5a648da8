#include "upnp/ssdp.hpp"

#include "common/reuse.hpp"
#include "common/strings.hpp"

namespace indiss::upnp {

namespace {

// "239.255.255.250:1900" — the HOST header every SSDP message carries.
constexpr std::string_view kSsdpHostHeader = "239.255.255.250:1900";

void append_int(std::string& out, long long v) { out += IntDigits(v).view(); }

void append_header(std::string& out, std::string_view name,
                   std::string_view value) {
  out += name;
  out += ": ";
  out += value;
  out += "\r\n";
}

}  // namespace

void SearchRequest::serialize_into(std::string& out) const {
  out.clear();
  out += "M-SEARCH * HTTP/1.1\r\n";
  append_header(out, "HOST", kSsdpHostHeader);
  append_header(out, "MAN", man);
  out += "MX: ";
  append_int(out, mx);
  out += "\r\n";
  append_header(out, "ST", st);
  if (!user_agent.empty()) append_header(out, "USER-AGENT", user_agent);
  out += "\r\n";
}

void SearchResponse::serialize_into(std::string& out) const {
  out.clear();
  out += "HTTP/1.1 200 OK\r\n";
  out += "CACHE-CONTROL: max-age=";
  append_int(out, max_age_seconds);
  out += "\r\n";
  append_header(out, "EXT", "");
  append_header(out, "LOCATION", location);
  append_header(out, "SERVER", server);
  append_header(out, "ST", st);
  append_header(out, "USN", usn);
  out += "Content-Length: 0\r\n\r\n";
}

void Notify::serialize_into(std::string& out) const {
  out.clear();
  out += "NOTIFY * HTTP/1.1\r\n";
  append_header(out, "HOST", kSsdpHostHeader);
  append_header(out, "NT", nt);
  append_header(out, "NTS",
                kind == Kind::kAlive ? "ssdp:alive" : "ssdp:byebye");
  append_header(out, "USN", usn);
  if (kind == Kind::kAlive) {
    out += "CACHE-CONTROL: max-age=";
    append_int(out, max_age_seconds);
    out += "\r\n";
    append_header(out, "LOCATION", location);
    append_header(out, "SERVER", server);
  }
  out += "\r\n";
}

// ---------------------------------------------------------------------------
// SsdpReader
// ---------------------------------------------------------------------------

void SsdpReader::on_request_line(std::string_view method, std::string_view,
                                 std::string_view) {
  start_lines_ += 1;
  method_.assign(method);
  status_ = 0;
}

void SsdpReader::on_status_line(int status, std::string_view,
                                std::string_view) {
  start_lines_ += 1;
  status_ = status;
}

void SsdpReader::on_header(std::string_view name, std::string_view value) {
  // Indexed by Field. The only place SSDP header names are matched.
  static constexpr std::array<std::string_view, kFieldCount> kNames = {
      "ST",     "NT",         "NTS", "USN", "LOCATION",
      "SERVER", "USER-AGENT", "MAN", "MX",  "CACHE-CONTROL"};
  for (int f = 0; f < kFieldCount; ++f) {
    if (!str::iequals(name, kNames[f])) continue;
    if (!has(Field(f))) {
      values_[f].assign(value);
      seen_ |= 1U << f;
    }
    return;
  }
}

void SsdpReader::on_body(std::string_view chunk) { body_.append(chunk); }

void SsdpReader::on_message_complete() { complete_ = true; }

SsdpReader::Kind SsdpReader::read(BytesView datagram) {
  seen_ = 0;
  method_.clear();
  body_.clear();
  status_ = 0;
  start_lines_ = 0;
  complete_ = false;
  http_.reset();
  http_.feed(datagram);
  http_.finish();
  one_message_ = !http_.failed() && complete_ && start_lines_ == 1;
  return one_message_ ? classify() : Kind::kInvalid;
}

SsdpReader::Kind SsdpReader::classify() const {
  if (status_ != 0) {  // a response: the HTTP parser admits 100-599 only
    if (!has(kSt) && !has(kNt)) return Kind::kHttpResponse;
    return status_ == 200 && has(kSt) && has(kUsn) ? Kind::kSearchResponse
                                                   : Kind::kInvalid;
  }
  if (str::iequals(method_, "M-SEARCH")) {
    return has(kSt) ? Kind::kSearch : Kind::kInvalid;
  }
  if (str::iequals(method_, "NOTIFY") && has(kNt) && has(kUsn)) {
    if (str::iequals(field(kNts), "ssdp:alive")) return Kind::kAlive;
    if (str::iequals(field(kNts), "ssdp:byebye")) return Kind::kByeBye;
  }
  return Kind::kInvalid;
}

std::string_view SsdpReader::man() const {
  return has(kMan) ? field(kMan) : "\"ssdp:discover\"";
}

int SsdpReader::mx() const {
  return static_cast<int>(str::parse_long(field(kMx), 3));
}

int SsdpReader::max_age() const {
  std::string_view cache = field(kCacheControl);
  auto eq = cache.find('=');
  if (eq == std::string_view::npos) return 1800;
  return static_cast<int>(str::parse_long(cache.substr(eq + 1), 1800));
}

std::optional<SsdpMessage> parse_ssdp(BytesView datagram) {
  SsdpReader reader;
  const SsdpReader::Kind kind = reader.read(datagram);
  switch (kind) {
    case SsdpReader::Kind::kSearch: {
      SearchRequest request;
      request.st = reader.st();
      request.mx = reader.mx();
      request.man = reader.man();
      request.user_agent = reader.user_agent();
      return request;
    }
    case SsdpReader::Kind::kSearchResponse: {
      SearchResponse response;
      response.st = reader.st();
      response.usn = reader.usn();
      response.location = reader.location();
      response.server = reader.server();
      response.max_age_seconds = reader.max_age();
      return response;
    }
    case SsdpReader::Kind::kAlive:
    case SsdpReader::Kind::kByeBye: {
      Notify notify;
      notify.kind = kind == SsdpReader::Kind::kAlive ? Notify::Kind::kAlive
                                                     : Notify::Kind::kByeBye;
      notify.nt = reader.nt();
      notify.usn = reader.usn();
      notify.location = reader.location();
      notify.server = reader.server();
      notify.max_age_seconds = reader.max_age();
      return notify;
    }
    case SsdpReader::Kind::kHttpResponse:
    case SsdpReader::Kind::kInvalid:
      break;
  }
  return std::nullopt;
}

}  // namespace indiss::upnp
