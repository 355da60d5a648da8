// Native payloads the load generator sends and the decoder it checks the
// gateway's frames with. Every payload is built with the repository's own
// codecs (slp::encode, upnp::Notify/SearchRequest, mdns::encode), before any
// timing starts; every counted frame is decoded with the target SDP's codec.
#pragma once

#include <cstdint>
#include <cstring>
#include <optional>
#include <string>
#include <string_view>

#include "common/bytes.hpp"
#include "mdns/dns.hpp"
#include "slp/wire.hpp"
#include "upnp/description.hpp"
#include "upnp/ssdp.hpp"

namespace indiss::bench_e2e {

enum class Sdp : std::uint8_t { kSlp = 0, kSsdp = 1, kMdns = 2 };

inline constexpr std::string_view kBridgeStamp = "INDISS-bridge";
inline constexpr std::string_view kMdnsMarker = "_indiss-bridge._udp.local";
/// An ssdp:byebye has no SERVER header to carry the stamp. The gateway's own
/// byebyes retract the devices it impersonates, whose UDNs it names
/// uuid:indiss-<n>; a native device's byebye echoed back would not.
inline constexpr std::string_view kBridgeUsnPrefix = "uuid:indiss-";

/// Canonical service type `index` ("e2e7"); each SDP spells it natively.
inline std::string canonical_type(int index) {
  return "e2e" + std::to_string(index);
}
inline std::string slp_type(int index) {
  return "service:" + canonical_type(index);
}
inline std::string upnp_type(int index) {
  return "urn:schemas-upnp-org:device:" + canonical_type(index) + ":1";
}
inline std::string mdns_type(int index) {
  return "_" + canonical_type(index) + "._tcp.local";
}

/// One native service the generator plays. `url` is the access URL the
/// gateway bridges: the SLP access part, the SSDP LOCATION, or the mDNS TXT
/// url.
struct Service {
  Sdp origin = Sdp::kSlp;
  int type = 0;
  std::uint64_t id = 0;
  std::string url;
};

inline std::string host_for(std::uint64_t id) {
  return "10.9." + std::to_string((id / 250) % 250) + "." +
         std::to_string(1 + id % 250);
}

inline Service make_service(Sdp origin, int type, std::uint64_t id) {
  Service s;
  s.origin = origin;
  s.type = type;
  s.id = id;
  const std::string host = host_for(id);
  switch (origin) {
    case Sdp::kSlp:
      s.url = "soap://" + host + ":4005/s" + std::to_string(id);
      break;
    case Sdp::kSsdp:
      s.url = "http://" + host + ":4004/d" + std::to_string(id) +
              "/description.xml";
      break;
    case Sdp::kMdns:
      s.url = "soap://" + host + ":4006/m" + std::to_string(id);
      break;
  }
  return s;
}

inline std::string ssdp_usn(const Service& s) {
  return "uuid:e2edev" + std::to_string(s.id) + "::" + upnp_type(s.type);
}

inline std::string mdns_instance(const Service& s) {
  return "svc" + std::to_string(s.id) + "." + mdns_type(s.type);
}

/// The advertisement of `s`. `revision` > 0 changes the wire without
/// changing the service (a "changed" advert); `goodbye` builds the
/// withdrawal instead (SrvDeReg, ssdp:byebye, TTL-0 response).
inline Bytes advert(const Service& s, int revision, bool goodbye) {
  switch (s.origin) {
    case Sdp::kSlp: {
      const std::string full = slp_type(s.type) + ":" + s.url;
      if (goodbye) {
        slp::SrvDeReg dereg;
        dereg.url_entry = {300, full};
        return slp::encode(slp::Message(dereg));
      }
      slp::SrvReg reg;
      reg.url_entry = {300, full};
      reg.service_type = slp_type(s.type);
      reg.attr_list = "(rev=" + std::to_string(revision) + ")";
      return slp::encode(slp::Message(reg));
    }
    case Sdp::kSsdp: {
      upnp::Notify notify;
      notify.kind =
          goodbye ? upnp::Notify::Kind::kByeBye : upnp::Notify::Kind::kAlive;
      notify.nt = upnp_type(s.type);
      notify.usn = ssdp_usn(s);
      notify.location = s.url;
      notify.server = "E2EDevice/1.0 UPnP/1.0";
      notify.max_age_seconds = 1800 + revision;
      std::string text;
      notify.serialize_into(text);
      return to_bytes(text);
    }
    case Sdp::kMdns: {
      mdns::DnsMessage message;
      message.flags = mdns::kFlagResponse | mdns::kFlagAuthoritative;
      const std::uint32_t ttl =
          goodbye ? 0 : 120 + static_cast<std::uint32_t>(revision);
      mdns::DnsRecord ptr;
      ptr.name = mdns_type(s.type);
      ptr.type = mdns::kTypePtr;
      ptr.ttl = ttl;
      ptr.target = mdns_instance(s);
      message.answers.push_back(ptr);
      mdns::DnsRecord txt;
      txt.name = mdns_instance(s);
      txt.type = mdns::kTypeTxt;
      txt.ttl = ttl;
      txt.txt = {{"url", s.url}};
      message.answers.push_back(txt);
      return mdns::encode(message);
    }
  }
  return {};
}

/// A native client's query for `type` in SDP `via`. `id` is the SLP XID or
/// the DNS id (SSDP searches carry none).
inline Bytes query(Sdp via, int type, std::uint16_t id) {
  switch (via) {
    case Sdp::kSlp: {
      slp::SrvRqst request;
      request.header.xid = id;
      request.header.flags = slp::kFlagRequestMcast;
      request.service_type = slp_type(type);
      return slp::encode(slp::Message(request));
    }
    case Sdp::kSsdp: {
      upnp::SearchRequest request;
      request.st = upnp_type(type);
      request.mx = 1;
      request.user_agent = "E2EClient/1.0 UPnP/1.0";
      std::string text;
      request.serialize_into(text);
      return to_bytes(text);
    }
    case Sdp::kMdns: {
      mdns::DnsMessage message;
      message.id = id;
      mdns::DnsQuestion question;
      question.name = mdns_type(type);
      question.qtype = mdns::kTypePtr;
      message.questions.push_back(question);
      return mdns::encode(message);
    }
  }
  return {};
}

/// The native responder's answer to a (gateway-translated) query for `s`.
/// The transaction id is patched in per query (patch_answer_id).
inline Bytes answer(const Service& s) {
  if (s.origin == Sdp::kSlp) {
    slp::SrvRply reply;
    reply.url_entries.push_back({300, slp_type(s.type) + ":" + s.url});
    return slp::encode(slp::Message(reply));
  }
  mdns::DnsMessage message;
  message.flags = mdns::kFlagResponse | mdns::kFlagAuthoritative;
  mdns::DnsRecord ptr;
  ptr.name = mdns_type(s.type);
  ptr.type = mdns::kTypePtr;
  ptr.ttl = 120;
  ptr.target = mdns_instance(s);
  message.answers.push_back(ptr);
  mdns::DnsRecord txt;
  txt.name = mdns_instance(s);
  txt.type = mdns::kTypeTxt;
  txt.ttl = 120;
  txt.txt = {{"url", s.url}};
  message.additionals.push_back(txt);
  return mdns::encode(message);
}

/// A UPnP device's answer to an M-SEARCH for `s`: LOCATION points at the
/// description the generator serves over HTTP.
inline Bytes ssdp_answer(const Service& s, const std::string& location) {
  upnp::SearchResponse response;
  response.st = upnp_type(s.type);
  response.usn = ssdp_usn(s);
  response.location = location;
  response.server = "E2EDevice/1.0 UPnP/1.0";
  std::string text;
  response.serialize_into(text);
  return to_bytes(text);
}

/// The HTTP response carrying the description document of `s`, whose one
/// service's controlURL is `control_url`.
inline std::string description_response(const Service& s,
                                        const std::string& control_url) {
  upnp::DeviceDescription d;
  d.device_type = upnp_type(s.type);
  d.friendly_name = "E2E device " + std::to_string(s.id);
  d.manufacturer = "E2E";
  d.model_name = canonical_type(s.type);
  d.udn = "uuid:e2edev" + std::to_string(s.id);
  upnp::ServiceDescription service;
  service.service_type =
      "urn:schemas-upnp-org:service:" + canonical_type(s.type) + ":1";
  service.service_id = "urn:upnp-org:serviceId:" + canonical_type(s.type);
  service.control_url = control_url;
  service.scpd_url = "/scpd.xml";
  service.event_sub_url = "/event";
  d.services.push_back(service);
  std::string xml = d.to_xml();
  return "HTTP/1.1 200 OK\r\nCONTENT-TYPE: text/xml\r\nCONTENT-LENGTH: " +
         std::to_string(xml.size()) + "\r\nCONNECTION: close\r\n\r\n" + xml;
}

/// SLP keeps its XID at byte 10 of the header, DNS its id at byte 0; SSDP
/// answers carry none.
inline void patch_answer_id(Sdp sdp, Bytes& wire, std::uint16_t id) {
  if (sdp == Sdp::kSsdp) return;
  const std::size_t at = sdp == Sdp::kSlp ? 10 : 0;
  if (wire.size() < at + 2) return;
  wire[at] = static_cast<std::uint8_t>(id >> 8);
  wire[at + 1] = static_cast<std::uint8_t>(id & 0xFF);
}

// ---------------------------------------------------------------------------
// Decoding the gateway's frames
// ---------------------------------------------------------------------------

/// What a gateway frame is, with the fields the verifier checks.
struct Frame {
  enum class Kind {
    kInvalid,       // did not decode with its SDP's codec
    kAnnouncement,  // mDNS unsolicited response, TTL > 0
    kGoodbye,       // mDNS unsolicited response, TTL 0
    kSsdpByebye,    // NOTIFY ssdp:byebye
    kSsdpAlive,     // NOTIFY ssdp:alive
    kQuery,         // translated query (mDNS PTR?, SrvRqst, M-SEARCH)
    kSlpReply,      // SrvRply to a requester
    kMdnsReply,     // unicast DNS response to a requester
    kSsdpReply,     // M-SEARCH response to a requester
    kDaAdvert,      // SLP DAAdvert (directory mode)
    kOther,         // decodable but not part of any expected exchange
  };
  Kind kind = Kind::kInvalid;
  bool stamped = false;           // carries the INDISS bridge stamp
  std::string type_name;          // qname / ST / NT / SLP service type
  std::string url;                // first bridged url (announcement, reply)
  std::uint16_t id = 0;           // DNS id / SLP XID
  std::string location;           // SSDP reply LOCATION
  std::string usn;                // SSDP NOTIFY USN
  std::vector<std::string> urls;  // every url an answer lists
};

inline std::string_view txt_url(const mdns::DnsRecord& record) {
  for (const auto& [key, value] : record.txt) {
    if (key == "url") return value;
  }
  return {};
}

/// Decodes a frame that arrived on `port` (a well-known port for multicast
/// traffic, anything else for unicast replies to the requester of `sdp`).
class FrameDecoder {
 public:
  Frame decode(Sdp sdp, bool unicast_reply, BytesView wire) {
    Frame f;
    if (sdp == Sdp::kMdns) return decode_mdns(unicast_reply, wire);
    if (sdp == Sdp::kSlp) {
      if (!slp::decode_into(wire, slp_scratch_)) return f;
      if (const auto* rqst = std::get_if<slp::SrvRqst>(&slp_scratch_)) {
        f.kind = Frame::Kind::kQuery;
        f.stamped = rqst->previous_responders.find(kBridgeStamp) !=
                    std::string::npos;
        f.type_name = rqst->service_type;
        f.id = rqst->header.xid;
      } else if (const auto* rply = std::get_if<slp::SrvRply>(&slp_scratch_)) {
        f.kind = Frame::Kind::kSlpReply;
        f.id = rply->header.xid;
        for (const auto& entry : rply->url_entries) f.urls.push_back(entry.url);
      } else if (std::holds_alternative<slp::DAAdvert>(slp_scratch_)) {
        f.kind = Frame::Kind::kDaAdvert;
      } else {
        f.kind = Frame::Kind::kOther;
      }
      return f;
    }
    auto message = upnp::parse_ssdp(wire);
    if (!message.has_value()) return f;
    if (const auto* req = std::get_if<upnp::SearchRequest>(&*message)) {
      f.kind = Frame::Kind::kQuery;
      f.stamped = req->user_agent.find(kBridgeStamp) != std::string::npos;
      f.type_name = req->st;
    } else if (const auto* rsp = std::get_if<upnp::SearchResponse>(&*message)) {
      f.kind = Frame::Kind::kSsdpReply;
      f.stamped = rsp->server.find(kBridgeStamp) != std::string::npos;
      f.type_name = rsp->st;
      f.location = rsp->location;
    } else if (const auto* ntf = std::get_if<upnp::Notify>(&*message)) {
      f.kind = ntf->kind == upnp::Notify::Kind::kByeBye
                   ? Frame::Kind::kSsdpByebye
                   : Frame::Kind::kSsdpAlive;
      f.stamped = ntf->server.find(kBridgeStamp) != std::string::npos;
      f.type_name = ntf->nt;
      f.usn = ntf->usn;
    }
    return f;
  }

 private:
  Frame decode_mdns(bool unicast_reply, BytesView wire) {
    Frame f;
    if (!mdns::decode_into(wire, dns_scratch_)) return f;
    const mdns::DnsMessage& m = dns_scratch_;
    for (const auto& record : m.additionals) {
      if (record.name == kMdnsMarker) f.stamped = true;
    }
    f.id = m.id;
    if (!m.is_response()) {
      f.kind = Frame::Kind::kQuery;
      if (!m.questions.empty()) f.type_name = m.questions.front().name;
      return f;
    }
    bool goodbye = !m.answers.empty();
    for (const auto& record : m.answers) {
      if (record.type == mdns::kTypePtr && f.type_name.empty()) {
        f.type_name = record.name;
      }
      if (record.ttl != 0) goodbye = false;
    }
    for (const auto* section : {&m.answers, &m.additionals}) {
      for (const auto& record : *section) {
        if (record.type != mdns::kTypeTxt || record.name == kMdnsMarker) {
          continue;
        }
        std::string_view url = txt_url(record);
        if (!url.empty()) f.urls.emplace_back(url);
      }
    }
    if (!f.urls.empty()) f.url = f.urls.front();
    f.kind = unicast_reply ? Frame::Kind::kMdnsReply
             : goodbye     ? Frame::Kind::kGoodbye
                           : Frame::Kind::kAnnouncement;
    return f;
  }

  slp::Message slp_scratch_;
  mdns::DnsMessage dns_scratch_;
};

}  // namespace indiss::bench_e2e
