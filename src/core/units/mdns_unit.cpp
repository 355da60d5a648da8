#include "core/units/mdns_unit.hpp"

#include <cstdio>

#include "common/reuse.hpp"
#include "common/strings.hpp"
#include "core/typemap.hpp"

namespace indiss::core {

namespace {

// Composed messages are stamped with a marker record (mDNS has no
// user-agent slot); the parser surfaces it as the head event's "server"
// attribute for the standard FSM's bridge-echo guard.
constexpr std::string_view kBridgeMarkerName = "_indiss-bridge._udp.local";
constexpr std::string_view kBridgeStamp = "INDISS-bridge";
/// TTL advertised on composed records.
constexpr std::uint32_t kRecordTtl = 120;
/// Answers to multicast queries that crossed the shared medium are paced
/// (RFC 6762 §6 etiquette); loopback queries are answered immediately.
constexpr transport::Duration kResponsePacing = transport::millis(20);
const net::Endpoint kMdnsGroupEndpoint{mdns::kMdnsGroup, mdns::kMdnsPort};

/// Resets a recycled record slot to defaults while keeping string/vector
/// capacity. Deliberately leaves `txt` alone: resize(0) would destroy the
/// pair strings (and their capacity) that a TXT slot reuses each compose;
/// fillers of TXT slots set the final entry count themselves, and the
/// encoder never reads `txt` for non-TXT types.
void reset_record(mdns::DnsRecord& r) {
  r.name.clear();
  r.type = mdns::kTypePtr;
  r.cache_flush = false;
  r.ttl = 0;
  r.target.clear();
  r.priority = 0;
  r.weight = 0;
  r.port = 0;
  r.address = net::IpAddress();
  r.raw.clear();
}

/// Allocation-free canonical type: "clock1._clock._tcp.local" -> "clock".
/// (typemap's canonical_from_dnssd lowercases into a fresh string; wire
/// names in the simulator are lowercase already, so the parser can use
/// views.)
std::string_view canonical_view(std::string_view name) {
  if (name.starts_with("_services._dns-sd.")) return "*";
  while (!name.empty() && !name.starts_with("_")) {
    auto dot = name.find('.');
    if (dot == std::string_view::npos) return name;
    name.remove_prefix(dot + 1);
  }
  if (name.starts_with("_")) name.remove_prefix(1);
  auto dot = name.find('.');
  if (dot != std::string_view::npos) name = name.substr(0, dot);
  return name;
}

/// Host/port of a (possibly service:-nested) access URL, as views.
struct UrlEndpoint {
  std::string_view host;
  std::uint16_t port = 0;
};

UrlEndpoint url_endpoint(std::string_view url) {
  UrlEndpoint out;
  auto scheme = url.find("://");
  std::string_view rest =
      scheme == std::string_view::npos ? url : url.substr(scheme + 3);
  auto sl = rest.find('/');
  if (sl != std::string_view::npos) rest = rest.substr(0, sl);
  auto colon = rest.rfind(':');
  if (colon != std::string_view::npos) {
    out.port = static_cast<std::uint16_t>(
        str::parse_long(rest.substr(colon + 1), 0));
    out.host = rest.substr(0, colon);
  } else {
    out.host = rest;
  }
  return out;
}

std::uint32_t fnv1a(std::string_view s) {
  std::uint32_t hash = 2166136261u;
  for (char c : s) {
    hash ^= static_cast<std::uint8_t>(c);
    hash *= 16777619u;
  }
  return hash;
}

bool has_bridge_marker(const mdns::DnsMessage& message) {
  for (const auto& record : message.additionals) {
    if (record.name == kBridgeMarkerName) return true;
  }
  return false;
}

void append_marker(mdns::DnsMessage& out, std::size_t* additional_count) {
  mdns::DnsRecord& marker = slot(out.additionals, (*additional_count)++);
  reset_record(marker);
  marker.name.assign(kBridgeMarkerName);
  marker.type = mdns::kTypeTxt;
  marker.ttl = 1;
  auto& kv = slot(marker.txt, 0);
  kv.first.assign("bridged-by");
  kv.second.assign(kBridgeStamp);
  marker.txt.resize(1);
}

}  // namespace

// ---------------------------------------------------------------------------
// MdnsEventParser
// ---------------------------------------------------------------------------

void MdnsEventParser::parse(BytesView raw, const MessageContext& ctx,
                            EventSink& sink) {
  if (!ctx.continuation) sink.emit(sink.scratch(EventType::kControlStart));

  std::string error;
  if (!mdns::decode_into(raw, scratch_, &error)) {
    Event err = sink.scratch(EventType::kResErr);
    err.set("code", "parse");
    err.set("detail", error);
    sink.emit(std::move(err));
    sink.emit(sink.scratch(EventType::kControlStop));
    return;
  }
  const mdns::DnsMessage& message = scratch_;

  emit_net_events(sink, ctx, "mdns");

  std::string_view stamp = has_bridge_marker(message) ? kBridgeStamp : "";

  if (!message.is_response()) {
    Event head = sink.scratch(EventType::kServiceRequest);
    head.set("server", stamp);
    sink.emit(std::move(head));
    for (const auto& question : message.questions) {
      if (question.qtype != mdns::kTypePtr &&
          question.qtype != mdns::kTypeAny) {
        continue;
      }
      Event q = sink.scratch(EventType::kMdnsQuestion);
      q.set("name", question.name);
      q.set("qtype", "ptr");
      q.set("id", std::to_string(message.id));
      sink.emit(std::move(q));
      Event type = sink.scratch(EventType::kServiceTypeIs);
      type.set("type", canonical_view(question.name));
      type.set("native", question.name);
      sink.emit(std::move(type));
      break;  // DNS-SD browses carry one question; extras are repeats
    }
    sink.emit(sink.scratch(EventType::kControlStop));
    return;
  }

  // Response: a goodbye when every answer's TTL is 0, an advertisement when
  // it arrived on the multicast group, a query response when unicast back.
  bool goodbye = !message.answers.empty();
  for (const auto& answer : message.answers) {
    if (answer.ttl != 0) goodbye = false;
  }
  EventType head_type = goodbye ? EventType::kServiceByeBye
                        : ctx.multicast ? EventType::kServiceAlive
                                        : EventType::kServiceResponse;
  {
    Event head = sink.scratch(head_type);
    head.set("server", stamp);
    sink.emit(std::move(head));
  }
  if (head_type == EventType::kServiceResponse) {
    sink.emit(sink.scratch(EventType::kResOk));
  }

  bool url_seen = false;
  bool srv_seen = false;
  std::string_view srv_target;
  std::uint16_t srv_port = 0;
  net::IpAddress host_addr;
  for (const auto* section : {&message.answers, &message.additionals}) {
    for (const auto& record : *section) {
      if (record.name == kBridgeMarkerName) continue;
      if (record.type == mdns::kTypePtr) {
        Event instance = sink.scratch(EventType::kMdnsInstance);
        instance.set("instance", mdns::instance_label(record.target));
        instance.set("name", record.target);
        sink.emit(std::move(instance));
        Event type = sink.scratch(EventType::kServiceTypeIs);
        type.set("type", canonical_view(record.name));
        type.set("native", record.name);
        sink.emit(std::move(type));
        Event ttl = sink.scratch(EventType::kResTtl);
        ttl.set("seconds", std::to_string(record.ttl));
        sink.emit(std::move(ttl));
      } else if (record.type == mdns::kTypeSrv) {
        Event srv = sink.scratch(EventType::kMdnsSrv);
        srv.set("target", record.target);
        srv.set("port", std::to_string(record.port));
        srv.set("priority", std::to_string(record.priority));
        srv.set("weight", std::to_string(record.weight));
        sink.emit(std::move(srv));
        srv_seen = true;
        srv_target = record.target;
        srv_port = record.port;
      } else if (record.type == mdns::kTypeTxt) {
        for (const auto& [key, value] : record.txt) {
          if (key == "url" && !value.empty()) {
            Event url = sink.scratch(EventType::kResServUrl);
            url.set("url", value);
            sink.emit(std::move(url));
            url_seen = true;
          } else {
            Event attr = sink.scratch(EventType::kServiceAttr);
            attr.set("key", key);
            attr.set("value", value);
            sink.emit(std::move(attr));
          }
        }
      } else if (record.type == mdns::kTypeA) {
        host_addr = record.address;
      }
    }
  }
  if (!url_seen && srv_seen) {
    // No TXT url: synthesize an access URL from the SRV/A data so foreign
    // composers still get their pivotal SDP_RES_SERV_URL.
    char buf[80];
    if (!host_addr.is_unspecified()) {
      std::snprintf(buf, sizeof(buf), "mdns://%s:%u",
                    host_addr.to_string().c_str(),
                    static_cast<unsigned>(srv_port));
    } else {
      std::snprintf(buf, sizeof(buf), "mdns://%.*s:%u",
                    static_cast<int>(srv_target.size()), srv_target.data(),
                    static_cast<unsigned>(srv_port));
    }
    Event url = sink.scratch(EventType::kResServUrl);
    url.set("url", buf);
    sink.emit(std::move(url));
  }
  sink.emit(sink.scratch(EventType::kControlStop));
}

// ---------------------------------------------------------------------------
// compose_dnssd_answers
// ---------------------------------------------------------------------------

std::size_t compose_dnssd_answers(
    const EventStream& stream, std::string_view qname, std::uint32_t ttl,
    mdns::DnsMessage& out,
    const std::unordered_map<std::uint32_t, std::string>* overrides) {
  out.flags = mdns::kFlagResponse | mdns::kFlagAuthoritative;
  out.questions.resize(0);
  out.authorities.resize(0);

  std::size_t groups = 0;
  std::size_t answers = 0;
  std::size_t additionals = 0;
  std::size_t url_count = 0;
  for (const auto& event : stream) {
    if (event.type == EventType::kResServUrl && !event.get("url").empty()) {
      url_count += 1;
    }
  }
  const bool single_url = url_count == 1;
  char digits[24];
  for (const auto& event : stream) {
    if (event.type != EventType::kResServUrl) continue;
    std::string_view url = event.get("url");
    if (url.empty()) continue;
    UrlEndpoint endpoint = url_endpoint(url);
    groups += 1;

    // PTR: <qname> -> indiss-<hash>.<qname>. The hash keys the instance to
    // the bridged URL so repeated answers resolve to one instance.
    //
    // NOTE: a slot() reference dies at the next slot() call on the same
    // vector (emplace_back may reallocate) — every record is filled right
    // after its slot is taken, and cross-record values come from `stream`
    // or `endpoint` views, never from earlier slots of the same vector.
    std::uint32_t url_hash = fnv1a(url);
    const std::string* renamed = nullptr;
    if (overrides != nullptr && !overrides->empty()) {
      auto found = overrides->find(url_hash);
      if (found != overrides->end()) renamed = &found->second;
    }
    std::snprintf(digits, sizeof(digits), "indiss-%08x", url_hash);
    mdns::DnsRecord& ptr = slot(out.answers, answers++);
    reset_record(ptr);
    ptr.name.assign(qname);
    ptr.type = mdns::kTypePtr;
    ptr.ttl = ttl;
    if (renamed != nullptr) {
      ptr.target.assign(*renamed);
    } else {
      ptr.target.assign(digits);
    }
    ptr.target.push_back('.');
    ptr.target.append(qname);

    mdns::DnsRecord& srv = slot(out.additionals, additionals++);
    reset_record(srv);
    srv.name.assign(ptr.target);
    srv.type = mdns::kTypeSrv;
    srv.cache_flush = true;
    srv.ttl = ttl;
    srv.port = endpoint.port;
    srv.target.assign(endpoint.host);

    mdns::DnsRecord& txt = slot(out.additionals, additionals++);
    reset_record(txt);
    txt.name.assign(ptr.target);
    txt.type = mdns::kTypeTxt;
    txt.cache_flush = true;
    txt.ttl = ttl;
    std::size_t entries = 0;
    auto& url_kv = slot(txt.txt, entries++);
    url_kv.first.assign("url");
    url_kv.second.assign(url);
    if (single_url) {
      // SDP_SERVICE_ATTR events are stream-global, not per-URL; attaching
      // them is only unambiguous when the stream describes one service.
      for (const auto& attr : stream) {
        if (attr.type != EventType::kServiceAttr) continue;
        if (entries >= 8) break;  // keep bridged TXT bundles bounded
        auto& kv = slot(txt.txt, entries++);
        kv.first.assign(attr.get("key"));
        kv.second.assign(attr.get("value"));
      }
    }
    auto& stamp_kv = slot(txt.txt, entries++);
    stamp_kv.first.assign("bridged-by");
    stamp_kv.second.assign(kBridgeStamp);
    txt.txt.resize(entries);

    auto address = net::IpAddress::parse(endpoint.host);
    if (address.has_value()) {
      mdns::DnsRecord& a = slot(out.additionals, additionals++);
      reset_record(a);
      a.name.assign(endpoint.host);  // == the SRV record's target
      a.type = mdns::kTypeA;
      a.cache_flush = true;
      a.ttl = ttl;
      a.address = *address;
    }
  }
  append_marker(out, &additionals);
  out.answers.resize(answers);
  out.additionals.resize(additionals);
  return groups;
}

// ---------------------------------------------------------------------------
// MdnsUnit
// ---------------------------------------------------------------------------

MdnsUnit::MdnsUnit(transport::Transport& transport, UnitOptions options,
                   Config config)
    : Unit(SdpId::kMdns, transport, std::move(options)) {
  register_parser(std::make_unique<MdnsEventParser>());
  build_standard_fsm(fsm_);
  // Remember the browse question so the composed reply echoes the qname and
  // the legacy querier's DNS id (RFC 6762 §6.7).
  fsm_.add_tuple("parsing", EventType::kMdnsQuestion, {}, "parsing",
                 {record(Field::kQname), record(Field::kQueryId)});

  open_reply_socket();

  if (config.probe) {
    mdns::ProbeEngine::Callbacks callbacks;
    callbacks.send = [this](const mdns::DnsMessage& message) {
      // Probe/defense frames carry the bridge marker so a peer gateway's
      // FSM ignores them as bridge echoes; its probe engine still sees them
      // (engine feeding happens before the FSM guard).
      probe_send_scratch_ = message;
      std::size_t additionals = probe_send_scratch_.additionals.size();
      append_marker(probe_send_scratch_, &additionals);
      probe_send_scratch_.additionals.resize(additionals);
      BytesView wire = encoder_.encode(probe_send_scratch_);
      reply_socket_->send_to(kMdnsGroupEndpoint,
                             Bytes(wire.begin(), wire.end()));
    };
    callbacks.on_established = [this](const std::string& name) {
      on_probe_established(name);
    };
    callbacks.on_renamed = [this](const std::string& old_name,
                                  const std::string& new_name) {
      on_probe_renamed(old_name, new_name);
    };
    probe_ =
        std::make_unique<mdns::ProbeEngine>(transport, std::move(callbacks));
  }
}

// Inbound native mDNS traffic feeds the probe engine before the normal
// pipeline: probe queries drive §8.2 tiebreaks and defenses, responses drive
// conflict detection — including frames the FSM will later discard as bridge
// echoes or that the translation cache short-circuits.
void MdnsUnit::on_native_message(const net::Datagram& datagram) {
  if (probe_ && probe_->claim_count() > 0) {
    if (mdns::decode_into(datagram.payload, probe_scratch_)) {
      if (probe_scratch_.is_response()) {
        probe_->handle_response(probe_scratch_);
      } else if (!probe_scratch_.questions.empty()) {
        probe_->handle_query(probe_scratch_);
      }
    }
  }
  Unit::on_native_message(datagram);
}

// Acting as a one-shot mDNS browser for a foreign request: multicast a PTR
// query from the unit's ephemeral socket; responders answer it unicast,
// echoing its ID (RFC 6762 §6.7).
void MdnsUnit::compose_native_request(Session& session) {
  compose_scratch_.clear();
  compose_scratch_.id =
      free_query_id(static_cast<std::uint16_t>(session.id & 0xFFFF));
  mdns::DnsQuestion question;
  question.name = dnssd_from_canonical(session.service_type_or("*"));
  question.qtype = mdns::kTypePtr;
  question.unicast_response = true;
  compose_scratch_.questions.push_back(std::move(question));
  std::size_t additionals = 0;
  append_marker(compose_scratch_, &additionals);
  compose_scratch_.additionals.resize(additionals);

  BytesView wire = encoder_.encode(compose_scratch_);
  send_query(session, kMdnsGroupEndpoint, Bytes(wire.begin(), wire.end()));
}

// Answering a native mDNS browser on behalf of foreign services: compose the
// PTR+SRV+TXT+A bundle and unicast it back to the querier.
void MdnsUnit::compose_native_reply(Session& session) {
  if (session.qname.empty()) {
    dnssd_from_canonical_into(session.service_type_or("*"), qname_scratch_);
  } else {
    qname_scratch_.assign(session.qname);
  }
  if (compose_dnssd_answers(session.events(), qname_scratch_, kRecordTtl,
                            compose_scratch_, &name_overrides_) == 0) {
    return;  // nothing found: mDNS answers with silence
  }
  if (blocked_by_probing(compose_scratch_)) {
    return;  // §8.1: a still-probing instance must not be answered for
  }
  compose_scratch_.id = session.query_id;
  send_reply(session, encoder_.encode(compose_scratch_));
}

// RFC 6762 §6 etiquette: answers to queries that crossed the shared medium
// wait kResponsePacing; loopback interception is answered immediately.
transport::Duration MdnsUnit::network_reply_pacing() const {
  return kResponsePacing;
}

// A peer advertised a foreign service: re-announce it in the Bonjour world
// as an unsolicited multicast response.
void MdnsUnit::on_bridged(Session& session,
                          const ServiceDirectory::Record& service,
                          std::uint64_t&, bool fresh) {
  std::string_view type = session.service_type;
  dnssd_from_canonical_into(type, qname_scratch_);
  if (compose_dnssd_answers(session.events(), qname_scratch_, kRecordTtl,
                            compose_scratch_, &name_overrides_) == 0) {
    // The advertisement named no service URL directly (a UPnP alive only
    // carries the description LOCATION): announce the URL the store record
    // is keyed by instead — it still identifies the service.
    compose_url_records(service.url, qname_scratch_, kRecordTtl);
  }
  compose_scratch_.id = 0;

  if (probe_ && fresh) {
    // RFC 6762 §8.1: claim the composed instance names first; the
    // announcement fires from on_probe_established. Nothing is cached yet —
    // a replayed frame must never announce an unprobed name.
    begin_probes(type);
    return;
  }
  if (blocked_by_probing(compose_scratch_)) {
    return;  // refresh arrived while the claim is still probing
  }

  BytesView wire = encoder_.encode(compose_scratch_);
  // Already-bridged repeats stay silent on the parse path (alive bursts
  // repeat one URL under several notification types), but the composed
  // re-announcement is still handed to the translation cache: replaying it
  // is how byte-identical periodic repeats keep refreshing the Bonjour
  // world — including after a generation bump forced a re-parse.
  if (fresh) {
    reply_socket_->send_to(kMdnsGroupEndpoint, Bytes(wire.begin(), wire.end()));
    announcements_sent_ += 1;
  }
  cache_outbound_frame(session, reply_socket_, kMdnsGroupEndpoint, wire);
}

// ---------------------------------------------------------------------------
// RFC 6762 §8: probe/tiebreak plumbing for bridged instance names
// ---------------------------------------------------------------------------

bool MdnsUnit::blocked_by_probing(const mdns::DnsMessage& composed) const {
  if (!probe_) return false;
  for (const auto& record : composed.answers) {
    if (record.type != mdns::kTypePtr) continue;
    auto it = bridged_claims_.find(record.target);
    if (it != bridged_claims_.end() && !it->second.announced) return true;
  }
  return false;
}

void MdnsUnit::begin_probes(std::string_view canonical_type) {
  for (const auto& record : compose_scratch_.answers) {
    if (record.type != mdns::kTypePtr) continue;
    const std::string& instance = record.target;
    if (bridged_claims_.contains(instance)) continue;
    std::vector<mdns::DnsRecord> records;
    std::string url;
    for (const auto& extra : compose_scratch_.additionals) {
      if (extra.name != instance) continue;
      if (extra.type != mdns::kTypeSrv && extra.type != mdns::kTypeTxt) {
        continue;
      }
      records.push_back(extra);
      records.back().cache_flush = false;  // probes propose, not assert
      if (extra.type == mdns::kTypeTxt) {
        for (const auto& [key, value] : extra.txt) {
          if (key == "url" && url.empty()) url = value;
        }
      }
    }
    BridgedClaim claim;
    claim.url = std::move(url);
    claim.canonical_type.assign(canonical_type);
    bridged_claims_.emplace(instance, std::move(claim));
    probe_->claim(instance, std::move(records));
  }
}

void MdnsUnit::on_probe_established(const std::string& name) {
  auto it = bridged_claims_.find(name);
  if (it == bridged_claims_.end() || it->second.announced) return;
  announce_bridged(name, it->second);
  it->second.announced = true;
}

// Announce exactly the records that survived probing: the §8.2 tiebreak is a
// byte comparison, so a peer gateway that probed identical rdata must hear
// identical rdata back or it would manufacture a conflict.
void MdnsUnit::announce_bridged(const std::string& name,
                                const BridgedClaim& claim) {
  const auto* records = probe_->claim_records(name);
  if (records == nullptr) return;
  compose_scratch_.clear();
  compose_scratch_.flags = mdns::kFlagResponse | mdns::kFlagAuthoritative;
  dnssd_from_canonical_into(claim.canonical_type, qname_scratch_);

  mdns::DnsRecord ptr;
  ptr.name = qname_scratch_;
  ptr.type = mdns::kTypePtr;
  ptr.ttl = kRecordTtl;
  ptr.target = name;
  compose_scratch_.answers.push_back(std::move(ptr));

  std::size_t additionals = 0;
  for (const auto& record : *records) {
    mdns::DnsRecord& copy = slot(compose_scratch_.additionals, additionals++);
    copy = record;
    copy.cache_flush = true;
    copy.ttl = kRecordTtl;
  }
  UrlEndpoint endpoint = url_endpoint(claim.url);
  auto address = net::IpAddress::parse(endpoint.host);
  if (address.has_value()) {
    mdns::DnsRecord& a = slot(compose_scratch_.additionals, additionals++);
    reset_record(a);
    a.name.assign(endpoint.host);
    a.type = mdns::kTypeA;
    a.cache_flush = true;
    a.ttl = kRecordTtl;
    a.address = *address;
  }
  append_marker(compose_scratch_, &additionals);
  compose_scratch_.additionals.resize(additionals);
  multicast_composed();
}

void MdnsUnit::on_probe_renamed(const std::string& old_name,
                                const std::string& new_name) {
  auto it = bridged_claims_.find(old_name);
  if (it == bridged_claims_.end()) return;
  BridgedClaim claim = std::move(it->second);
  bridged_claims_.erase(it);

  if (claim.announced) {
    // The old name was live on the wire (§9 conflict on an established
    // record): goodbye it before the override swaps the label.
    send_goodbye(claim.url, claim.canonical_type);
  }
  name_overrides_[fnv1a(claim.url)] =
      std::string(mdns::instance_label(new_name));
  claim.announced = false;
  bridged_claims_.emplace(new_name, std::move(claim));

  // Every later compose — answers, cached replays, goodbyes — must use the
  // new name: logically empty both caches.
  if (translation_cache() != nullptr) translation_cache()->bump_generation();
  directory().bump_generation();
}

std::size_t MdnsUnit::compose_url_records(std::string_view url,
                                          std::string_view qname,
                                          std::uint32_t ttl) {
  EventStream stream = stream_pool().acquire();
  stream.push_back(Event(EventType::kControlStart));
  stream.push_back(Event(EventType::kResServUrl, {{"url", url}}));
  stream.push_back(Event(EventType::kControlStop));
  std::size_t groups = compose_dnssd_answers(stream, qname, ttl,
                                             compose_scratch_,
                                             &name_overrides_);
  stream_pool().release(std::move(stream));
  return groups;
}

void MdnsUnit::multicast_composed() {
  compose_scratch_.id = 0;
  BytesView wire = encoder_.encode(compose_scratch_);
  reply_socket_->send_to(kMdnsGroupEndpoint, Bytes(wire.begin(), wire.end()));
  announcements_sent_ += 1;
}

void MdnsUnit::send_goodbye(std::string_view url,
                            std::string_view canonical_type) {
  dnssd_from_canonical_into(canonical_type, qname_scratch_);
  if (compose_url_records(url, qname_scratch_, /*ttl=*/0) == 0) return;
  multicast_composed();
}

void MdnsUnit::release_probe_state(std::string_view url,
                                   std::string_view canonical_type) {
  if (!probe_) return;
  std::uint32_t url_hash = fnv1a(url);
  dnssd_from_canonical_into(canonical_type, qname_scratch_);
  std::string name;
  auto renamed = name_overrides_.find(url_hash);
  if (renamed != name_overrides_.end()) {
    name = renamed->second;
    name_overrides_.erase(renamed);
  } else {
    char digits[24];
    std::snprintf(digits, sizeof(digits), "indiss-%08x", url_hash);
    name = digits;
  }
  name += '.';
  name += qname_scratch_;
  probe_->release(name);
  bridged_claims_.erase(name);
}

// A bridged service left: a withdrawn one gets the RFC 6762 TTL-0 goodbye,
// an expired one is forgotten silently (native Bonjour caches age its
// records out by their own TTLs). Either way its probe state goes, so a
// device that rejoins re-probes from its base name.
void MdnsUnit::forget_bridged(const ServiceDirectory::Record& service,
                              std::uint64_t, Forget why) {
  if (why == Forget::kWithdrawn) {
    // The goodbye must name the same hash-stable instance the announcement
    // created, so compose from the record's URL (the byebye stream itself
    // may have named only the USN).
    dnssd_from_canonical_into(service.type(), qname_scratch_);
    compose_url_records(service.url, qname_scratch_, /*ttl=*/0);
    // A name still probing was never announced: forget it silently instead
    // of multicasting a goodbye nobody heard an announcement for. No
    // cache_outbound_frame: byebyes are never cached (Unit keeps their
    // state changes on the parse path).
    if (!blocked_by_probing(compose_scratch_)) multicast_composed();
  }
  release_probe_state(service.url, service.type());
}

}  // namespace indiss::core
