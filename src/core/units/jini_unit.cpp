#include "core/units/jini_unit.hpp"

#include <cstdio>

#include "common/logging.hpp"
#include "common/reuse.hpp"
#include "common/strings.hpp"
#include "core/typemap.hpp"
#include "jini/discovery.hpp"

namespace indiss::core {

namespace {

/// Lease requested for each foreign service registered with the registrar.
constexpr std::uint32_t kLeaseSeconds = 300;
/// Held leases are renewed at half their length (jini::Client's
/// renew_fraction).
constexpr transport::Duration kRenewEvery =
    transport::seconds(kLeaseSeconds / 2);
/// The unit's handle slot while a registration awaits its lease.
constexpr std::uint64_t kLeasePending = ~std::uint64_t{0};

void join_into(const std::vector<std::string>& parts, std::string& out) {
  out.clear();
  for (std::size_t i = 0; i < parts.size(); ++i) {
    if (i > 0) out += ",";
    out += parts[i];
  }
}

}  // namespace

void JiniEventParser::parse(BytesView raw, const MessageContext& ctx,
                            EventSink& sink) {
  if (!ctx.continuation) sink.emit(sink.scratch(EventType::kControlStart));
  emit_net_events(sink, ctx, "jini");

  auto kind = jini::packet_kind(raw);
  if (!kind.has_value()) {
    Event err = sink.scratch(EventType::kResErr);
    err.set("code", "parse");
    sink.emit(std::move(err));
    sink.emit(sink.scratch(EventType::kControlStop));
    return;
  }
  if (*kind == jini::kPacketMulticastRequest) {
    if (jini::MulticastRequest::decode_into(raw, request_scratch_)) {
      // A registrar-discovery probe, not a service request: surfaced as a
      // Discovery (extension-set) event.
      join_into(request_scratch_.groups, groups_csv_);
      Event query = sink.scratch(EventType::kDiscRepositoryQuery);
      query.set("response_port",
                std::to_string(request_scratch_.response_port));
      query.set("groups", groups_csv_);
      sink.emit(std::move(query));
      Event groups = sink.scratch(EventType::kJiniGroups);
      groups.set("groups", groups_csv_);
      sink.emit(std::move(groups));
    }
  } else {
    if (jini::MulticastAnnouncement::decode_into(raw, announcement_scratch_)) {
      IntDigits id(static_cast<unsigned long long>(
          announcement_scratch_.registrar_id));
      Event found = sink.scratch(EventType::kDiscRepositoryFound);
      found.set("host", announcement_scratch_.registrar_host);
      found.set("port", std::to_string(announcement_scratch_.registrar_port));
      found.set("id", id.view());
      sink.emit(std::move(found));
      Event registrar = sink.scratch(EventType::kJiniRegistrarId);
      registrar.set("id", id.view());
      sink.emit(std::move(registrar));
    }
  }
  sink.emit(sink.scratch(EventType::kControlStop));
}

// ---------------------------------------------------------------------------
// compose_jini_announcement
// ---------------------------------------------------------------------------

bool compose_jini_announcement(const EventStream& stream,
                               jini::MulticastAnnouncement& out) {
  const Event* found = find_event(stream, EventType::kDiscRepositoryFound);
  if (found == nullptr) return false;
  out.registrar_host.assign(found->get("host"));
  out.registrar_port = static_cast<std::uint16_t>(
      str::parse_long(found->get("port"), jini::kJiniPort));
  out.registrar_id = static_cast<std::uint64_t>(
      str::parse_long(found->get("id"), 0));
  std::size_t group_count = 0;
  if (const Event* groups = find_event(stream, EventType::kJiniGroups)) {
    std::string_view csv = groups->get("groups");
    while (!csv.empty()) {
      auto comma = csv.find(',');
      std::string_view piece =
          comma == std::string_view::npos ? csv : csv.substr(0, comma);
      if (!piece.empty()) slot(out.groups, group_count++).assign(piece);
      csv = comma == std::string_view::npos ? std::string_view{}
                                            : csv.substr(comma + 1);
    }
  }
  out.groups.resize(group_count);
  return true;
}

// ---------------------------------------------------------------------------

JiniUnit::JiniUnit(transport::Transport& transport, UnitOptions options)
    : Unit(SdpId::kJini, transport, std::move(options)) {
  register_parser(std::make_unique<JiniEventParser>());
  build_standard_fsm(fsm_);
  // Learn registrar locations from announcements. The kind tag makes the
  // periodic (byte-identical) registrar heartbeat cacheable: a repeat skips
  // the parse, and the no-op replay is correct because the registrar was
  // already noted (a *changed* registrar changes the bytes — and noting one
  // bumps the cache generation).
  fsm_.add_tuple("parsing", EventType::kDiscRepositoryFound, {}, "parsing",
                 {ActionOp::kNoteRegistrar, set_kind(Kind::kRepoAnnounce)});
  fsm_.add_tuple("parsing", EventType::kDiscRepositoryQuery, {}, "parsing",
                 {set_kind(Kind::kRepoQuery)});
}

JiniUnit::~JiniUnit() = default;

void JiniUnit::note_registrar(const Event& event) {
  auto addr = net::IpAddress::parse(event.get("host"));
  if (!addr.has_value()) return;
  net::Endpoint endpoint{
      *addr, static_cast<std::uint16_t>(
                 str::parse_long(event.get("port"), jini::kJiniPort))};
  bool changed = !registrar_.has_value() || *registrar_ != endpoint;
  registrar_ = endpoint;
  // A newly learned registrar changes what foreign advertisements translate
  // into (they can now be registered), so cached translations are stale —
  // and so are directory records, whose Jini-side registrations now point
  // at the wrong (or no) registrar until services re-announce.
  if (changed) {
    if (translation_cache() != nullptr) translation_cache()->bump_generation();
    directory().bump_generation();
  }
}

void JiniUnit::registrar_op(Bytes request, std::function<void(Bytes)> handler) {
  if (!registrar_.has_value()) {
    handler({});
    return;
  }
  auto socket = transport().connect_tcp(*registrar_);
  if (socket == nullptr) {
    handler({});
    return;
  }
  auto done = std::make_shared<bool>(false);
  socket->set_data_handler(
      [socket, done, handler = std::move(handler)](BytesView data) {
        if (*done) return;
        *done = true;
        Bytes reply(data.begin(), data.end());
        socket->close();
        handler(std::move(reply));
      });
  socket->send(std::move(request));
}

// Translate a foreign request into a registrar lookup. Without a known
// registrar, Jini can contribute nothing — the session simply times out and
// the other peers' answers (if any) win.
void JiniUnit::compose_native_request(Session& session) {
  jini::ServiceTemplate tmpl;
  std::string type(session.service_type_or("*"));
  if (type != "*") tmpl.service_type = type;

  ByteWriter w;
  w.u8(jini::kOpLookup);
  tmpl.encode(w);
  std::uint64_t session_id = session.id;
  registrar_op(w.take(), [this, session_id](Bytes reply) {
    // Build the translated reply stream straight from the lookup result —
    // the registrar already speaks our compact binary form, so this acts as
    // the "parse" step for the unicast leg.
    EventStream stream;
    stream.push_back(Event(EventType::kControlStart));
    stream.push_back(Event(EventType::kNetType, {{"sdp", "jini"}}));
    stream.push_back(Event(EventType::kServiceResponse));
    bool any_item = false;
    try {
      ByteReader r(reply);
      if (!reply.empty() && r.u8() == jini::kStatusOk) {
        std::uint16_t count = r.u16();
        for (std::uint16_t i = 0; i < count; ++i) {
          jini::ServiceItem item = jini::ServiceItem::decode(r);
          std::string url;
          for (const auto& [k, v] : item.attributes) {
            if (k == "url") {
              url = v;
            } else {
              stream.push_back(Event(EventType::kServiceAttr,
                                     {{"key", k}, {"value", v}}));
            }
          }
          if (url.empty()) url = "jini://" + item.id.to_string();
          stream.push_back(Event(EventType::kResServUrl, {{"url", url}}));
          stream.push_back(Event(EventType::kServiceTypeIs,
                                 {{"type", item.service_type}}));
          any_item = true;
        }
      }
    } catch (const DecodeError&) {
      any_item = false;
    }
    stream.push_back(Event(EventType::kControlStop));
    if (!any_item) return;  // silence, like a multicast SDP with no match

    Session* session = find_session(session_id);
    if (session == nullptr || session->done) return;
    for (Event& event : stream) feed_event(*session, std::move(event));
  });
}

// Native Jini clients find services through a registrar, not through INDISS;
// answering a repo query on the registrar's behalf is out of scope for this
// unit (the registrar itself responds natively). Nothing to compose.
void JiniUnit::compose_native_reply(Session&) {}

// Translate a foreign advertisement into a registrar registration so native
// Jini clients can look the service up. One registration per bridged record:
// alive bursts repeat the URL under several notification types, and a
// refresh only re-arms the record — unless no registrar was known when the
// unit first bridged it, in which case the first refresh after one appears
// registers it.
void JiniUnit::on_bridged(Session& session,
                          const ServiceDirectory::Record& service,
                          std::uint64_t& handle, bool) {
  if (handle != 0 || !registrar_.has_value()) return;
  handle = kLeasePending;

  jini::EntryAttributes attributes;
  for (const auto& event : session.events()) {
    if (event.type == EventType::kServiceAttr) {
      attributes.emplace_back(event.get("key"), event.get("value"));
    }
  }

  jini::ServiceItem item;
  item.id = jini::ServiceId{0x1D15500000000000ULL, next_service_id_++};
  item.service_type = session.service_type_or("service");
  attributes.emplace_back("url", service.url);
  attributes.emplace_back("bridged-by", "INDISS");
  item.attributes = std::move(attributes);

  ByteWriter w;
  w.u8(jini::kOpRegister);
  item.encode(w);
  w.u32(kLeaseSeconds);
  registrar_op(w.take(), [this, url = service.url](Bytes reply) {
    try {
      ByteReader r(reply);
      if (reply.empty() || r.u8() != jini::kStatusOk) return;
      std::uint64_t lease = r.u64();
      std::uint64_t* registered = directory().handle_slot(sdp(), url);
      if (registered == nullptr) {
        // Withdrawn while the registration was in flight: cancel the lease
        // we were just granted instead of stranding it at the registrar.
        ByteWriter cancel;
        cancel.u8(jini::kOpCancel);
        cancel.u64(lease);
        registrar_op(cancel.take(), [](Bytes) {});
        return;
      }
      foreign_registrations_ += 1;
      // Remember the granted lease: a later byebye cancels it, and the
      // renewal timer keeps it alive meanwhile.
      *registered = lease;
      arm_renewal();
    } catch (const DecodeError&) {
    }
  });
}

// A unit timer, not the refresh hook: a cache hit re-arms the store record
// without calling on_bridged, and a UPnP device may re-announce only every
// 900 s, three times the lease.
void JiniUnit::arm_renewal() {
  if (renewal_armed_) return;
  renewal_armed_ = true;
  schedule_guarded(kRenewEvery, [this]() {
    renewal_armed_ = false;
    bool leased = false;
    for (const ServiceDirectory::Record* service : foreign_services()) {
      std::uint64_t lease = service->handles[static_cast<std::size_t>(sdp())];
      if (lease == 0 || lease == kLeasePending) continue;
      renew(service->url, lease);
      leased = true;
    }
    if (leased) arm_renewal();
  });
}

void JiniUnit::renew(const std::string& url, std::uint64_t lease) {
  ByteWriter w;
  w.u8(jini::kOpRenew);
  w.u64(lease);
  w.u32(kLeaseSeconds);
  registrar_op(w.take(), [this, alive = lifetime(), url, lease](Bytes reply) {
    if (alive.expired()) return;
    if (!reply.empty() && reply[0] == jini::kStatusOk) return;
    // Refused: the registrar no longer holds the lease. Forget it, and let
    // the next repeat of the advert parse (no cache hit), so the refresh
    // registers the service again.
    std::uint64_t* held = directory().handle_slot(sdp(), url);
    if (held == nullptr || *held != lease) return;
    *held = 0;
    if (translation_cache() != nullptr) translation_cache()->bump_generation();
  });
}

// Withdrawal cancels the lease the registration was granted, so native Jini
// lookups stop returning the departed service. Expiry (crash without
// byebye) sends no kOpCancel: the registrar's lease expires by its own
// clock, and racing a cancel against a dead lease just burns a TCP connect.
// Forgetting the entry locally is what matters — a rejoining device (new
// endpoint, fresh URL) registers cleanly.
void JiniUnit::forget_bridged(const ServiceDirectory::Record&,
                              std::uint64_t handle, Forget why) {
  if (why == Forget::kExpired || handle == 0 || handle == kLeasePending ||
      !registrar_.has_value()) {
    return;
  }
  ByteWriter w;
  w.u8(jini::kOpCancel);
  w.u64(handle);
  registrar_op(w.take(), [this](Bytes reply) {
    if (!reply.empty() && reply[0] == jini::kStatusOk) {
      foreign_deregistrations_ += 1;
    }
  });
}

}  // namespace indiss::core
