#include "core/units/slp_unit.hpp"

#include "common/reuse.hpp"
#include "common/strings.hpp"
#include "core/typemap.hpp"
#include "slp/agents.hpp"

namespace indiss::core {

namespace {

/// Lifetime advertised in composed SrvRply URL entries.
constexpr std::uint16_t kReplyLifetimeSeconds = 65535;
/// What a bridged SrvRqst lists as its previous responder, and what
/// standard_fsm's bridge guard looks for.
constexpr std::string_view kBridgeStamp = "INDISS-bridge";

void emit_attrs(EventSink& sink, std::string_view attr_list) {
  slp::for_each_attribute(attr_list,
                          [&](std::string_view k, std::string_view v) {
                            Event attr = sink.scratch(EventType::kServiceAttr);
                            attr.set("key", k);
                            attr.set("value", v);
                            sink.emit(std::move(attr));
                          });
}

void emit_url_entry(EventSink& sink, const slp::UrlEntry& entry,
                    bool with_type) {
  auto parsed = slp::parse_service_url_view(entry.url);
  Event url = sink.scratch(EventType::kResServUrl);
  url.set("url", parsed ? parsed->access : std::string_view(entry.url));
  url.set("native", entry.url);
  sink.emit(std::move(url));
  Event ttl = sink.scratch(EventType::kResTtl);
  ttl.set("seconds", std::to_string(entry.lifetime_seconds));
  sink.emit(std::move(ttl));
  if (with_type && parsed) {
    Event type = sink.scratch(EventType::kServiceTypeIs);
    type.set("type", canonical_from_slp_view(parsed->type_full));
    type.set("native", parsed->type_full);
    sink.emit(std::move(type));
  }
}

}  // namespace

void SlpEventParser::parse(BytesView raw, const MessageContext& ctx,
                           EventSink& sink) {
  if (!ctx.continuation) sink.emit(sink.scratch(EventType::kControlStart));

  if (!slp::decode_into(raw, scratch_, &error_)) {
    Event err = sink.scratch(EventType::kResErr);
    err.set("code", "parse");
    err.set("detail", error_);
    sink.emit(std::move(err));
    sink.emit(sink.scratch(EventType::kControlStop));
    return;
  }
  const slp::Message& message = scratch_;

  emit_net_events(sink, ctx, "slp");
  const auto& header = slp::header_of(message);
  {
    Event lang = sink.scratch(EventType::kReqLang);
    lang.set("lang", header.language);
    sink.emit(std::move(lang));
  }

  std::visit(
      [&](const auto& m) {
        using T = std::decay_t<decltype(m)>;
        if constexpr (std::is_same_v<T, slp::SrvRqst>) {
          // The previous-responder list doubles as the bridge stamp (SLP's
          // native loop-prevention slot); see standard_fsm's bridge guard.
          // A list naming this gateway reads as the stamp too: it answered
          // already, and RFC 2608 §8.1 forbids a listed agent to answer
          // again, on the directory path and the bridged path alike.
          Event head = sink.scratch(EventType::kServiceRequest);
          head.set("server",
                   !self_.empty() &&
                           slp::pr_list_names(m.previous_responders, self_)
                       ? kBridgeStamp
                       : std::string_view(m.previous_responders));
          sink.emit(std::move(head));
          // SLP-specific events; foreign composers discard them (paper §2.4).
          Event version = sink.scratch(EventType::kSlpReqVersion);
          version.set("version", "2");
          sink.emit(std::move(version));
          Event scope = sink.scratch(EventType::kSlpReqScope);
          scope.set("scopes", m.scope_list);
          sink.emit(std::move(scope));
          Event predicate = sink.scratch(EventType::kSlpReqPredicate);
          predicate.set("predicate", m.predicate);
          sink.emit(std::move(predicate));
          Event xid = sink.scratch(EventType::kSlpReqId);
          xid.set("xid", std::to_string(m.header.xid));
          sink.emit(std::move(xid));
          Event type = sink.scratch(EventType::kServiceTypeIs);
          type.set("type", canonical_from_slp_view(m.service_type));
          type.set("native", m.service_type);
          sink.emit(std::move(type));
        } else if constexpr (std::is_same_v<T, slp::SrvRply>) {
          sink.emit(sink.scratch(EventType::kServiceResponse));
          Event xid = sink.scratch(EventType::kSlpReqId);
          xid.set("xid", std::to_string(m.header.xid));
          sink.emit(std::move(xid));
          if (m.error == slp::ErrorCode::kOk) {
            sink.emit(sink.scratch(EventType::kResOk));
          } else {
            Event err = sink.scratch(EventType::kResErr);
            err.set("code", std::to_string(static_cast<int>(m.error)));
            sink.emit(std::move(err));
          }
          for (const auto& entry : m.url_entries) {
            emit_url_entry(sink, entry, /*with_type=*/true);
          }
        } else if constexpr (std::is_same_v<T, slp::SrvReg>) {
          sink.emit(sink.scratch(EventType::kRegRegister));
          Event type = sink.scratch(EventType::kServiceTypeIs);
          type.set("type", canonical_from_slp_view(m.service_type));
          type.set("native", m.service_type);
          sink.emit(std::move(type));
          emit_url_entry(sink, m.url_entry, /*with_type=*/false);
          emit_attrs(sink, m.attr_list);
        } else if constexpr (std::is_same_v<T, slp::SrvDeReg>) {
          sink.emit(sink.scratch(EventType::kRegDeregister));
          // Withdrawal must match what the alive/registration stream carried:
          // the parsed access URL, plus the type so peers can key their
          // bookkeeping (standard_fsm treats a deregistration as a byebye).
          auto parsed = slp::parse_service_url_view(m.url_entry.url);
          Event url = sink.scratch(EventType::kResServUrl);
          url.set("url",
                  parsed ? parsed->access : std::string_view(m.url_entry.url));
          url.set("native", m.url_entry.url);
          sink.emit(std::move(url));
          if (parsed) {
            Event type = sink.scratch(EventType::kServiceTypeIs);
            type.set("type", canonical_from_slp_view(parsed->type_full));
            type.set("native", parsed->type_full);
            sink.emit(std::move(type));
          }
        } else if constexpr (std::is_same_v<T, slp::DAAdvert>) {
          Event repo = sink.scratch(EventType::kDiscRepositoryFound);
          repo.set("url", m.url);
          repo.set("boot", std::to_string(m.boot_timestamp));
          sink.emit(std::move(repo));
        } else if constexpr (std::is_same_v<T, slp::AttrRply>) {
          sink.emit(sink.scratch(EventType::kServiceResponse));
          emit_attrs(sink, m.attr_list);
        } else {
          // SrvAck, AttrRqst, SrvTypeRqst/Rply: surfaced as plain events so
          // listeners can trace them; no dedicated translation.
          sink.emit(sink.scratch(EventType::kResOk));
        }
      },
      message);

  sink.emit(sink.scratch(EventType::kControlStop));
}

// ---------------------------------------------------------------------------
// compose_slp_reply
// ---------------------------------------------------------------------------

std::size_t compose_slp_reply(const EventStream& stream, std::string_view type,
                              std::uint16_t xid, std::uint16_t lifetime,
                              bool attrs_in_url, slp::SrvRply& out,
                              std::string& attr_scratch) {
  out.header = slp::Header{slp::FunctionId::kSrvRply};
  out.header.xid = xid;
  out.error = slp::ErrorCode::kOk;

  auto append_attr = [](std::string& to, const Event& attr) {
    to += ";";
    to += attr.get("key");
    to += ":\"";
    to += attr.get("value");
    to += "\"";
  };
  // Each attribute goes to the URL of its own item. An item's attributes
  // before its URL wait in attr_scratch (Jini lookups, directory answers,
  // UPnP replies); those after it go straight to it (an mDNS TXT record
  // listing `url` first). A type, instance or SRV event ends the item.
  std::size_t count = 0;
  bool item_has_url = false;
  attr_scratch.clear();
  for (const auto& event : stream) {
    switch (event.type) {
      case EventType::kServiceAttr:
        if (!attrs_in_url) break;
        append_attr(item_has_url ? out.url_entries[count - 1].url
                                 : attr_scratch,
                    event);
        break;
      case EventType::kResServUrl: {
        slp::UrlEntry& entry = slot(out.url_entries, count++);
        entry.lifetime_seconds = lifetime;
        entry.url.clear();
        entry.url += "service:";
        entry.url += type;
        entry.url += ":";
        entry.url += event.get("url");
        entry.url += attr_scratch;
        attr_scratch.clear();
        item_has_url = true;
        break;
      }
      case EventType::kServiceTypeIs:
      case EventType::kMdnsInstance:
      case EventType::kMdnsSrv:
        item_has_url = false;
        attr_scratch.clear();
        break;
      default:
        break;
    }
  }
  out.url_entries.resize(count);
  return count;
}

// ---------------------------------------------------------------------------

SlpUnit::SlpUnit(transport::Transport& transport, UnitOptions options)
    : Unit(SdpId::kSlp, transport, std::move(options)) {
  register_parser(
      std::make_unique<SlpEventParser>(transport.address().to_string()));
  set_default_parser("slp");
  build_standard_fsm(fsm_);
  // SLP-specific bookkeeping: remember the XID so the composed reply matches
  // the native client's request (paper Fig 4's SDP_REQ_ID).
  fsm_.add_tuple("parsing", EventType::kSlpReqId, any(), "parsing",
                 {Unit::record("xid", "xid")});
  fsm_.add_tuple("parsing", EventType::kSlpReqPredicate, any(), "parsing",
                 {Unit::record("predicate", "predicate")});
  fsm_.add_tuple("parsing", EventType::kSlpReqScope, any(), "parsing",
                 {Unit::record("scopes", "scopes")});

  open_reply_socket();
}

// The composer acting as an SLP client on behalf of a foreign request: send
// a SrvRqst and wire replies back into the session ("INDISS simulates a
// native client", paper §4.3).
void SlpUnit::compose_native_request(Session& session) {
  slp::SrvRqst request;
  request.header.xid = free_query_id(next_xid_++);
  request.service_type = slp_from_canonical(session.var("service_type", "*"));
  request.predicate = session.var("predicate", "");
  request.header.flags |= slp::kFlagRequestMcast;
  // Stamp the PRList so a peer INDISS recognizes this as bridge traffic and
  // does not translate it back (two-node deployments would loop forever).
  request.previous_responders = kBridgeStamp;

  send_query(session, net::Endpoint{slp::kSlpMulticastGroup, slp::kSlpPort},
             slp::encode(slp::Message(std::move(request))));
}

// The composer answering a native SLP client from a translated reply stream:
// assemble the SrvRply the paper's Fig 4 shows, attributes folded into the
// URL. The reply is built into slot-reused scratch and encoded into a reused
// writer, so a warm composer performs no heap allocation before the send.
void SlpUnit::compose_native_reply(Session& session) {
  auto xid = static_cast<std::uint16_t>(
      str::parse_long(session.var("xid", "0"), 0));
  auto& reply = std::get<slp::SrvRply>(compose_scratch_);
  if (compose_slp_reply(session.events(),
                        session.var("service_type", "service"), xid,
                        kReplyLifetimeSeconds, /*attrs_in_url=*/true, reply,
                        attr_scratch_) == 0) {
    return;  // nothing found: stay silent
  }
  send_reply(session, slp::encode_into(compose_scratch_, writer_));
}

void SlpUnit::announce_directory_agent() {
  slp::DAAdvert advert;
  advert.url = "service:directory-agent://" + transport().address().to_string();
  advert.boot_timestamp = static_cast<std::uint32_t>(
      std::chrono::duration_cast<std::chrono::seconds>(now()).count());
  reply_socket_->send_to(net::Endpoint{slp::kSlpMulticastGroup, slp::kSlpPort},
                         slp::encode(slp::Message(std::move(advert))));
}

}  // namespace indiss::core
