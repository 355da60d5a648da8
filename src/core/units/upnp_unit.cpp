#include "core/units/upnp_unit.hpp"

#include <algorithm>
#include <cctype>
#include <utility>

#include "common/logging.hpp"
#include "common/strings.hpp"
#include "common/uri.hpp"
#include "core/typemap.hpp"
#include "upnp/http_client.hpp"

namespace indiss::core {

namespace {

constexpr std::string_view kBridgeServer = "INDISS-bridge/1.0 UPnP/1.0";
/// CACHE-CONTROL max-age on the NOTIFY alive announcing a served device.
constexpr int kNotifyMaxAge = 1800;
const net::Endpoint kSsdpGroup{upnp::kSsdpMulticastGroup, upnp::kSsdpPort};

BytesView view_of(const std::string& frame) {
  return BytesView(reinterpret_cast<const std::uint8_t*>(frame.data()),
                   frame.size());
}

/// The impersonated device numbered `index` (the unit's handle slot): its
/// UDN, its USN for `device_type`, and the path of its description.
std::string device_udn(std::uint64_t index) {
  return "uuid:indiss-" + std::to_string(index);
}
std::string device_usn(std::uint64_t index, std::string_view device_type) {
  std::string usn = device_udn(index);
  usn += "::";
  usn += device_type;
  return usn;
}
std::string device_path(std::uint64_t index) {
  return "/indiss/" + std::to_string(index) + "/description.xml";
}

/// The device a USN names: its UDN, up to the "::" before the type.
std::string_view udn_of(std::string_view usn) {
  return usn.substr(0, usn.find("::"));
}

void emit_error(EventSink& sink, std::string_view code) {
  Event err = sink.scratch(EventType::kResErr);
  err.set("code", code);
  sink.emit(std::move(err));
  sink.emit(sink.scratch(EventType::kControlStop));
}

}  // namespace

// ---------------------------------------------------------------------------
// SsdpEventParser
// ---------------------------------------------------------------------------

void SsdpEventParser::parse(BytesView raw, const MessageContext& ctx,
                            EventSink& sink) {
  if (!ctx.continuation) sink.emit(sink.scratch(EventType::kControlStart));

  using Kind = upnp::SsdpReader::Kind;
  const Kind kind = reader_.read(raw);
  if (kind == Kind::kInvalid) {
    emit_error(sink, reader_.one_http_message() ? "ssdp-parse" : "parse");
    return;
  }
  emit_net_events(sink, ctx, "upnp");

  switch (kind) {
    case Kind::kHttpResponse: {
      // An HTTP description response (from the unit's own GET): hand the XML
      // body to the description parser — the paper's SDP_C_PARSER_SWITCH.
      if (reader_.status() != 200) {
        emit_error(sink, std::to_string(reader_.status()));
        return;
      }
      sink.emit(sink.scratch(EventType::kResOk));
      Event sw = sink.scratch(EventType::kControlParserSwitch);
      sw.set("parser", "upnp-xml");
      sw.set("payload", reader_.body());
      sink.emit(std::move(sw));
      // The description parser continues the stream and emits SDP_C_STOP.
      return;
    }
    case Kind::kSearch: {
      // USER-AGENT rides on the head event so the FSM's bridge-echo guard
      // can drop searches composed by a peer INDISS node.
      Event head = sink.scratch(EventType::kServiceRequest);
      head.set("server", reader_.user_agent());
      sink.emit(std::move(head));
      Event target = sink.scratch(EventType::kUpnpSearchTarget);
      target.set("st", reader_.st());
      sink.emit(std::move(target));
      Event type = sink.scratch(EventType::kServiceTypeIs);
      type.set("type", canonical_from_upnp_view(reader_.st()));
      type.set("native", reader_.st());
      sink.emit(std::move(type));
      break;
    }
    case Kind::kSearchResponse: {
      sink.emit(sink.scratch(EventType::kServiceResponse));
      sink.emit(sink.scratch(EventType::kResOk));
      Event usn = sink.scratch(EventType::kUpnpUsn);
      usn.set("usn", reader_.usn());
      sink.emit(std::move(usn));
      Event server = sink.scratch(EventType::kUpnpServerHeader);
      server.set("server", reader_.server());
      sink.emit(std::move(server));
      Event type = sink.scratch(EventType::kServiceTypeIs);
      type.set("type", canonical_from_upnp_view(reader_.st()));
      type.set("native", reader_.st());
      sink.emit(std::move(type));
      Event ttl = sink.scratch(EventType::kResTtl);
      ttl.set("seconds", std::to_string(reader_.max_age()));
      sink.emit(std::move(ttl));
      // Note: no SDP_RES_SERV_URL — a UPnP search response only carries the
      // description LOCATION; the FSM must chase it (paper §2.4).
      Event desc = sink.scratch(EventType::kUpnpDeviceUrlDesc);
      desc.set("url", reader_.location());
      sink.emit(std::move(desc));
      break;
    }
    case Kind::kAlive:
    case Kind::kByeBye: {
      Event head = sink.scratch(kind == Kind::kAlive
                                    ? EventType::kServiceAlive
                                    : EventType::kServiceByeBye);
      head.set("server", reader_.server());
      sink.emit(std::move(head));
      Event usn = sink.scratch(EventType::kUpnpUsn);
      usn.set("usn", reader_.usn());
      sink.emit(std::move(usn));
      Event type = sink.scratch(EventType::kServiceTypeIs);
      type.set("type", canonical_from_upnp_view(reader_.nt()));
      type.set("native", reader_.nt());
      sink.emit(std::move(type));
      if (!reader_.location().empty()) {
        Event desc = sink.scratch(EventType::kUpnpDeviceUrlDesc);
        desc.set("url", reader_.location());
        sink.emit(std::move(desc));
      }
      Event ttl = sink.scratch(EventType::kResTtl);
      ttl.set("seconds", std::to_string(reader_.max_age()));
      sink.emit(std::move(ttl));
      break;
    }
    case Kind::kInvalid:
      break;  // handled above
  }
  sink.emit(sink.scratch(EventType::kControlStop));
}

// ---------------------------------------------------------------------------
// UpnpDescriptionParser
// ---------------------------------------------------------------------------

void UpnpDescriptionParser::parse(BytesView raw, const MessageContext&,
                                  EventSink& sink) {
  auto description = upnp::DeviceDescription::from_xml(std::string_view(
      reinterpret_cast<const char*>(raw.data()), raw.size()));
  if (!description.has_value()) {
    emit_error(sink, "xml-parse");
    return;
  }

  auto attr = [&](std::string_view key, std::string_view value) {
    if (value.empty()) return;
    Event event = sink.scratch(EventType::kServiceAttr);
    event.set("key", key);
    event.set("value", value);
    sink.emit(std::move(event));
  };
  attr("friendlyName", description->friendly_name);
  attr("manufacturer", description->manufacturer);
  attr("manufacturerURL", description->manufacturer_url);
  attr("modelDescription", description->model_description);
  attr("modelName", description->model_name);
  attr("modelNumber", description->model_number);
  attr("modelURL", description->model_url);
  attr("major", std::to_string(description->spec_major));
  attr("minor", std::to_string(description->spec_minor));

  Event type = sink.scratch(EventType::kServiceTypeIs);
  type.set("type", canonical_from_upnp(description->device_type));
  type.set("native", description->device_type);
  sink.emit(std::move(type));
  if (!description->services.empty()) {
    // The control URL is the endpoint an SLP client can be handed directly.
    Event url = sink.scratch(EventType::kResServUrl);
    url.set("url", description->services.front().control_url);
    url.set("scheme", "soap");
    sink.emit(std::move(url));
  }
  sink.emit(sink.scratch(EventType::kControlStop));
}

// ---------------------------------------------------------------------------
// UpnpUnit
// ---------------------------------------------------------------------------

UpnpUnit::UpnpUnit(transport::Transport& transport, UnitOptions options,
                   Config config)
    : Unit(SdpId::kUpnp, transport, std::move(options)), config_(config) {
  register_parser(std::make_unique<SsdpEventParser>());
  register_parser(std::make_unique<UpnpDescriptionParser>());
  set_default_parser("ssdp");

  StandardFsmOptions fsm_options;
  fsm_options.direct_native_reply = false;  // description chase instead
  build_standard_fsm(fsm_, fsm_options);

  using ET = EventType;
  // Record what the composer needs from the native side.
  fsm_.add_tuple("parsing", ET::kUpnpSearchTarget, any(), "parsing",
                 {Unit::record("st", "st")});
  fsm_.add_tuple("collect_native", ET::kUpnpDeviceUrlDesc, any(),
                 "collect_native", {Unit::record("desc_url", "url")});

  // The §2.4 coordination: a search response without SDP_RES_SERV_URL forces
  // a recursive description GET; with it (hypothetical richer responder) the
  // reply can go straight back.
  fsm_.add_tuple("collect_native", ET::kControlStop,
                 all_of(lacks_var("url"), has_var("desc_url")), "fetching",
                 {Unit::follow_up()});
  fsm_.add_tuple("collect_native", ET::kControlStop,
                 all_of(has_var("url"), negate(origin_local())), "done",
                 {finalize_reply(), Unit::reply_to_origin(), Unit::complete()});
  fsm_.add_tuple("collect_native", ET::kControlStop,
                 all_of(has_var("url"), origin_local()), "done",
                 {finalize_reply(), response_to_advert(),
                  Unit::dispatch_to_peers(), Unit::complete()});
  fsm_.add_tuple("collect_native", ET::kControlStop,
                 all_of(lacks_var("url"), lacks_var("desc_url")), "done",
                 {Unit::complete()});

  // Description retrieval: HTTP 200 -> parser switch -> XML events.
  fsm_.add_tuple("fetching", ET::kControlStart, any(), "parsing_desc", {});
  fsm_.add_tuple("parsing_desc", ET::kControlParserSwitch, any(),
                 "parsing_desc", {Unit::do_parser_switch()});
  fsm_.add_tuple("parsing_desc", ET::kResServUrl, any(), "parsing_desc",
                 {Unit::record("url", "url"),
                  Unit::record("url_scheme", "scheme")});
  fsm_.add_tuple("parsing_desc", ET::kServiceTypeIs, any(), "parsing_desc",
                 {Unit::record("service_type", "type")});
  fsm_.add_tuple("parsing_desc", ET::kControlStop,
                 all_of(has_var("url"), negate(origin_local())), "done",
                 {finalize_reply(), Unit::reply_to_origin(), Unit::complete()});
  fsm_.add_tuple("parsing_desc", ET::kControlStop,
                 all_of(has_var("url"), origin_local()), "done",
                 {finalize_reply(), response_to_advert(),
                  Unit::dispatch_to_peers(), Unit::complete()});
  // A stray SSDP response (another device answering the same M-SEARCH) can
  // interleave with the description fetch; without a URL we keep waiting
  // rather than killing the session.
  fsm_.add_tuple("parsing_desc", ET::kControlStop, lacks_var("url"),
                 "fetching", {});
  // A device's byebye retires the descriptions fetched from it.
  fsm_.add_tuple("parsing", ET::kUpnpUsn, kind_is("byebye"), "parsing",
                 {forget_descriptions()});

  open_reply_socket();
}

void UpnpUnit::ensure_http_server() {
  if (http_server_ != nullptr) return;
  // INDISS's description server is lightweight — no CyberLink-style delay.
  http_server_ = std::make_unique<upnp::HttpServer>(
      transport(), config_.http_port, transport::Duration::zero());
}

// Acting as a UPnP control point for a foreign request: multicast M-SEARCH
// from the unit's socket.
void UpnpUnit::compose_native_request(Session& session) {
  upnp::SearchRequest request;
  request.st = upnp_device_from_canonical(session.var("service_type", "*"));
  request.mx = 1;
  request.user_agent = std::string(kBridgeServer);

  request.serialize_into(ssdp_scratch_);
  send_query(session, kSsdpGroup, to_bytes(ssdp_scratch_));
}

// The ST header's value, lower-cased, and empty for ssdp:all.
void UpnpUnit::query_key(BytesView message, std::string& key) const {
  reader_.read(message);
  key.clear();
  for (unsigned char c : reader_.st()) {
    key.push_back(static_cast<char>(std::tolower(c)));
  }
  if (key == upnp::kSearchTargetAll) key.clear();
}

// The recursive request of §2.4: GET the description document named by
// SDP_DEVICE_URL_DESC; the response re-enters the session via
// on_native_response and triggers the parser switch. A control point keeps
// the document (UPnP discovery is two-step): a search answered by the same
// device at the same LOCATION within the max-age of the search response
// that led to the GET re-enters with the kept response instead.
void UpnpUnit::compose_follow_up(Session& session, const Event&) {
  std::string_view location = session.var("desc_url");
  std::string_view device;
  for (const auto& event : session.events()) {
    if (event.type == EventType::kUpnpUsn) device = udn_of(event.get("usn"));
  }
  std::uint64_t session_id = session.id;
  for (Description& kept : descriptions_) {
    if (kept.location != location || kept.device != device ||
        kept.expires <= now()) {
      continue;
    }
    kept.last_used = ++description_uses_;
    descriptions_reused_ += 1;
    schedule_hop([this, session_id, response = kept.response]() {
      on_native_response(session_id, *response, MessageContext{});
    });
    return;
  }

  auto uri = Uri::parse(location);
  if (!uri.has_value()) {
    log::warn("upnp-unit", "bad description URL: ", location);
    return;
  }
  descriptions_fetched_ += 1;
  Description fetched;
  fetched.location = location;
  fetched.device = device;
  fetched.expires =
      now() + transport::seconds(str::parse_long(session.var("ttl"), 0));
  // The HTTP client outlives the unit: guard the callback against a unit
  // detached while the description GET is in flight.
  upnp::http_get(
      transport(), *uri,
      [this, session_id, alive = lifetime(), fetched = std::move(fetched)](
          std::optional<Bytes> response) mutable {
        if (alive.expired()) return;        // unit detached mid-fetch
        if (!response.has_value()) return;  // session will time out
        fetched.response = std::make_shared<const Bytes>(std::move(*response));
        auto raw = fetched.response;
        reader_.read(*raw);
        if (reader_.status() == 200) keep_description(std::move(fetched));
        schedule_hop([this, session_id, raw = std::move(raw)]() {
          on_native_response(session_id, *raw, MessageContext{});
        });
      });
}

void UpnpUnit::keep_description(Description description) {
  if (description.expires <= now()) return;  // max-age 0: nothing to keep
  description.last_used = ++description_uses_;
  auto same = std::find_if(
      descriptions_.begin(), descriptions_.end(),
      [&](const Description& kept) {
        return kept.location == description.location;
      });
  if (same != descriptions_.end()) {
    *same = std::move(description);
  } else if (descriptions_.size() < kDescriptionCapacity) {
    descriptions_.push_back(std::move(description));
  } else {
    *std::min_element(descriptions_.begin(), descriptions_.end(),
                      [](const Description& a, const Description& b) {
                        return a.last_used < b.last_used;
                      }) = std::move(description);
  }
}

Action UpnpUnit::forget_descriptions() {
  return [usn_key = SymbolTable::global().intern("usn")](
             Unit& unit, const Event& event, Session&) {
    std::string_view device = udn_of(event.data.get(usn_key));
    std::erase_if(
        static_cast<UpnpUnit&>(unit).descriptions_,
        [&](const Description& kept) { return kept.device == device; });
  };
}

Action UpnpUnit::finalize_reply() {
  return [](Unit& unit, const Event&, Session& session) {
    static_cast<UpnpUnit&>(unit).do_finalize_reply(session);
  };
}

// Rewrite the collected description events into a clean, self-contained
// reply stream: absolute service URL, canonical type, TTL. Runs only where
// the session collected the native description (a shared stream is never
// mutated).
void UpnpUnit::do_finalize_reply(Session& session) {
  std::string url(session.var("url"));
  if (str::starts_with(url, "/")) {
    // Relative control URL: absolutize against the description document's
    // host and port; the paper hands SLP clients a soap:// endpoint.
    auto base = Uri::parse(session.var("desc_url"));
    if (base.has_value()) {
      std::string absolute(session.var("url_scheme", "soap"));
      absolute += "://";
      absolute += base->host;
      absolute += ":";
      absolute += std::to_string(base->port);
      absolute += url;
      url = std::move(absolute);
      session.set_var("url", url);
    }
  }

  EventStream clean = stream_pool().acquire();
  clean.push_back(Event(EventType::kControlStart));
  clean.push_back(Event(EventType::kNetType, {{"sdp", "upnp"}}));
  clean.push_back(Event(EventType::kServiceResponse));
  clean.push_back(Event(EventType::kResOk));
  clean.push_back(Event(EventType::kServiceTypeIs,
                        {{"type", session.var("service_type", "*")}}));
  for (const auto& event : session.collected) {
    if (event.type == EventType::kServiceAttr ||
        event.type == EventType::kUpnpUsn) {
      clean.push_back(event);
    }
  }
  clean.push_back(Event(EventType::kResTtl,
                        {{"seconds", session.var("ttl", "1800")}}));
  clean.push_back(Event(EventType::kResServUrl, {{"url", url}}));
  clean.push_back(Event(EventType::kControlStop));
  std::swap(session.collected, clean);
  stream_pool().release(std::move(clean));  // recycle the old buffer
}

// Answering a native UPnP control point on behalf of a foreign service:
// impersonate a device — serve a generated description and send the SSDP
// search response, paced when the search came from the shared medium.
void UpnpUnit::compose_native_reply(Session& session) {
  AdvertView answer = scan_advert(session.events());
  if (answer.url.empty()) {
    return;  // nothing discovered: SSDP answers with silence
  }

  // The answered service is held in the store like an advertised one and
  // impersonated as a device. A reply the directory composed is no sign of
  // life: it re-arms nothing, and gets silence once its record is gone.
  auto [service, fresh] = directory().hold(
      sdp(), session.var("service_type", "service"), answer, session.events(),
      now(), session.var("directory_answer") == "1");
  if (service == nullptr) return;
  std::uint64_t& handle = service->handles[static_cast<std::size_t>(sdp())];
  serve(session, *service, handle);

  upnp::SearchResponse response;
  std::string device_type = upnp_device_from_canonical(service->type());
  std::string st(session.var("st"));
  response.usn = device_usn(handle, device_type);
  response.st = st.empty() || str::iequals(st, upnp::kSearchTargetAll)
                    ? std::move(device_type)
                    : std::move(st);
  response.location = location_of(handle);
  response.server = std::string(kBridgeServer);
  response.serialize_into(ssdp_scratch_);
  send_reply(session, view_of(ssdp_scratch_));
}

void UpnpUnit::serve(const Session& session,
                     const ServiceDirectory::Record& service,
                     std::uint64_t& handle) {
  ensure_http_server();
  if (handle != 0) return;  // a refresh: the device already exists

  std::string_view friendly_name;
  for (const auto& event : session.events()) {
    if (event.type == EventType::kServiceAttr &&
        event.get("key") == "friendlyName") {
      friendly_name = event.get("value");
    }
  }
  const std::string type(service.type());
  handle = next_device_index_++;

  upnp::DeviceDescription description;
  description.device_type = upnp_device_from_canonical(type);
  description.friendly_name =
      friendly_name.empty() ? "INDISS bridged " + type
                            : std::string(friendly_name);
  description.manufacturer = "INDISS";
  description.model_name = type;
  description.model_description = "Foreign " + type + " service bridged by "
                                  "INDISS";
  description.udn = device_udn(handle);
  upnp::ServiceDescription served;
  served.service_type = "urn:schemas-upnp-org:service:" + type + ":1";
  served.service_id = "urn:upnp-org:serviceId:" + type;
  served.control_url = service.url;  // the foreign endpoint, handed through
  served.scpd_url = device_path(handle);
  served.event_sub_url = service.url;
  description.services.push_back(std::move(served));

  // The route owns the one copy of the description; it lives exactly as
  // long as the unit holds the record (forget_bridged unroutes it).
  http_server_->route(device_path(handle),
                      [description = std::move(description)]() {
                        return upnp::http_response("200 OK", kBridgeServer,
                                                   description.to_xml());
                      });
}

// A peer advertised a foreign service: impersonate it so native UPnP control
// points can find it, and (in active mode) announce it immediately.
void UpnpUnit::on_bridged(Session& session,
                          const ServiceDirectory::Record& service,
                          std::uint64_t& handle, bool) {
  serve(session, service, handle);
  if (config_.active_advertising) {
    notify_alive(service, handle);
    cache_outbound_frame(session, reply_socket_, kSsdpGroup,
                         view_of(ssdp_scratch_));
  }
}

std::string UpnpUnit::location_of(std::uint64_t handle) {
  std::string location = "http://";
  location += transport().address().to_string();
  location += ':';
  location += std::to_string(http_server_->port());
  location += device_path(handle);
  return location;
}

void UpnpUnit::notify_alive(const ServiceDirectory::Record& service,
                            std::uint64_t handle) {
  upnp::Notify notify;
  notify.kind = upnp::Notify::Kind::kAlive;
  notify.nt = upnp_device_from_canonical(service.type());
  notify.usn = device_usn(handle, notify.nt);
  notify.location = location_of(handle);
  notify.server = std::string(kBridgeServer);
  notify.max_age_seconds = kNotifyMaxAge;
  notify.serialize_into(ssdp_scratch_);
  reply_socket_->send_to(kSsdpGroup, to_bytes(ssdp_scratch_));
}

// A bridged service left: stop describing its device, so M-SEARCHes stop
// advertising a dead endpoint. A withdrawn one also gets an ssdp:byebye; an
// expired one does not (crash without byebye): native control points age
// the device out by its own CACHE-CONTROL max-age.
void UpnpUnit::forget_bridged(const ServiceDirectory::Record& service,
                              std::uint64_t handle, Forget why) {
  if (why == Forget::kWithdrawn) {
    upnp::Notify notify;
    notify.kind = upnp::Notify::Kind::kByeBye;
    notify.nt = upnp_device_from_canonical(service.type());
    notify.usn = device_usn(handle, notify.nt);
    notify.serialize_into(ssdp_scratch_);
    reply_socket_->send_to(kSsdpGroup, to_bytes(ssdp_scratch_));
  }
  http_server_->unroute(device_path(handle));
}

}  // namespace indiss::core
