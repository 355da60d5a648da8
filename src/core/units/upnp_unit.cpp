#include "core/units/upnp_unit.hpp"

#include <utility>

#include "common/logging.hpp"
#include "common/strings.hpp"
#include "common/uri.hpp"
#include "core/typemap.hpp"
#include "upnp/http_client.hpp"

namespace indiss::core {

namespace {

constexpr std::string_view kBridgeServer = "INDISS-bridge/1.0 UPnP/1.0";

void emit_net_events(EventSink& sink, const MessageContext& ctx) {
  Event net = sink.scratch(EventType::kNetType);
  net.set("sdp", "upnp");
  sink.emit(std::move(net));
  sink.emit(sink.scratch(ctx.multicast ? EventType::kNetMulticast
                                       : EventType::kNetUnicast));
  Event src = sink.scratch(EventType::kNetSourceAddr);
  src.set("addr", ctx.source.address.to_string());
  src.set("port", std::to_string(ctx.source.port));
  src.set("local", ctx.from_local_host ? "1" : "0");
  sink.emit(std::move(src));
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

void SsdpEventParser::on_request_line(std::string_view method, std::string_view,
                                      std::string_view) {
  method_.assign(method);
  is_response_ = false;
}

void SsdpEventParser::on_status_line(int status, std::string_view,
                                     std::string_view) {
  status_ = status;
  is_response_ = true;
}

void SsdpEventParser::on_header(std::string_view name, std::string_view value) {
  if (str::iequals(name, "ST")) {
    st_.assign(value);
    has_st_ = true;
  } else if (str::iequals(name, "NT")) {
    nt_.assign(value);
    has_nt_ = true;
  } else if (str::iequals(name, "NTS")) {
    nts_.assign(value);
    has_nts_ = true;
  } else if (str::iequals(name, "USN")) {
    usn_.assign(value);
    has_usn_ = true;
  } else if (str::iequals(name, "LOCATION")) {
    location_.assign(value);
  } else if (str::iequals(name, "SERVER")) {
    server_.assign(value);
  } else if (str::iequals(name, "USER-AGENT")) {
    user_agent_.assign(value);
  } else if (str::iequals(name, "CACHE-CONTROL")) {
    auto eq = value.find('=');
    if (eq != std::string_view::npos) {
      max_age_ =
          static_cast<int>(str::parse_long(value.substr(eq + 1), 1800));
    }
  }
}

void SsdpEventParser::on_body(std::string_view chunk) { body_.append(chunk); }

void SsdpEventParser::on_message_complete() { complete_ = true; }

void SsdpEventParser::on_parse_error(std::string_view) {}

void SsdpEventParser::reset_fields() {
  method_.clear();
  st_.clear();
  nt_.clear();
  nts_.clear();
  usn_.clear();
  location_.clear();
  server_.clear();
  user_agent_.clear();
  body_.clear();
  status_ = 0;
  max_age_ = 1800;
  is_response_ = false;
  has_st_ = has_nt_ = has_nts_ = has_usn_ = false;
  complete_ = false;
}

void SsdpEventParser::parse(BytesView raw, const MessageContext& ctx,
                            EventSink& sink) {
  if (!ctx.continuation) sink.emit(sink.scratch(EventType::kControlStart));

  // One HTTPU datagram carries one message: run it through the incremental
  // parser and classify from the collected fields.
  reset_fields();
  http_.reset();
  http_.feed(raw);
  http_.finish();
  if (http_.failed() || !complete_) {
    emit_error(sink, "parse");
    return;
  }

  // HTTP description responses (from the unit's own GET): hand the XML body
  // to the description parser — the paper's SDP_C_PARSER_SWITCH moment.
  if (is_response_ && !has_st_ && !has_nt_) {
    emit_net_events(sink, ctx);
    if (status_ == 200) {
      sink.emit(sink.scratch(EventType::kResOk));
      Event sw = sink.scratch(EventType::kControlParserSwitch);
      sw.set("parser", "upnp-xml");
      sw.set("payload", body_);
      sink.emit(std::move(sw));
      // The description parser continues the stream and emits SDP_C_STOP.
      return;
    }
    emit_error(sink, std::to_string(status_));
    return;
  }

  if (!is_response_ && str::iequals(method_, "M-SEARCH") && has_st_) {
    emit_net_events(sink, ctx);
    // USER-AGENT rides on the head event so the FSM's bridge-echo guard can
    // drop searches composed by a peer INDISS node.
    Event head = sink.scratch(EventType::kServiceRequest);
    head.set("server", user_agent_);
    sink.emit(std::move(head));
    Event target = sink.scratch(EventType::kUpnpSearchTarget);
    target.set("st", st_);
    sink.emit(std::move(target));
    Event type = sink.scratch(EventType::kServiceTypeIs);
    type.set("type", canonical_from_upnp_view(st_));
    type.set("native", st_);
    sink.emit(std::move(type));
  } else if (is_response_ && status_ == 200 && has_st_ && has_usn_) {
    emit_net_events(sink, ctx);
    sink.emit(sink.scratch(EventType::kServiceResponse));
    sink.emit(sink.scratch(EventType::kResOk));
    Event usn = sink.scratch(EventType::kUpnpUsn);
    usn.set("usn", usn_);
    sink.emit(std::move(usn));
    Event server = sink.scratch(EventType::kUpnpServerHeader);
    server.set("server", server_);
    sink.emit(std::move(server));
    Event type = sink.scratch(EventType::kServiceTypeIs);
    type.set("type", canonical_from_upnp_view(st_));
    type.set("native", st_);
    sink.emit(std::move(type));
    Event ttl = sink.scratch(EventType::kResTtl);
    ttl.set("seconds", std::to_string(max_age_));
    sink.emit(std::move(ttl));
    // Note: no SDP_RES_SERV_URL — a UPnP search response only carries the
    // description LOCATION; the FSM must chase it (paper §2.4).
    Event desc = sink.scratch(EventType::kUpnpDeviceUrlDesc);
    desc.set("url", location_);
    sink.emit(std::move(desc));
  } else if (!is_response_ && str::iequals(method_, "NOTIFY") && has_nt_ &&
             has_nts_ && has_usn_ &&
             (str::iequals(nts_, "ssdp:alive") ||
              str::iequals(nts_, "ssdp:byebye"))) {
    emit_net_events(sink, ctx);
    bool alive = str::iequals(nts_, "ssdp:alive");
    Event head = sink.scratch(alive ? EventType::kServiceAlive
                                    : EventType::kServiceByeBye);
    head.set("server", server_);
    sink.emit(std::move(head));
    Event usn = sink.scratch(EventType::kUpnpUsn);
    usn.set("usn", usn_);
    sink.emit(std::move(usn));
    Event type = sink.scratch(EventType::kServiceTypeIs);
    type.set("type", canonical_from_upnp_view(nt_));
    type.set("native", nt_);
    sink.emit(std::move(type));
    if (!location_.empty()) {
      Event desc = sink.scratch(EventType::kUpnpDeviceUrlDesc);
      desc.set("url", location_);
      sink.emit(std::move(desc));
    }
    Event ttl = sink.scratch(EventType::kResTtl);
    ttl.set("seconds", std::to_string(max_age_));
    sink.emit(std::move(ttl));
  } else {
    emit_error(sink, "ssdp-parse");
    return;
  }

  sink.emit(sink.scratch(EventType::kControlStop));
}

// ---------------------------------------------------------------------------
// UpnpDescriptionParser
// ---------------------------------------------------------------------------

void UpnpDescriptionParser::parse(BytesView raw, const MessageContext&,
                                  EventSink& sink) {
  auto description = upnp::DeviceDescription::from_xml(to_string(raw));
  if (!description.has_value()) {
    sink.emit(Event(EventType::kResErr, {{"code", "xml-parse"}}));
    sink.emit(Event(EventType::kControlStop));
    return;
  }

  auto attr = [&](std::string_view key, const std::string& value) {
    if (!value.empty()) {
      sink.emit(Event(EventType::kServiceAttr,
                      {{"key", std::string(key)}, {"value", value}}));
    }
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

  sink.emit(Event(EventType::kServiceTypeIs,
                  {{"type", canonical_from_upnp(description->device_type)},
                   {"native", description->device_type}}));
  if (!description->services.empty()) {
    // The control URL is the endpoint an SLP client can be handed directly.
    sink.emit(Event(EventType::kResServUrl,
                    {{"url", description->services.front().control_url},
                     {"scheme", "soap"}}));
  }
  sink.emit(Event(EventType::kControlStop));
}

// ---------------------------------------------------------------------------
// UpnpUnit
// ---------------------------------------------------------------------------

UpnpUnit::UpnpUnit(transport::Transport& transport, Config config)
    : Unit(SdpId::kUpnp, transport, config.unit), config_(config) {
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

  reply_socket_ = transport.open_udp(0);
  mark_own(*reply_socket_);
}

UpnpUnit::~UpnpUnit() {
  if (reply_socket_) reply_socket_->close();
  for (auto& [id, socket] : client_sockets_) socket->close();
}

void UpnpUnit::ensure_http_server() {
  if (http_server_ != nullptr) return;
  // INDISS's description server is lightweight — no CyberLink-style delay.
  http_server_ = std::make_unique<upnp::HttpServer>(
      transport(), config_.http_port, transport::Duration::zero());
}

// Acting as a UPnP control point for a foreign request: multicast M-SEARCH
// from a per-session socket.
void UpnpUnit::compose_native_request(Session& session) {
  upnp::SearchRequest request;
  request.st = upnp_device_from_canonical(session.var("service_type", "*"));
  request.mx = 1;
  request.user_agent = std::string(kBridgeServer);

  auto socket = this->transport().open_udp(0);
  mark_own(*socket);
  std::uint64_t session_id = session.id;
  socket->set_receive_handler([this, session_id](const net::Datagram& d) {
    MessageContext ctx;
    ctx.source = d.source;
    ctx.destination = d.destination;
    ctx.multicast = d.multicast;
    ctx.from_local_host = d.source.address == transport().address();
    schedule_guarded(options().translate_delay, [this, session_id, d, ctx]() {
      on_native_response(session_id, d.payload, ctx);
    });
  });
  client_sockets_[session.id] = socket;
  request.serialize_into(ssdp_scratch_);
  socket->send_to(net::Endpoint{upnp::kSsdpMulticastGroup, config_.ssdp_port},
                  to_bytes(ssdp_scratch_));
}

// The recursive request of §2.4: GET the description document named by
// SDP_DEVICE_URL_DESC; the response re-enters the session via
// on_native_response and triggers the parser switch.
void UpnpUnit::compose_follow_up(Session& session, const Event&) {
  auto uri = Uri::parse(session.var("desc_url"));
  if (!uri.has_value()) {
    log::warn("upnp-unit", "bad description URL: ", session.var("desc_url"));
    return;
  }
  std::uint64_t session_id = session.id;
  // The HTTP client outlives the unit: guard the callback against a unit
  // detached while the description GET is in flight.
  upnp::http_get(transport(), *uri,
                 [this, session_id, alive = lifetime()](
                     std::optional<http::HttpMessage> response) {
                   if (alive.expired()) return;  // unit detached mid-fetch
                   if (!response.has_value()) return;  // session will time out
                   Bytes raw = to_bytes(response->serialize());
                   schedule_guarded(
                       options().translate_delay,
                       [this, session_id, raw]() {
                         on_native_response(session_id, raw, MessageContext{});
                       });
                 });
}

Action UpnpUnit::finalize_reply() {
  return [](Unit& unit, const Event&, Session& session) {
    static_cast<UpnpUnit&>(unit).do_finalize_reply(session);
  };
}

// Rewrite the collected description events into a clean, self-contained
// reply stream: absolute service URL, canonical type, TTL.
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
  bool have_url = false;
  for (const auto& event : session.collected) {
    if (event.type == EventType::kResServUrl) have_url = true;
  }
  if (!have_url) return;  // nothing discovered: SSDP answers with silence

  ServedDescription& served = serve_description(session);

  upnp::SearchResponse response;
  std::string st(session.var("st"));
  response.st = st.empty() || str::iequals(st, upnp::kSearchTargetAll)
                    ? served.description.device_type
                    : st;
  response.usn = served.usn;
  response.location = "http://" + transport().address().to_string() + ":" +
                      std::to_string(http_server_->port()) + served.path;
  response.server = std::string(kBridgeServer);

  auto addr = net::IpAddress::parse(session.var("src_addr"));
  if (!addr.has_value()) return;
  net::Endpoint to{*addr, static_cast<std::uint16_t>(str::parse_long(
                              session.var("src_port", "0"), 0))};

  // MX pacing: only searches that crossed the shared medium are delayed;
  // loopback interception answers immediately (Fig 9b's 0.12 ms hinges on
  // this).
  bool from_network = session.var("src_local") != "1" &&
                      session.var("net") == "multicast";
  transport::Duration pacing = transport::Duration::zero();
  if (from_network) {
    auto elapsed = now() - session.created_at;
    if (elapsed < config_.search_response_pacing) {
      pacing = config_.search_response_pacing - elapsed;
    }
  }
  response.serialize_into(ssdp_scratch_);
  // Directory-answered sessions remember the composed bytes so a repeated
  // search replays them without re-compose (docs/directory.md).
  cache_reply_frame(
      session, reply_socket_, to,
      BytesView(reinterpret_cast<const std::uint8_t*>(ssdp_scratch_.data()),
                ssdp_scratch_.size()));
  transport().schedule(pacing, [socket = reply_socket_, to,
                                payload = to_bytes(ssdp_scratch_)]() {
    if (!socket->closed()) socket->send_to(to, payload);
  });
}

UpnpUnit::ServedDescription& UpnpUnit::serve_description(
    const Session& session) {
  ensure_http_server();

  // View-based extraction: an alive refresh (the steady-state case) resolves
  // the (type, url) identity through interned symbols and re-arms the TTL
  // clock without building a single string.
  std::string_view type_view = session.var("service_type", "service");
  std::string_view url_view;
  std::string_view friendly_name;
  for (const auto& event : session.collected) {
    if (event.type == EventType::kResServUrl && url_view.empty()) {
      url_view = event.get("url");
    }
    if (event.type == EventType::kServiceAttr &&
        event.get("key") == "friendlyName") {
      friendly_name = event.get("value");
    }
  }
  auto& table = SymbolTable::global();
  Symbol type_sym = table.find(type_view);
  Symbol url_sym = table.find(url_view);
  if (type_sym != kNoSymbol && url_sym != kNoSymbol) {
    auto it = served_descriptions_.find(served_key(type_sym, url_sym));
    if (it != served_descriptions_.end()) {
      // A refresh re-arms the TTL clock, like a native device re-announcing.
      it->second.expires_at = bridged_state_deadline(session);
      return it->second;
    }
  }

  std::string type(type_view);
  std::string url(url_view);
  ServedDescription served;
  std::uint64_t index = next_device_index_++;
  served.path = "/indiss/" + std::to_string(index) + "/description.xml";

  upnp::DeviceDescription description;
  description.device_type = upnp_device_from_canonical(type);
  description.friendly_name =
      friendly_name.empty() ? "INDISS bridged " + type
                            : std::string(friendly_name);
  description.manufacturer = "INDISS";
  description.model_name = type;
  description.model_description = "Foreign " + type + " service bridged by "
                                  "INDISS";
  description.udn = "uuid:indiss-" + std::to_string(index);
  upnp::ServiceDescription service;
  service.service_type = "urn:schemas-upnp-org:service:" + type + ":1";
  service.service_id = "urn:upnp-org:serviceId:" + type;
  service.control_url = url;  // absolute foreign endpoint, handed through
  service.scpd_url = served.path;
  service.event_sub_url = url;
  description.services.push_back(std::move(service));

  served.description = description;
  served.usn = description.usn_for(description.device_type);
  served.expires_at = bridged_state_deadline(session);

  http_server_->route(served.path, [description](const http::HttpMessage&) {
    auto response = http::HttpMessage::response(200, "OK");
    response.headers.set("CONTENT-TYPE", "text/xml");
    response.headers.set("SERVER", std::string(kBridgeServer));
    response.body = description.to_xml();
    return response;
  });

  auto [inserted, ok] = served_descriptions_.emplace(
      served_key(table.intern(type), table.intern(url)), std::move(served));
  return inserted->second;
}

// A peer advertised a foreign service: impersonate it so native UPnP control
// points can find it, and (in active mode) announce it immediately. A peer
// byebye retracts the impersonation with an ssdp:byebye NOTIFY.
void UpnpUnit::on_advertisement(Session& session) {
  if (session.var("kind") == "byebye") {
    withdraw_foreign_service(session);
    return;
  }
  bool have_url = false;
  for (const auto& event : session.collected) {
    if (event.type == EventType::kResServUrl) have_url = true;
  }
  if (!have_url) return;
  if (!meaningful_advert_type(session.var("service_type"))) return;
  ServedDescription& served = serve_description(session);
  if (config_.active_advertising) {
    upnp::Notify notify;
    notify.kind = upnp::Notify::Kind::kAlive;
    notify.nt = served.description.device_type;
    notify.usn = served.usn;
    notify.location = "http://" + transport().address().to_string() + ":" +
                      std::to_string(http_server_->port()) + served.path;
    notify.server = std::string(kBridgeServer);
    notify.max_age_seconds = config_.notify_max_age;
    notify.serialize_into(ssdp_scratch_);
    net::Endpoint to{upnp::kSsdpMulticastGroup, config_.ssdp_port};
    reply_socket_->send_to(to, to_bytes(ssdp_scratch_));
    cache_outbound_frame(
        session, reply_socket_, to,
        BytesView(reinterpret_cast<const std::uint8_t*>(ssdp_scratch_.data()),
                  ssdp_scratch_.size()));
  }
}

// A peer withdrew a service this unit impersonates: multicast the
// ssdp:byebye for the served device and stop serving it. (The HTTP route
// stays registered — harmless, nothing advertises its LOCATION any more.)
void UpnpUnit::withdraw_foreign_service(Session& session) {
  std::string_view url;
  for (const auto& event : session.collected) {
    if (event.type == EventType::kResServUrl && url.empty()) {
      url = event.get("url");
    }
  }
  if (url.empty()) return;
  // Lookup-only symbol resolution: a never-interned (type, url) pair was
  // never served, so there is nothing to retract.
  auto& table = SymbolTable::global();
  Symbol type_sym = table.find(session.var("service_type", "service"));
  Symbol url_sym = table.find(url);
  if (type_sym == kNoSymbol || url_sym == kNoSymbol) return;
  auto it = served_descriptions_.find(served_key(type_sym, url_sym));
  if (it == served_descriptions_.end()) return;

  upnp::Notify notify;
  notify.kind = upnp::Notify::Kind::kByeBye;
  notify.nt = it->second.description.device_type;
  notify.usn = it->second.usn;
  notify.serialize_into(ssdp_scratch_);
  net::Endpoint to{upnp::kSsdpMulticastGroup, config_.ssdp_port};
  reply_socket_->send_to(to, to_bytes(ssdp_scratch_));
  served_descriptions_.erase(it);
}

void UpnpUnit::announce_foreign_services() {
  ensure_http_server();
  for (const auto& [key, served] : served_descriptions_) {
    upnp::Notify notify;
    notify.kind = upnp::Notify::Kind::kAlive;
    notify.nt = served.description.device_type;
    notify.usn = served.usn;
    notify.location = "http://" + transport().address().to_string() + ":" +
                      std::to_string(http_server_->port()) + served.path;
    notify.server = std::string(kBridgeServer);
    notify.max_age_seconds = config_.notify_max_age;
    notify.serialize_into(ssdp_scratch_);
    reply_socket_->send_to(
        net::Endpoint{upnp::kSsdpMulticastGroup, config_.ssdp_port},
        to_bytes(ssdp_scratch_));
  }
}

// TTL expiry of impersonated devices (crash without byebye): drop the served
// description so M-SEARCHes stop advertising a dead endpoint. As in
// withdraw_foreign_service, the HTTP route stays registered — nothing
// advertises its LOCATION any more. No byebye NOTIFY is multicast: native
// control points age the device out by its own CACHE-CONTROL max-age.
std::size_t UpnpUnit::expire_bridged_state(transport::TimePoint now) {
  return std::erase_if(served_descriptions_, [now](const auto& entry) {
    const ServedDescription& served = entry.second;
    return served.expires_at.count() != 0 && served.expires_at <= now;
  });
}

void UpnpUnit::on_session_complete(Session& session) {
  auto it = client_sockets_.find(session.id);
  if (it != client_sockets_.end()) {
    it->second->close();
    client_sockets_.erase(it);
  }
}

}  // namespace indiss::core
