#include "core/unit.hpp"

#include <algorithm>
#include <stdexcept>
#include <string>

#include "common/logging.hpp"
#include "common/strings.hpp"
#include "core/units/standard_fsm.hpp"

namespace indiss::core {

namespace {

MessageContext context_of(const net::Datagram& datagram,
                          net::IpAddress local_address) {
  MessageContext ctx;
  ctx.source = datagram.source;
  ctx.destination = datagram.destination;
  ctx.multicast = datagram.multicast;
  ctx.from_local_host = datagram.source.address == local_address;
  return ctx;
}

}  // namespace

Unit::Unit(SdpId sdp, transport::Transport& transport, Options options)
    : sdp_(sdp),
      host_(transport),
      options_(std::move(options)),
      hop_delay_(host_.simulated_clock() ? options_.translate_delay
                                         : transport::Duration::zero()) {
  if (options_.directory == nullptr) {
    options_.directory = std::make_shared<ServiceDirectory>();
  }
  options_.directory->attach(*this);
}

Unit::~Unit() {
  if (reply_socket_ != nullptr) reply_socket_->close();
  options_.directory->detach(*this);
  // A unit destroyed while still subscribed must not leave a dangling
  // pointer in the bus registry.
  if (bus_ != nullptr) bus_->unsubscribe(*this);
}

void Unit::register_parser(std::unique_ptr<SdpParser> parser) {
  std::string name(parser->name());
  if (default_parser_.empty()) default_parser_ = name;
  parsers_[name] = std::move(parser);
}

Session* Unit::find_session(std::uint64_t id) {
  auto it = sessions_.find(id);
  return it == sessions_.end() ? nullptr : &it->second;
}

Session& Unit::open_session(Session::Origin origin) {
  // Bounded session table: at the cap the oldest live session goes first —
  // with a cap's worth of live sessions it is overwhelmingly a half-open
  // leftover (a truncated frame's parse, a search nobody answered).
  // Completed sessions awaiting retirement are skipped: they neither count
  // nor get evicted. Safe here because open_session only runs at
  // scheduler-task top level (every entry point defers through
  // schedule_hop), so no evicted session's frame is on the call stack.
  if (options_.max_open_sessions > 0 &&
      live_sessions_ >= options_.max_open_sessions) {
    auto oldest = sessions_.begin();
    while (oldest->second.done) ++oldest;
    stats_.sessions_evicted += 1;
    close_session(oldest->first);
  }
  // A retired node is reused with its buffers (vars, collected): a unit
  // translating a steady message flow stops allocating sessions once warm.
  std::uint64_t id = next_session_id_++;
  decltype(sessions_)::iterator it;
  if (spare_sessions_.empty()) {
    it = sessions_.emplace_hint(sessions_.end(), id, Session{});
    it->second.collected = stream_pool_.acquire();
  } else {
    auto node = std::move(spare_sessions_.back());
    spare_sessions_.pop_back();
    node.key() = id;
    it = sessions_.insert(sessions_.end(), std::move(node));
  }
  Session& session = it->second;
  session.id = id;
  session.origin = origin;
  session.state = fsm_.start();
  session.origin_sdp = SdpId::kSlp;
  session.origin_session = 0;
  session.active_parser = default_parser_;
  session.done = false;
  session.created_at = now();
  session.source.reset();
  session.from_local_host = false;
  session.multicast = false;
  stats_.sessions_opened += 1;
  live_sessions_ += 1;
  arm_session_timer();
  return session;
}

void Unit::close_session(std::uint64_t id) {
  auto it = sessions_.find(id);
  if (it == sessions_.end()) return;
  if (!it->second.done) {
    it->second.done = true;
    live_sessions_ -= 1;
    close_query(it->second);
  }
  auto node = sessions_.extract(it);
  Session& session = node.mapped();
  session.vars.clear();
  session.collected.clear();
  session.shared.reset();
  if (spare_sessions_.size() < kSpare) {
    spare_sessions_.push_back(std::move(node));
  } else {
    stream_pool_.release(std::move(session.collected));
  }
}

void Unit::close_query(Session& session) {
  if (!session.open_query) return;
  open_queries_.erase(*session.open_query);
  session.open_query.reset();
}

void Unit::retire_finished_sessions() {
  // An id may already be gone: evicted or timed out before the task
  // boundary (completions outside a scheduled task, e.g. probe()).
  for (std::uint64_t id : finished_) close_session(id);
  finished_.clear();
}

void Unit::arm_session_timer() {
  if (session_timer_armed_ || sessions_.empty()) return;
  session_timer_armed_ = true;
  transport::Duration wait =
      sessions_.begin()->second.created_at + kSessionTimeout - now();
  schedule_guarded(std::max(wait, transport::Duration::zero()), [this]() {
    // Garbage-collect abandoned sessions (e.g. searches nobody answered).
    // When the session the timer was armed for completed meanwhile, nothing
    // is due yet and the timer re-arms for the new oldest.
    session_timer_armed_ = false;
    while (!sessions_.empty() &&
           sessions_.begin()->second.created_at + kSessionTimeout <= now()) {
      close_session(sessions_.begin()->first);
    }
    arm_session_timer();
  });
}

void Unit::feed_event(Session& session, Event event) {
  if (session.done) return;
  stats_.events_emitted += 1;
  if (event.type == EventType::kControlStart) {
    session.collected.clear();
    session.shared.reset();
  }
  session.collected.push_back(std::move(event));
  if (!fsm_step(fsm_, *this, session, session.collected.back())) {
    stats_.events_ignored += 1;
  }
}

void Unit::feed_stream(Session& session, SharedStream stream) {
  // The local reference keeps the stream alive even if an action replaces
  // session.shared mid-stream.
  session.shared = stream;
  for (const auto& event : *stream) {
    if (session.done) return;
    stats_.events_emitted += 1;
    if (!fsm_step(fsm_, *this, session, event)) stats_.events_ignored += 1;
  }
}

void Unit::parse_into_session(Session& session, BytesView raw,
                              const MessageContext& ctx) {
  auto it = parsers_.find(session.active_parser);
  if (it == parsers_.end()) {
    throw std::logic_error("unit " + std::string(sdp_name(sdp_)) +
                           ": no parser named '" + session.active_parser + "'");
  }
  stats_.messages_parsed += 1;

  // Bridge the parser to the session: every emitted event is collected and
  // immediately offered to the FSM.
  struct SessionSink : EventSink {
    Unit& unit;
    Session& session;
    SessionSink(Unit& u, Session& s) : unit(u), session(s) {}
    void emit(Event event) override {
      unit.feed_event(session, std::move(event));
    }
  } sink{*this, session};

  it->second->parse(raw, ctx, sink);
}

Unit::HeldDatagram Unit::hold(const net::Datagram& datagram) {
  HeldDatagram held;
  if (spare_datagrams_.empty()) {
    held = std::make_unique<net::Datagram>();
  } else {
    held = std::move(spare_datagrams_.back());
    spare_datagrams_.pop_back();
  }
  *held = datagram;  // the payload vector reuses its capacity
  return held;
}

void Unit::recycle(HeldDatagram datagram) {
  if (spare_datagrams_.size() < kSpare) {
    spare_datagrams_.push_back(std::move(datagram));
  }
}

void Unit::on_native_message(const net::Datagram& datagram) {
  // One hop for intercepting + parsing a message (its modelled cost on the
  // simulator). The hop owns a recycled copy of the datagram: the
  // transport's buffer is only valid during this call.
  schedule_hop([this, held = hold(datagram)]() mutable {
    ingest(*held);
    recycle(std::move(held));
  });
}

void Unit::ingest(const net::Datagram& datagram) {
  // Short-circuit: a byte-identical advertisement translated before
  // replays its composed outbound frames without a session or a parse, and
  // re-arms the store record its bundle refreshes, for every unit holding
  // it. A bundle whose record expired or left the store since is dropped:
  // the repeat is translated afresh, so the units re-expose the service.
  TranslationCache* cache = options_.translation_cache.get();
  ServiceDirectory& store = *options_.directory;
  if (cache != nullptr) {
    if (const auto* bundle = cache->lookup(sdp_, datagram.payload, now())) {
      if (store.refresh(bundle->record, now())) {
        cache->replay(sdp_, *bundle);
        return;
      }
      cache->discard(sdp_, *bundle);
    }
  }

  // Short-circuit: the same question was answered from the directory this
  // epoch — replay the stored reply payloads to this requester, with this
  // query's transaction id and pacing, without a session, a parse or a
  // compose.
  bool answering = store.answers_queries();
  if (answering &&
      store.replay_answer(sdp_, datagram.payload, query_id_span(), now(),
                          [&](BytesView bytes) {
                            send_reply(replay_session(datagram), bytes);
                          })) {
    store.count_answered(sdp_);
    return;
  }

  Session& session = open_session(Session::Origin::kNative);
  std::uint64_t session_id = session.id;
  MessageContext ctx = context_of(datagram, host_.address());
  if (answering) pending_query_wire_ = datagram.payload;
  parse_into_session(session, datagram.payload, ctx);
  pending_query_wire_ = {};

  // The FSM ran to SDP_C_STOP inside the parse; advertisement kinds were
  // dispatched to the peers, whose composed frames will land in the
  // bundle opened here (their deferred deliveries fire strictly after
  // this callback). Adverts are listed in the store (or re-armed) and the
  // bundle keeps the record's handle; one naming a URL with no record yet (a
  // UPnP rootdevice NOTIFY ahead of the device-type one) opens no bundle,
  // so its next repeat picks up the handle. Byebyes withdraw their record
  // at once, so a withdrawn service is never answered again, and are
  // deliberately NEVER cached: their per-unit state changes (lease cancels,
  // impersonation drops, goodbyes) must run on every arrival, so each one
  // re-parses and invalidates everything cached under the pre-withdrawal
  // world.
  Session* parsed = find_session(session_id);
  if (parsed == nullptr) return;
  auto kind = parsed->var("kind");
  if (kind == "byebye") {
    if (cache != nullptr) cache->bump_generation();
    store.withdraw(sdp_, parsed->events());
  } else if (kind == "alive" || kind == "register" ||
             kind == "repo_announce") {
    ServiceDirectory::Handle record = 0;
    if (kind != "repo_announce") {
      record = store.record_advertisement(sdp_, parsed->events(), now());
      if (record == 0 && !scan_advert(parsed->events()).url.empty()) return;
    }
    if (cache != nullptr) {
      cache->open_bundle(sdp_, datagram.payload, session_id, now(), record);
    }
  }
}

void Unit::on_peer_stream(SdpId origin_sdp, std::uint64_t origin_session,
                          SharedStream stream) {
  // The shared buffer rides into the deferred delivery by refcount — no
  // per-subscriber copy of the events.
  schedule_hop(
      [this, origin_sdp, origin_session, stream = std::move(stream)]() {
        Session& session = open_session(Session::Origin::kPeer);
        session.origin_sdp = origin_sdp;
        session.origin_session = origin_session;
        feed_stream(session, std::move(stream));
      });
}

void Unit::on_reply_stream(std::uint64_t session_id, SharedStream stream) {
  schedule_hop([this, session_id, stream = std::move(stream)]() mutable {
    Session* session = find_session(session_id);
    if (session == nullptr || session->done) return;
    feed_stream(*session, std::move(stream));
  });
}

void Unit::probe(const std::string& canonical_type) {
  Session& session = open_session(Session::Origin::kLocal);
  feed_event(session, Event(EventType::kControlStart));
  feed_event(session, Event(EventType::kServiceRequest));
  feed_event(session,
             Event(EventType::kServiceTypeIs, {{"type", canonical_type}}));
  feed_event(session, Event(EventType::kControlStop));
}

void Unit::send_query(Session& session, const net::Endpoint& to,
                      Bytes wire) {
  close_query(session);
  query_key(wire, key_scratch_);
  session.open_query = open_queries_.emplace(key_scratch_, session.id);
  reply_socket_->send_to(to, std::move(wire));
}

void Unit::query_key(BytesView message, std::string& key) const {
  key.clear();
  IdSpan span = query_id_span();
  if (!span.fits(message)) return;
  key.assign(reinterpret_cast<const char*>(message.data()) + span.offset,
             span.length);
}

std::uint16_t Unit::free_query_id(std::uint16_t first) const {
  std::uint16_t id = first;
  char key[2];
  // At most one pass over the id space: with every id open, `first` wins.
  for (std::uint32_t tried = 0; tried <= 0xFFFF; ++tried, ++id) {
    key[0] = static_cast<char>(id >> 8);
    key[1] = static_cast<char>(id & 0xFF);
    if (!open_queries_.contains(std::string_view(key, 2))) return id;
  }
  return first;
}

void Unit::route_response(const net::Datagram& datagram) {
  // Every session is looked up before any parse runs: a parse that
  // completes its session closes the query under the iteration.
  routed_.clear();
  auto take = [this](std::string_view key) {
    auto [first, last] = open_queries_.equal_range(key);
    for (auto it = first; it != last; ++it) routed_.push_back(it->second);
  };
  query_key(datagram.payload, key_scratch_);
  take(key_scratch_);
  if (!key_scratch_.empty()) take({});  // the queries that take every one
  MessageContext ctx = context_of(datagram, host_.address());
  for (std::uint64_t id : routed_) {
    on_native_response(id, datagram.payload, ctx);
  }
}

transport::Duration Unit::reply_delay(const Session& session) const {
  if (!session.multicast || session.from_local_host) {
    return transport::Duration::zero();
  }
  return std::max(network_reply_pacing() - (now() - session.created_at),
                  transport::Duration::zero());
}

transport::Duration Unit::network_reply_pacing() const {
  return transport::Duration::zero();
}

void Unit::send_reply(const Session& session, BytesView wire) {
  const std::optional<net::Endpoint>& to = session.source;
  if (!to.has_value()) {
    log::warn("unit", sdp_name(sdp_),
              ": reply without recorded source address");
    return;
  }
  if (session.var("directory_answer") == "1") {
    options_.directory->add_answer_payload(sdp_, session.id, wire);
  }
  transport::Duration delay = reply_delay(session);
  Bytes payload(wire.begin(), wire.end());
  if (delay == transport::Duration::zero()) {
    reply_socket_->send_to(*to, std::move(payload));
    return;
  }
  // Fig 8's 40 ms against Fig 9b's 0.12 ms: only a query from the shared
  // medium waits.
  host_.schedule(delay, [socket = reply_socket_, to = *to,
                         payload = std::move(payload)]() mutable {
    if (!socket->closed()) socket->send_to(to, std::move(payload));
  });
}

const Session& Unit::replay_session(const net::Datagram& datagram) {
  replay_.created_at = now();
  replay_.source = datagram.source;
  replay_.from_local_host = datagram.source.address == host_.address();
  replay_.multicast = datagram.multicast;
  return replay_;
}

void Unit::open_reply_socket() {
  reply_socket_ = host_.open_udp(0);
  mark_own(*reply_socket_);
  // Responses to send_query's queries are routed one hop later, from a
  // copy: the transport's buffer is only valid during this call.
  reply_socket_->set_receive_handler([this](const net::Datagram& datagram) {
    schedule_hop([this, held = hold(datagram)]() mutable {
      route_response(*held);
      recycle(std::move(held));
    });
  });
}

void Unit::on_native_response(std::uint64_t session_id, BytesView raw,
                              const MessageContext& ctx) {
  Session* session = find_session(session_id);
  if (session == nullptr || session->done) return;
  parse_into_session(*session, raw, ctx);
}

// ---------------------------------------------------------------------------
// Action factories
// ---------------------------------------------------------------------------

Action Unit::record(std::string_view var, std::string_view data_key) {
  SymbolTable& table = SymbolTable::global();
  return [var = table.intern(var), key = table.intern(data_key)](
             Unit&, const Event& event, Session& session) {
    if (event.data.has(key)) session.vars.set(var, event.data.get(key));
  };
}

Action Unit::set(std::string_view var, std::string value) {
  return [var = SymbolTable::global().intern(var), value = std::move(value)](
             Unit&, const Event&, Session& session) {
    session.vars.set(var, value);
  };
}

Action Unit::record_source() {
  SymbolTable& table = SymbolTable::global();
  return [addr_key = table.intern("addr"), port_key = table.intern("port"),
          local_key = table.intern("local")](Unit&, const Event& event,
                                             Session& session) {
    auto addr = net::IpAddress::parse(event.data.get(addr_key));
    if (!addr.has_value()) return;
    session.source = net::Endpoint{
        *addr, static_cast<std::uint16_t>(
                   str::parse_long(event.data.get(port_key), 0))};
    session.from_local_host = event.data.get(local_key) == "1";
  };
}

Action Unit::record_multicast() {
  return [](Unit&, const Event&, Session& session) {
    session.multicast = true;
  };
}

void Unit::mark_own(const transport::UdpSocket& socket) {
  if (options_.own_endpoints != nullptr) {
    options_.own_endpoints->insert(socket.local_endpoint());
  }
}

void Unit::cache_outbound_frame(const Session& session,
                                std::shared_ptr<transport::UdpSocket> socket,
                                const net::Endpoint& to, BytesView payload) {
  TranslationCache* cache = options_.translation_cache.get();
  if (cache == nullptr || session.origin != Session::Origin::kPeer) return;
  TranslationCache::Frame frame;
  frame.socket = std::move(socket);
  frame.to = to;
  frame.payload =
      std::make_shared<const Bytes>(payload.begin(), payload.end());
  cache->add_frame(session.origin_sdp, session.origin_session,
                   std::move(frame));
}

Action Unit::dispatch_to_peers() {
  return [](Unit& unit, const Event&, Session& session) {
    unit.do_dispatch_to_peers(session);
  };
}

Action Unit::reply_to_origin() {
  return [](Unit& unit, const Event&, Session& session) {
    unit.do_reply_to_origin(session);
  };
}

Action Unit::begin_native_request() {
  return [](Unit& unit, const Event&, Session& session) {
    unit.stats_.messages_composed += 1;
    unit.compose_native_request(session);
  };
}

Action Unit::send_native_reply() {
  return [](Unit& unit, const Event&, Session& session) {
    unit.stats_.messages_composed += 1;
    unit.compose_native_reply(session);
  };
}

Action Unit::follow_up() {
  return [](Unit& unit, const Event& event, Session& session) {
    unit.stats_.messages_composed += 1;
    unit.compose_follow_up(session, event);
  };
}

Action Unit::do_parser_switch() {
  return [](Unit& unit, const Event& event, Session& session) {
    unit.do_switch(session, event);
  };
}

Action Unit::deliver_advertisement() {
  return [](Unit& unit, const Event&, Session& session) {
    unit.on_advertisement(session);
  };
}

Action Unit::complete() {
  return [](Unit& unit, const Event&, Session& session) {
    unit.do_complete(session);
  };
}

// ---------------------------------------------------------------------------
// Action implementations
// ---------------------------------------------------------------------------

void Unit::do_dispatch_to_peers(Session& session) {
  // Directory mode: a native query the index can answer never reaches the
  // bus (and therefore never reaches the origin network).
  if (try_answer_from_directory(session)) return;
  if (bus_ == nullptr || bus_->subscriber_count() < 2) return;
  ServiceDirectory& dir = *options_.directory;
  if (dir.answers_queries() && session.origin == Session::Origin::kNative &&
      session.var("kind") == "request") {
    dir.count_bridged(sdp_);
  }
  stats_.streams_dispatched += 1;
  // One shared buffer, however many subscribers the bus fans out to (the
  // hand-wired mesh copied the stream once per peer).
  bus_->publish(*this, session.id, share_events(session));
}

SharedStream Unit::share_events(const Session& session) const {
  if (session.shared != nullptr) return session.shared;
  return std::make_shared<const EventStream>(session.collected);
}

bool Unit::try_answer_from_directory(Session& session) {
  ServiceDirectory* dir = options_.directory.get();
  if (!dir->answers_queries() || session.origin != Session::Origin::kNative ||
      !answers_from_directory()) {
    return false;
  }
  if (session.var("kind") != "request") return false;
  std::string_view type = session.var("service_type");
  // Wildcard and uuid-targeted searches bridge: the index keys on concrete
  // canonical types (docs/directory.md's decision table).
  if (!meaningful_advert_type(type)) return false;
  if (dir->collect(type, now(), directory_matches_) == 0) return false;

  // Synthesize the foreign-reply stream a peer unit would have delivered,
  // in the same per-record event order the bridged path produces, and feed
  // it back after the usual translate delay — the session's own
  // await_foreign -> collect_reply -> send_native_reply machinery then
  // composes a reply byte-compatible with the bridged one.
  // Keys are interned once per answer, not once per record.
  SymbolTable& table = SymbolTable::global();
  const Symbol type_key = table.intern("type");
  const Symbol usn_key = table.intern("usn");
  const Symbol attr_key = table.intern("key");
  const Symbol value_key = table.intern("value");
  const Symbol seconds_key = table.intern("seconds");
  const Symbol url_key = table.intern("url");
  auto stream = std::make_shared<EventStream>();
  stream->reserve(3 + 5 * directory_matches_.size());
  stream->push_back(Event(EventType::kControlStart));
  stream->push_back(Event(EventType::kServiceResponse));
  stream->push_back(Event(EventType::kResOk));
  for (const ServiceDirectory::Record* record : directory_matches_) {
    Event& type_event = stream->emplace_back(EventType::kServiceTypeIs);
    type_event.data.set(type_key, record->type());
    if (!record->usn.empty()) {
      Event& usn_event = stream->emplace_back(EventType::kUpnpUsn);
      usn_event.data.set(usn_key, record->usn);
    }
    for (std::size_t i = 0; i < record->attr_count; ++i) {
      Event& attr_event = stream->emplace_back(EventType::kServiceAttr);
      attr_event.data.set(attr_key, record->attributes[i].first);
      attr_event.data.set(value_key, record->attributes[i].second);
    }
    Event& ttl_event = stream->emplace_back(EventType::kResTtl);
    ttl_event.data.set(
        seconds_key,
        std::to_string(
            std::chrono::duration_cast<std::chrono::seconds>(record->ttl)
                .count()));
    Event& url_event = stream->emplace_back(EventType::kResServUrl);
    url_event.data.set(url_key, record->url);
  }
  stream->push_back(Event(EventType::kControlStop));

  // Key the composed reply by the query wire without its id, so the same
  // question from any requester replays straight from the answer cache.
  if (!pending_query_wire_.empty()) {
    dir->open_answer(sdp_, type, pending_query_wire_, session.id, now(),
                     query_id_span());
  }
  session.set_var("directory_answer", "1");
  dir->count_answered(sdp_);

  std::uint64_t id = session.id;
  schedule_hop([this, id, stream = SharedStream(std::move(stream))]() mutable {
    Session* answered = find_session(id);
    if (answered == nullptr || answered->done) return;
    feed_stream(*answered, std::move(stream));
  });
  return true;
}

void Unit::do_reply_to_origin(Session& session) {
  if (bus_ == nullptr) {
    log::warn("unit", sdp_name(sdp_), ": reply with no bus attached");
    return;
  }
  stats_.streams_dispatched += 1;
  bus_->reply(session.origin_sdp, session.origin_session,
              share_events(session));
}

void Unit::do_complete(Session& session) {
  if (session.done) return;
  session.done = true;
  live_sessions_ -= 1;
  stats_.sessions_completed += 1;
  close_query(session);
  finished_.push_back(session.id);
}

void Unit::do_switch(Session& session, const Event& event) {
  std::string_view target = event.get("parser");
  if (parsers_.find(target) == parsers_.end()) {
    log::warn("unit", sdp_name(sdp_), ": parser switch to unknown parser '",
              target, "'");
    return;
  }
  session.active_parser = target;
  // Continue parsing the carried payload with the new parser; its events run
  // through the same session (no new SDP_C_START).
  std::string_view payload = event.get("payload");
  if (payload.empty()) return;
  MessageContext ctx;
  ctx.continuation = true;
  Bytes raw = to_bytes(payload);
  parse_into_session(session, raw, ctx);
}

void Unit::compose_follow_up(Session&, const Event&) {}

void Unit::on_advertisement(Session& session) {
  // View-based extraction: the alive refresh (the steady-state case for a
  // chatty announcer) touches only views into the session's events.
  AdvertView advert = scan_advert(session.events());
  if (session.var("kind") == "byebye") {
    options_.directory->drop(sdp_, advert);
    return;
  }
  std::string_view type = session.var("service_type");
  if (advert.url.empty() || !meaningful_advert_type(type)) return;
  auto [record, fresh] =
      options_.directory->hold(sdp_, type, advert, session.events(), now());
  on_bridged(session, *record, record->handles[static_cast<std::size_t>(sdp_)],
             fresh);
}

void Unit::on_bridged(Session&, const ServiceDirectory::Record&,
                      std::uint64_t&, bool) {}

void Unit::forget_bridged(const ServiceDirectory::Record&, std::uint64_t,
                          Forget) {}

}  // namespace indiss::core
