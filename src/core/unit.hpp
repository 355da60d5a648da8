// The Unit: INDISS's per-SDP building block (paper §2.2-2.3).
//
// A unit embeds a parser and a composer for one SDP plus the finite state
// machine that coordinates them. Units are composed through events only:
// a unit publishes the streams its parser produces on the EventBus, and
// receives translated reply streams back — "units are both event generator
// and listener" (paper §3). Everything outside INDISS speaks native SDP
// messages; everything inside speaks events. Units never hold pointers to
// each other: all inter-unit delivery goes through the bus, which is what
// makes attaching and detaching units at run time a local operation.
//
// Coordination is session-based: each discovery transaction (or
// advertisement) runs its own Session with its own FSM instance state, so a
// unit can serve many interleaved translations. The FSM's actions call back
// into the public action API below (record / dispatch_to_peers /
// begin_native_request / send_native_reply / switch_parser / complete) — the
// paper's "actions provided by the unit's interface".
#pragma once

#include <cstdint>
#include <map>
#include <memory>
#include <string>
#include <string_view>
#include <type_traits>
#include <vector>

#include "core/directory/service_directory.hpp"
#include "core/event.hpp"
#include "core/event_bus.hpp"
#include "core/fsm.hpp"
#include "core/parser.hpp"
#include "core/session.hpp"
#include "core/translation_cache.hpp"
#include "core/types.hpp"
#include "net/packet.hpp"
#include "transport/transport.hpp"

namespace indiss::core {

/// Sessions that never complete (searches nobody answered, truncated
/// parses) are forgotten this long after they opened. A completed session
/// is erased as soon as the task that completed it returns.
inline constexpr transport::Duration kSessionTimeout = transport::seconds(10);

struct UnitOptions {
  /// INDISS's own per-message processing cost (parse or compose), charged
  /// on a simulated clock only (Transport::simulated_clock). This is the
  /// system's overhead knob; Ablation A1 measures the real wall-clock cost,
  /// this models it in simulated time. On a real clock the processing takes
  /// its own time, so every unit hop runs at zero delay instead.
  transport::Duration translate_delay = transport::micros(20);
  /// Own-endpoint registry shared with the monitor (loop prevention). May
  /// be null for standalone unit tests.
  std::shared_ptr<OwnEndpoints> own_endpoints;
  /// Bridged-translation cache shared across the node's units (null =
  /// disabled): byte-identical repeated advertisements short-circuit to
  /// their previously composed outbound frames (docs/events.md).
  std::shared_ptr<TranslationCache> translation_cache;
  /// Cap on concurrently live sessions (0 = unbounded; completed sessions
  /// never count). At the cap, open_session evicts the oldest live session
  /// first, so half-open parse sessions from truncated or hostile frames are
  /// bounded by this instead of accumulating for a whole kSessionTimeout
  /// (docs/chaos.md).
  std::size_t max_open_sessions = 0;
  /// The gateway's service store, shared by its units (docs/directory.md):
  /// the unit lists the advertisements it parses there, holds the foreign
  /// services it bridges there, and answers native queries from it in
  /// directory mode. Null: the unit builds a store of its own, so a
  /// standalone unit runs the same code path.
  std::shared_ptr<ServiceDirectory> directory;
};

class Unit {
 public:
  using Options = UnitOptions;

  Unit(SdpId sdp, transport::Transport& transport, Options options = {});
  virtual ~Unit();

  Unit(const Unit&) = delete;
  Unit& operator=(const Unit&) = delete;

  [[nodiscard]] SdpId sdp() const { return sdp_; }
  /// The node this unit is deployed on — sim Host or live event loop; units
  /// never see which.
  [[nodiscard]] transport::Transport& transport() { return host_; }
  [[nodiscard]] const Options& options() const { return options_; }

  /// The bus this unit is subscribed to, or nullptr while detached. Wiring
  /// happens through EventBus::subscribe/unsubscribe — composition is
  /// dynamic: units attach and detach at run time as the environment
  /// evolves, and no unit keeps peer pointers of its own.
  [[nodiscard]] EventBus* bus() const { return bus_; }

  // --- Entry points -------------------------------------------------------

  /// Raw native message intercepted by the monitor component. Virtual so
  /// tests can stub the routing without a full parser stack.
  virtual void on_native_message(const net::Datagram& datagram);

  /// Event stream delivered by the bus (foreign request or advertisement
  /// that this unit should translate into its native SDP).
  void on_peer_stream(SdpId origin_sdp, std::uint64_t origin_session,
                      SharedStream stream);

  /// Translated reply stream routed back to the session that originated the
  /// foreign request.
  void on_reply_stream(std::uint64_t session_id, SharedStream stream);

  /// Context-manager hook (Fig 6 active mode): runs a locally originated
  /// native discovery for `canonical_type`; whatever answers is converted to
  /// an advertisement stream and dispatched to peer units for
  /// re-announcement in their SDPs.
  void probe(const std::string& canonical_type);

  // --- FSM action API (invoked by transitions) ------------------------------

  /// Records event data under a session state variable. Both keys are
  /// interned here, when the machine is built.
  static Action record(std::string_view var, std::string_view data_key);
  /// Sets a session state variable to a constant.
  static Action set(std::string_view var, std::string value);
  /// Records SDP_NET_SOURCE_ADDR as the session's source (and whether it is
  /// the unit's own host), and SDP_NET_MULTICAST as its medium: what the
  /// reply path reads.
  static Action record_source();
  static Action record_multicast();
  /// Publishes the session's events on the bus.
  static Action dispatch_to_peers();
  /// Sends the session's events back to the originating unit.
  static Action reply_to_origin();
  /// Asks the composer to build and send the native request for a
  /// peer-originated session.
  static Action begin_native_request();
  /// Asks the composer to build and send the native reply for a
  /// native-originated session (using recorded state variables).
  static Action send_native_reply();
  /// Issues a follow-up native request (e.g. the description GET the UPnP
  /// unit generates when SDP_RES_SERV_URL is still missing — paper §2.4).
  static Action follow_up();
  /// Swaps the session's active parser (SDP_C_PARSER_SWITCH) and continues
  /// parsing the event's payload with it.
  static Action do_parser_switch();
  /// Hands the advertisement stream to the subclass.
  static Action deliver_advertisement();
  /// Marks the session finished; the unit erases it once the current
  /// scheduled task returns.
  static Action complete();

  // --- Statistics ------------------------------------------------------------

  struct Stats {
    std::uint64_t messages_parsed = 0;
    std::uint64_t events_emitted = 0;
    std::uint64_t messages_composed = 0;
    std::uint64_t sessions_opened = 0;
    std::uint64_t sessions_completed = 0;
    std::uint64_t streams_dispatched = 0;
    std::uint64_t events_ignored = 0;  // no FSM transition consumed them
    /// Sessions force-closed by the max_open_sessions cap.
    std::uint64_t sessions_evicted = 0;
    /// Bridged services forgotten because their store record expired or
    /// was evicted.
    std::uint64_t bridged_state_expired = 0;

    /// Merge-on-read accumulation across shard instances (docs/sharding.md).
    /// Counters stay plain members — each shard's scheduler thread owns its
    /// unit exclusively, so merging is only valid from that thread (sim) or
    /// after the shard threads are joined (live).
    Stats& operator+=(const Stats& other) {
      messages_parsed += other.messages_parsed;
      events_emitted += other.events_emitted;
      messages_composed += other.messages_composed;
      sessions_opened += other.sessions_opened;
      sessions_completed += other.sessions_completed;
      streams_dispatched += other.streams_dispatched;
      events_ignored += other.events_ignored;
      sessions_evicted += other.sessions_evicted;
      bridged_state_expired += other.bridged_state_expired;
      return *this;
    }
  };
  [[nodiscard]] const Stats& stats() const { return stats_; }

  [[nodiscard]] const StateMachine& state_machine() const { return fsm_; }
  /// Live sessions: opened, and not yet completed, evicted or timed out.
  [[nodiscard]] std::size_t open_sessions() const { return live_sessions_; }

  /// Looks up a live session (tests and subclasses).
  [[nodiscard]] Session* find_session(std::uint64_t id);

  /// The foreign services this unit bridged into its SDP: the store
  /// records it holds, in slot order.
  [[nodiscard]] std::vector<const ServiceDirectory::Record*>
  foreign_services() const {
    return options_.directory->held_by(sdp_);
  }

 protected:
  // --- Subclass surface ------------------------------------------------------

  /// Parser registry. Every unit has a default parser; the UPnP unit also
  /// registers an XML parser as the switch target.
  void register_parser(std::unique_ptr<SdpParser> parser);
  void set_default_parser(const std::string& name) { default_parser_ = name; }

  /// Composer half, implemented per SDP.
  virtual void compose_native_request(Session& session) = 0;
  virtual void compose_native_reply(Session& session) = 0;
  virtual void compose_follow_up(Session& session, const Event& event);

  // --- Bridged services (docs/protocols.md) ---------------------------------
  //
  // The foreign services a unit re-exposes are records of the shared store,
  // which applies the one refresh, withdrawal and expiry rule; a subclass
  // only reacts through on_bridged and forget_bridged, over the record and
  // its own handle slot.

  /// A peer advertisement stream was delivered (deliver_advertisement).
  /// A byebye forgets the record its URL names or, when it names none, the
  /// oldest record carrying its USN, among those this unit holds. An alive
  /// with a URL and a meaningful type is held in the store
  /// (ServiceDirectory::hold, the one refresh rule) and then on_bridged().
  void on_advertisement(Session& session);

  /// An alive was recorded or refreshed: re-expose the service in this SDP,
  /// keeping what it put there in `handle`. Default: nothing (the SLP unit).
  virtual void on_bridged(Session& session,
                          const ServiceDirectory::Record& service,
                          std::uint64_t& handle, bool fresh);

  /// Why a unit lets go of a record: a peer withdrew it (byebye), or it
  /// expired or was evicted from the store.
  enum class Forget { kWithdrawn, kExpired };
  /// This unit is about to stop holding `service`: retract what on_bridged
  /// put in this SDP (`handle`). Must not touch the store. Default: nothing
  /// to retract.
  virtual void forget_bridged(const ServiceDirectory::Record& service,
                              std::uint64_t handle, Forget why);

  /// Sends `session`'s translated query on reply_socket_ (the unit acting
  /// as a native client); responses with its key are parsed into the
  /// session until it completes, times out or is evicted.
  void send_query(Session& session, const net::Endpoint& to, Bytes wire);
  /// The key rule (docs/protocols.md): what a response echoes of its query.
  /// A query keyed empty takes every response. Default: the bytes at
  /// query_id_span() (SLP XID, mDNS ID).
  virtual void query_key(BytesView message, std::string& key) const;
  /// The first id from `first` on that no open query's key carries at
  /// query_id_span(), so a unit's open queries never share an id.
  [[nodiscard]] std::uint16_t free_query_id(std::uint16_t first) const;

  /// The one path of every native reply, composed or replayed from the
  /// answer cache: sends `wire` on reply_socket_ to the requester of the
  /// native query `session` parsed, reply_delay(session) from now (zero
  /// sends at once), and records it as the session's answer when the
  /// directory answered the session (docs/directory.md).
  void send_reply(const Session& session, BytesView wire);
  /// The SDP's pacing of answers to queries from the shared medium (RFC
  /// 6762 §6 for mDNS, the MX window for SSDP). Default: none.
  [[nodiscard]] virtual transport::Duration network_reply_pacing() const;

  /// Opens reply_socket_, marks it own and routes what it receives
  /// (route_response). SLP, UPnP and mDNS call it from their constructors;
  /// the unit closes it when it goes away.
  void open_reply_socket();
  /// The socket native replies, translated queries and the unit's own
  /// announcements leave on.
  std::shared_ptr<transport::UdpSocket> reply_socket_;

  /// Native response to a translated query or a description fetch (the
  /// unit acting as a native client). Parses it into the session.
  void on_native_response(std::uint64_t session_id, BytesView raw,
                          const MessageContext& ctx);

  /// Creates a session in the machine's start state.
  Session& open_session(Session::Origin origin);

  /// Feeds one event of a native message: collects it and steps the FSM.
  void feed_event(Session& session, Event event);
  /// Steps the FSM through a stream shared by a peer unit without copying
  /// it; the session keeps the stream as its events() (docs/events.md).
  void feed_stream(Session& session, SharedStream stream);

  /// Per-unit recycled stream buffers (session `collected` storage and any
  /// composer-built streams draw from here).
  [[nodiscard]] StreamPool& stream_pool() { return stream_pool_; }

  /// Schedules `fn` to run after `delay` only while this unit is alive.
  /// Timer callbacks otherwise outlive units destroyed mid-run by
  /// dynamic detach (Indiss::disable_unit) or stop() — `fn` may capture
  /// `this` safely. Sessions completed during `fn` are erased when it
  /// returns.
  ///
  /// `fn` and the guard travel together in the scheduler's InlineTask,
  /// which must hold them in place: a hop never allocates its callable.
  template <typename Fn>
  void schedule_guarded(transport::Duration delay, Fn fn) {
    // The guard aliases the lifetime token onto `this`, so the task carries
    // one weak pointer next to `fn`.
    auto task = [unit = std::weak_ptr<Unit>(
                     std::shared_ptr<Unit>(alive_, this)),
                 fn = std::move(fn)]() mutable {
      if (unit.expired()) return;
      fn();
      if (auto self = unit.lock()) self->retire_finished_sessions();
    };
    static_assert(sizeof(task) <= transport::InlineTask::kInlineSize &&
                      std::is_nothrow_move_constructible_v<decltype(task)>,
                  "a unit task must fit InlineTask's inline storage");
    host_.schedule(delay, std::move(task));
  }

  /// One pipeline hop (ingress parse, peer delivery, reply delivery,
  /// response parse): schedule_guarded after translate_delay on a simulated
  /// clock, at zero delay on a real one. Either way `fn` never runs inside
  /// the caller; it runs once the current task or handler returns.
  template <typename Fn>
  void schedule_hop(Fn fn) {
    schedule_guarded(hop_delay_, std::move(fn));
  }

  /// Lifetime token for guards in subclass-owned callbacks (HTTP fetches,
  /// socket handlers): bail out when expired.
  [[nodiscard]] std::weak_ptr<void> lifetime() const { return alive_; }

  /// Parses raw bytes with the session's active parser into the session.
  void parse_into_session(Session& session, BytesView raw,
                          const MessageContext& ctx);

  /// Registers a socket's endpoint in the shared own-endpoint set.
  void mark_own(const transport::UdpSocket& socket);

  /// Target-side cache hook: a composer produced an outbound advertisement
  /// frame for a peer session; stores it so the source unit can replay it
  /// when the same wire bytes arrive again. No-op without a cache, for
  /// non-peer sessions, or when the origin session opened no bundle.
  void cache_outbound_frame(const Session& session,
                            std::shared_ptr<transport::UdpSocket> socket,
                            const net::Endpoint& to, BytesView payload);

  [[nodiscard]] TranslationCache* translation_cache() {
    return options_.translation_cache.get();
  }

  [[nodiscard]] ServiceDirectory& directory() { return *options_.directory; }

  /// Whether native queries on this unit may be answered from the service
  /// directory. The Jini unit opts out: its native clients query the
  /// registrar directly, so the gateway never composes Jini replies.
  [[nodiscard]] virtual bool answers_from_directory() const { return true; }

  /// Where this SDP's queries carry their transaction id (its codec's
  /// IdSpan; empty when there is none). The directory's answer cache keys
  /// on the rest of the query and patches the id into replayed replies.
  [[nodiscard]] virtual IdSpan query_id_span() const { return {}; }

  [[nodiscard]] transport::TimePoint now() const { return host_.now(); }

  StateMachine fsm_;
  Stats stats_;

 private:
  friend class EventBus;  // sets bus_ on (un)subscribe
  friend class ServiceDirectory;  // expiry and eviction call forget_bridged
  void bind_bus(EventBus* bus) { bus_ = bus; }

  void do_dispatch_to_peers(Session& session);
  /// The session's events as a shared stream: the one it was fed, or a
  /// copy of what it collected.
  [[nodiscard]] SharedStream share_events(const Session& session) const;
  /// A native datagram held for its parse hop, in a recycled box whose
  /// payload keeps its capacity (hold/recycle).
  using HeldDatagram = std::unique_ptr<net::Datagram>;
  HeldDatagram hold(const net::Datagram& datagram);
  void recycle(HeldDatagram datagram);
  /// Parses a native datagram arriving at the monitor (the ingress hop).
  void ingest(const net::Datagram& datagram);
  /// Directory-mode interception of a native query's dispatch: when the
  /// index holds fresh records of the requested type, schedules a
  /// synthesized foreign-reply stream back into the session (so the normal
  /// collect_reply -> send_native_reply machinery composes the native
  /// answer) and returns true — nothing reaches the bus or the origin
  /// network.
  bool try_answer_from_directory(Session& session);
  void do_reply_to_origin(Session& session);
  void do_complete(Session& session);
  void do_switch(Session& session, const Event& event);
  /// Ends a session (closing its query if it never completed) and erases
  /// it. Unknown ids are ignored.
  void close_session(std::uint64_t id);
  /// Stops routing responses to the query `session` sent, if it sent one.
  void close_query(Session& session);
  /// Parses a response reply_socket_ received into every open query session
  /// its key names (query_key).
  void route_response(const net::Datagram& datagram);
  /// The one pacing rule of send_reply: a query that crossed the shared
  /// medium (multicast from another host) is answered
  /// network_reply_pacing() after the gateway took it in; any other query
  /// at once.
  [[nodiscard]] transport::Duration reply_delay(const Session& session) const;
  /// replay_ carrying what the parse of `datagram` would have recorded for
  /// send_reply: its source and medium, arriving now.
  const Session& replay_session(const net::Datagram& datagram);
  /// Erases the sessions completed since the last call. Runs when a
  /// scheduled task returns, never inside an FSM action: the entry points
  /// still read a session after the parse that completed it.
  void retire_finished_sessions();
  /// Keeps the one session-timeout timer armed for the oldest session's
  /// deadline while any session exists.
  void arm_session_timer();

  SdpId sdp_;
  transport::Transport& host_;
  Options options_;
  /// translate_delay on a simulated clock, zero on a real one.
  transport::Duration hop_delay_;
  EventBus* bus_ = nullptr;
  std::shared_ptr<void> alive_ = std::make_shared<char>('\0');
  StreamPool stream_pool_;
  /// Keyed by id, which is creation order: with one shared timeout the
  /// first session always has the nearest deadline.
  std::map<std::uint64_t, Session> sessions_;
  /// Retired session nodes, reused with their buffers by open_session, and
  /// recycled datagram boxes (hold/recycle); at most kSpare of each.
  static constexpr std::size_t kSpare = 64;
  std::vector<std::map<std::uint64_t, Session>::node_type> spare_sessions_;
  std::vector<HeldDatagram> spare_datagrams_;
  /// Open translated queries, in send order.
  OpenQueries open_queries_;
  /// Completed sessions awaiting retire_finished_sessions().
  std::vector<std::uint64_t> finished_;
  /// send_query and route_response scratch (capacity reused).
  std::string key_scratch_;
  std::vector<std::uint64_t> routed_;
  std::size_t live_sessions_ = 0;
  bool session_timer_armed_ = false;
  // std::less<> so parser names arriving as string_view (parser-switch
  // events) are looked up without a temporary std::string.
  std::map<std::string, std::unique_ptr<SdpParser>, std::less<>> parsers_;
  std::string default_parser_;
  std::uint64_t next_session_id_ = 1;
  /// Wire bytes of the native datagram currently being parsed (directory
  /// mode only): try_answer_from_directory keys the answer cache by them.
  /// Valid only for the duration of the parse.
  BytesView pending_query_wire_{};
  /// The query an answer-cache replay answers (replay_session): a session
  /// that never opens and is never answered from the directory, so
  /// send_reply records nothing for it.
  Session replay_;
  /// collect() scratch (capacity reused across queries).
  std::vector<const ServiceDirectory::Record*> directory_matches_;
};

}  // namespace indiss::core
