// Tests for the DFA engine: add_tuple, guards, actions, determinism
// enforcement and the paper's 5-tuple semantics, the compiled (state,
// trigger) table, and feeding shared streams by reference.
#include <gtest/gtest.h>

#include <memory>
#include <string>
#include <vector>

#include "core/fsm.hpp"
#include "core/unit.hpp"
#include "core/units/jini_unit.hpp"
#include "core/units/mdns_unit.hpp"
#include "core/units/slp_unit.hpp"
#include "core/units/standard_fsm.hpp"
#include "core/units/upnp_unit.hpp"
#include "jini/discovery.hpp"
#include "mdns/dns.hpp"
#include "net/host.hpp"
#include "net/network.hpp"
#include "sim/scheduler.hpp"
#include "slp/agents.hpp"
#include "upnp/ssdp.hpp"

namespace indiss::core {
namespace {

// A minimal concrete unit so actions have a target; it logs the operations
// the FSM asks of it.
struct TestUnit : Unit {
  explicit TestUnit(net::Host& host) : Unit(SdpId::kSlp, host) {}
  std::vector<std::string> performed;

 protected:
  void compose_native_request(Session&) override {
    performed.push_back("request");
  }
  void compose_native_reply(Session&) override { performed.push_back("reply"); }
  void finalize_reply(Session&) override { performed.push_back("finalize"); }
};

struct FsmFixture : ::testing::Test {
  sim::Scheduler scheduler;
  net::Network network{scheduler, net::LinkProfile{}, 1};
  net::Host& host = network.add_host("h", net::IpAddress(10, 0, 0, 1));
  TestUnit unit{host};
  Session session;

  FsmFixture() { session.id = 1; }

  /// The session's state by name (states are numbered per machine).
  static std::string_view state_of(const StateMachine& fsm, const Session& s) {
    return fsm.state_name(s.state);
  }
};

TEST_F(FsmFixture, TransitionFiresAndChangesState) {
  StateMachine fsm;
  fsm.set_start("idle");
  fsm.add_tuple("idle", EventType::kControlStart, {}, "parsing", {});
  session.state = fsm.find_state("idle");
  EXPECT_TRUE(fsm_step(fsm, unit, session, Event(EventType::kControlStart)));
  EXPECT_EQ(state_of(fsm, session), "parsing");
}

TEST_F(FsmFixture, NoMatchingTransitionReturnsFalse) {
  StateMachine fsm;
  fsm.set_start("idle");
  fsm.add_tuple("idle", EventType::kControlStart, {}, "parsing", {});
  session.state = fsm.find_state("idle");
  EXPECT_FALSE(fsm_step(fsm, unit, session, Event(EventType::kResOk)));
  EXPECT_EQ(state_of(fsm, session), "idle");
}

TEST_F(FsmFixture, GuardsSelectAmongTransitions) {
  StateMachine fsm;
  fsm.set_start("s");
  fsm.add_tuple("s", EventType::kControlStop, {.kinds = bits(Kind::kRequest)},
                "requesting", {});
  fsm.add_tuple("s", EventType::kControlStop,
                {.kinds = kAnyKind & ~bits(Kind::kRequest)}, "other", {});
  session.state = fsm.find_state("s");
  session.kind = Kind::kRequest;
  fsm_step(fsm, unit, session, Event(EventType::kControlStop));
  EXPECT_EQ(state_of(fsm, session), "requesting");

  Session session2;
  session2.state = fsm.find_state("s");
  fsm_step(fsm, unit, session2, Event(EventType::kControlStop));
  EXPECT_EQ(state_of(fsm, session2), "other");
}

TEST_F(FsmFixture, EachGuardDimensionGatesItsTransition) {
  const Event plain(EventType::kServiceRequest);
  const Event stamped(EventType::kServiceRequest,
                      {{"server", "INDISS-bridge/1.0"}});
  Session s;
  EXPECT_TRUE(Guard{}.admits(plain, s)) << "the default admits all";

  EXPECT_FALSE(Guard{.kinds = bits(Kind::kAlive)}.admits(plain, s));
  s.kind = Kind::kAlive;
  EXPECT_TRUE(Guard{.kinds = bits(Kind::kAlive)}.admits(plain, s));

  EXPECT_FALSE(Guard{.origins = bits(Session::Origin::kPeer)}.admits(plain, s));
  s.origin = Session::Origin::kPeer;
  EXPECT_TRUE(Guard{.origins = bits(Session::Origin::kPeer)}.admits(plain, s));

  const Guard needs_url{.present = bits(Field::kUrl)};
  const Guard lacks_url{.absent = bits(Field::kUrl)};
  EXPECT_FALSE(needs_url.admits(plain, s));
  EXPECT_TRUE(lacks_url.admits(plain, s));
  s.recorded |= bits(Field::kUrl);  // recorded, even as an empty string
  EXPECT_TRUE(needs_url.admits(plain, s));
  EXPECT_FALSE(lacks_url.admits(plain, s));

  EXPECT_TRUE(Guard{.stamp = Stamp::kStamped}.admits(stamped, s));
  EXPECT_FALSE(Guard{.stamp = Stamp::kStamped}.admits(plain, s));
  EXPECT_TRUE(Guard{.stamp = Stamp::kUnstamped}.admits(plain, s));
  EXPECT_FALSE(Guard{.stamp = Stamp::kUnstamped}.admits(stamped, s));
}

TEST_F(FsmFixture, NondeterminismIsAnError) {
  StateMachine fsm;
  fsm.set_start("s");
  fsm.add_tuple("s", EventType::kControlStop, {}, "a", {});
  EXPECT_THROW(fsm.add_tuple("s", EventType::kControlStop, {}, "b", {}),
               std::logic_error);
}

TEST_F(FsmFixture, AddTupleRejectsAnOverlappingGuardPair) {
  StateMachine fsm;
  fsm.set_start("s");
  const auto add = [&](Guard guard) {
    fsm.add_tuple("s", EventType::kControlStop, guard, "t", {});
  };
  add({.kinds = bits(Kind::kRequest, Kind::kAlive),
       .origins = bits(Session::Origin::kNative),
       .present = bits(Field::kUrl),
       .stamp = Stamp::kUnstamped});
  // Each pair differs in one dimension only, and overlaps when that
  // dimension admits a common value.
  EXPECT_THROW(add({.kinds = bits(Kind::kAlive)}), std::logic_error);
  EXPECT_THROW(add({.origins = bits(Session::Origin::kNative,
                                    Session::Origin::kLocal)}),
               std::logic_error);
  EXPECT_THROW(add({.present = bits(Field::kDescUrl)}), std::logic_error);
  EXPECT_THROW(add({.absent = bits(Field::kDescUrl)}), std::logic_error);
  EXPECT_THROW(add({.stamp = Stamp::kUnstamped}), std::logic_error);
  EXPECT_EQ(fsm.transition_count(), 1u) << "a rejected tuple is not added";

  // Each of these is disjoint from every guard before it in at least one
  // dimension.
  const std::uint32_t native = bits(Session::Origin::kNative);
  add({.kinds = bits(Kind::kByeBye), .origins = native});
  add({.origins = bits(Session::Origin::kPeer)});
  add({.kinds = bits(Kind::kRequest),
       .origins = native,
       .absent = bits(Field::kUrl)});
  add({.kinds = bits(Kind::kRequest),
       .origins = native,
       .present = bits(Field::kUrl),
       .stamp = Stamp::kStamped});
  // A guard nothing satisfies overlaps nothing.
  add({.present = bits(Field::kSt), .absent = bits(Field::kSt)});
  EXPECT_EQ(fsm.transition_count(), 6u);
}

TEST_F(FsmFixture, ActionsRunInOrder) {
  StateMachine fsm;
  fsm.set_start("s");
  fsm.add_tuple("s", EventType::kControlStart, {}, "t",
                {ActionOp::kFinalizeReply, ActionOp::kSendNativeReply,
                 ActionOp::kBeginNativeRequest});
  session.state = fsm.find_state("s");
  fsm_step(fsm, unit, session, Event(EventType::kControlStart));
  EXPECT_EQ(unit.performed,
            (std::vector<std::string>{"finalize", "reply", "request"}));
  EXPECT_EQ(unit.stats().messages_composed, 2u);
}

TEST_F(FsmFixture, RecordActionCopiesEventData) {
  StateMachine fsm;
  fsm.set_start("s");
  fsm.add_tuple("s", EventType::kResServUrl, {}, "s",
                {record(Field::kUrl), record(Field::kUrlScheme)});
  fsm.add_tuple("s", EventType::kResTtl, {}, "s", {record(Field::kTtl)});
  fsm.add_tuple("s", EventType::kSlpReqId, {}, "s", {record(Field::kQueryId)});
  session.state = fsm.find_state("s");
  fsm_step(fsm, unit, session,
           Event(EventType::kResServUrl,
                 {{"url", "/control"}, {"scheme", "soap"}}));
  fsm_step(fsm, unit, session,
           Event(EventType::kResTtl, {{"seconds", "1800"}}));
  fsm_step(fsm, unit, session, Event(EventType::kSlpReqId, {{"xid", "77"}}));
  EXPECT_EQ(session.url, "/control");
  EXPECT_EQ(session.url_scheme, "soap");
  EXPECT_EQ(session.ttl_seconds, 1800);
  EXPECT_EQ(session.query_id, 77);
  EXPECT_EQ(session.recorded, bits(Field::kUrl, Field::kUrlScheme,
                                   Field::kTtl, Field::kQueryId));
  EXPECT_TRUE(session.has(Field::kTtl));
  EXPECT_FALSE(session.has(Field::kDescUrl));

  // The mDNS question carries its id as "id".
  StateMachine mdns;
  mdns.set_start("s");
  mdns.add_tuple("s", EventType::kMdnsQuestion, {}, "s",
                 {record(Field::kQname), record(Field::kQueryId)});
  Session question;
  fsm_step(mdns, unit, question,
           Event(EventType::kMdnsQuestion,
                 {{"name", "_clock._tcp.local"}, {"id", "9"}}));
  EXPECT_EQ(question.qname, "_clock._tcp.local");
  EXPECT_EQ(question.query_id, 9);
}

TEST_F(FsmFixture, RecordSkipsMissingKeys) {
  StateMachine fsm;
  fsm.set_start("s");
  fsm.add_tuple("s", EventType::kResServUrl, {}, "s", {record(Field::kUrl)});
  session.state = fsm.find_state("s");
  fsm_step(fsm, unit, session, Event(EventType::kResServUrl));
  EXPECT_FALSE(session.has(Field::kUrl));
  EXPECT_EQ(session.recorded, 0u);
}

TEST_F(FsmFixture, SetActionWritesConstant) {
  StateMachine fsm;
  fsm.set_start("s");
  fsm.add_tuple("s", EventType::kServiceRequest, {}, "s",
                {set_kind(Kind::kRequest)});
  session.state = fsm.find_state("s");
  fsm_step(fsm, unit, session, Event(EventType::kServiceRequest));
  EXPECT_EQ(session.kind, Kind::kRequest);
}

TEST(FsmActions, EveryOpcodeHasItsName) {
  EXPECT_EQ(action_name(ActionOp::kSetKind), "set_kind");
  EXPECT_EQ(action_name(ActionOp::kDispatchToPeers), "dispatch_to_peers");
  EXPECT_EQ(action_name(ActionOp::kComplete), "complete");
}

TEST_F(FsmFixture, AcceptingStatesAndIntrospection) {
  StateMachine fsm;
  fsm.set_start("idle");
  fsm.add_accepting("done");
  fsm.add_tuple("idle", EventType::kControlStart, {}, "done", {});
  EXPECT_TRUE(fsm.is_accepting("done"));
  EXPECT_FALSE(fsm.is_accepting("idle"));
  EXPECT_EQ(fsm.transition_count(), 1u);
  auto states = fsm.states();
  EXPECT_TRUE(states.contains("idle"));
  EXPECT_TRUE(states.contains("done"));
}

TEST_F(FsmFixture, EmptyStateInitializedToStart) {
  StateMachine fsm;
  fsm.set_start("begin");
  fsm.add_tuple("begin", EventType::kControlStart, {}, "next", {});
  Session fresh;  // kNoState
  fsm_step(fsm, unit, fresh, Event(EventType::kControlStart));
  EXPECT_EQ(state_of(fsm, fresh), "next");
}

// --- The compiled table ---------------------------------------------------

TEST_F(FsmFixture, NondeterminismIsCaughtOnlyWithinOneCell) {
  StateMachine fsm;
  fsm.set_start("s");
  // Always-enabled transitions in different cells never compete: another
  // trigger from the same state, or the same trigger from another state.
  fsm.add_tuple("s", EventType::kControlStart, {}, "a", {});
  fsm.add_tuple("s", EventType::kControlStop, {}, "b", {});
  fsm.add_tuple("t", EventType::kControlStart, {}, "c", {});
  // One cell, exclusive guards: deterministic.
  fsm.add_tuple("s", EventType::kServiceRequest,
                {.kinds = bits(Kind::kRequest)}, "d", {});
  fsm.add_tuple("s", EventType::kServiceRequest, {.kinds = bits(Kind::kAlive)},
                "e", {});

  const StateId s = fsm.find_state("s");
  const StateId t = fsm.find_state("t");
  EXPECT_EQ(fsm.state_name(fsm.match(s, Event(EventType::kControlStart),
                                     session)->to),
            "a");
  EXPECT_EQ(fsm.state_name(fsm.match(s, Event(EventType::kControlStop),
                                     session)->to),
            "b");
  EXPECT_EQ(fsm.state_name(fsm.match(t, Event(EventType::kControlStart),
                                     session)->to),
            "c");
  session.kind = Kind::kAlive;
  EXPECT_EQ(fsm.state_name(fsm.match(s, Event(EventType::kServiceRequest),
                                     session)->to),
            "e");
  session.kind = Kind::kByeBye;
  EXPECT_EQ(fsm.match(s, Event(EventType::kServiceRequest), session),
            nullptr);

  // A third guard of the same cell that both others' kinds reach is the
  // programming error, caught when the machine is built.
  EXPECT_THROW(fsm.add_tuple("s", EventType::kServiceRequest, {}, "f", {}),
               std::logic_error);
  fsm.add_tuple("s", EventType::kServiceRequest,
                {.kinds = bits(Kind::kByeBye)}, "f", {});
  EXPECT_EQ(fsm.state_name(fsm.match(s, Event(EventType::kServiceRequest),
                                     session)->to),
            "f");
}

TEST_F(FsmFixture, TriggerWithoutCellReturnsNoTransition) {
  StateMachine fsm;
  fsm.set_start("s");
  fsm.add_tuple("s", EventType::kControlStart, {}, "t", {});
  const StateId s = fsm.find_state("s");
  EXPECT_EQ(fsm.match(s, Event(EventType::kResOk), session), nullptr);
  // "t" has no cells at all; kNoState and ids the machine never gave name
  // no state.
  EXPECT_EQ(fsm.match(fsm.find_state("t"), Event(EventType::kControlStart),
                      session),
            nullptr);
  EXPECT_EQ(fsm.match(kNoState, Event(EventType::kControlStart), session),
            nullptr);
  EXPECT_EQ(fsm.match(StateId{40}, Event(EventType::kControlStart), session),
            nullptr);
  EXPECT_EQ(fsm.find_state("never-named"), kNoState);
  EXPECT_EQ(fsm.state_name(kNoState), "");
}

// The units' machines keep the shape their add_tuple calls give them: the
// same transition count and state set as when the states were strings.
template <typename U>
std::pair<std::size_t, std::set<std::string>> machine_shape() {
  sim::Scheduler scheduler;
  net::Network network{scheduler, net::LinkProfile{}, 1};
  net::Host& host = network.add_host("gw", net::IpAddress(10, 0, 0, 3));
  U unit(host);
  return {unit.state_machine().transition_count(),
          unit.state_machine().states()};
}

TEST(CompiledFsm, UnitMachinesKeepTheirTransitionsAndStates) {
  const std::set<std::string> standard{
      "await_foreign", "await_native", "collect_native", "collect_reply",
      "composing",     "done",         "idle",           "parsing"};
  std::set<std::string> upnp = standard;
  upnp.insert({"fetching", "parsing_desc"});

  StateMachine skeleton;
  build_standard_fsm(skeleton);
  EXPECT_EQ(skeleton.transition_count(), 36u);
  EXPECT_EQ(skeleton.states(), standard);

  EXPECT_EQ(machine_shape<SlpUnit>(),
            std::make_pair(std::size_t{39}, standard));
  // One more than the description chase: a byebye retires the kept
  // descriptions of its device.
  EXPECT_EQ(machine_shape<UpnpUnit>(),
            std::make_pair(std::size_t{48}, upnp));
  EXPECT_EQ(machine_shape<JiniUnit>(),
            std::make_pair(std::size_t{38}, standard));
  EXPECT_EQ(machine_shape<MdnsUnit>(),
            std::make_pair(std::size_t{37}, standard));
}

// --- Shared feeding -------------------------------------------------------
//
// A session stepped through a peer's SharedStream in place must end exactly
// where one fed a copy of the same events ends: same state, recorded fields,
// counters and composed wire, for every unit.

template <typename U>
struct Feedable : U {
  using U::U;
  using U::feed_event;
  using U::feed_stream;
  using U::open_session;
};

enum class Feed { kCopy, kShared };

/// Everything observable after a stream was fed.
struct FeedOutcome {
  std::string state;
  std::vector<std::string> fields;
  std::uint64_t events_emitted = 0;
  std::uint64_t events_ignored = 0;
  std::uint64_t messages_composed = 0;
  std::vector<std::string> wire;  // "port|bytes", in arrival order

  bool operator==(const FeedOutcome&) const = default;
};

std::ostream& operator<<(std::ostream& os, const FeedOutcome& o) {
  os << o.state << " emitted=" << o.events_emitted
     << " ignored=" << o.events_ignored
     << " composed=" << o.messages_composed << " fields:";
  for (const auto& f : o.fields) os << " " << f;
  os << " wire:";
  for (const auto& w : o.wire) os << " [" << w << "]";
  return os;
}

/// A LAN with the unit's gateway, a native client that sniffs every SDP
/// group plus its own unicast port, and a Jini registrar stand-in that
/// records the registration requests it is sent.
struct FeedWorld {
  sim::Scheduler scheduler;
  net::Network network{scheduler, net::LinkProfile{}, 7};
  net::Host& gateway = network.add_host("gw", net::IpAddress(10, 0, 0, 3));
  net::Host& client = network.add_host("client", net::IpAddress(10, 0, 0, 7));
  net::Host& registrar = network.add_host("reg", net::IpAddress(10, 0, 0, 9));
  std::vector<std::shared_ptr<transport::UdpSocket>> sniffers;
  std::shared_ptr<transport::TcpListener> registrar_listener;
  std::vector<std::shared_ptr<transport::TcpSocket>> accepted;
  std::vector<std::string> wire;

  FeedWorld() {
    auto sniff = [&](std::uint16_t port, std::optional<net::IpAddress> group) {
      auto socket = client.open_udp(port);
      if (group.has_value()) socket->join_group(*group);
      socket->set_receive_handler([this, port](const net::Datagram& d) {
        wire.push_back(std::to_string(port) + "|" +
                       std::string(d.payload.begin(), d.payload.end()));
      });
      sniffers.push_back(std::move(socket));
    };
    sniff(slp::kSlpPort, slp::kSlpMulticastGroup);
    sniff(upnp::kSsdpPort, upnp::kSsdpMulticastGroup);
    sniff(mdns::kMdnsPort, mdns::kMdnsGroup);
    sniff(41000, std::nullopt);
    // It answers every request with a failure status and hangs up, so the
    // unit's registrar connection closes and releases its handlers.
    registrar_listener = registrar.listen_tcp(jini::kJiniPort);
    registrar_listener->set_accept_handler(
        [this](std::shared_ptr<transport::TcpSocket> socket) {
          std::weak_ptr<transport::TcpSocket> weak = socket;
          socket->set_data_handler([this, weak](BytesView data) {
            wire.push_back("tcp|" + std::string(data.begin(), data.end()));
            if (auto connection = weak.lock()) {
              connection->send(Bytes{0xFF});
              connection->close();
            }
          });
          accepted.push_back(std::move(socket));
        });
  }

  /// Tells a Jini unit where the registrar is, as the monitor would.
  void announce_registrar(Unit& unit) {
    jini::MulticastAnnouncement announcement;
    announcement.registrar_host = "10.0.0.9";
    announcement.registrar_port = jini::kJiniPort;
    announcement.registrar_id = 0x5EED;
    net::Datagram datagram;
    datagram.source = net::Endpoint{registrar.address(), jini::kJiniPort};
    datagram.destination =
        net::Endpoint{jini::kAnnouncementGroup, jini::kJiniPort};
    datagram.multicast = true;
    datagram.payload = announcement.encode();
    unit.on_native_message(datagram);
    scheduler.run_for(sim::millis(50));
  }
};

EventStream peer_alive_stream() {
  return {
      Event(EventType::kControlStart),
      Event(EventType::kNetType, {{"sdp", "slp"}}),
      Event(EventType::kServiceAlive),
      Event(EventType::kServiceTypeIs, {{"type", "clock"}}),
      Event(EventType::kResTtl, {{"seconds", "120"}}),
      Event(EventType::kServiceAttr,
            {{"key", "friendlyName"}, {"value", "Shared Clock"}}),
      Event(EventType::kResServUrl, {{"url", "soap://10.0.0.2:4005/clock"}}),
      Event(EventType::kControlStop),
  };
}

EventStream reply_stream() {
  return {
      Event(EventType::kControlStart),
      Event(EventType::kNetType, {{"sdp", "upnp"}}),
      Event(EventType::kServiceResponse),
      Event(EventType::kResOk),
      Event(EventType::kServiceTypeIs, {{"type", "clock"}}),
      Event(EventType::kServiceAttr,
            {{"key", "friendlyName"}, {"value", "Shared Clock"}}),
      Event(EventType::kResTtl, {{"seconds", "1800"}}),
      Event(EventType::kResServUrl, {{"url", "soap://10.0.0.2:4005/clock"}}),
      Event(EventType::kControlStop),
  };
}

/// A native query from the client, as each unit's parser would frame it.
EventStream native_request_stream(SdpId sdp) {
  EventStream stream{
      Event(EventType::kControlStart),
      Event(EventType::kNetUnicast),
      Event(EventType::kNetSourceAddr,
            {{"addr", "10.0.0.7"}, {"port", "41000"}, {"local", "0"}}),
      Event(EventType::kServiceRequest),
      Event(EventType::kServiceTypeIs, {{"type", "clock"}}),
  };
  if (sdp == SdpId::kSlp) {
    stream.push_back(Event(EventType::kSlpReqId, {{"xid", "77"}}));
  } else if (sdp == SdpId::kUpnp) {
    stream.push_back(Event(EventType::kUpnpSearchTarget,
                           {{"st", "urn:schemas-upnp-org:device:clock:1"}}));
  } else if (sdp == SdpId::kMdns) {
    stream.push_back(Event(EventType::kMdnsQuestion,
                           {{"name", "_clock._tcp.local"}, {"id", "9"}}));
  }
  stream.push_back(Event(EventType::kControlStop));
  return stream;
}

template <typename U>
void feed(Feedable<U>& unit, Session& session, const EventStream& stream,
          Feed how) {
  if (how == Feed::kShared) {
    unit.feed_stream(session, std::make_shared<const EventStream>(stream));
  } else {
    for (const Event& event : stream) unit.feed_event(session, event);
  }
}

/// A session's recorded state, field by field.
std::vector<std::string> fields_of(const Session& s) {
  return {"kind=" + std::to_string(static_cast<int>(s.kind)),
          "service_type=" + s.service_type,
          "url=" + s.url,
          "url_scheme=" + s.url_scheme,
          "desc_url=" + s.desc_url,
          "st=" + s.st,
          "predicate=" + s.predicate,
          "qname=" + s.qname,
          "ttl=" + std::to_string(s.ttl_seconds),
          "query_id=" + std::to_string(s.query_id),
          "directory_answer=" + std::to_string(s.directory_answer),
          "recorded=" + std::to_string(s.recorded)};
}

template <typename U>
FeedOutcome outcome_of(FeedWorld& world, Feedable<U>& unit,
                       std::uint64_t session_id) {
  FeedOutcome out;
  const Session* session = unit.find_session(session_id);
  if (session != nullptr) {
    out.state = unit.state_machine().state_name(session->state);
    out.fields = fields_of(*session);
  }
  out.events_emitted = unit.stats().events_emitted;
  out.events_ignored = unit.stats().events_ignored;
  out.messages_composed = unit.stats().messages_composed;
  world.scheduler.run_for(sim::seconds(1));
  out.wire = world.wire;
  return out;
}

/// A peer advertisement delivered to a fresh unit.
template <typename U, typename... Config>
FeedOutcome feed_peer_alive(Feed how, Config... config) {
  FeedWorld world;
  Feedable<U> unit(world.gateway, UnitOptions{}, config...);
  if constexpr (std::is_same_v<U, JiniUnit>) world.announce_registrar(unit);
  Session& session = unit.open_session(Session::Origin::kPeer);
  std::uint64_t id = session.id;
  feed(unit, session, peer_alive_stream(), how);
  return outcome_of(world, unit, id);
}

/// A native query answered by a translated reply stream.
template <typename U, typename... Config>
FeedOutcome feed_reply(Feed how, Config... config) {
  FeedWorld world;
  Feedable<U> unit(world.gateway, UnitOptions{}, config...);
  Session& session = unit.open_session(Session::Origin::kNative);
  std::uint64_t id = session.id;
  for (const Event& event : native_request_stream(unit.sdp())) {
    unit.feed_event(session, event);
  }
  feed(unit, session, reply_stream(), how);
  return outcome_of(world, unit, id);
}

TEST(SharedFeeding, SlpSessionMatchesACopy) {
  FeedOutcome alive = feed_peer_alive<SlpUnit>(Feed::kCopy);
  EXPECT_EQ(alive.state, "done");
  EXPECT_EQ(feed_peer_alive<SlpUnit>(Feed::kShared), alive);
  FeedOutcome reply = feed_reply<SlpUnit>(Feed::kCopy);
  ASSERT_EQ(reply.wire.size(), 1u) << reply;
  EXPECT_EQ(feed_reply<SlpUnit>(Feed::kShared), reply);
}

TEST(SharedFeeding, UpnpSessionMatchesACopy) {
  UpnpUnitConfig active;
  active.active_advertising = true;
  FeedOutcome alive = feed_peer_alive<UpnpUnit>(Feed::kCopy, active);
  ASSERT_EQ(alive.wire.size(), 1u) << alive;  // the NOTIFY alive
  EXPECT_EQ(feed_peer_alive<UpnpUnit>(Feed::kShared, active), alive);
  FeedOutcome reply = feed_reply<UpnpUnit>(Feed::kCopy);
  ASSERT_EQ(reply.wire.size(), 1u) << reply;  // the search response
  EXPECT_EQ(feed_reply<UpnpUnit>(Feed::kShared), reply);
}

TEST(SharedFeeding, JiniSessionMatchesACopy) {
  FeedOutcome alive = feed_peer_alive<JiniUnit>(Feed::kCopy);
  ASSERT_EQ(alive.wire.size(), 1u) << alive;  // the registration request
  EXPECT_NE(alive.wire[0].find("Shared Clock"), std::string::npos);
  EXPECT_EQ(feed_peer_alive<JiniUnit>(Feed::kShared), alive);
  // Native Jini clients ask the registrar, not the gateway: the reply path
  // composes nothing, but the session must still end the same way.
  FeedOutcome reply = feed_reply<JiniUnit>(Feed::kCopy);
  EXPECT_EQ(reply.messages_composed, 1u);
  EXPECT_EQ(feed_reply<JiniUnit>(Feed::kShared), reply);
}

TEST(SharedFeeding, MdnsSessionMatchesACopy) {
  FeedOutcome alive = feed_peer_alive<MdnsUnit>(Feed::kCopy);
  ASSERT_EQ(alive.wire.size(), 1u) << alive;  // the announcement
  EXPECT_EQ(feed_peer_alive<MdnsUnit>(Feed::kShared), alive);
  FeedOutcome reply = feed_reply<MdnsUnit>(Feed::kCopy);
  ASSERT_EQ(reply.wire.size(), 1u) << reply;
  EXPECT_EQ(feed_reply<MdnsUnit>(Feed::kShared), reply);
}

TEST(SharedFeeding, SessionKeepsTheSharedStreamUntilANativeStart) {
  FeedWorld world;
  Feedable<SlpUnit> unit(world.gateway);
  Session& session = unit.open_session(Session::Origin::kNative);
  for (const Event& event : native_request_stream(SdpId::kSlp)) {
    unit.feed_event(session, event);
  }
  EXPECT_EQ(&session.events(), &session.collected);
  auto stream = std::make_shared<const EventStream>(reply_stream());
  unit.feed_stream(session, stream);
  EXPECT_EQ(&session.events(), stream.get()) << "read in place, not copied";
  EXPECT_EQ(session.collected.size(),
            native_request_stream(SdpId::kSlp).size());
}

// --- Session reuse ----------------------------------------------------------

TEST(SessionReuse, NodeReusedAfterADirectoryAnsweredUpnpQueryStartsAtDefaults) {
  FeedWorld world;
  ServiceDirectory::Config config;
  config.answer_queries = true;
  UnitOptions options;
  options.directory = std::make_shared<ServiceDirectory>(config);
  ASSERT_NE(options.directory->record_advertisement(
                SdpId::kSlp, peer_alive_stream(), world.gateway.now()),
            0u);
  Feedable<UpnpUnit> unit(world.gateway, options);

  Session& session = unit.open_session(Session::Origin::kNative);
  const std::uint64_t id = session.id;
  for (const Event& event : native_request_stream(SdpId::kUpnp)) {
    unit.feed_event(session, event);
  }
  ASSERT_TRUE(session.directory_answer);
  EXPECT_FALSE(session.st.empty());
  EXPECT_NE(session.recorded, 0u);
  const Session* answered = &session;
  world.scheduler.run_for(sim::seconds(1));
  ASSERT_EQ(world.wire.size(), 1u) << "the search response";
  EXPECT_EQ(unit.find_session(id), nullptr) << "answered and retired";

  Session& reused = unit.open_session(Session::Origin::kPeer);
  ASSERT_EQ(&reused, answered) << "the retired node is reused";
  const Session fresh;
  EXPECT_EQ(fields_of(reused), fields_of(fresh));
  EXPECT_EQ(reused.origin_session, 0u);
  EXPECT_TRUE(reused.collected.empty());
  EXPECT_EQ(reused.shared, nullptr);
  EXPECT_FALSE(reused.source.has_value());
  EXPECT_FALSE(reused.from_local_host);
  EXPECT_FALSE(reused.multicast);
  EXPECT_FALSE(reused.done);
  EXPECT_FALSE(reused.open_query.has_value());
  EXPECT_NE(reused.parser, nullptr) << "every session starts parsing";
}

}  // namespace
}  // namespace indiss::core
