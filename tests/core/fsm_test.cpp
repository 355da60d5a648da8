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

// A minimal concrete unit so actions have a target.
struct TestUnit : Unit {
  explicit TestUnit(net::Host& host) : Unit(SdpId::kSlp, host) {}
  int requests_composed = 0;
  int replies_composed = 0;

 protected:
  void compose_native_request(Session&) override { ++requests_composed; }
  void compose_native_reply(Session&) override { ++replies_composed; }
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
  fsm.add_tuple("idle", EventType::kControlStart, any(), "parsing", {});
  session.state = fsm.find_state("idle");
  EXPECT_TRUE(fsm_step(fsm, unit, session, Event(EventType::kControlStart)));
  EXPECT_EQ(state_of(fsm, session), "parsing");
}

TEST_F(FsmFixture, NoMatchingTransitionReturnsFalse) {
  StateMachine fsm;
  fsm.set_start("idle");
  fsm.add_tuple("idle", EventType::kControlStart, any(), "parsing", {});
  session.state = fsm.find_state("idle");
  EXPECT_FALSE(fsm_step(fsm, unit, session, Event(EventType::kResOk)));
  EXPECT_EQ(state_of(fsm, session), "idle");
}

TEST_F(FsmFixture, GuardsSelectAmongTransitions) {
  StateMachine fsm;
  fsm.set_start("s");
  fsm.add_tuple("s", EventType::kControlStop,
                [](const Event&, const Session& s) {
                  return s.var("kind") == "request";
                },
                "requesting", {});
  fsm.add_tuple("s", EventType::kControlStop,
                [](const Event&, const Session& s) {
                  return s.var("kind") != "request";
                },
                "other", {});
  session.state = fsm.find_state("s");
  session.set_var("kind", "request");
  fsm_step(fsm, unit, session, Event(EventType::kControlStop));
  EXPECT_EQ(state_of(fsm, session), "requesting");

  Session session2;
  session2.state = fsm.find_state("s");
  fsm_step(fsm, unit, session2, Event(EventType::kControlStop));
  EXPECT_EQ(state_of(fsm, session2), "other");
}

TEST_F(FsmFixture, NondeterminismIsAnError) {
  StateMachine fsm;
  fsm.set_start("s");
  fsm.add_tuple("s", EventType::kControlStop, any(), "a", {});
  fsm.add_tuple("s", EventType::kControlStop, any(), "b", {});
  session.state = fsm.find_state("s");
  EXPECT_THROW(fsm_step(fsm, unit, session, Event(EventType::kControlStop)),
               std::logic_error);
}

TEST_F(FsmFixture, ActionsRunInOrder) {
  StateMachine fsm;
  fsm.set_start("s");
  std::vector<int> order;
  fsm.add_tuple("s", EventType::kControlStart, any(), "t",
                {[&](Unit&, const Event&, Session&) { order.push_back(1); },
                 [&](Unit&, const Event&, Session&) { order.push_back(2); },
                 [&](Unit&, const Event&, Session&) { order.push_back(3); }});
  session.state = fsm.find_state("s");
  fsm_step(fsm, unit, session, Event(EventType::kControlStart));
  EXPECT_EQ(order, (std::vector<int>{1, 2, 3}));
}

TEST_F(FsmFixture, RecordActionCopiesEventData) {
  StateMachine fsm;
  fsm.set_start("s");
  fsm.add_tuple("s", EventType::kNetSourceAddr, any(), "s",
                {Unit::record("src_addr", "addr")});
  session.state = fsm.find_state("s");
  fsm_step(fsm, unit, session,
           Event(EventType::kNetSourceAddr, {{"addr", "10.0.0.7"}}));
  EXPECT_EQ(session.var("src_addr"), "10.0.0.7");
}

TEST_F(FsmFixture, RecordSkipsMissingKeys) {
  StateMachine fsm;
  fsm.set_start("s");
  fsm.add_tuple("s", EventType::kNetSourceAddr, any(), "s",
                {Unit::record("src_addr", "addr")});
  session.state = fsm.find_state("s");
  fsm_step(fsm, unit, session, Event(EventType::kNetSourceAddr));
  EXPECT_FALSE(session.has_var("src_addr"));
}

TEST_F(FsmFixture, SetActionWritesConstant) {
  StateMachine fsm;
  fsm.set_start("s");
  fsm.add_tuple("s", EventType::kServiceRequest, any(), "s",
                {Unit::set("kind", "request")});
  session.state = fsm.find_state("s");
  fsm_step(fsm, unit, session, Event(EventType::kServiceRequest));
  EXPECT_EQ(session.var("kind"), "request");
}

TEST_F(FsmFixture, AcceptingStatesAndIntrospection) {
  StateMachine fsm;
  fsm.set_start("idle");
  fsm.add_accepting("done");
  fsm.add_tuple("idle", EventType::kControlStart, any(), "done", {});
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
  fsm.add_tuple("begin", EventType::kControlStart, any(), "next", {});
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
  fsm.add_tuple("s", EventType::kControlStart, any(), "a", {});
  fsm.add_tuple("s", EventType::kControlStop, any(), "b", {});
  fsm.add_tuple("t", EventType::kControlStart, any(), "c", {});
  // One cell, exclusive guards: deterministic.
  fsm.add_tuple("s", EventType::kServiceRequest, kind_is("request"), "d", {});
  fsm.add_tuple("s", EventType::kServiceRequest, kind_is("alive"), "e", {});

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
  session.set_var("kind", "alive");
  EXPECT_EQ(fsm.state_name(fsm.match(s, Event(EventType::kServiceRequest),
                                     session)->to),
            "e");

  // The same cell with both guards enabled is the programming error.
  fsm.add_tuple("s", EventType::kServiceRequest, has_var("kind"), "f", {});
  EXPECT_THROW((void)fsm.match(s, Event(EventType::kServiceRequest), session),
               std::logic_error);
  session.set_var("kind", "other");
  EXPECT_EQ(fsm.state_name(fsm.match(s, Event(EventType::kServiceRequest),
                                     session)->to),
            "f");
}

TEST_F(FsmFixture, TriggerWithoutCellReturnsNoTransition) {
  StateMachine fsm;
  fsm.set_start("s");
  fsm.add_tuple("s", EventType::kControlStart, any(), "t", {});
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

TEST_F(FsmFixture, GuardsOfACellRunInAddOrderAndOthersNever) {
  StateMachine fsm;
  fsm.set_start("s");
  std::vector<int> evaluated;
  auto probe = [&](int id, bool enabled) -> Guard {
    return [&evaluated, id, enabled](const Event&, const Session&) {
      evaluated.push_back(id);
      return enabled;
    };
  };
  fsm.add_tuple("s", EventType::kControlStop, probe(1, false), "a", {});
  fsm.add_tuple("s", EventType::kControlStart, probe(2, true), "b", {});
  fsm.add_tuple("t", EventType::kControlStop, probe(3, true), "c", {});
  fsm.add_tuple("s", EventType::kControlStop, probe(4, true), "d", {});
  session.state = fsm.find_state("s");
  ASSERT_TRUE(fsm_step(fsm, unit, session, Event(EventType::kControlStop)));
  EXPECT_EQ(state_of(fsm, session), "d");
  EXPECT_EQ(evaluated, (std::vector<int>{1, 4}));
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
// where one fed a copy of the same events ends: same state, vars, counters
// and composed wire, for every unit.

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
  std::vector<std::string> vars;
  std::uint64_t events_emitted = 0;
  std::uint64_t events_ignored = 0;
  std::uint64_t messages_composed = 0;
  std::vector<std::string> wire;  // "port|bytes", in arrival order

  bool operator==(const FeedOutcome&) const = default;
};

std::ostream& operator<<(std::ostream& os, const FeedOutcome& o) {
  os << o.state << " emitted=" << o.events_emitted
     << " ignored=" << o.events_ignored
     << " composed=" << o.messages_composed << " vars:";
  for (const auto& v : o.vars) os << " " << v;
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

template <typename U>
FeedOutcome outcome_of(FeedWorld& world, Feedable<U>& unit,
                       std::uint64_t session_id) {
  FeedOutcome out;
  const Session* session = unit.find_session(session_id);
  if (session != nullptr) {
    out.state = unit.state_machine().state_name(session->state);
    session->vars.for_each([&](std::string_view k, std::string_view v) {
      out.vars.push_back(std::string(k) + "=" + std::string(v));
    });
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

}  // namespace
}  // namespace indiss::core
