// Tests for the EventBus: subscription lifecycle, fan-out, reply
// routing, and the detach semantics dynamic composition relies on.
#include <gtest/gtest.h>

#include <memory>

#include "core/event_bus.hpp"
#include "core/unit.hpp"
#include "net/host.hpp"
#include "net/network.hpp"
#include "sim/scheduler.hpp"

namespace indiss::core {
namespace {

// A concrete unit with no FSM transitions: delivered streams open sessions
// and count events, which is all the bus tests need to observe.
struct StubUnit : Unit {
  StubUnit(SdpId sdp, net::Host& host) : Unit(sdp, host) {}

  Session& open_peer_session() { return open_session(Session::Origin::kPeer); }

 protected:
  void compose_native_request(Session&) override {}
  void compose_native_reply(Session&) override {}
};

struct EventBusFixture : ::testing::Test {
  sim::Scheduler scheduler;
  net::Network network{scheduler, net::LinkProfile{}, 1};
  net::Host& host = network.add_host("h", net::IpAddress(10, 0, 0, 1));
  // The bus must outlive its subscribers (unit destructors unsubscribe
  // themselves), so it is declared before the units.
  EventBus bus;
  StubUnit slp{SdpId::kSlp, host};
  StubUnit upnp{SdpId::kUpnp, host};
  StubUnit jini{SdpId::kJini, host};

  static SharedStream request_stream() {
    auto stream = std::make_shared<EventStream>();
    stream->push_back(Event(EventType::kControlStart));
    stream->push_back(Event(EventType::kServiceRequest));
    stream->push_back(Event(EventType::kControlStop));
    return stream;
  }
};

TEST_F(EventBusFixture, SubscribeBindsAndUnsubscribeUnbinds) {
  EXPECT_EQ(slp.bus(), nullptr);
  bus.subscribe(slp);
  bus.subscribe(upnp);
  EXPECT_EQ(bus.subscriber_count(), 2u);
  EXPECT_EQ(slp.bus(), &bus);
  EXPECT_EQ(bus.subscriber(SdpId::kSlp), &slp);
  EXPECT_TRUE(bus.subscribed(SdpId::kUpnp));
  EXPECT_FALSE(bus.subscribed(SdpId::kJini));

  bus.subscribe(slp);  // idempotent
  EXPECT_EQ(bus.subscriber_count(), 2u);

  bus.unsubscribe(slp);
  EXPECT_EQ(bus.subscriber_count(), 1u);
  EXPECT_EQ(slp.bus(), nullptr);
  EXPECT_EQ(bus.subscriber(SdpId::kSlp), nullptr);
}

TEST_F(EventBusFixture, PublishFansOutToEverySubscriberExceptOrigin) {
  bus.subscribe(slp);
  bus.subscribe(upnp);
  bus.subscribe(jini);

  bus.publish(slp, 1, request_stream());
  scheduler.run_for(sim::millis(1));

  EXPECT_EQ(slp.stats().sessions_opened, 0u) << "no self-delivery";
  EXPECT_EQ(upnp.stats().sessions_opened, 1u);
  EXPECT_EQ(jini.stats().sessions_opened, 1u);
  EXPECT_EQ(bus.stats().streams_published, 1u);
  EXPECT_EQ(bus.stats().deliveries, 2u);

  // The delivered streams ran through each receiver's FSM-less session.
  EXPECT_EQ(upnp.stats().events_emitted, 3u);
}

TEST_F(EventBusFixture, ReplyRoutesBackToTheOriginSession) {
  bus.subscribe(slp);
  bus.subscribe(upnp);
  Session& session = slp.open_peer_session();

  auto reply = request_stream();
  bus.reply(SdpId::kSlp, session.id, reply);
  scheduler.run_for(sim::millis(1));

  EXPECT_EQ(bus.stats().replies_routed, 1u);
  EXPECT_EQ(slp.stats().events_emitted, 3u) << "reply fed into the session";
  EXPECT_EQ(slp.stats().sessions_opened, 1u) << "no new session for a reply";
}

TEST_F(EventBusFixture, ReplyToDetachedOriginIsDroppedNotCrashed) {
  bus.subscribe(slp);
  bus.subscribe(upnp);
  bus.unsubscribe(slp);

  bus.reply(SdpId::kSlp, 1, request_stream());
  scheduler.run_for(sim::millis(1));
  EXPECT_EQ(bus.stats().replies_dropped, 1u);
  EXPECT_EQ(bus.stats().replies_routed, 0u);
  EXPECT_EQ(slp.stats().events_emitted, 0u);
}

TEST_F(EventBusFixture, ReplacingASubscriptionUnbindsTheOldUnit) {
  StubUnit replacement{SdpId::kJini, host};
  bus.subscribe(jini);
  bus.subscribe(replacement);
  EXPECT_EQ(bus.subscriber_count(), 1u);
  EXPECT_EQ(bus.subscriber(SdpId::kJini), &replacement);
  EXPECT_EQ(jini.bus(), nullptr) << "displaced unit must not keep the bus";
  EXPECT_EQ(replacement.bus(), &bus);
}

TEST_F(EventBusFixture, DestroyedUnitLeavesNoDanglingSubscription) {
  {
    StubUnit transient{SdpId::kJini, host};
    bus.subscribe(transient);
    EXPECT_EQ(bus.subscriber_count(), 1u);
  }  // ~Unit unsubscribes
  EXPECT_EQ(bus.subscriber_count(), 0u);
  EXPECT_EQ(bus.subscriber(SdpId::kJini), nullptr);

  // Publishing afterwards reaches nobody and breaks nothing.
  bus.subscribe(slp);
  bus.publish(slp, 1, request_stream());
  scheduler.run_for(sim::millis(1));
  EXPECT_EQ(bus.stats().deliveries, 0u);
}

}  // namespace
}  // namespace indiss::core
