// The EventBus: central unit composition (paper §2.2, Fig 5).
//
// Units used to be wired all-to-all by raw pointer — exactly the N² coupling
// the event architecture exists to avoid. The bus replaces that mesh with a
// subscription registry: a unit publishes the streams its parser produces,
// and the bus fans them out to every other subscriber; translated replies
// are routed back to the originating unit by SDP id. Attaching or detaching
// a unit at run time (the Fig 5 evolution of an INDISS configuration) is one
// (un)subscribe call — no peer lists to repair on any other unit.
//
// Streams travel as SharedStream (shared_ptr<const EventStream>): one parsed
// buffer serves every subscriber and every deferred delivery without copies.
#pragma once

#include <cstdint>
#include <map>

#include "core/event.hpp"
#include "core/types.hpp"

namespace indiss::core {

class Unit;

class EventBus {
 public:
  /// Registers `unit` as an event listener for every other subscriber's
  /// streams (idempotent). Every subscriber hears every stream: composers
  /// ignore events they do not understand (paper §2.3).
  void subscribe(Unit& unit);
  void unsubscribe(Unit& unit);

  [[nodiscard]] bool subscribed(SdpId sdp) const {
    return subscriptions_.contains(sdp);
  }
  [[nodiscard]] Unit* subscriber(SdpId sdp) const;
  [[nodiscard]] std::size_t subscriber_count() const {
    return subscriptions_.size();
  }

  /// Fans a parsed stream out to every subscriber except `origin` (a unit
  /// never hears its own streams). `origin_session` rides along so replies
  /// can find their way back.
  void publish(Unit& origin, std::uint64_t origin_session,
               SharedStream stream);

  /// Routes a translated reply stream back to the unit that originated the
  /// request. Delivery is dropped (and counted) when the origin unit has
  /// been detached in the meantime.
  void reply(SdpId origin_sdp, std::uint64_t origin_session,
             SharedStream stream);

  struct Stats {
    std::uint64_t streams_published = 0;
    std::uint64_t deliveries = 0;        // stream x subscriber pairs delivered
    std::uint64_t replies_routed = 0;
    std::uint64_t replies_dropped = 0;   // origin no longer subscribed
  };
  [[nodiscard]] const Stats& stats() const { return stats_; }

 private:
  std::map<SdpId, Unit*> subscriptions_;
  Stats stats_;
};

}  // namespace indiss::core
