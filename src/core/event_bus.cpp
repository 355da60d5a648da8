#include "core/event_bus.hpp"

#include "common/logging.hpp"
#include "core/unit.hpp"

namespace indiss::core {

void EventBus::subscribe(Unit& unit) {
  auto it = subscriptions_.find(unit.sdp());
  if (it != subscriptions_.end() && it->second != &unit) {
    // A different unit held this SDP slot: unbind it so it does not keep a
    // stale bus pointer (and try to unsubscribe a bus it is not on).
    it->second->bind_bus(nullptr);
  }
  subscriptions_[unit.sdp()] = &unit;
  unit.bind_bus(this);
}

void EventBus::unsubscribe(Unit& unit) {
  auto it = subscriptions_.find(unit.sdp());
  if (it == subscriptions_.end() || it->second != &unit) return;
  subscriptions_.erase(it);
  unit.bind_bus(nullptr);
}

Unit* EventBus::subscriber(SdpId sdp) const {
  auto it = subscriptions_.find(sdp);
  return it == subscriptions_.end() ? nullptr : it->second;
}

void EventBus::publish(Unit& origin, std::uint64_t origin_session,
                       SharedStream stream) {
  stats_.streams_published += 1;
  for (auto& [sdp, unit] : subscriptions_) {
    if (unit == &origin) continue;
    stats_.deliveries += 1;
    unit->on_peer_stream(origin.sdp(), origin_session, stream);
  }
}

void EventBus::reply(SdpId origin_sdp, std::uint64_t origin_session,
                     SharedStream stream) {
  Unit* origin = subscriber(origin_sdp);
  if (origin == nullptr) {
    stats_.replies_dropped += 1;
    log::warn("event-bus", "reply for detached origin unit ",
              sdp_name(origin_sdp));
    return;
  }
  stats_.replies_routed += 1;
  origin->on_reply_stream(origin_session, std::move(stream));
}

}  // namespace indiss::core
