#include "core/units/standard_fsm.hpp"

namespace indiss::core {

bool meaningful_advert_type(std::string_view canonical) {
  return !canonical.empty() && canonical != "*" &&
         !canonical.starts_with("uuid:");
}

Action response_to_advert() {
  return [](Unit&, const Event&, Session& session) {
    for (auto& event : session.collected) {
      if (event.type == EventType::kServiceResponse) {
        event.type = EventType::kServiceAlive;
      }
    }
    session.set_var("kind", "alive");
  };
}

void build_standard_fsm(StateMachine& fsm, StandardFsmOptions options) {
  using ET = EventType;
  const Symbol kind = SymbolTable::global().intern("kind");
  const Symbol server = SymbolTable::global().intern("server");
  fsm.set_start("idle");
  fsm.add_accepting("done");

  // --- Native inbound messages (via the monitor) -------------------------
  fsm.add_tuple("idle", ET::kControlStart, origin_native(), "parsing", {});
  fsm.add_tuple("parsing", ET::kNetSourceAddr, any(), "parsing",
                {Unit::record_source()});
  fsm.add_tuple("parsing", ET::kNetMulticast, any(), "parsing",
                {Unit::record_multicast()});
  fsm.add_tuple("parsing", ET::kNetUnicast, any(), "parsing", {});
  // Messages stamped by another INDISS bridge are not re-translated — that
  // would echo adverts (and ping-pong requests) back and forth between INDISS
  // nodes forever. Requests carry the stamp in the native protocol's own
  // loop-prevention slot (SSDP USER-AGENT, SLP previous-responder list),
  // surfaced by the parser as the head event's "server" attribute.
  auto from_bridge = [server](const Event& e, const Session&) {
    return e.data.get(server).find("INDISS-bridge") != std::string::npos;
  };
  auto not_from_bridge = [from_bridge](const Event& e, const Session& s) {
    return !from_bridge(e, s);
  };
  fsm.add_tuple("parsing", ET::kServiceRequest, not_from_bridge, "parsing",
                {Unit::set("kind", "request")});
  fsm.add_tuple("parsing", ET::kServiceRequest, from_bridge, "parsing",
                {Unit::set("kind", "bridge_echo")});
  fsm.add_tuple("parsing", ET::kServiceResponse, any(), "parsing",
                {Unit::set("kind", "response")});
  fsm.add_tuple("parsing", ET::kServiceAlive, not_from_bridge, "parsing",
                {Unit::set("kind", "alive")});
  fsm.add_tuple("parsing", ET::kServiceAlive, from_bridge, "parsing",
                {Unit::set("kind", "bridge_echo")});
  fsm.add_tuple("parsing", ET::kServiceByeBye, not_from_bridge, "parsing",
                {Unit::set("kind", "byebye")});
  fsm.add_tuple("parsing", ET::kServiceByeBye, from_bridge, "parsing",
                {Unit::set("kind", "bridge_echo")});
  fsm.add_tuple("parsing", ET::kRegRegister, any(), "parsing",
                {Unit::set("kind", "register")});
  // A deregistration is the repository-SDP spelling of a byebye (SLP
  // SrvDeReg): it rides the same withdrawal-propagation path.
  fsm.add_tuple("parsing", ET::kRegDeregister, any(), "parsing",
                {Unit::set("kind", "byebye")});
  fsm.add_tuple("parsing", ET::kServiceTypeIs, any(), "parsing",
                {Unit::record("service_type", "type")});

  // Requests fan out to peer units; advertisements and registrations are
  // dispatched for translation and the session ends.
  fsm.add_tuple("parsing", ET::kControlStop, kind_is("request"),
                "await_foreign", {Unit::dispatch_to_peers()});
  fsm.add_tuple("parsing", ET::kControlStop, kind_in("alive", "register"),
                "done", {Unit::dispatch_to_peers(), Unit::complete()});
  fsm.add_tuple("parsing", ET::kControlStop, kind_is("byebye"), "done",
                {Unit::dispatch_to_peers(), Unit::complete()});
  fsm.add_tuple(
      "parsing", ET::kControlStop,
      [kind](const Event&, const Session& s) {
        std::string_view k = s.vars.get(kind);
        return k != "request" && k != "alive" && k != "register" &&
               k != "byebye";
      },
      "done", {Unit::complete()});

  // --- Translated replies returning from peers ---------------------------
  fsm.add_tuple("await_foreign", ET::kControlStart, any(), "collect_reply",
                {});
  fsm.add_tuple("collect_reply", ET::kServiceTypeIs, lacks_var("service_type"),
                "collect_reply", {Unit::record("service_type", "type")});
  fsm.add_tuple("collect_reply", ET::kControlStop, any(), "done",
                {Unit::send_native_reply(), Unit::complete()});

  // --- Peer / local streams to translate into our native SDP -------------
  fsm.add_tuple("idle", ET::kControlStart, origin_foreign(), "composing", {});
  fsm.add_tuple("composing", ET::kServiceRequest, any(), "composing",
                {Unit::set("kind", "request")});
  fsm.add_tuple("composing", ET::kServiceAlive, any(), "composing",
                {Unit::set("kind", "alive")});
  fsm.add_tuple("composing", ET::kServiceByeBye, any(), "composing",
                {Unit::set("kind", "byebye")});
  fsm.add_tuple("composing", ET::kRegRegister, any(), "composing",
                {Unit::set("kind", "register")});
  fsm.add_tuple("composing", ET::kRegDeregister, any(), "composing",
                {Unit::set("kind", "byebye")});
  fsm.add_tuple("composing", ET::kServiceTypeIs, any(), "composing",
                {Unit::record("service_type", "type")});
  fsm.add_tuple("composing", ET::kControlStop, kind_is("request"),
                "await_native", {Unit::begin_native_request()});
  fsm.add_tuple("composing", ET::kControlStop,
                [kind](const Event&, const Session& s) {
                  std::string_view k = s.vars.get(kind);
                  return k == "alive" || k == "byebye" || k == "register";
                },
                "done", {Unit::deliver_advertisement(), Unit::complete()});
  fsm.add_tuple("composing", ET::kControlStop,
                [kind](const Event&, const Session& s) {
                  std::string_view k = s.vars.get(kind);
                  return k != "request" && k != "alive" && k != "byebye" &&
                         k != "register";
                },
                "done", {Unit::complete()});

  // --- Native responses to requests our composer issued -------------------
  fsm.add_tuple("await_native", ET::kControlStart, any(), "collect_native",
                {});
  fsm.add_tuple("collect_native", ET::kResServUrl, any(), "collect_native",
                {Unit::record("url", "url")});
  fsm.add_tuple("collect_native", ET::kResTtl, any(), "collect_native",
                {Unit::record("ttl", "seconds")});
  if (options.direct_native_reply) {
    // Probe sessions (Origin::kLocal) turn the response into an
    // advertisement for the peers; normal peer sessions reply to origin.
    fsm.add_tuple("collect_native", ET::kControlStop, origin_local(), "done",
                  {response_to_advert(), Unit::dispatch_to_peers(),
                   Unit::complete()});
    fsm.add_tuple("collect_native", ET::kControlStop,
                  negate(origin_local()), "done",
                  {Unit::reply_to_origin(), Unit::complete()});
  }
}

}  // namespace indiss::core
