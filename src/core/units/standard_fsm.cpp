#include "core/units/standard_fsm.hpp"

namespace indiss::core {

bool meaningful_advert_type(std::string_view canonical) {
  return !canonical.empty() && canonical != "*" &&
         !canonical.starts_with("uuid:");
}

void build_standard_fsm(StateMachine& fsm, bool direct_native_reply) {
  using ET = EventType;
  using Origin = Session::Origin;
  using enum ActionOp;
  const Guard any;
  constexpr std::uint32_t kTranslated =
      bits(Kind::kRequest, Kind::kAlive, Kind::kRegister, Kind::kByeBye);
  fsm.set_start("idle");
  fsm.add_accepting("done");

  // --- Native inbound messages (via the monitor) -------------------------
  fsm.add_tuple("idle", ET::kControlStart, {.origins = bits(Origin::kNative)},
                "parsing", {});
  fsm.add_tuple("parsing", ET::kNetSourceAddr, any, "parsing",
                {kRecordSource});
  fsm.add_tuple("parsing", ET::kNetMulticast, any, "parsing",
                {kRecordMulticast});
  fsm.add_tuple("parsing", ET::kNetUnicast, any, "parsing", {});
  // Messages stamped by another INDISS bridge are not re-translated — that
  // would echo adverts (and ping-pong requests) back and forth between INDISS
  // nodes forever. Requests carry the stamp in the native protocol's own
  // loop-prevention slot (SSDP USER-AGENT, SLP previous-responder list),
  // surfaced by the parser as the head event's "server" attribute.
  for (auto [head, kind] : {std::pair{ET::kServiceRequest, Kind::kRequest},
                            {ET::kServiceAlive, Kind::kAlive},
                            {ET::kServiceByeBye, Kind::kByeBye}}) {
    fsm.add_tuple("parsing", head, {.stamp = Stamp::kUnstamped}, "parsing",
                  {set_kind(kind)});
    fsm.add_tuple("parsing", head, {.stamp = Stamp::kStamped}, "parsing",
                  {set_kind(Kind::kBridgeEcho)});
  }
  fsm.add_tuple("parsing", ET::kServiceResponse, any, "parsing",
                {set_kind(Kind::kResponse)});
  fsm.add_tuple("parsing", ET::kRegRegister, any, "parsing",
                {set_kind(Kind::kRegister)});
  // A deregistration is the repository-SDP spelling of a byebye (SLP
  // SrvDeReg): it rides the same withdrawal-propagation path.
  fsm.add_tuple("parsing", ET::kRegDeregister, any, "parsing",
                {set_kind(Kind::kByeBye)});
  fsm.add_tuple("parsing", ET::kServiceTypeIs, any, "parsing",
                {record(Field::kServiceType)});

  // Requests fan out to peer units; advertisements and registrations are
  // dispatched for translation and the session ends.
  fsm.add_tuple("parsing", ET::kControlStop, {.kinds = bits(Kind::kRequest)},
                "await_foreign", {kDispatchToPeers});
  fsm.add_tuple("parsing", ET::kControlStop,
                {.kinds = bits(Kind::kAlive, Kind::kRegister)}, "done",
                {kDispatchToPeers, kComplete});
  fsm.add_tuple("parsing", ET::kControlStop, {.kinds = bits(Kind::kByeBye)},
                "done", {kDispatchToPeers, kComplete});
  fsm.add_tuple("parsing", ET::kControlStop,
                {.kinds = kAnyKind & ~kTranslated}, "done", {kComplete});

  // --- Translated replies returning from peers ---------------------------
  fsm.add_tuple("await_foreign", ET::kControlStart, any, "collect_reply", {});
  fsm.add_tuple("collect_reply", ET::kServiceTypeIs,
                {.absent = bits(Field::kServiceType)}, "collect_reply",
                {record(Field::kServiceType)});
  fsm.add_tuple("collect_reply", ET::kControlStop, any, "done",
                {kSendNativeReply, kComplete});

  // --- Peer / local streams to translate into our native SDP -------------
  fsm.add_tuple("idle", ET::kControlStart,
                {.origins = bits(Origin::kPeer, Origin::kLocal)}, "composing",
                {});
  fsm.add_tuple("composing", ET::kServiceRequest, any, "composing",
                {set_kind(Kind::kRequest)});
  fsm.add_tuple("composing", ET::kServiceAlive, any, "composing",
                {set_kind(Kind::kAlive)});
  fsm.add_tuple("composing", ET::kServiceByeBye, any, "composing",
                {set_kind(Kind::kByeBye)});
  fsm.add_tuple("composing", ET::kRegRegister, any, "composing",
                {set_kind(Kind::kRegister)});
  fsm.add_tuple("composing", ET::kRegDeregister, any, "composing",
                {set_kind(Kind::kByeBye)});
  fsm.add_tuple("composing", ET::kServiceTypeIs, any, "composing",
                {record(Field::kServiceType)});
  fsm.add_tuple("composing", ET::kControlStop, {.kinds = bits(Kind::kRequest)},
                "await_native", {kBeginNativeRequest});
  fsm.add_tuple("composing", ET::kControlStop,
                {.kinds = kTranslated & ~bits(Kind::kRequest)}, "done",
                {kDeliverAdvertisement, kComplete});
  fsm.add_tuple("composing", ET::kControlStop,
                {.kinds = kAnyKind & ~kTranslated}, "done", {kComplete});

  // --- Native responses to requests our composer issued -------------------
  fsm.add_tuple("await_native", ET::kControlStart, any, "collect_native", {});
  fsm.add_tuple("collect_native", ET::kResServUrl, any, "collect_native",
                {record(Field::kUrl)});
  fsm.add_tuple("collect_native", ET::kResTtl, any, "collect_native",
                {record(Field::kTtl)});
  if (direct_native_reply) {
    // Probe sessions (Origin::kLocal) turn the response into an
    // advertisement for the peers; normal peer sessions reply to origin.
    fsm.add_tuple("collect_native", ET::kControlStop,
                  {.origins = bits(Origin::kLocal)}, "done",
                  {kResponseToAdvert, kDispatchToPeers, kComplete});
    fsm.add_tuple("collect_native", ET::kControlStop,
                  {.origins = kAnyOrigin & ~bits(Origin::kLocal)}, "done",
                  {kReplyToOrigin, kComplete});
  }
}

}  // namespace indiss::core
