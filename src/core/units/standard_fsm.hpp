// Shared DFA scaffold for SDP units.
//
// Every SDP unit runs the same coordination skeleton (paper Fig 3): parse a
// native message, classify it (request / response / advertisement /
// registration), dispatch requests and advertisements to peers, and compose
// native replies when translated response streams come back. SDP-specific
// behaviour — SLP's XID bookkeeping, UPnP's recursive description chase —
// is layered on with additional add_tuple calls, which is exactly the
// customization story of the paper ("customization of a unit with respect to
// a SDP results from the specific configuration and in particular the
// embedded FSM"). Every guard is a core::Guard over the session's Kind,
// Origin, recorded Fields and the head event's bridge stamp; every action an
// ActionOp (core/fsm.hpp).
//
// States:
//   idle            start state
//   parsing         native inbound message streaming through the parser
//   await_foreign   native request dispatched; waiting for peer reply streams
//   collect_reply   translated reply stream arriving
//   composing       peer/local stream being stepped through
//   await_native    native request sent by our composer; awaiting a response
//   collect_native  native response streaming through the parser
//   done            accepting
#pragma once

#include <string_view>

#include "core/fsm.hpp"

namespace indiss::core {

/// True when a canonical service type names an actual service category —
/// wildcards ("*", from upnp:rootdevice / ssdp:all) and device UUIDs do not.
/// A UPnP alive burst repeats the same LOCATION under several NTs; only the
/// device/service-type ones are worth translating.
[[nodiscard]] bool meaningful_advert_type(std::string_view canonical);

/// Installs the shared skeleton into `fsm`. `direct_native_reply` adds the
/// generic collect_native -> done transitions (reply_to_origin); the UPnP
/// unit leaves them out and supplies its description chase instead.
void build_standard_fsm(StateMachine& fsm, bool direct_native_reply = true);

}  // namespace indiss::core
