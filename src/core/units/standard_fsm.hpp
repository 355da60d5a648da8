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
// embedded FSM").
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

#include <string>
#include <string_view>

#include "core/fsm.hpp"
#include "core/unit.hpp"

namespace indiss::core {

// --- Guard helpers ----------------------------------------------------------
//
// Keys are interned when the guard is built, so a step compares symbols and
// never takes the SymbolTable's lock.

[[nodiscard]] inline Guard kind_is(std::string kind) {
  return [key = SymbolTable::global().intern("kind"),
          kind = std::move(kind)](const Event&, const Session& s) {
    return s.vars.get(key) == kind;
  };
}

[[nodiscard]] inline Guard kind_in(std::string a, std::string b) {
  return [key = SymbolTable::global().intern("kind"), a = std::move(a),
          b = std::move(b)](const Event&, const Session& s) {
    std::string_view kind = s.vars.get(key);
    return kind == a || kind == b;
  };
}

[[nodiscard]] inline Guard origin_native() {
  return [](const Event&, const Session& s) {
    return s.origin == Session::Origin::kNative;
  };
}

[[nodiscard]] inline Guard origin_foreign() {
  return [](const Event&, const Session& s) {
    return s.origin == Session::Origin::kPeer ||
           s.origin == Session::Origin::kLocal;
  };
}

[[nodiscard]] inline Guard origin_local() {
  return [](const Event&, const Session& s) {
    return s.origin == Session::Origin::kLocal;
  };
}

[[nodiscard]] inline Guard has_var(std::string_view key) {
  return [key = SymbolTable::global().intern(key)](const Event&,
                                                   const Session& s) {
    return s.vars.has(key);
  };
}

[[nodiscard]] inline Guard lacks_var(std::string_view key) {
  return [key = SymbolTable::global().intern(key)](const Event&,
                                                   const Session& s) {
    return !s.vars.has(key);
  };
}

[[nodiscard]] inline Guard all_of(Guard a, Guard b) {
  return [a = std::move(a), b = std::move(b)](const Event& e,
                                              const Session& s) {
    return a(e, s) && b(e, s);
  };
}

[[nodiscard]] inline Guard negate(Guard g) {
  return [g = std::move(g)](const Event& e, const Session& s) {
    return !g(e, s);
  };
}

/// Rewrites a response stream into an advertisement stream (probe mode):
/// SERVICE_RESPONSE becomes SERVICE_ALIVE so peers treat it as an
/// advertisement to re-announce. Runs only where the session collected a
/// native response (a shared stream is never mutated).
[[nodiscard]] Action response_to_advert();

/// True when a canonical service type names an actual service category —
/// wildcards ("*", from upnp:rootdevice / ssdp:all) and device UUIDs do not.
/// A UPnP alive burst repeats the same LOCATION under several NTs; only the
/// device/service-type ones are worth translating.
[[nodiscard]] bool meaningful_advert_type(std::string_view canonical);

struct StandardFsmOptions {
  /// Emit the generic collect_native -> done (reply_to_origin) transition.
  /// The UPnP unit turns this off and supplies its description-chasing
  /// transitions instead.
  bool direct_native_reply = true;
};

/// Installs the shared skeleton into `fsm`.
void build_standard_fsm(StateMachine& fsm, StandardFsmOptions options = {});

}  // namespace indiss::core
