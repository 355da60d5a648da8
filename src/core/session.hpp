// A Session is one coordination process run by a unit's FSM: the translation
// of a single discovery transaction (or advertisement). It holds the DFA's
// current state (the StateId its machine numbered at build time) and the
// recorded state variables that later actions (reply composition) draw on —
// "events data from previous states are recorded using state variables"
// (paper §2.3).
//
// The events of the message in progress are read through events(). A native
// parse collects them into `collected`; a stream shared by a peer unit (a
// peer request or advertisement, a translated reply, a directory answer) is
// stepped through in place and kept by reference in `shared`
// (docs/events.md's shared-feeding contract).
#pragma once

#include <cstdint>
#include <functional>
#include <map>
#include <memory>
#include <optional>
#include <string>
#include <string_view>

#include "common/interning.hpp"
#include "core/event.hpp"
#include "core/types.hpp"
#include "net/address.hpp"
#include "transport/time.hpp"

namespace indiss::core {

/// A state's number within its StateMachine (core/fsm.hpp).
using StateId = std::uint16_t;
/// No state yet: fsm_step starts such a session at its machine's start.
inline constexpr StateId kNoState = 0xFFFF;

/// A unit's open translated queries: key (Unit::query_key) -> session id.
using OpenQueries = std::multimap<std::string, std::uint64_t, std::less<>>;

struct Session {
  enum class Origin {
    kNative,  // created by a native message arriving through the monitor
    kPeer,    // created by an event stream dispatched from a peer unit
    kLocal,   // created internally (context manager re-advertisement)
  };

  std::uint64_t id = 0;
  Origin origin = Origin::kNative;
  StateId state = kNoState;  // FSM state

  // Reply routing for kPeer sessions: where the translated response stream
  // must be sent back.
  SdpId origin_sdp = SdpId::kSlp;
  std::uint64_t origin_session = 0;

  /// Recorded state variables (FSM `record` actions write here). A flat
  /// interned-key record: var() lookups allocate nothing.
  SmallRecord vars;

  /// Events of the in-progress native message (between START and STOP).
  EventStream collected;
  /// The peer stream the session was last stepped through, held by
  /// reference; reset when a native message starts collecting.
  SharedStream shared;

  /// The events of the message in progress: the shared stream when the
  /// session was fed one, else the collected native message.
  [[nodiscard]] const EventStream& events() const {
    return shared != nullptr ? *shared : collected;
  }

  /// Name of the parser currently active for this session (parser switch).
  std::string active_parser;

  bool done = false;
  transport::TimePoint created_at{0};

  /// Its entry in the unit's open queries while the translated query it
  /// sent (Unit::send_query) is routed responses; empty otherwise.
  std::optional<OpenQueries::iterator> open_query;

  /// Where the native message came from, recorded from its
  /// SDP_NET_SOURCE_ADDR event (nullopt until then), and whether it crossed
  /// the shared medium: SDP_NET_MULTICAST from another host. The reply path
  /// reads them (Unit::send_reply).
  std::optional<net::Endpoint> source;
  bool from_local_host = false;
  bool multicast = false;

  /// The returned view aliases the session's storage; copy it if it must
  /// outlive the session (or survive a later set_var of the same key).
  [[nodiscard]] std::string_view var(std::string_view key,
                                     std::string_view fallback = "") const {
    return vars.get(key, fallback);
  }
  void set_var(std::string_view key, std::string_view value) {
    vars.set(key, value);
  }
  [[nodiscard]] bool has_var(std::string_view key) const {
    return vars.has(key);
  }
};

}  // namespace indiss::core
