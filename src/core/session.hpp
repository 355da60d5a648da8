// A Session is one coordination process run by a unit's FSM: the translation
// of a single discovery transaction (or advertisement). It holds the DFA's
// current state and the recorded state variables that later actions (reply
// composition) draw on — "events data from previous states are recorded using
// state variables" (paper §2.3).
#pragma once

#include <cstdint>
#include <memory>
#include <string>
#include <string_view>

#include "common/interning.hpp"
#include "core/event.hpp"
#include "core/types.hpp"
#include "net/address.hpp"
#include "transport/time.hpp"

namespace indiss::core {

struct Session {
  enum class Origin {
    kNative,  // created by a native message arriving through the monitor
    kPeer,    // created by an event stream dispatched from a peer unit
    kLocal,   // created internally (context manager re-advertisement)
  };

  std::uint64_t id = 0;
  Origin origin = Origin::kNative;
  std::string state;  // FSM state

  // Reply routing for kPeer sessions: where the translated response stream
  // must be sent back.
  SdpId origin_sdp = SdpId::kSlp;
  std::uint64_t origin_session = 0;

  /// Recorded state variables (FSM `record` actions write here). A flat
  /// interned-key record: var() lookups allocate nothing.
  SmallRecord vars;

  /// Events of the in-progress message (between START and STOP).
  EventStream collected;

  /// Name of the parser currently active for this session (parser switch).
  std::string active_parser;

  bool done = false;
  transport::TimePoint created_at{0};

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
