// A Session is one coordination process run by a unit's FSM: the translation
// of a single discovery transaction (or advertisement). It holds the DFA's
// current state (the StateId its machine numbered at build time) and the
// recorded state that later actions (reply composition) draw on — "events
// data from previous states are recorded using state variables" (paper
// §2.3): typed fields, the Kind that kSetKind actions set and the Fields
// kRecord actions copy from events, with a bit per recorded Field.
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

#include "core/event.hpp"
#include "core/types.hpp"
#include "net/address.hpp"
#include "transport/time.hpp"

namespace indiss::core {

class SdpParser;

/// A state's number within its StateMachine (core/fsm.hpp).
using StateId = std::uint16_t;
/// No state yet: fsm_step starts such a session at its machine's start.
inline constexpr StateId kNoState = 0xFFFF;

/// A unit's open translated queries: key (Unit::query_key) -> session id.
using OpenQueries = std::multimap<std::string, std::uint64_t, std::less<>>;

/// What the session's message is, as the FSM classified it. A bridge echo
/// is stamped by another INDISS node and is not translated again; the
/// repository kinds are a Jini registrar's announcement and query.
enum class Kind : std::uint8_t {
  kNone, kRequest, kResponse, kAlive, kByeBye, kRegister, kBridgeEcho,
  kRepoAnnounce, kRepoQuery
};

/// The session fields a kRecord action copies from its event's data (the
/// keys are listed where Unit records them).
enum class Field : std::uint8_t {
  kServiceType, kUrl, kUrlScheme, kDescUrl, kSt, kPredicate, kQname, kTtl,
  kQueryId
};

/// One bit per enumerator: the masks of guards and of Session::recorded.
template <typename... E>
[[nodiscard]] constexpr std::uint32_t bits(E... e) {
  return (std::uint32_t{0} | ... | (std::uint32_t{1} << static_cast<int>(e)));
}

struct Session {
  enum class Origin : std::uint8_t {
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

  // --- Recorded state ------------------------------------------------------
  Kind kind = Kind::kNone;
  std::string service_type;
  std::string url;
  std::string url_scheme;
  std::string desc_url;
  std::string st;
  std::string predicate;
  std::string qname;
  std::int64_t ttl_seconds = 0;
  /// The SLP XID or the mDNS id of the native query, echoed by its reply.
  std::uint16_t query_id = 0;
  /// The directory answered the native query (docs/directory.md).
  bool directory_answer = false;
  /// bits(Field) of every field a kRecord action wrote.
  std::uint32_t recorded = 0;

  [[nodiscard]] bool has(Field field) const {
    return (recorded & bits(field)) != 0;
  }
  /// The recorded service type, or `fallback` when none was recorded.
  [[nodiscard]] std::string_view service_type_or(
      std::string_view fallback) const {
    return has(Field::kServiceType) ? std::string_view(service_type)
                                    : fallback;
  }

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

  /// The parser currently active for this session (parser switch); one of
  /// the unit's registered parsers.
  SdpParser* parser = nullptr;

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

  /// Returns every field to its default. Strings and the collected stream
  /// keep their capacity, so a reused session node does not re-allocate:
  /// a default session takes over the buffers, cleared, and replaces this.
  void reset() {
    Session fresh;
    fresh.collected = std::move(collected);
    fresh.collected.clear();
    for (std::string Session::*text :
         {&Session::service_type, &Session::url, &Session::url_scheme,
          &Session::desc_url, &Session::st, &Session::predicate,
          &Session::qname}) {
      fresh.*text = std::move(this->*text);
      (fresh.*text).clear();
    }
    *this = std::move(fresh);
  }
};

}  // namespace indiss::core
