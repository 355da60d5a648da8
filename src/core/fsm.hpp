// The unit coordination engine: a deterministic finite automaton over event
// types with condition guards and action lists (paper §2.3).
//
//   A SDP state machine is defined as (Q, ∑, C, T, q0, F) where T: Q x ∑ x C
//   -> Q; transitions are labelled with events, conditions and actions.
//
// The declarative add_tuple() mirrors the paper's specification operator:
//   AddTuple(CurrentState, trigger, condition-guard, NewState, actions)
//
// Conditions and actions are data. A Guard is a conjunction with one
// condition per dimension of what a condition may read: the session's Kind,
// its Origin, which of its Fields are recorded, and whether the trigger
// event carries the bridge stamp. An Action is an opcode from the closed set
// of operations a unit's interface provides (INDISS_FSM_ACTIONS), with at
// most one operand; Unit runs them through one switch.
//
// T is compiled as it is specified. add_tuple() numbers each state name the
// first time it sees it (a StateId, which is what a Session carries), and
// files the transition under its (state, trigger) cell of a dense table. A
// step looks up one cell and evaluates only that cell's guards: the state
// names are never compared at run time.
//
// Determinism is checked when the machine is built: two guards overlap
// exactly when every dimension admits a common value, and add_tuple throws
// std::logic_error when a new guard overlaps an earlier one of its cell. A
// step then takes the first enabled guard.
#pragma once

#include <cstdint>
#include <set>
#include <string>
#include <string_view>
#include <vector>

#include "core/event.hpp"
#include "core/session.hpp"

namespace indiss::core {

class Unit;

// kRepoQuery is the last Kind.
inline constexpr std::uint32_t kAnyKind = bits(Kind::kRepoQuery) * 2 - 1;
inline constexpr std::uint32_t kAnyOrigin =
    bits(Session::Origin::kNative, Session::Origin::kPeer,
         Session::Origin::kLocal);

/// Whether the trigger event must carry the "INDISS-bridge" stamp in its
/// "server" data: the head event of a message another INDISS node composed.
enum class Stamp : std::uint8_t { kEither, kStamped, kUnstamped };

/// Boolean expression over the trigger event and the recorded state: a
/// conjunction of one condition per dimension. The default admits all.
struct Guard {
  std::uint32_t kinds = kAnyKind;      // bits(Kind) of the admitted kinds
  std::uint32_t origins = kAnyOrigin;  // bits(Session::Origin) admitted
  std::uint32_t present = 0;           // bits(Field) that must be recorded
  std::uint32_t absent = 0;            // bits(Field) that must not be
  Stamp stamp = Stamp::kEither;

  [[nodiscard]] bool admits(const Event& event, const Session& session) const;
  /// Whether some event and session are admitted by both guards.
  [[nodiscard]] bool overlaps(const Guard& other) const;
};

/// The operations a transition can perform (paper: "actions are a sequence
/// of operations provided by the unit's interface"), each with its name.
#define INDISS_FSM_ACTIONS(X)                                            \
  X(kSetKind, "set_kind")                                                \
  X(kRecord, "record")                                                   \
  X(kRecordSource, "record_source")                                      \
  X(kRecordMulticast, "record_multicast")                                \
  X(kDispatchToPeers, "dispatch_to_peers")                               \
  X(kReplyToOrigin, "reply_to_origin")                                   \
  X(kBeginNativeRequest, "begin_native_request")                         \
  X(kSendNativeReply, "send_native_reply")                               \
  X(kFollowUp, "follow_up")                                              \
  X(kParserSwitch, "parser_switch")                                      \
  X(kDeliverAdvertisement, "deliver_advertisement")                      \
  X(kResponseToAdvert, "response_to_advert")                             \
  X(kFinalizeReply, "finalize_reply")           /* UPnP */               \
  X(kForgetDescriptions, "forget_descriptions") /* UPnP */               \
  X(kNoteRegistrar, "note_registrar")           /* Jini */               \
  X(kComplete, "complete")

enum class ActionOp : std::uint8_t {
#define INDISS_FSM_ACTION_ENUM(op, name) op,
  INDISS_FSM_ACTIONS(INDISS_FSM_ACTION_ENUM)
#undef INDISS_FSM_ACTION_ENUM
};

[[nodiscard]] constexpr std::string_view action_name(ActionOp op) {
  constexpr std::string_view kNames[] = {
#define INDISS_FSM_ACTION_NAME(op, name) name,
      INDISS_FSM_ACTIONS(INDISS_FSM_ACTION_NAME)
#undef INDISS_FSM_ACTION_NAME
  };
  return kNames[static_cast<std::size_t>(op)];
}

/// An opcode and its operand: the Kind of kSetKind, the Field of kRecord.
struct Action {
  // NOLINTNEXTLINE(google-explicit-constructor): a bare opcode is an Action
  constexpr Action(ActionOp op, Kind kind = Kind::kNone,
                   Field field = Field::kServiceType)
      : op(op), kind(kind), field(field) {}
  ActionOp op;
  Kind kind;
  Field field;
};
[[nodiscard]] constexpr Action set_kind(Kind kind) {
  return {ActionOp::kSetKind, kind};
}
[[nodiscard]] constexpr Action record(Field field) {
  return {ActionOp::kRecord, Kind::kNone, field};
}

struct Transition {
  StateId from;
  EventType trigger;
  Guard guard;
  StateId to;
  std::vector<Action> actions;
  /// The next transition of the same (from, trigger) cell, in add order.
  std::uint32_t next_in_cell;
};

class StateMachine {
 public:
  StateMachine() { set_start("idle"); }

  void set_start(std::string_view state) { start_ = state_id(state); }
  [[nodiscard]] StateId start() const { return start_; }

  void add_accepting(std::string_view state);
  [[nodiscard]] bool is_accepting(std::string_view state) const;

  /// The paper's AddTuple operator. Throws std::logic_error when `guard`
  /// overlaps the guard of an earlier transition of the same (from,
  /// trigger) cell.
  void add_tuple(std::string_view from, EventType trigger, Guard guard,
                 std::string_view to, std::vector<Action> actions);

  /// The transition of the (state, event.type) cell whose guard is enabled;
  /// nullptr when none is (or the cell is empty).
  [[nodiscard]] const Transition* match(StateId state, const Event& event,
                                        const Session& session) const;

  /// The number of state `name`, given on first sight.
  StateId state_id(std::string_view name);
  /// The number of state `name`, or kNoState when the machine never named it.
  [[nodiscard]] StateId find_state(std::string_view name) const;
  /// The name of state `id`; empty for kNoState and unknown ids.
  [[nodiscard]] std::string_view state_name(StateId id) const;

  [[nodiscard]] std::size_t transition_count() const {
    return transitions_.size();
  }
  /// The start state plus every state a transition leaves or enters.
  [[nodiscard]] std::set<std::string> states() const;

 private:
  static constexpr std::uint32_t kNoTransition = 0xFFFFFFFF;

  [[nodiscard]] static std::size_t cell(StateId state, EventType trigger) {
    return static_cast<std::size_t>(state) * kEventTypeCount +
           static_cast<std::size_t>(trigger);
  }

  StateId start_ = kNoState;
  std::vector<std::string> names_;  // indexed by StateId
  std::vector<bool> accepting_;     // indexed by StateId
  std::vector<Transition> transitions_;
  /// T as a table: cells_[cell(state, trigger)] is the index of the cell's
  /// first transition in transitions_, or kNoTransition.
  std::vector<std::uint32_t> cells_;
};

/// Runs one event through the machine for `session`, executing the matched
/// transition's actions against `unit`. A session in kNoState starts at the
/// machine's start state. Returns true when a transition fired.
bool fsm_step(const StateMachine& machine, Unit& unit, Session& session,
              const Event& event);

}  // namespace indiss::core
