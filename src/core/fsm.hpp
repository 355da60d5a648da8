// The unit coordination engine: a deterministic finite automaton over event
// types with condition guards and action lists (paper §2.3).
//
//   A SDP state machine is defined as (Q, ∑, C, T, q0, F) where T: Q x ∑ x C
//   -> Q; transitions are labelled with events, conditions and actions.
//
// The declarative add_tuple() mirrors the paper's specification operator:
//   AddTuple(CurrentState, trigger, condition-guard, NewState, actions)
//
// T is compiled as it is specified. add_tuple() numbers each state name the
// first time it sees it (a StateId, which is what a Session carries), and
// files the transition under its (state, trigger) cell of a dense table. A
// step looks up one cell and evaluates only that cell's guards: the state
// names are never compared at run time.
//
// Determinism is enforced at run time, within the cell: if more than one of
// its transitions is enabled for (state, event, guards), step() throws — a
// mis-specified DFA is a programming error we want tests to catch, not
// silently resolve.
#pragma once

#include <cstdint>
#include <functional>
#include <set>
#include <string>
#include <string_view>
#include <vector>

#include "core/event.hpp"
#include "core/session.hpp"

namespace indiss::core {

class Unit;

/// Boolean expression over the incoming event and recorded state variables.
using Guard = std::function<bool(const Event&, const Session&)>;

/// Operation a unit performs when a transition fires: dispatch events,
/// record data, reconfigure components (paper: "actions are a sequence of
/// operations").
using Action = std::function<void(Unit&, const Event&, Session&)>;

/// Always-true guard for unconditional transitions.
[[nodiscard]] Guard any();

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

  /// The paper's AddTuple operator.
  void add_tuple(std::string_view from, EventType trigger, Guard guard,
                 std::string_view to, std::vector<Action> actions);

  /// The unique transition of the (state, event.type) cell whose guard is
  /// enabled; nullptr when none is (or the cell is empty). Throws
  /// std::logic_error when two of the cell's guards are enabled at once.
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
