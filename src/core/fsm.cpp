#include "core/fsm.hpp"

#include <stdexcept>

#include "core/unit.hpp"

namespace indiss::core {

namespace {
const Symbol kServer = SymbolTable::global().intern("server");
}  // namespace

bool Guard::admits(const Event& event, const Session& session) const {
  return (kinds & bits(session.kind)) != 0 &&
         (origins & bits(session.origin)) != 0 &&
         (session.recorded & present) == present &&
         (session.recorded & absent) == 0 &&
         (stamp == Stamp::kEither ||
          (event.data.get(kServer).find("INDISS-bridge") !=
           std::string_view::npos) == (stamp == Stamp::kStamped));
}

bool Guard::overlaps(const Guard& other) const {
  return (kinds & other.kinds) != 0 && (origins & other.origins) != 0 &&
         ((present | other.present) & (absent | other.absent)) == 0 &&
         (stamp == Stamp::kEither || other.stamp == Stamp::kEither ||
          stamp == other.stamp);
}

StateId StateMachine::state_id(std::string_view name) {
  StateId known = find_state(name);
  if (known != kNoState) return known;
  names_.emplace_back(name);
  accepting_.push_back(false);
  cells_.resize(names_.size() * kEventTypeCount, kNoTransition);
  return static_cast<StateId>(names_.size() - 1);
}

StateId StateMachine::find_state(std::string_view name) const {
  for (std::size_t i = 0; i < names_.size(); ++i) {
    if (names_[i] == name) return static_cast<StateId>(i);
  }
  return kNoState;
}

std::string_view StateMachine::state_name(StateId id) const {
  return id < names_.size() ? std::string_view(names_[id])
                            : std::string_view();
}

void StateMachine::add_accepting(std::string_view state) {
  accepting_[state_id(state)] = true;
}

bool StateMachine::is_accepting(std::string_view state) const {
  StateId id = find_state(state);
  return id != kNoState && accepting_[id];
}

void StateMachine::add_tuple(std::string_view from, EventType trigger,
                             Guard guard, std::string_view to,
                             std::vector<Action> actions) {
  StateId from_id = state_id(from);
  StateId to_id = state_id(to);
  // Append to the cell's chain after checking it against every guard there.
  std::uint32_t* link = &cells_[cell(from_id, trigger)];
  while (*link != kNoTransition) {
    if (transitions_[*link].guard.overlaps(guard)) {
      throw std::logic_error(
          "nondeterministic state machine: state '" + std::string(from) +
          "' has two transitions on " + std::string(event_name(trigger)) +
          " that can be enabled at once");
    }
    link = &transitions_[*link].next_in_cell;
  }
  *link = static_cast<std::uint32_t>(transitions_.size());
  transitions_.push_back(Transition{from_id, trigger, guard, to_id,
                                    std::move(actions), kNoTransition});
}

const Transition* StateMachine::match(StateId state, const Event& event,
                                      const Session& session) const {
  if (state >= names_.size()) return nullptr;
  for (std::uint32_t i = cells_[cell(state, event.type)]; i != kNoTransition;
       i = transitions_[i].next_in_cell) {
    if (transitions_[i].guard.admits(event, session)) return &transitions_[i];
  }
  return nullptr;
}

std::set<std::string> StateMachine::states() const {
  std::set<std::string> out{std::string(state_name(start_))};
  for (const auto& t : transitions_) {
    out.emplace(state_name(t.from));
    out.emplace(state_name(t.to));
  }
  return out;
}

bool fsm_step(const StateMachine& machine, Unit& unit, Session& session,
              const Event& event) {
  if (session.state == kNoState) session.state = machine.start();
  const Transition* transition = machine.match(session.state, event, session);
  if (transition == nullptr) return false;
  session.state = transition->to;
  for (const Action& action : transition->actions) {
    unit.perform(action, event, session);
  }
  return true;
}

}  // namespace indiss::core
