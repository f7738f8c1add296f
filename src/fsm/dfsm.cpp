#include "fsm/dfsm.hpp"

#include <algorithm>
#include <numeric>

#include "util/contracts.hpp"

namespace ffsm {

std::optional<std::uint32_t> Dfsm::event_index(EventId e) const noexcept {
  const auto it = std::lower_bound(events_.begin(), events_.end(), e);
  if (it == events_.end() || *it != e) return std::nullopt;
  return static_cast<std::uint32_t>(it - events_.begin());
}

State Dfsm::step(State s, EventId e) const {
  FFSM_EXPECTS(s < num_states_);
  const auto local = event_index(e);
  if (!local) return s;  // ignored event (paper section 2)
  return step_local(s, *local);
}

State Dfsm::run(State s, std::span<const EventId> sequence) const {
  for (const EventId e : sequence) s = step(s, e);
  return s;
}

std::vector<std::uint32_t> local_event_positions(
    const Dfsm& machine, std::span<const EventId> events) {
  std::vector<std::uint32_t> positions(events.size(), kIgnoredEvent);
  for (std::size_t p = 0; p < events.size(); ++p)
    if (const auto local = machine.event_index(events[p]))
      positions[p] = *local;
  return positions;
}

const std::string& Dfsm::state_name(State s) const {
  FFSM_EXPECTS(s < num_states_);
  return state_names_[s];
}

std::optional<State> Dfsm::find_state(std::string_view name) const {
  for (State s = 0; s < num_states_; ++s)
    if (state_names_[s] == name) return s;
  return std::nullopt;
}

bool Dfsm::same_structure(const Dfsm& other) const noexcept {
  return num_states_ == other.num_states_ && initial_ == other.initial_ &&
         events_ == other.events_ && delta_ == other.delta_;
}

DfsmBuilder::DfsmBuilder(std::string name, std::shared_ptr<Alphabet> alphabet)
    : name_(std::move(name)), alphabet_(std::move(alphabet)) {
  FFSM_EXPECTS(alphabet_ != nullptr);
}

State DfsmBuilder::state(std::string_view name) {
  FFSM_EXPECTS(!name.empty());
  if (const auto it = state_index_.find(std::string(name));
      it != state_index_.end())
    return it->second;
  const auto s = static_cast<State>(state_names_.size());
  state_names_.emplace_back(name);
  state_index_.emplace(state_names_.back(), s);
  for (auto& row : delta_by_event_) row.push_back(kInvalidState);
  return s;
}

void DfsmBuilder::states(std::uint32_t count, std::string_view prefix) {
  for (std::uint32_t i = 0; i < count; ++i)
    state(std::string(prefix) + std::to_string(i));
}

EventId DfsmBuilder::event(std::string_view name) {
  const EventId id = alphabet_->intern(name);
  if (std::find(events_.begin(), events_.end(), id) == events_.end()) {
    events_.push_back(id);
    delta_by_event_.emplace_back(state_names_.size(), kInvalidState);
  }
  return id;
}

void DfsmBuilder::set_initial(std::string_view state_name) {
  set_initial(state(state_name));
}

void DfsmBuilder::set_initial(State s) {
  FFSM_EXPECTS(s < state_names_.size());
  initial_ = s;
  initial_set_ = true;
}

void DfsmBuilder::transition(State from, EventId on, State to) {
  FFSM_EXPECTS(from < state_names_.size());
  FFSM_EXPECTS(to < state_names_.size());
  const auto it = std::find(events_.begin(), events_.end(), on);
  FFSM_EXPECTS(it != events_.end());
  auto& slot =
      delta_by_event_[static_cast<std::size_t>(it - events_.begin())][from];
  FFSM_EXPECTS(slot == kInvalidState);  // determinism: one target per pair
  slot = to;
}

void DfsmBuilder::transition(std::string_view from, std::string_view on,
                             std::string_view to) {
  const State f = state(from);
  const State t = state(to);
  transition(f, event(on), t);
}

void DfsmBuilder::fill_self_loops() {
  for (std::size_t e = 0; e < events_.size(); ++e)
    for (State s = 0; s < state_names_.size(); ++s)
      if (delta_by_event_[e][s] == kInvalidState) delta_by_event_[e][s] = s;
}

Dfsm DfsmBuilder::build(bool allow_unreachable) {
  FFSM_EXPECTS(!state_names_.empty());

  // Totality: every (state, subscribed event) pair must have a target.
  for (std::size_t e = 0; e < events_.size(); ++e)
    for (State s = 0; s < state_names_.size(); ++s)
      if (delta_by_event_[e][s] == kInvalidState)
        throw ContractViolation(
            "DfsmBuilder(" + name_ + "): missing transition from state '" +
            state_names_[s] + "' on event '" + alphabet_->name(events_[e]) +
            "'");

  // Sort events ascending and permute the per-event rows to match.
  std::vector<std::size_t> order(events_.size());
  std::iota(order.begin(), order.end(), 0);
  std::sort(order.begin(), order.end(),
            [this](std::size_t a, std::size_t b) {
              return events_[a] < events_[b];
            });

  Dfsm machine;
  machine.name_ = name_;
  machine.alphabet_ = alphabet_;
  machine.num_states_ = static_cast<std::uint32_t>(state_names_.size());
  machine.initial_ = initial_set_ ? initial_ : 0;
  machine.state_names_ = state_names_;
  machine.events_.reserve(events_.size());
  for (const std::size_t e : order) machine.events_.push_back(events_[e]);

  machine.delta_.resize(state_names_.size() * events_.size());
  for (std::size_t pos = 0; pos < order.size(); ++pos)
    for (State s = 0; s < machine.num_states_; ++s)
      machine.delta_[static_cast<std::size_t>(s) * events_.size() + pos] =
          delta_by_event_[order[pos]][s];

  if (!allow_unreachable) {
    // BFS from the initial state; the paper's model assumes every state is
    // reachable (section 2).
    std::vector<bool> seen(machine.num_states_, false);
    std::vector<State> queue{machine.initial_};
    seen[machine.initial_] = true;
    for (std::size_t head = 0; head < queue.size(); ++head) {
      const State s = queue[head];
      for (std::uint32_t e = 0; e < machine.events_.size(); ++e) {
        const State t = machine.step_local(s, e);
        if (!seen[t]) {
          seen[t] = true;
          queue.push_back(t);
        }
      }
    }
    for (State s = 0; s < machine.num_states_; ++s)
      if (!seen[s])
        throw ContractViolation("DfsmBuilder(" + name_ + "): state '" +
                                state_names_[s] +
                                "' is unreachable from the initial state");
  }

  return machine;
}

}  // namespace ffsm
