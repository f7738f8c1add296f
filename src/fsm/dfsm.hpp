// Deterministic finite state machine (paper Definition 1).
//
// A Dfsm is the quadruple (X, Sigma, delta, x0):
//  * X       — states 0..size()-1, all reachable from the initial state
//              (the paper's model assumes reachability; the builder enforces
//              it unless explicitly relaxed);
//  * Sigma   — the *subscribed* subset of a shared Alphabet; applying an
//              event outside Sigma leaves the state unchanged ("if a received
//              event does not belong to the event set of a server DFSM, the
//              event is ignored", §2);
//  * delta   — total transition function over subscribed events, stored as a
//              dense size() x |Sigma| row-major table;
//  * x0      — initial state.
//
// Dfsm is an immutable value type; use DfsmBuilder to construct one.
#pragma once

#include <cstdint>
#include <memory>
#include <optional>
#include <span>
#include <string>
#include <string_view>
#include <vector>

#include "fsm/alphabet.hpp"

namespace ffsm {

using State = std::uint32_t;

inline constexpr State kInvalidState = static_cast<State>(-1);

/// local_event_positions() entry for an event the machine ignores.
inline constexpr std::uint32_t kIgnoredEvent = static_cast<std::uint32_t>(-1);

class DfsmBuilder;

class Dfsm {
 public:
  Dfsm() = default;

  [[nodiscard]] const std::string& name() const noexcept { return name_; }
  [[nodiscard]] const std::shared_ptr<const Alphabet>& alphabet()
      const noexcept {
    return alphabet_;
  }

  /// Number of states |A|.
  [[nodiscard]] std::uint32_t size() const noexcept { return num_states_; }

  [[nodiscard]] State initial() const noexcept { return initial_; }

  /// Subscribed events, ascending.
  [[nodiscard]] std::span<const EventId> events() const noexcept {
    return events_;
  }

  [[nodiscard]] bool subscribes(EventId e) const noexcept {
    return event_index(e).has_value();
  }

  /// Position of `e` in events(), if subscribed.
  [[nodiscard]] std::optional<std::uint32_t> event_index(
      EventId e) const noexcept;

  /// delta(s, e); returns s unchanged when e is not subscribed.
  [[nodiscard]] State step(State s, EventId e) const;

  /// delta(s, events()[local]); no subscription lookup.
  [[nodiscard]] State step_local(State s, std::uint32_t local) const {
    return delta_[static_cast<std::size_t>(s) * events_.size() + local];
  }

  /// Applies a sequence of events starting from `s`.
  [[nodiscard]] State run(State s, std::span<const EventId> sequence) const;

  /// Applies a sequence starting from the initial state.
  [[nodiscard]] State run(std::span<const EventId> sequence) const {
    return run(initial_, sequence);
  }

  [[nodiscard]] const std::string& state_name(State s) const;

  /// Index of the state with the given name, if any.
  [[nodiscard]] std::optional<State> find_state(std::string_view name) const;

  /// Structural equality: same sizes, initial, subscribed events and
  /// transition table (state and machine names are ignored).
  [[nodiscard]] bool same_structure(const Dfsm& other) const noexcept;

 private:
  friend class DfsmBuilder;

  std::string name_;
  std::shared_ptr<const Alphabet> alphabet_;
  std::vector<EventId> events_;       // sorted ascending
  std::vector<State> delta_;          // num_states_ x events_.size()
  std::vector<std::string> state_names_;
  State initial_ = 0;
  std::uint32_t num_states_ = 0;
};

/// result[p] = position of events[p] in machine.events(), or kIgnoredEvent
/// when the machine does not subscribe to it. Resolves subscriptions once,
/// so a loop over a shared event list (a cross product's union, a fused
/// system's routing table) steps each machine by step_local.
[[nodiscard]] std::vector<std::uint32_t> local_event_positions(
    const Dfsm& machine, std::span<const EventId> events);

/// Incrementally assembles a Dfsm; `build()` validates totality, determinism
/// and reachability.
class DfsmBuilder {
 public:
  DfsmBuilder(std::string name, std::shared_ptr<Alphabet> alphabet);

  /// Adds (or finds) a state by name. The first state added is the initial
  /// state unless set_initial() is called.
  State state(std::string_view name);

  /// Adds `count` states named "<prefix>0".."<prefix>count-1".
  void states(std::uint32_t count, std::string_view prefix = "q");

  /// Declares a subscribed event (interned into the shared alphabet).
  EventId event(std::string_view name);

  void set_initial(std::string_view state_name);
  void set_initial(State s);

  /// delta(from, event) = to. Each (state, event) pair may be set once.
  void transition(State from, EventId on, State to);
  void transition(std::string_view from, std::string_view on,
                  std::string_view to);

  /// Fills every unset (state, subscribed-event) pair with a self-loop.
  /// Mirrors protocol diagrams where irrelevant events leave the state
  /// unchanged (used by the TCP and MESI catalog machines).
  void fill_self_loops();

  /// Validates and produces the machine.
  ///
  /// Throws ContractViolation when a (state, event) transition is missing,
  /// or when a state is unreachable and `allow_unreachable` is false.
  [[nodiscard]] Dfsm build(bool allow_unreachable = false);

 private:
  std::string name_;
  std::shared_ptr<Alphabet> alphabet_;
  std::vector<EventId> events_;  // insertion order until build()
  std::vector<std::string> state_names_;
  std::unordered_map<std::string, State> state_index_;
  // (state, event) -> target; kInvalidState = unset.
  std::vector<std::vector<State>> delta_by_event_;  // [event pos][state]
  State initial_ = 0;
  bool initial_set_ = false;
};

}  // namespace ffsm
