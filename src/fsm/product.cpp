#include "fsm/product.hpp"

#include <algorithm>
#include <unordered_map>

#include "util/contracts.hpp"
#include "util/hash.hpp"

namespace ffsm {

namespace {

struct TupleHash {
  std::size_t operator()(const std::vector<State>& v) const noexcept {
    // FNV-1a over the component states; tuples are short, so this is cheap
    // and collision-free enough for the BFS map.
    return fnv1a(v);
  }
};

}  // namespace

std::vector<std::uint32_t> CrossProduct::component_assignment(
    std::uint32_t i) const {
  FFSM_EXPECTS(i < machine_count());
  std::vector<std::uint32_t> assignment(tuples.size());
  for (std::size_t t = 0; t < tuples.size(); ++t) assignment[t] = tuples[t][i];
  return assignment;
}

std::string CrossProduct::tuple_label(State t,
                                      std::span<const Dfsm> machines) const {
  FFSM_EXPECTS(t < tuples.size());
  FFSM_EXPECTS(machines.size() == machine_count());
  std::string label = "{";
  for (std::size_t i = 0; i < machines.size(); ++i) {
    if (i != 0) label += ',';
    label += machines[i].state_name(tuples[t][i]);
  }
  label += '}';
  return label;
}

CrossProduct reachable_cross_product(std::span<const Dfsm> machines,
                                     std::string top_name) {
  FFSM_EXPECTS(!machines.empty());
  const auto& alphabet = machines.front().alphabet();
  for (const Dfsm& m : machines)
    FFSM_EXPECTS(m.alphabet() == alphabet);  // one shared registry

  // Union of subscribed events, ascending.
  std::vector<EventId> events;
  for (const Dfsm& m : machines)
    events.insert(events.end(), m.events().begin(), m.events().end());
  std::sort(events.begin(), events.end());
  events.erase(std::unique(events.begin(), events.end()), events.end());
  FFSM_EXPECTS(!events.empty());

  // Per machine: map union-event position -> local event position (or
  // kIgnoredEvent), to avoid re-resolving subscriptions inside the BFS.
  std::vector<std::vector<std::uint32_t>> local_index;
  local_index.reserve(machines.size());
  for (const Dfsm& m : machines)
    local_index.push_back(local_event_positions(m, events));

  CrossProduct result;
  std::unordered_map<std::vector<State>, State, TupleHash> ids;

  std::vector<State> initial(machines.size());
  for (std::size_t i = 0; i < machines.size(); ++i)
    initial[i] = machines[i].initial();

  DfsmBuilder builder(std::move(top_name),
                      std::const_pointer_cast<Alphabet>(
                          std::shared_ptr<const Alphabet>(alphabet)));
  for (const EventId e : events) builder.event(alphabet->name(e));

  // Looked up by reference: only a new tuple is copied, into the map and
  // into result.tuples.
  const auto intern_tuple = [&](const std::vector<State>& tuple) -> State {
    if (const auto it = ids.find(tuple); it != ids.end()) return it->second;
    const auto t = static_cast<State>(result.tuples.size());
    ids.emplace(tuple, t);
    result.tuples.push_back(tuple);
    const State built =
        builder.state(std::string("t").append(std::to_string(t)));
    FFSM_ASSERT(built == t);
    return t;
  };

  const State t0 = intern_tuple(initial);
  FFSM_ASSERT(t0 == 0);

  // BFS over reachable tuples; result.tuples doubles as the queue.
  std::vector<State> scratch(machines.size());
  for (State head = 0; head < result.tuples.size(); ++head) {
    for (std::size_t pos = 0; pos < events.size(); ++pos) {
      const std::vector<State>& src = result.tuples[head];
      for (std::size_t i = 0; i < machines.size(); ++i) {
        const std::uint32_t li = local_index[i][pos];
        scratch[i] = li == kIgnoredEvent ? src[i]
                                         : machines[i].step_local(src[i], li);
      }
      const State dst = intern_tuple(scratch);
      builder.transition(head, events[pos], dst);
    }
  }

  result.top = builder.build();
  FFSM_ENSURES(result.top.size() == result.tuples.size());
  return result;
}

}  // namespace ffsm
