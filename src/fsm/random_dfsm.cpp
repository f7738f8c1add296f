#include "fsm/random_dfsm.hpp"

#include <vector>

#include "util/contracts.hpp"
#include "util/rng.hpp"

namespace ffsm {

Dfsm make_random_connected_dfsm(const std::shared_ptr<Alphabet>& alphabet,
                                std::string name, const RandomDfsmSpec& spec) {
  FFSM_EXPECTS(spec.states >= 1);
  FFSM_EXPECTS(spec.num_events >= 1);

  Xoshiro256 rng(spec.seed);
  const std::uint32_t n = spec.states;
  const std::uint32_t k = spec.num_events;

  // delta[s][e], kInvalidState = unassigned.
  std::vector<std::vector<State>> delta(
      n, std::vector<State>(k, kInvalidState));

  // Spanning tree: state s (s >= 1) is entered from some earlier state via a
  // fresh (parent, event) slot, guaranteeing reachability from state 0.
  for (State s = 1; s < n; ++s) {
    bool placed = false;
    for (int attempt = 0; attempt < 32 && !placed; ++attempt) {
      const auto p = static_cast<State>(rng.below(s));
      const auto e = static_cast<std::uint32_t>(rng.below(k));
      if (delta[p][e] == kInvalidState) {
        delta[p][e] = s;
        placed = true;
      }
    }
    // A free slot always exists (s states expose s*k slots and only s-1 tree
    // edges precede this one); fall back to the first free slot when random
    // probing keeps hitting assigned ones.
    for (State q = 0; q < s && !placed; ++q)
      for (std::uint32_t f = 0; f < k && !placed; ++f)
        if (delta[q][f] == kInvalidState) {
          delta[q][f] = s;
          placed = true;
        }
    FFSM_ASSERT(placed);
  }

  // Fill the remaining slots uniformly.
  for (State s = 0; s < n; ++s)
    for (std::uint32_t e = 0; e < k; ++e)
      if (delta[s][e] == kInvalidState)
        delta[s][e] = static_cast<State>(rng.below(n));

  DfsmBuilder builder(std::move(name), alphabet);
  builder.states(n, "q");
  std::vector<EventId> events;
  events.reserve(k);
  for (std::uint32_t e = 0; e < k; ++e)
    events.push_back(builder.event(std::string("e").append(std::to_string(e))));
  for (State s = 0; s < n; ++s)
    for (std::uint32_t e = 0; e < k; ++e)
      builder.transition(s, events[e], delta[s][e]);
  return builder.build();
}

}  // namespace ffsm
