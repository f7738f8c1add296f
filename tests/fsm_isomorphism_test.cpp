#include "fsm/isomorphism.hpp"

#include <gtest/gtest.h>

#include "fsm/machine_catalog.hpp"
#include "fsm/random_dfsm.hpp"

namespace ffsm {
namespace {

TEST(Isomorphism, MachineIsIsomorphicToItself) {
  auto al = Alphabet::create();
  const Dfsm m = make_tcp(al);
  EXPECT_TRUE(isomorphic(m, m));
}

TEST(Isomorphism, DetectsRelabelledStates) {
  auto al = Alphabet::create();
  // Same structure, states declared in a different order.
  DfsmBuilder b1("x", al);
  b1.state("p");
  b1.state("q");
  const EventId e = b1.event("e");
  b1.transition(0, e, 1);
  b1.transition(1, e, 0);
  const Dfsm m1 = b1.build();

  DfsmBuilder b2("y", al);
  b2.state("first");
  b2.state("second");
  b2.event("e");
  b2.transition(0, e, 1);
  b2.transition(1, e, 0);
  const Dfsm m2 = b2.build();
  EXPECT_TRUE(isomorphic(m1, m2));
}

TEST(Isomorphism, DifferentSizesAreNot) {
  auto al = Alphabet::create();
  EXPECT_FALSE(isomorphic(make_mod_counter(al, "c3", 3, "e"),
                          make_mod_counter(al, "c4", 4, "e")));
}

TEST(Isomorphism, DifferentEventSetsAreNot) {
  auto al = Alphabet::create();
  EXPECT_FALSE(isomorphic(make_mod_counter(al, "c", 3, "x"),
                          make_mod_counter(al, "d", 3, "y")));
}

TEST(Isomorphism, DifferentStructureSameSizeAreNot) {
  auto al = Alphabet::create();
  // Mod-3 counter vs 3-state machine that absorbs.
  const Dfsm counter = make_mod_counter(al, "c", 3, "e");
  DfsmBuilder b("absorb", al);
  b.states(3, "s");
  const EventId e = b.event("e");
  b.transition(0, e, 1);
  b.transition(1, e, 2);
  b.transition(2, e, 2);
  EXPECT_FALSE(isomorphic(counter, b.build()));
}

TEST(Isomorphism, InitialStateMatters) {
  auto al = Alphabet::create();
  // Flip-flop starting at 0 vs starting at 1: canonical forms coincide
  // because the structure is symmetric — they ARE isomorphic as rooted
  // machines (relabelling 0<->1 maps one to the other).
  DfsmBuilder b1("f0", al);
  b1.states(2, "s");
  const EventId e = b1.event("e");
  b1.transition(0, e, 1);
  b1.transition(1, e, 0);
  const Dfsm m1 = b1.build();

  DfsmBuilder b2("f1", al);
  b2.states(2, "s");
  b2.event("e");
  b2.transition(0, e, 1);
  b2.transition(1, e, 0);
  b2.set_initial(1);
  const Dfsm m2 = b2.build();
  EXPECT_TRUE(isomorphic(m1, m2));

  // Asymmetric machine: initial state changes the rooted behaviour.
  DfsmBuilder b3("g0", al);
  b3.states(2, "s");
  b3.event("e");
  b3.transition(0, e, 1);
  b3.transition(1, e, 1);
  const Dfsm m3 = b3.build();

  DfsmBuilder b4("g1", al);
  b4.states(2, "s");
  b4.event("e");
  b4.transition(0, e, 1);
  b4.transition(1, e, 1);
  b4.set_initial(1);
  // From state 1 only state 1 is reachable; builder would reject state 0 —
  // so compare against the 1-state absorber instead.
  DfsmBuilder b5("h", al);
  b5.state("only");
  b5.event("e");
  b5.transition(0, e, 0);
  EXPECT_FALSE(isomorphic(m3, b5.build()));
}

TEST(Isomorphism, CanonicalNumberingIsBfsOrder) {
  auto al = Alphabet::create();
  const Dfsm top = make_paper_top(al);
  const auto canon = canonical_numbering(top);
  // BFS from t0 over events (0 then 1): t0, t1, t3, t2.
  EXPECT_EQ(canon[0], 0u);
  EXPECT_EQ(canon[1], 1u);
  EXPECT_EQ(canon[3], 2u);
  EXPECT_EQ(canon[2], 3u);
}

TEST(Isomorphism, RandomMachineRelabelInvariance) {
  // A random machine is isomorphic to itself rebuilt with permuted state
  // declaration order.
  auto al = Alphabet::create();
  RandomDfsmSpec spec;
  spec.states = 8;
  spec.num_events = 2;
  spec.seed = 77;
  const Dfsm m = make_random_connected_dfsm(al, "r", spec);

  // Rebuild with states declared in reverse while preserving transitions.
  DfsmBuilder b("rev", al);
  std::vector<State> remap(m.size());
  for (State s = 0; s < m.size(); ++s)
    remap[m.size() - 1 - s] =
        b.state(std::string("p").append(std::to_string(s)));
  for (const EventId e : m.events()) b.event(al->name(e));
  for (State s = 0; s < m.size(); ++s)
    for (std::uint32_t pos = 0;
         pos < static_cast<std::uint32_t>(m.events().size()); ++pos)
      b.transition(remap[m.size() - 1 - s], m.events()[pos],
                   remap[m.size() - 1 - m.step_local(s, pos)]);
  b.set_initial(remap[m.size() - 1 - m.initial()]);
  EXPECT_TRUE(isomorphic(m, b.build()));
}

}  // namespace
}  // namespace ffsm
