#include "fsm/machine_catalog.hpp"

#include <algorithm>
#include <array>
#include <bit>
#include <vector>

#include "util/contracts.hpp"

namespace ffsm {

Dfsm make_mod_counter(const std::shared_ptr<Alphabet>& alphabet,
                      std::string name, std::uint32_t modulus,
                      std::string_view event) {
  const std::array<std::pair<std::string_view, std::uint32_t>, 1> inc{
      {{event, 1u}}};
  return make_weighted_mod_counter(alphabet, std::move(name), modulus, inc);
}

Dfsm make_weighted_mod_counter(
    const std::shared_ptr<Alphabet>& alphabet, std::string name,
    std::uint32_t modulus,
    std::span<const std::pair<std::string_view, std::uint32_t>> increments) {
  FFSM_EXPECTS(modulus >= 1);
  FFSM_EXPECTS(!increments.empty());
  DfsmBuilder b(std::move(name), alphabet);
  b.states(modulus, "c");
  for (const auto& [event, inc] : increments) {
    const EventId e = b.event(event);
    for (State s = 0; s < modulus; ++s)
      b.transition(s, e, (s + inc) % modulus);
  }
  return b.build();
}

Dfsm make_parity_checker(const std::shared_ptr<Alphabet>& alphabet,
                         std::string name, std::string_view event) {
  DfsmBuilder b(std::move(name), alphabet);
  b.state("even");
  b.state("odd");
  const EventId e = b.event(event);
  b.transition(0, e, 1);
  b.transition(1, e, 0);
  return b.build();
}

Dfsm make_toggle_switch(const std::shared_ptr<Alphabet>& alphabet,
                        std::string name, std::string_view event) {
  DfsmBuilder b(std::move(name), alphabet);
  b.state("off");
  b.state("on");
  const EventId e = b.event(event);
  b.transition(0, e, 1);
  b.transition(1, e, 0);
  return b.build();
}

Dfsm make_pattern_detector(const std::shared_ptr<Alphabet>& alphabet,
                           std::string name, std::string_view pattern) {
  FFSM_EXPECTS(!pattern.empty());
  for (const char c : pattern) FFSM_EXPECTS(c == '0' || c == '1');

  const auto len = static_cast<std::uint32_t>(pattern.size());
  DfsmBuilder b(std::move(name), alphabet);
  b.states(len + 1, "p");
  const EventId e0 = b.event("0");
  const EventId e1 = b.event("1");

  // KMP automaton: from matched-prefix-length s on symbol c, the next state
  // is the length of the longest pattern prefix that is a suffix of
  // pattern[0..s) + c.
  const auto next_state = [&pattern](std::uint32_t s, char c) -> State {
    while (true) {
      if (s < pattern.size() && pattern[s] == c) return s + 1;
      if (s == 0) return 0;
      // Fall back to the longest proper border of pattern[0..s).
      std::uint32_t border = 0;
      for (std::uint32_t k = s - 1; k >= 1; --k) {
        if (pattern.compare(0, k, pattern, s - k, k) == 0) {
          border = k;
          break;
        }
      }
      s = border;
    }
  };

  for (std::uint32_t s = 0; s <= len; ++s) {
    // The full-match state continues matching from its longest border.
    const std::uint32_t from = s;
    const std::uint32_t base = (s == len) ? [&] {
      for (std::uint32_t k = len - 1; k >= 1; --k)
        if (pattern.compare(0, k, pattern, len - k, k) == 0) return k;
      return 0u;
    }() : s;
    b.transition(from, e0, next_state(base, '0'));
    b.transition(from, e1, next_state(base, '1'));
  }
  return b.build();
}

Dfsm make_shift_register(const std::shared_ptr<Alphabet>& alphabet,
                         std::string name, std::uint32_t bits) {
  FFSM_EXPECTS(bits >= 1);
  FFSM_EXPECTS(bits <= 16);
  const std::uint32_t n = 1u << bits;
  const std::uint32_t mask = n - 1;
  DfsmBuilder b(std::move(name), alphabet);
  b.states(n, "r");
  const EventId e0 = b.event("0");
  const EventId e1 = b.event("1");
  for (State s = 0; s < n; ++s) {
    b.transition(s, e0, (s << 1) & mask);
    b.transition(s, e1, ((s << 1) | 1u) & mask);
  }
  return b.build();
}

Dfsm make_divisibility_checker(const std::shared_ptr<Alphabet>& alphabet,
                               std::string name, std::uint32_t divisor) {
  FFSM_EXPECTS(divisor >= 1);
  DfsmBuilder b(std::move(name), alphabet);
  b.states(divisor, "d");
  const EventId e0 = b.event("0");
  const EventId e1 = b.event("1");
  for (State s = 0; s < divisor; ++s) {
    b.transition(s, e0, (2 * s) % divisor);
    b.transition(s, e1, (2 * s + 1) % divisor);
  }
  return b.build();
}

Dfsm make_mesi(const std::shared_ptr<Alphabet>& alphabet, std::string name) {
  DfsmBuilder b(std::move(name), alphabet);
  const State I = b.state("I");
  const State S = b.state("S");
  const State E = b.state("E");
  const State M = b.state("M");
  const EventId pr_rd = b.event("pr_rd");            // read, sharers exist
  const EventId pr_rd_excl = b.event("pr_rd_excl");  // read, no sharers
  const EventId pr_wr = b.event("pr_wr");
  const EventId bus_rd = b.event("bus_rd");
  const EventId bus_rdx = b.event("bus_rdx");

  b.transition(I, pr_rd, S);
  b.transition(I, pr_rd_excl, E);
  b.transition(I, pr_wr, M);
  b.transition(I, bus_rd, I);
  b.transition(I, bus_rdx, I);

  b.transition(S, pr_rd, S);
  b.transition(S, pr_rd_excl, S);  // already cached: hit
  b.transition(S, pr_wr, M);
  b.transition(S, bus_rd, S);
  b.transition(S, bus_rdx, I);

  b.transition(E, pr_rd, E);
  b.transition(E, pr_rd_excl, E);
  b.transition(E, pr_wr, M);
  b.transition(E, bus_rd, S);
  b.transition(E, bus_rdx, I);

  b.transition(M, pr_rd, M);
  b.transition(M, pr_rd_excl, M);
  b.transition(M, pr_wr, M);
  b.transition(M, bus_rd, S);
  b.transition(M, bus_rdx, I);
  return b.build();
}

Dfsm make_tcp(const std::shared_ptr<Alphabet>& alphabet, std::string name) {
  DfsmBuilder b(std::move(name), alphabet);
  const State closed = b.state("CLOSED");
  const State listen = b.state("LISTEN");
  const State syn_sent = b.state("SYN_SENT");
  const State syn_rcvd = b.state("SYN_RCVD");
  const State established = b.state("ESTABLISHED");
  const State fin_wait_1 = b.state("FIN_WAIT_1");
  const State fin_wait_2 = b.state("FIN_WAIT_2");
  const State close_wait = b.state("CLOSE_WAIT");
  const State closing = b.state("CLOSING");
  const State last_ack = b.state("LAST_ACK");
  const State time_wait = b.state("TIME_WAIT");

  const EventId passive_open = b.event("passive_open");
  const EventId active_open = b.event("active_open");
  const EventId rcv_syn = b.event("rcv_syn");
  const EventId rcv_syn_ack = b.event("rcv_syn_ack");
  const EventId rcv_ack = b.event("rcv_ack");
  const EventId rcv_fin = b.event("rcv_fin");
  const EventId app_close = b.event("close");
  const EventId timeout = b.event("timeout");
  const EventId rcv_rst = b.event("rcv_rst");

  b.transition(closed, passive_open, listen);
  b.transition(closed, active_open, syn_sent);

  b.transition(listen, rcv_syn, syn_rcvd);
  b.transition(listen, active_open, syn_sent);  // send-data path
  b.transition(listen, app_close, closed);

  b.transition(syn_sent, rcv_syn_ack, established);
  b.transition(syn_sent, rcv_syn, syn_rcvd);  // simultaneous open
  b.transition(syn_sent, app_close, closed);
  b.transition(syn_sent, timeout, closed);
  b.transition(syn_sent, rcv_rst, closed);

  b.transition(syn_rcvd, rcv_ack, established);
  b.transition(syn_rcvd, app_close, fin_wait_1);
  b.transition(syn_rcvd, rcv_rst, listen);

  b.transition(established, app_close, fin_wait_1);
  b.transition(established, rcv_fin, close_wait);
  b.transition(established, rcv_rst, closed);

  b.transition(fin_wait_1, rcv_ack, fin_wait_2);
  b.transition(fin_wait_1, rcv_fin, closing);
  b.transition(fin_wait_1, rcv_rst, closed);

  b.transition(fin_wait_2, rcv_fin, time_wait);
  b.transition(fin_wait_2, rcv_rst, closed);

  b.transition(close_wait, app_close, last_ack);
  b.transition(close_wait, rcv_rst, closed);

  b.transition(closing, rcv_ack, time_wait);
  b.transition(closing, rcv_rst, closed);

  b.transition(last_ack, rcv_ack, closed);
  b.transition(last_ack, rcv_rst, closed);

  b.transition(time_wait, timeout, closed);
  b.transition(time_wait, rcv_rst, closed);

  b.fill_self_loops();
  return b.build();
}

// The canonical Fig. 2 machines. Their reachable cross product is the
// 4-state top of Fig. 3 with
//   t0 = {a0,b0}, t1 = {a1,b1}, t2 = {a2,b2}, t3 = {a0,b2}
// and closed partitions A = {t0,t3}{t1}{t2}, B = {t0}{t1}{t2,t3} exactly as
// quoted throughout sections 2-5 of the paper (see DESIGN.md section 2).
Dfsm make_paper_machine_a(const std::shared_ptr<Alphabet>& alphabet,
                          std::string name) {
  DfsmBuilder b(std::move(name), alphabet);
  b.states(3, "a");
  const EventId e0 = b.event("0");
  const EventId e1 = b.event("1");
  b.transition(0, e0, 1);
  b.transition(1, e0, 2);
  b.transition(2, e0, 1);
  b.transition(0, e1, 0);
  b.transition(1, e1, 0);
  b.transition(2, e1, 0);
  return b.build();
}

Dfsm make_paper_machine_b(const std::shared_ptr<Alphabet>& alphabet,
                          std::string name) {
  DfsmBuilder b(std::move(name), alphabet);
  b.states(3, "b");
  const EventId e0 = b.event("0");
  const EventId e1 = b.event("1");
  b.transition(0, e0, 1);
  b.transition(1, e0, 2);
  b.transition(2, e0, 1);
  b.transition(0, e1, 2);
  b.transition(1, e1, 2);
  b.transition(2, e1, 2);
  return b.build();
}

Dfsm make_moesi(const std::shared_ptr<Alphabet>& alphabet, std::string name) {
  DfsmBuilder b(std::move(name), alphabet);
  const State I = b.state("I");
  const State S = b.state("S");
  const State E = b.state("E");
  const State O = b.state("O");
  const State M = b.state("M");
  const EventId pr_rd = b.event("pr_rd");
  const EventId pr_rd_excl = b.event("pr_rd_excl");
  const EventId pr_wr = b.event("pr_wr");
  const EventId bus_rd = b.event("bus_rd");
  const EventId bus_rdx = b.event("bus_rdx");

  b.transition(I, pr_rd, S);
  b.transition(I, pr_rd_excl, E);
  b.transition(I, pr_wr, M);

  b.transition(S, pr_wr, M);
  b.transition(S, bus_rdx, I);

  b.transition(E, pr_wr, M);
  b.transition(E, bus_rd, S);
  b.transition(E, bus_rdx, I);

  // The MOESI difference: a dirty line answers a snoop read and keeps
  // ownership instead of writing back.
  b.transition(M, bus_rd, O);
  b.transition(M, bus_rdx, I);

  b.transition(O, pr_wr, M);
  b.transition(O, bus_rdx, I);

  b.fill_self_loops();
  return b.build();
}

Dfsm make_dhcp_client(const std::shared_ptr<Alphabet>& alphabet,
                      std::string name) {
  DfsmBuilder b(std::move(name), alphabet);
  const State init = b.state("INIT");
  const State selecting = b.state("SELECTING");
  const State requesting = b.state("REQUESTING");
  const State bound = b.state("BOUND");
  const State renewing = b.state("RENEWING");
  const State rebinding = b.state("REBINDING");

  const EventId discover = b.event("discover");
  const EventId offer = b.event("offer");
  const EventId ack = b.event("ack");
  const EventId nak = b.event("nak");
  const EventId t1 = b.event("t1_expire");
  const EventId t2 = b.event("t2_expire");
  const EventId lease = b.event("lease_expire");

  b.transition(init, discover, selecting);
  b.transition(selecting, offer, requesting);
  b.transition(requesting, ack, bound);
  b.transition(requesting, nak, init);
  b.transition(bound, t1, renewing);
  b.transition(renewing, ack, bound);
  b.transition(renewing, t2, rebinding);
  b.transition(renewing, nak, init);
  b.transition(rebinding, ack, bound);
  b.transition(rebinding, nak, init);
  b.transition(rebinding, lease, init);

  b.fill_self_loops();
  return b.build();
}

Dfsm make_sliding_window(const std::shared_ptr<Alphabet>& alphabet,
                         std::string name, std::uint32_t window) {
  FFSM_EXPECTS(window >= 1);
  DfsmBuilder b(std::move(name), alphabet);
  b.states(window + 1, "w");
  const EventId send = b.event("send");
  const EventId ack = b.event("ack");
  for (State s = 0; s <= window; ++s) {
    b.transition(s, send, std::min(s + 1, window));  // saturate full
    b.transition(s, ack, s == 0 ? 0 : s - 1);        // saturate empty
  }
  return b.build();
}

Dfsm make_traffic_light(const std::shared_ptr<Alphabet>& alphabet,
                        std::string name) {
  DfsmBuilder b(std::move(name), alphabet);
  const State red = b.state("RED");
  const State green = b.state("GREEN");
  const State yellow = b.state("YELLOW");
  const EventId timer = b.event("timer");
  const EventId emergency = b.event("emergency");
  b.transition(red, timer, green);
  b.transition(green, timer, yellow);
  b.transition(yellow, timer, red);
  for (const State s : {red, green, yellow}) b.transition(s, emergency, red);
  return b.build();
}

Dfsm make_gray_code_counter(const std::shared_ptr<Alphabet>& alphabet,
                            std::string name, std::uint32_t bits) {
  FFSM_EXPECTS(bits >= 1);
  FFSM_EXPECTS(bits <= 16);
  const std::uint32_t n = 1u << bits;
  DfsmBuilder b(std::move(name), alphabet);
  // State i holds gray(i) = i ^ (i >> 1); name states by their code word.
  for (std::uint32_t i = 0; i < n; ++i) {
    const std::uint32_t code = i ^ (i >> 1);
    std::string label = "g";
    for (std::uint32_t bit = bits; bit-- > 0;)
      label += ((code >> bit) & 1u) ? '1' : '0';
    b.state(label);
  }
  const EventId clk = b.event("clk");
  for (State s = 0; s < n; ++s) b.transition(s, clk, (s + 1) % n);
  return b.build();
}

Dfsm make_johnson_counter(const std::shared_ptr<Alphabet>& alphabet,
                          std::string name, std::uint32_t stages) {
  FFSM_EXPECTS(stages >= 1);
  FFSM_EXPECTS(stages <= 16);
  // A twisted ring of `stages` flip-flops walks a cycle of length 2*stages:
  // 00..0 -> 10..0 -> 110..0 -> ... -> 11..1 -> 01..1 -> ... -> 00..0.
  const std::uint32_t period = 2 * stages;
  DfsmBuilder b(std::move(name), alphabet);
  std::uint32_t reg = 0;
  for (std::uint32_t i = 0; i < period; ++i) {
    std::string label = "j";
    for (std::uint32_t bit = stages; bit-- > 0;)
      label += ((reg >> bit) & 1u) ? '1' : '0';
    b.state(label);
    const std::uint32_t inverted_lsb = (~reg) & 1u;
    reg = (reg >> 1) | (inverted_lsb << (stages - 1));
  }
  const EventId clk = b.event("clk");
  for (State s = 0; s < period; ++s) b.transition(s, clk, (s + 1) % period);
  return b.build();
}

Dfsm make_lfsr(const std::shared_ptr<Alphabet>& alphabet, std::string name,
               std::uint32_t degree) {
  // Right-shift Fibonacci LFSR: feedback = parity(s & taps) shifted into
  // the MSB. Tap masks hold bit positions (degree - exponent) of a
  // primitive polynomial per degree, giving the maximal period
  // 2^degree - 1 over the nonzero states:
  //   3: x^3+x^2+1 -> 0b011      5: x^5+x^3+1 -> 0b00101
  //   4: x^4+x^3+1 -> 0b0011     6: x^6+x^5+1 -> 0b000011
  //   7: x^7+x^6+1 -> 0b0000011
  FFSM_EXPECTS(degree >= 3);
  FFSM_EXPECTS(degree <= 7);
  static constexpr std::uint32_t kTaps[8] = {0, 0, 0, 0x3, 0x3,
                                             0x5, 0x3, 0x3};
  const std::uint32_t taps = kTaps[degree];
  const auto step = [&](std::uint32_t s) {
    const std::uint32_t feedback =
        static_cast<std::uint32_t>(std::popcount(s & taps)) & 1u;
    return (s >> 1) | (feedback << (degree - 1));
  };

  DfsmBuilder b(std::move(name), alphabet);
  // Lay states down in orbit order starting from register value 1.
  std::vector<std::uint32_t> orbit;
  std::uint32_t reg = 1;
  do {
    orbit.push_back(reg);
    b.state(std::string("x").append(std::to_string(reg)));
    reg = step(reg);
  } while (reg != 1);
  const EventId clk = b.event("clk");
  for (State s = 0; s < orbit.size(); ++s)
    b.transition(s, clk, (s + 1) % static_cast<State>(orbit.size()));
  return b.build();
}

Dfsm make_paper_top(const std::shared_ptr<Alphabet>& alphabet,
                    std::string name) {
  DfsmBuilder b(std::move(name), alphabet);
  b.states(4, "t");
  const EventId e0 = b.event("0");
  const EventId e1 = b.event("1");
  b.transition(0, e0, 1);
  b.transition(1, e0, 2);
  b.transition(2, e0, 1);
  b.transition(3, e0, 1);
  for (State s = 0; s < 4; ++s) b.transition(s, e1, 3);
  return b.build();
}

std::vector<TableRowSpec> make_results_table_rows() {
  std::vector<TableRowSpec> rows;

  {
    auto al = Alphabet::create();
    TableRowSpec row;
    row.label = "MESI, 1-Counter, 0-Counter, Shift Register";
    row.faults = 2;
    row.machines.push_back(make_mesi(al));
    row.machines.push_back(make_mod_counter(al, "1-Counter", 3, "1"));
    row.machines.push_back(make_mod_counter(al, "0-Counter", 3, "0"));
    row.machines.push_back(make_shift_register(al, "ShiftRegister", 3));
    rows.push_back(std::move(row));
  }
  {
    auto al = Alphabet::create();
    TableRowSpec row;
    row.label =
        "Even Parity, Odd Parity Checker, Toggle Switch, Pattern Generator, "
        "MESI";
    row.faults = 3;
    row.machines.push_back(make_parity_checker(al, "EvenParity", "1"));
    row.machines.push_back(make_parity_checker(al, "OddParity", "0"));
    row.machines.push_back(make_toggle_switch(al, "Toggle"));
    row.machines.push_back(make_pattern_detector(al, "PatternGen", "101"));
    row.machines.push_back(make_mesi(al));
    rows.push_back(std::move(row));
  }
  {
    auto al = Alphabet::create();
    TableRowSpec row;
    row.label = "1-Counter, 0-Counter, Divider, A, B";
    row.faults = 2;
    row.machines.push_back(make_mod_counter(al, "1-Counter", 3, "1"));
    row.machines.push_back(make_mod_counter(al, "0-Counter", 3, "0"));
    row.machines.push_back(make_divisibility_checker(al, "Divider", 3));
    row.machines.push_back(make_paper_machine_a(al));
    row.machines.push_back(make_paper_machine_b(al));
    rows.push_back(std::move(row));
  }
  {
    auto al = Alphabet::create();
    TableRowSpec row;
    row.label = "MESI, TCP, A, B";
    row.faults = 1;
    row.machines.push_back(make_mesi(al));
    row.machines.push_back(make_tcp(al));
    row.machines.push_back(make_paper_machine_a(al));
    row.machines.push_back(make_paper_machine_b(al));
    rows.push_back(std::move(row));
  }
  {
    auto al = Alphabet::create();
    TableRowSpec row;
    row.label = "Pattern Generator, TCP, A, B";
    row.faults = 2;
    row.machines.push_back(make_pattern_detector(al, "PatternGen", "101"));
    row.machines.push_back(make_tcp(al));
    row.machines.push_back(make_paper_machine_a(al));
    row.machines.push_back(make_paper_machine_b(al));
    rows.push_back(std::move(row));
  }
  return rows;
}

}  // namespace ffsm
