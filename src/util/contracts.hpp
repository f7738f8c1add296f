// Contract checking for the ffsm library.
//
// Library code validates preconditions with FFSM_EXPECTS and internal
// invariants with FFSM_ASSERT. Violations throw ffsm::ContractViolation so
// that tests can assert on misuse without killing the process; this mirrors
// the Guidelines Support Library's Expects/Ensures in "throwing" mode.
#pragma once

#include <stdexcept>
#include <string>

namespace ffsm {

/// Thrown when a precondition, postcondition or invariant is violated.
class ContractViolation : public std::logic_error {
 public:
  explicit ContractViolation(const std::string& what_arg)
      : std::logic_error(what_arg) {}
};

namespace detail {
[[noreturn]] inline void contract_fail(const char* kind, const char* expr,
                                       const char* file, int line) {
  throw ContractViolation(std::string(kind) + " failed: " + expr + " at " +
                          file + ':' + std::to_string(line));
}
}  // namespace detail

}  // namespace ffsm

#define FFSM_EXPECTS(cond)                                                  \
  do {                                                                      \
    if (!(cond))                                                            \
      ::ffsm::detail::contract_fail("precondition", #cond, __FILE__,        \
                                    __LINE__);                              \
  } while (false)

#define FFSM_ENSURES(cond)                                                  \
  do {                                                                      \
    if (!(cond))                                                            \
      ::ffsm::detail::contract_fail("postcondition", #cond, __FILE__,       \
                                    __LINE__);                              \
  } while (false)

#define FFSM_ASSERT(cond)                                                   \
  do {                                                                      \
    if (!(cond))                                                            \
      ::ffsm::detail::contract_fail("invariant", #cond, __FILE__, __LINE__); \
  } while (false)
