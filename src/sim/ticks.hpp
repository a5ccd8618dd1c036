#pragma once
// Work/span cost accounting for the binary fork-join model.
//
// The paper's evaluation metrics are *model* quantities: total work (ticks
// executed), span (critical path through the fork-join DAG), and cache
// complexity. This header provides the accounting state; the fork-join API
// (forkjoin/api.hpp) combines child costs at joins with
//   work(fork2(a,b)) = work(a) + work(b) + O(1)
//   span(fork2(a,b)) = max(span(a), span(b)) + O(1)
// Straight-line code calls tick(k) which adds k to both counters.
//
// Accounting is active only when a sim::Session is installed (analytic mode,
// which executes the DAG serially); in native parallel mode ticks are no-ops
// apart from one thread-local pointer test.

#include <cstdint>

namespace dopar::sim {

/// Work and span accumulated by a (sub)computation, in abstract "ticks".
struct Cost {
  uint64_t work = 0;
  uint64_t span = 0;
};

class Session;  // defined in session.hpp

namespace detail {
// Thread-local active session. Defined inline so every tracked access and
// tick pays one thread-local load, not an out-of-line call, on native runs.
inline thread_local Session* tls_session_ptr = nullptr;
inline Session*& tls_session() { return tls_session_ptr; }
}  // namespace detail

inline Session* current_session() { return detail::tls_session(); }

}  // namespace dopar::sim
