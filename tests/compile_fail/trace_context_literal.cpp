// An active sim::TraceContext comes only from root() or child(), which take
// their ids from Scheduler::alloc_span_id(). The triple constructor is
// private, so a hand-written {trace, span, parent} cannot mint an id that
// collides or a parent that was never emitted.
#include "sim/scheduler.hpp"

namespace daosim::sim {

TraceContext derived(Scheduler& s) {
  const TraceContext inactive{};
  const TraceContext root = TraceContext::root(s.alloc_span_id());
  return inactive.active() ? inactive : root.child(s.alloc_span_id());
}

#if DAOSIM_COMPILE_FAIL == 1
TraceContext hand_rolled(std::uint64_t trace, std::uint64_t span) {
  return TraceContext{trace, span, trace};
}
#endif

}  // namespace daosim::sim
