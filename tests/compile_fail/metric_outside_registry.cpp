// A metric node exists only inside a telemetry::Registry: the node
// constructors are private, with Registry their one friend. A node built
// anywhere else has no path and would never appear in a metrics dump.
#include "telemetry/telemetry.hpp"

namespace daosim::telemetry {

void registered(Registry& reg) {
  reg.find_or_create<Counter>("ops").inc();
  reg.find_or_create<Gauge>("level").set(1);
  reg.find_or_create<StatGauge>("depth").sample(2.0);
  reg.find_or_create<DurationHistogram>("latency_ns").record(3);
  reg.add_probe("polled", [] { return std::uint64_t{4}; });
}

#if DAOSIM_COMPILE_FAIL == 1
void untracked() {
  Counter ops;
  Gauge level;
  StatGauge depth;
  auto latency = std::make_unique<DurationHistogram>();
  Probe* polled = new Probe([] { return std::uint64_t{4}; });
}
#endif

}  // namespace daosim::telemetry
