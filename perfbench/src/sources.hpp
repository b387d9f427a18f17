// Seeded input generators.  Everything a workload feeds the libraries
// is drawn from these, so one seed always gives one input stream.
#pragma once

#include <cstddef>
#include <cstdint>

#include "support/rng.hpp"

namespace perfbench {

/// The fleet's feedback stream: which tenant reports which metric, with
/// which measurement-noise factor, and which events are freshness
/// probes.  The operating point an event reports on is the tenant's
/// current decision, so it is not part of the seeded input.
struct FleetEvent {
  std::uint32_t tenant = 0;
  std::uint32_t metric = 0;
  double noise = 1.0;
  bool probe = false;
};

class FleetEventSource {
 public:
  static constexpr std::uint64_t kProbeEvery = 60;

  FleetEventSource(std::uint64_t seed, std::uint32_t tenants)
      : rng_(seed), tenants_(tenants) {}

  FleetEvent next() {
    FleetEvent e;
    e.tenant = static_cast<std::uint32_t>(rng_.uniform_int(0, tenants_ - 1));
    e.metric = static_cast<std::uint32_t>(rng_.uniform_int(0, 2));
    e.noise = rng_.lognormal_factor(0.02);
    e.probe = rng_.uniform_int(0, kProbeEvery - 1) == 0;
    return e;
  }

 private:
  socrates::Rng rng_;
  std::int64_t tenants_;
};

}  // namespace perfbench
