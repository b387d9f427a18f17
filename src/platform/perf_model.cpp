#include "platform/perf_model.hpp"

#include <algorithm>
#include <cmath>

#include "support/error.hpp"

namespace socrates::platform {

PerformanceModel::PerformanceModel(MachineTopology topology, MachinePowerModel machine,
                                   double time_noise_sigma, double power_noise_sigma)
    : topology_(topology),
      machine_(machine),
      time_noise_sigma_(time_noise_sigma),
      power_noise_sigma_(power_noise_sigma) {
  SOCRATES_REQUIRE(time_noise_sigma >= 0.0);
  SOCRATES_REQUIRE(power_noise_sigma >= 0.0);
}

PerformanceModel PerformanceModel::paper_platform() {
  return PerformanceModel(MachineTopology::xeon_e5_2630_v3(), MachinePowerModel{});
}

namespace {

// Threads place_threads() puts on core (socket, core): it visits the
// cores in a fixed order (close: socket-major, spread: core-major) and
// hands out one hardware-thread slot per core per round, so the core at
// visit position v receives one thread for every round k with
// k * physical_cores + v < threads.  Closed form of that count, so the
// model needs no placement vector.
std::size_t threads_on_core(const MachineTopology& topology, std::size_t threads,
                            BindingPolicy binding, std::size_t socket, std::size_t core) {
  const std::size_t visit = binding == BindingPolicy::kClose
                                ? socket * topology.cores_per_socket + core
                                : core * topology.sockets + socket;
  if (visit >= threads) return 0;
  const std::size_t rounds = (threads - visit - 1) / topology.physical_cores() + 1;
  return std::min(rounds, topology.threads_per_core);
}

}  // namespace

Measurement PerformanceModel::expected(const KernelModelParams& kernel,
                                       const Configuration& config,
                                       double work_scale) const {
  SOCRATES_REQUIRE(work_scale > 0.0);
  SOCRATES_REQUIRE(config.threads >= 1);
  SOCRATES_REQUIRE(config.threads <= topology_.logical_cores());

  const auto threads_on = [&](std::size_t s, std::size_t c) {
    return threads_on_core(topology_, config.threads, config.binding, s, c);
  };

  const double s_flag = compute_speedup(kernel, config.flags);
  const double p_flag = core_power_factor(kernel, config.flags);

  // Per-socket turbo frequency factor: full headroom with one active
  // core, decaying linearly to none with all cores active.
  const auto turbo_factor = [&](std::size_t active_cores) {
    if (active_cores == 0) return 1.0;
    const double span = static_cast<double>(topology_.cores_per_socket - 1);
    const double idle_share =
        span == 0.0 ? 0.0 : 1.0 - (static_cast<double>(active_cores) - 1.0) / span;
    return 1.0 + machine_.turbo_headroom * idle_share;
  };
  const auto active_cores = [&](std::size_t s) {
    std::size_t active = 0;
    for (std::size_t c = 0; c < topology_.cores_per_socket; ++c)
      if (threads_on(s, c) > 0) ++active;
    return active;
  };

  // Effective compute capability E (in single-core base-frequency
  // units) and bandwidth-pull capability (in core_bw units).
  double compute_capability = 0.0;
  double bw_pull_cores = 0.0;
  std::size_t sockets_used = 0;
  double aggregate_bw = 0.0;
  for (std::size_t s = 0; s < topology_.sockets; ++s) {
    std::size_t active = 0;
    double socket_compute = 0.0;
    for (std::size_t c = 0; c < topology_.cores_per_socket; ++c) {
      const std::size_t n = threads_on(s, c);
      if (n == 0) continue;
      ++active;
      socket_compute += n >= 2 ? 1.0 + machine_.ht_throughput_gain : 1.0;
      bw_pull_cores += n >= 2 ? 1.0 + machine_.ht_bw_gain : 1.0;
    }
    if (active == 0) continue;
    ++sockets_used;
    compute_capability += socket_compute * turbo_factor(active);
    aggregate_bw += machine_.socket_bw_gbs;
  }
  SOCRATES_ENSURE(compute_capability > 0.0);

  // ---- execution time --------------------------------------------------
  // Dataset-size cache effect: scaled-down datasets become increasingly
  // cache resident, lowering the memory-stall share of the run (at the
  // reference size, locality == 1 and the calibrated mem_intensity
  // applies unchanged).  This is what makes per-input knowledge bases
  // (margot::MultiKnowledge) genuinely different across input sizes.
  const double locality = 0.45 + 0.55 * std::pow(std::min(work_scale, 1.0), 0.3);
  const double mem_intensity = kernel.mem_intensity * locality;
  const double work = kernel.seq_work_s * work_scale;
  const double compute_work = work * (1.0 - mem_intensity);
  const double memory_work = work * mem_intensity;
  const double fp = kernel.parallel_fraction;
  const double single_turbo = 1.0 + machine_.turbo_headroom;

  // Serial phase: one core at full turbo; flags only speed up compute.
  const double t_serial =
      (1.0 - fp) * (compute_work / (s_flag * single_turbo) + memory_work);

  // Parallel phase.
  const double t_comp_par = compute_work * fp / (s_flag * compute_capability);
  const double bw_scale =
      std::min(bw_pull_cores, aggregate_bw / machine_.core_bw_gbs);
  const double t_mem_par = memory_work * fp / bw_scale;
  const double t_par = t_comp_par + t_mem_par;

  const double exec_time = t_serial + t_par;

  // ---- power ------------------------------------------------------------
  // Core "busy" share: fraction of the parallel phase spent computing
  // (stalled cores burn stall_power_share of dynamic power).
  const auto core_power = [&](double busy_share, double freq, bool two_threads) {
    const double dynamic = machine_.core_dynamic_w * p_flag *
                           std::pow(freq, machine_.turbo_power_exponent);
    const double duty =
        busy_share + machine_.stall_power_share * (1.0 - busy_share);
    return dynamic * duty * (two_threads ? 1.0 + machine_.ht_power_bonus : 1.0);
  };

  // Parallel-phase power.  core_power depends on the core only through
  // its socket's turbo and whether it runs two threads, so it is
  // evaluated once per (socket, one/two threads) and summed per core in
  // placement order.
  const double par_busy = t_par > 0.0 ? t_comp_par / t_par : 1.0;
  double p_parallel = machine_.idle_power_w +
                      machine_.socket_active_w * static_cast<double>(sockets_used);
  for (std::size_t s = 0; s < topology_.sockets; ++s) {
    const std::size_t active = active_cores(s);
    if (active == 0) continue;
    const double turbo = turbo_factor(active);
    const double one_thread = core_power(par_busy, turbo, false);
    const double two_threads = core_power(par_busy, turbo, true);
    for (std::size_t c = 0; c < topology_.cores_per_socket; ++c) {
      const std::size_t n = threads_on(s, c);
      if (n == 0) continue;
      p_parallel += n >= 2 ? two_threads : one_thread;
    }
  }
  const double achieved_bw =
      t_par > 0.0 ? machine_.core_bw_gbs * bw_scale * (t_mem_par / t_par) : 0.0;
  p_parallel += machine_.dram_w_per_gbs * achieved_bw;

  // Serial-phase power: one core at single-core turbo.
  const double t_ser_compute = (1.0 - fp) * compute_work / (s_flag * single_turbo);
  const double ser_busy = t_serial > 0.0 ? t_ser_compute / t_serial : 1.0;
  double p_serial = machine_.idle_power_w + machine_.socket_active_w +
                    core_power(ser_busy, single_turbo, false);
  p_serial += machine_.dram_w_per_gbs * machine_.core_bw_gbs * (1.0 - ser_busy);

  const double avg_power = exec_time > 0.0
                               ? (p_parallel * t_par + p_serial * t_serial) / exec_time
                               : p_serial;

  Measurement m;
  m.exec_time_s = exec_time;
  m.avg_power_w = avg_power;
  m.energy_j = exec_time * avg_power;
  return m;
}

Measurement PerformanceModel::with_noise(const Measurement& expected, Rng& noise) const {
  Measurement m;
  m.exec_time_s = expected.exec_time_s * noise.lognormal_factor(time_noise_sigma_);
  m.avg_power_w = expected.avg_power_w * noise.lognormal_factor(power_noise_sigma_);
  m.energy_j = m.exec_time_s * m.avg_power_w;
  return m;
}

Measurement PerformanceModel::evaluate(const KernelModelParams& kernel,
                                       const Configuration& config, Rng* noise,
                                       double work_scale) const {
  const Measurement m = expected(kernel, config, work_scale);
  return noise != nullptr ? with_noise(m, *noise) : m;
}

}  // namespace socrates::platform
