// Analytical performance / power model of the modelled NUMA machine.
//
// The model reproduces the first-order effects that create the paper's
// trade-off space:
//   - Amdahl scaling with a serial fraction per kernel;
//   - a memory roofline: one core can pull core_bw_gbs of bandwidth,
//     a socket saturates at socket_bw_gbs, so memory-bound kernels stop
//     scaling early under `close` binding and later under `spread`;
//   - hyperthreading with a sub-linear second-thread gain;
//   - per-socket turbo: fewer active cores run faster, and dynamic
//     power grows super-linearly with the turbo frequency;
//   - compiler-flag effects via platform::compute_speedup /
//     core_power_factor;
//   - socket-level power gating: `close` on few threads keeps the
//     second socket parked, `spread` pays two uncores but doubles the
//     available bandwidth.
// Deterministic multiplicative lognormal noise models measurement
// jitter; pass a nullptr Rng for noise-free evaluation.
#pragma once

#include <cstddef>

#include "platform/compiler_model.hpp"
#include "platform/flags.hpp"
#include "platform/kernel_model.hpp"
#include "platform/topology.hpp"
#include "support/rng.hpp"

namespace socrates::platform {

/// Machine constants of the modelled 2x Xeon E5-2630 v3 box.
struct MachinePowerModel {
  double idle_power_w = 38.0;    ///< chassis + DRAM background + parked sockets
  double socket_active_w = 9.0;  ///< uncore power per socket with >=1 thread
  double core_dynamic_w = 6.0;   ///< fully-busy core at base frequency
  double stall_power_share = 0.35;  ///< power of a memory-stalled core
  double ht_power_bonus = 0.15;     ///< extra power of a 2-thread core
  double ht_throughput_gain = 0.28; ///< extra throughput of a 2-thread core
  double dram_w_per_gbs = 0.35;     ///< DRAM power per achieved GB/s
  double turbo_headroom = 0.30;     ///< single-core turbo frequency bonus
  double turbo_power_exponent = 2.0;///< dynamic power ~ freq^exponent
  double core_bw_gbs = 9.0;         ///< bandwidth one core can pull
  double socket_bw_gbs = 30.0;      ///< per-socket memory bandwidth
  double ht_bw_gain = 0.20;         ///< extra bandwidth pull of a 2nd HT thread
};

/// One (simulated) run of a kernel.
struct Measurement {
  double exec_time_s = 0.0;
  double avg_power_w = 0.0;
  double energy_j = 0.0;

  double throughput() const { return 1.0 / exec_time_s; }  ///< kernel runs / s
};

/// The knob configuration under evaluation (CO, TN, BP of the paper).
struct Configuration {
  FlagConfig flags;
  std::size_t threads = 1;
  BindingPolicy binding = BindingPolicy::kClose;
};

class PerformanceModel {
 public:
  PerformanceModel(MachineTopology topology, MachinePowerModel machine,
                   double time_noise_sigma = 0.02, double power_noise_sigma = 0.015);

  /// Model with the paper's platform and default constants.
  static PerformanceModel paper_platform();

  const MachineTopology& topology() const { return topology_; }
  const MachinePowerModel& machine() const { return machine_; }

  /// Noise magnitudes (exposed so cache keys can fingerprint the
  /// platform: two models that measure differently must never share
  /// artifacts).
  double time_noise_sigma() const { return time_noise_sigma_; }
  double power_noise_sigma() const { return power_noise_sigma_; }

  /// Noise-free (expected) measurement of one kernel run.
  /// `work_scale` scales the dataset (the runtime experiment of
  /// Figure 5 uses a smaller dataset than the static DSE of Figures
  /// 3/4).  Allocation-free.
  Measurement expected(const KernelModelParams& kernel, const Configuration& config,
                       double work_scale = 1.0) const;

  /// One noisy observation of `expected`: draws the time factor, then
  /// the power factor (a zero sigma draws nothing), and recomputes the
  /// energy from the noisy pair.
  Measurement with_noise(const Measurement& expected, Rng& noise) const;

  /// Evaluates one kernel run: expected(), then with_noise() unless
  /// `noise` == nullptr.
  Measurement evaluate(const KernelModelParams& kernel, const Configuration& config,
                       Rng* noise = nullptr, double work_scale = 1.0) const;

 private:
  MachineTopology topology_;
  MachinePowerModel machine_;
  double time_noise_sigma_;
  double power_noise_sigma_;
};

}  // namespace socrates::platform
