// Bit-identity pins of the measurement layer.
//
// The DSE profile and the knowledge base built from it are stored as
// artifacts under keys that do not change when the model's
// implementation does, so any rewrite of PerformanceModel::evaluate,
// dse::profile_point or the profile codec must reproduce the previous
// bits exactly.  Two pins hold it there:
//   - a golden digest of every registered benchmark's knowledge base
//     and profile text, recorded before the model was made
//     allocation-free (one noise-free evaluation per design point);
//   - an oracle: the straightforward model (place_threads + a per-core
//     count table, std::pow per active core) and the per-repetition
//     profiling loop, copied here verbatim, compared bit for bit with
//     the library on the paper topology and on odd ones.
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <cstring>
#include <sstream>
#include <string>
#include <vector>

#include "dse/dse.hpp"
#include "kernels/registry.hpp"
#include "margot/kb_io.hpp"
#include "platform/perf_model.hpp"
#include "platform/topology.hpp"
#include "socrates/pipeline.hpp"
#include "support/artifact_cache.hpp"
#include "support/hash.hpp"
#include "support/rng.hpp"
#include "support/statistics.hpp"

namespace socrates {
namespace {

// ---- oracle: the straightforward model and profiling loop ----------------

// PerformanceModel::evaluate as a placement vector, a per-core count
// table and one std::pow per active core (what the allocation-free
// model must reproduce bit for bit).
platform::Measurement oracle_evaluate(const platform::PerformanceModel& model,
                                      const platform::KernelModelParams& kernel,
                                      const platform::Configuration& config, Rng* noise,
                                      double work_scale) {
  using namespace platform;
  const MachineTopology& topology_ = model.topology();
  const MachinePowerModel& machine_ = model.machine();

  const auto placement = place_threads(topology_, config.threads, config.binding);
  std::vector<std::vector<std::size_t>> per_core(
      topology_.sockets, std::vector<std::size_t>(topology_.cores_per_socket, 0));
  for (const auto& p : placement) ++per_core[p.socket][p.core];

  const double s_flag = compute_speedup(kernel, config.flags);
  const double p_flag = core_power_factor(kernel, config.flags);
  const auto turbo_factor = [&](std::size_t active_cores) {
    if (active_cores == 0) return 1.0;
    const double span = static_cast<double>(topology_.cores_per_socket - 1);
    const double idle_share =
        span == 0.0 ? 0.0 : 1.0 - (static_cast<double>(active_cores) - 1.0) / span;
    return 1.0 + machine_.turbo_headroom * idle_share;
  };

  double compute_capability = 0.0;
  double bw_pull_cores = 0.0;
  std::size_t sockets_used = 0;
  double aggregate_bw = 0.0;
  std::vector<double> socket_turbo(topology_.sockets, 1.0);
  for (std::size_t s = 0; s < topology_.sockets; ++s) {
    std::size_t active = 0;
    double socket_compute = 0.0;
    for (std::size_t c = 0; c < topology_.cores_per_socket; ++c) {
      const std::size_t n = per_core[s][c];
      if (n == 0) continue;
      ++active;
      socket_compute += n >= 2 ? 1.0 + machine_.ht_throughput_gain : 1.0;
      bw_pull_cores += n >= 2 ? 1.0 + machine_.ht_bw_gain : 1.0;
    }
    if (active == 0) continue;
    ++sockets_used;
    socket_turbo[s] = turbo_factor(active);
    compute_capability += socket_compute * socket_turbo[s];
    aggregate_bw += machine_.socket_bw_gbs;
  }

  const double locality = 0.45 + 0.55 * std::pow(std::min(work_scale, 1.0), 0.3);
  const double mem_intensity = kernel.mem_intensity * locality;
  const double work = kernel.seq_work_s * work_scale;
  const double compute_work = work * (1.0 - mem_intensity);
  const double memory_work = work * mem_intensity;
  const double fp = kernel.parallel_fraction;
  const double single_turbo = 1.0 + machine_.turbo_headroom;
  const double t_serial =
      (1.0 - fp) * (compute_work / (s_flag * single_turbo) + memory_work);
  const double t_comp_par = compute_work * fp / (s_flag * compute_capability);
  const double bw_scale = std::min(bw_pull_cores, aggregate_bw / machine_.core_bw_gbs);
  const double t_mem_par = memory_work * fp / bw_scale;
  const double t_par = t_comp_par + t_mem_par;
  double exec_time = t_serial + t_par;

  const auto core_power = [&](double busy_share, double freq, bool two_threads) {
    const double dynamic = machine_.core_dynamic_w * p_flag *
                           std::pow(freq, machine_.turbo_power_exponent);
    const double duty = busy_share + machine_.stall_power_share * (1.0 - busy_share);
    return dynamic * duty * (two_threads ? 1.0 + machine_.ht_power_bonus : 1.0);
  };
  const double par_busy = t_par > 0.0 ? t_comp_par / t_par : 1.0;
  double p_parallel = machine_.idle_power_w +
                      machine_.socket_active_w * static_cast<double>(sockets_used);
  for (std::size_t s = 0; s < topology_.sockets; ++s) {
    for (std::size_t c = 0; c < topology_.cores_per_socket; ++c) {
      const std::size_t n = per_core[s][c];
      if (n == 0) continue;
      p_parallel += core_power(par_busy, socket_turbo[s], n >= 2);
    }
  }
  const double achieved_bw =
      t_par > 0.0 ? machine_.core_bw_gbs * bw_scale * (t_mem_par / t_par) : 0.0;
  p_parallel += machine_.dram_w_per_gbs * achieved_bw;
  const double t_ser_compute = (1.0 - fp) * compute_work / (s_flag * single_turbo);
  const double ser_busy = t_serial > 0.0 ? t_ser_compute / t_serial : 1.0;
  double p_serial = machine_.idle_power_w + machine_.socket_active_w +
                    core_power(ser_busy, single_turbo, false);
  p_serial += machine_.dram_w_per_gbs * machine_.core_bw_gbs * (1.0 - ser_busy);
  double avg_power = exec_time > 0.0
                         ? (p_parallel * t_par + p_serial * t_serial) / exec_time
                         : p_serial;

  if (noise != nullptr) {
    exec_time *= noise->lognormal_factor(model.time_noise_sigma());
    avg_power *= noise->lognormal_factor(model.power_noise_sigma());
  }
  platform::Measurement m;
  m.exec_time_s = exec_time;
  m.avg_power_w = avg_power;
  m.energy_j = exec_time * avg_power;
  return m;
}

// dse::profile_point as one full noisy evaluation per repetition.
dse::ProfiledPoint oracle_profile_point(const platform::PerformanceModel& model,
                                        const platform::KernelModelParams& kernel,
                                        const dse::DesignSpace& space,
                                        std::size_t config_index, std::size_t threads,
                                        platform::BindingPolicy binding,
                                        std::size_t repetitions, Rng& noise,
                                        double work_scale) {
  dse::ProfiledPoint p;
  p.config_index = config_index;
  p.config_name = space.configs[config_index].name;
  p.configuration =
      platform::Configuration{space.configs[config_index].config, threads, binding};
  RunningStats time_stats;
  RunningStats power_stats;
  for (std::size_t r = 0; r < repetitions; ++r) {
    const auto m = oracle_evaluate(model, kernel, p.configuration, &noise, work_scale);
    time_stats.add(m.exec_time_s);
    power_stats.add(m.avg_power_w);
  }
  p.exec_time_mean_s = time_stats.mean();
  p.exec_time_stddev_s = time_stats.stddev();
  p.power_mean_w = power_stats.mean();
  p.power_stddev_w = power_stats.stddev();
  return p;
}

std::uint64_t bits(double v) {
  std::uint64_t out = 0;
  std::memcpy(&out, &v, sizeof(out));
  return out;
}

void expect_same_bits(const platform::Measurement& a, const platform::Measurement& b,
                      const std::string& where) {
  EXPECT_EQ(bits(a.exec_time_s), bits(b.exec_time_s)) << where;
  EXPECT_EQ(bits(a.avg_power_w), bits(b.avg_power_w)) << where;
  EXPECT_EQ(bits(a.energy_j), bits(b.energy_j)) << where;
}

std::vector<platform::PerformanceModel> oracle_models() {
  using platform::MachineTopology;
  const platform::MachinePowerModel machine;
  return {platform::PerformanceModel::paper_platform(),
          platform::PerformanceModel(MachineTopology{1, 4, 1}, machine),
          platform::PerformanceModel(MachineTopology{3, 5, 2}, machine),
          platform::PerformanceModel(MachineTopology{2, 8, 4}, machine),
          platform::PerformanceModel(MachineTopology{1, 1, 2}, machine)};
}

std::string describe(const platform::PerformanceModel& model, const std::string& kernel,
                     std::size_t config, std::size_t threads,
                     platform::BindingPolicy binding, double scale) {
  const auto& t = model.topology();
  std::ostringstream os;
  os << t.sockets << 'x' << t.cores_per_socket << 'x' << t.threads_per_core << ' '
     << kernel << " cfg=" << config << " threads=" << threads << ' '
     << platform::to_string(binding) << " scale=" << scale;
  return os.str();
}

TEST(ModelIdentity, EvaluateMatchesTheOracleBitForBit) {
  std::vector<const kernels::BenchmarkInfo*> benchmarks;
  for (const auto& b : kernels::all_benchmarks()) benchmarks.push_back(&b);
  for (const auto& b : kernels::extended_benchmarks()) benchmarks.push_back(&b);
  const auto configs = platform::reduced_design_space();

  for (const auto& model : oracle_models()) {
    for (const auto* bench : benchmarks) {
      for (std::size_t ci = 0; ci < configs.size(); ++ci) {
        for (std::size_t t = 1; t <= model.topology().logical_cores(); ++t) {
          for (const auto binding :
               {platform::BindingPolicy::kClose, platform::BindingPolicy::kSpread}) {
            for (const double scale : {1.0, 0.1}) {
              const platform::Configuration config{configs[ci].config, t, binding};
              const auto where = describe(model, bench->name, ci, t, binding, scale);
              expect_same_bits(model.evaluate(bench->model, config, nullptr, scale),
                               oracle_evaluate(model, bench->model, config, nullptr, scale),
                               where + " noise-free");
              Rng a(t * 131 + ci), b(t * 131 + ci);
              expect_same_bits(model.evaluate(bench->model, config, &a, scale),
                               oracle_evaluate(model, bench->model, config, &b, scale),
                               where + " noisy");
              ASSERT_EQ(a(), b()) << where << ": noise streams diverged";
              if (HasFailure()) return;
            }
          }
        }
      }
    }
  }
}

TEST(ModelIdentity, ProfilePointMatchesThePerRepetitionOracle) {
  auto models = oracle_models();
  const platform::MachinePowerModel machine;
  models.emplace_back(platform::MachineTopology::xeon_e5_2630_v3(), machine, 0.0, 0.0);
  const auto& kernel = kernels::find_benchmark("correlation").model;

  for (const auto& model : models) {
    const auto space = dse::DesignSpace::paper_space(model.topology());
    for (const std::size_t reps : {1u, 2u, 5u}) {
      for (std::size_t ci = 0; ci < space.configs.size(); ++ci) {
        for (const std::size_t t : space.thread_counts) {
          for (const auto binding : space.bindings) {
            for (const double scale : {1.0, 0.1}) {
              Rng a(ci * 7 + t), b(ci * 7 + t);
              const auto got = dse::profile_point(model, kernel, space, ci, t, binding,
                                                  reps, a, scale);
              const auto want = oracle_profile_point(model, kernel, space, ci, t,
                                                     binding, reps, b, scale);
              const auto where = describe(model, "correlation", ci, t, binding, scale) +
                                 " reps=" + std::to_string(reps) +
                                 " sigma=" + std::to_string(model.time_noise_sigma());
              EXPECT_EQ(got.config_name, want.config_name) << where;
              EXPECT_EQ(bits(got.exec_time_mean_s), bits(want.exec_time_mean_s)) << where;
              EXPECT_EQ(bits(got.exec_time_stddev_s), bits(want.exec_time_stddev_s))
                  << where;
              EXPECT_EQ(bits(got.power_mean_w), bits(want.power_mean_w)) << where;
              EXPECT_EQ(bits(got.power_stddev_w), bits(want.power_stddev_w)) << where;
              ASSERT_EQ(a(), b()) << where << ": noise streams diverged";
              if (HasFailure()) return;
            }
          }
        }
      }
    }
  }
}

TEST(ModelIdentity, GoldenDigestOfEveryRegisteredBenchmark) {
  ToolchainOptions options;
  options.seed = 7919;
  options.jobs = 1;
  options.dse = dse::DseStrategyOptions{};  // full factorial
  const auto platform = platform::PerformanceModel::paper_platform();
  ArtifactCache cache;  // memory-only: every build is cold
  Pipeline pipeline(platform, options, &cache);

  std::vector<std::string> names;
  for (const auto& b : kernels::all_benchmarks()) names.push_back(b.name);
  for (const auto& b : kernels::extended_benchmarks()) names.push_back(b.name);
  ASSERT_EQ(names.size(), 18u);

  Hasher digest;
  for (const auto& name : names) {
    const auto bin = pipeline.build(name);
    digest.add(name);
    digest.add(margot::knowledge_to_string(bin.knowledge));
    digest.add(dse::save_profile(bin.profile));
  }
  EXPECT_EQ(digest.hex(), "3318c3b66f5462ef");
}

}  // namespace
}  // namespace socrates
