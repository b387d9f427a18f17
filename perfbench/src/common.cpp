#include "common.hpp"

#include <stdexcept>

#include "cobayn/cobayn.hpp"
#include "dse/explorer.hpp"
#include "kernels/registry.hpp"

namespace perfbench {

socrates::ToolchainOptions toolchain_options(std::uint64_t toolchain_seed) {
  socrates::ToolchainOptions o;
  o.seed = toolchain_seed;
  o.jobs = 1;
  o.dse = socrates::dse::DseStrategyOptions{};  // full factorial, not from_env()
  return o;
}

std::vector<std::string> paper_benchmarks() {
  std::vector<std::string> names;
  for (const auto& b : socrates::kernels::all_benchmarks()) names.push_back(b.name);
  return names;
}

std::vector<std::string> all_benchmarks() {
  auto names = paper_benchmarks();
  for (const auto& b : socrates::kernels::extended_benchmarks()) names.push_back(b.name);
  return names;
}

TrainedModel stored_model(socrates::ArtifactCache& cache,
                          const socrates::platform::PerformanceModel& platform,
                          const socrates::ToolchainOptions& options) {
  TrainedModel model;
  // The pipeline keys its model with default TrainOptions (the pool
  // pointer is not part of the key).
  model.key = socrates::cobayn_artifact_key(platform, options.corpus_size, options.seed,
                                            socrates::cobayn::TrainOptions{});
  const auto payload = cache.load(model.key, "cobayn-model");
  if (!payload) throw std::runtime_error("trained COBAYN model not found in the cache");
  model.payload = *payload;
  return model;
}

}  // namespace perfbench
