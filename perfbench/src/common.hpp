// Toolchain helpers shared by the workloads.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "platform/perf_model.hpp"
#include "socrates/pipeline.hpp"
#include "support/artifact_cache.hpp"

namespace perfbench {

/// Explicit toolchain options: the defaults would read SOCRATES_JOBS
/// and SOCRATES_DSE* from the environment, which must not change what
/// the benchmark measures.  Full-factorial DSE, no pruning, one job: on
/// a shared host a second worker thread loses CPU to the hypervisor
/// unseen by the calibration loop, which widened the spread of the
/// build times to 25% with two jobs.
socrates::ToolchainOptions toolchain_options(std::uint64_t toolchain_seed);

/// Names of the 12 paper benchmarks, then the 6 extended ones.
std::vector<std::string> paper_benchmarks();
std::vector<std::string> all_benchmarks();

/// The trained COBAYN model as stored in an artifact cache, so a fresh
/// cache can be seeded with it (a cold build then trains nothing).
struct TrainedModel {
  std::uint64_t key = 0;
  std::string payload;
};
TrainedModel stored_model(socrates::ArtifactCache& cache,
                          const socrates::platform::PerformanceModel& platform,
                          const socrates::ToolchainOptions& options);

}  // namespace perfbench
