#include "dse/explorer.hpp"

#include <algorithm>
#include <atomic>
#include <cmath>
#include <set>

#include "observability/metrics.hpp"
#include "observability/trace.hpp"
#include "support/chaos.hpp"
#include "support/env.hpp"
#include "support/error.hpp"
#include "support/rng.hpp"

namespace socrates::dse {

Explorer::~Explorer() = default;

namespace detail {

FlatPoint decompose_flat(const DesignSpace& space, std::size_t flat) {
  const std::size_t n_threads = space.thread_counts.size();
  const std::size_t n_bindings = space.bindings.size();
  FlatPoint p;
  p.config = flat / (n_threads * n_bindings);
  p.thread = (flat / n_bindings) % n_threads;
  p.binding = flat % n_bindings;
  return p;
}

std::size_t compose_flat(const DesignSpace& space, const FlatPoint& p) {
  const std::size_t n_threads = space.thread_counts.size();
  const std::size_t n_bindings = space.bindings.size();
  return (p.config * n_threads + p.thread) * n_bindings + p.binding;
}

FlatProfile profile_flat_supervised(const ExploreContext& ctx,
                                    const std::vector<std::size_t>& flat_indices) {
  SOCRATES_REQUIRE(ctx.repetitions >= 1);
  SOCRATES_REQUIRE(ctx.point_attempts >= 1);
  const DesignSpace& space = ctx.space;

  std::vector<ProfiledPoint> slots(flat_indices.size());
  std::vector<char> dropped(flat_indices.size(), 0);
  std::atomic<std::size_t> retries{0};
  TaskPool& executor = ctx.pool != nullptr ? *ctx.pool : TaskPool::shared();
  ChaosEngine& chaos = ChaosEngine::global();
  static Counter& points_profiled =
      MetricsRegistry::global().counter("dse.points_profiled");

  executor.parallel_for(flat_indices.size(), [&](std::size_t k) {
    TraceSpan span("dse-point", "dse");
    const std::size_t flat = flat_indices[k];
    span.set_arg("point", static_cast<std::int64_t>(flat));
    const FlatPoint fp = decompose_flat(space, flat);
    for (std::size_t attempt = 0; attempt < ctx.point_attempts; ++attempt) {
      try {
        // Indexed (not counter-based) chaos draw: the decision for
        // (flat point, attempt) is independent of which strategy asked
        // and of thread interleaving.
        if (chaos.enabled() &&
            chaos.fire_indexed("dse.point", hash_combine(flat, attempt)))
          throw ChaosFault("injected DSE point fault");
        // Fresh stream every attempt, keyed by the *flat* index: the
        // surviving measurement is bit-identical to the full sweep.
        Rng noise(derive_stream(ctx.seed, flat));
        slots[k] = profile_point(ctx.model, ctx.kernel, space, fp.config,
                                 space.thread_counts[fp.thread],
                                 space.bindings[fp.binding], ctx.repetitions, noise,
                                 ctx.work_scale);
        points_profiled.add(1);
        return;
      } catch (const std::logic_error&) {
        throw;  // a caller bug, not a flaky measurement
      } catch (const std::exception&) {
        if (attempt + 1 < ctx.point_attempts)
          retries.fetch_add(1, std::memory_order_relaxed);
      }
    }
    dropped[k] = 1;
  });

  FlatProfile out;
  out.retries = retries.load();
  out.points.reserve(flat_indices.size());
  out.surviving_flat.reserve(flat_indices.size());
  for (std::size_t k = 0; k < flat_indices.size(); ++k) {
    if (dropped[k] != 0) {
      ++out.dropped;
      continue;
    }
    out.points.push_back(std::move(slots[k]));
    out.surviving_flat.push_back(flat_indices[k]);
  }
  if (out.dropped > 0)
    MetricsRegistry::global().counter("dse.points_dropped").add(out.dropped);
  if (out.retries > 0)
    MetricsRegistry::global().counter("dse.point_retries").add(out.retries);
  return out;
}

}  // namespace detail

namespace {

void require_context(const ExploreContext& ctx) {
  SOCRATES_REQUIRE_MSG(ctx.repetitions >= 1,
                       "DSE repetitions must be >= 1 (got " << ctx.repetitions
                                                            << ")");
  SOCRATES_REQUIRE_MSG(ctx.space.size() > 0, "DSE design space is empty");
  SOCRATES_REQUIRE(ctx.point_attempts >= 1);
}

ExploreResult result_from(detail::FlatProfile&& profile, std::size_t evaluated) {
  ExploreResult out;
  out.points = std::move(profile.points);
  out.evaluated = evaluated;
  out.dropped = profile.dropped;
  out.retries = profile.retries;
  return out;
}

/// The flat indices of a random subset, sorted ascending (deterministic
/// profiling order, independent of the job count).
std::vector<std::size_t> subset_indices(const DesignSpace& space, double fraction,
                                        std::uint64_t seed) {
  const std::size_t total = space.size();
  const auto budget = std::max<std::size_t>(
      1, static_cast<std::size_t>(std::ceil(fraction * static_cast<double>(total))));
  Rng rng(seed);
  std::vector<std::size_t> indices(total);
  for (std::size_t i = 0; i < total; ++i) indices[i] = i;
  rng.shuffle(indices);
  indices.resize(budget);
  std::sort(indices.begin(), indices.end());
  return indices;
}

/// Stratum order mirrors the historical serial loop: config-major, then
/// binding, then a geometric thread ladder anchored at both extremes.
std::vector<std::size_t> stratified_indices(const DesignSpace& space,
                                            std::size_t threads_per_stratum) {
  const std::size_t n_threads = space.thread_counts.size();
  std::set<std::size_t> picked_indices = {0, n_threads - 1};
  const double steps = static_cast<double>(threads_per_stratum - 1);
  for (std::size_t s = 1; s + 1 < threads_per_stratum; ++s) {
    const double t = static_cast<double>(s) / steps;
    const double geo = std::pow(static_cast<double>(n_threads), t);
    const auto idx =
        std::min(n_threads - 1, static_cast<std::size_t>(std::lround(geo)) - 1);
    picked_indices.insert(idx);
  }

  const std::size_t n_bindings = space.bindings.size();
  std::vector<std::size_t> flat_indices;
  flat_indices.reserve(space.configs.size() * n_bindings * picked_indices.size());
  for (std::size_t ci = 0; ci < space.configs.size(); ++ci) {
    for (std::size_t bi = 0; bi < n_bindings; ++bi) {
      for (const std::size_t ti : picked_indices)
        flat_indices.push_back((ci * n_threads + ti) * n_bindings + bi);
    }
  }
  return flat_indices;
}

}  // namespace

// ---- FullFactorialExplorer -------------------------------------------------

ExploreResult FullFactorialExplorer::explore(const ExploreContext& ctx) const {
  require_context(ctx);
  std::vector<std::size_t> indices(ctx.space.size());
  for (std::size_t i = 0; i < indices.size(); ++i) indices[i] = i;
  return result_from(detail::profile_flat_supervised(ctx, indices), indices.size());
}

void FullFactorialExplorer::add_to_key(Hasher& h) const { h.add("dse-full"); }

// ---- RandomSubsetExplorer --------------------------------------------------

RandomSubsetExplorer::RandomSubsetExplorer(double fraction) : fraction_(fraction) {
  SOCRATES_REQUIRE_MSG(std::isfinite(fraction) && fraction > 0.0 && fraction <= 1.0,
                       "random-subset fraction must lie in (0, 1], got "
                           << fraction
                           << " — a zero/negative fraction profiles nothing and "
                              "> 1 cannot draw without replacement");
}

ExploreResult RandomSubsetExplorer::explore(const ExploreContext& ctx) const {
  require_context(ctx);
  const auto indices = subset_indices(ctx.space, fraction_, ctx.seed);
  const std::size_t evaluated = indices.size();
  return result_from(detail::profile_flat_supervised(ctx, indices), evaluated);
}

void RandomSubsetExplorer::add_to_key(Hasher& h) const {
  h.add("dse-subset");
  h.add(fraction_);
}

// ---- StratifiedExplorer ----------------------------------------------------

StratifiedExplorer::StratifiedExplorer(std::size_t threads_per_stratum)
    : threads_per_stratum_(threads_per_stratum) {
  SOCRATES_REQUIRE_MSG(threads_per_stratum >= 2,
                       "stratified ladder needs >= 2 thread counts (got "
                           << threads_per_stratum
                           << ") — both extremes must be anchored");
}

ExploreResult StratifiedExplorer::explore(const ExploreContext& ctx) const {
  require_context(ctx);
  SOCRATES_REQUIRE(!ctx.space.thread_counts.empty());
  const auto indices = stratified_indices(ctx.space, threads_per_stratum_);
  const std::size_t evaluated = indices.size();
  return result_from(detail::profile_flat_supervised(ctx, indices), evaluated);
}

void StratifiedExplorer::add_to_key(Hasher& h) const {
  h.add("dse-stratified");
  h.add(static_cast<std::uint64_t>(threads_per_stratum_));
}

// ---- strategy selection ----------------------------------------------------

DseStrategyOptions DseStrategyOptions::from_env() {
  DseStrategyOptions o;
  const std::string kind = env::choice_or(
      "SOCRATES_DSE", "full", {"full", "subset", "stratified", "two-stage"});
  if (kind == "subset") {
    o.kind = Kind::kSubset;
  } else if (kind == "stratified") {
    o.kind = Kind::kStratified;
  } else if (kind == "two-stage") {
    o.kind = Kind::kTwoStage;
  }
  o.subset_fraction = env::real_or("SOCRATES_DSE_FRACTION", 0.25, 1e-6, 1.0);
  o.stratified_threads = env::size_or("SOCRATES_DSE_STRATA", 6, 2, 1024);
  o.budget = env::size_or("SOCRATES_DSE_BUDGET", 0, 0, 1u << 20);
  o.population = env::size_or("SOCRATES_DSE_POP", 12, 2, 4096);
  o.generations = env::size_or("SOCRATES_DSE_GENS", 24, 1, 4096);
  o.max_representatives = env::size_or("SOCRATES_DSE_PRUNE", 0, 0, 4096);
  return o;
}

const char* DseStrategyOptions::kind_name() const {
  switch (kind) {
    case Kind::kFull: return "full";
    case Kind::kSubset: return "subset";
    case Kind::kStratified: return "stratified";
    case Kind::kTwoStage: return "two-stage";
  }
  return "full";
}

// ---- free functions --------------------------------------------------------

std::vector<ProfiledPoint> full_factorial_dse(const platform::PerformanceModel& model,
                                              const platform::KernelModelParams& kernel,
                                              const DesignSpace& space,
                                              std::size_t repetitions,
                                              std::uint64_t seed, double work_scale,
                                              TaskPool* pool) {
  ExploreContext ctx{model, kernel, space, repetitions, seed, work_scale, pool, 1};
  return FullFactorialExplorer{}.explore(ctx).points;
}

std::vector<ProfiledPoint> random_subset_dse(const platform::PerformanceModel& model,
                                             const platform::KernelModelParams& kernel,
                                             const DesignSpace& space, double fraction,
                                             std::size_t repetitions, std::uint64_t seed,
                                             double work_scale, TaskPool* pool) {
  SOCRATES_REQUIRE_MSG(repetitions >= 1,
                       "random-subset repetitions must be >= 1 (got 0) — zero "
                       "repetitions would produce empty statistics, not a "
                       "cheaper sweep");
  SOCRATES_REQUIRE(space.size() > 0);
  const RandomSubsetExplorer explorer(fraction);  // validates the fraction
  ExploreContext ctx{model, kernel, space, repetitions, seed, work_scale, pool, 1};
  return explorer.explore(ctx).points;
}

std::vector<ProfiledPoint> stratified_dse(const platform::PerformanceModel& model,
                                          const platform::KernelModelParams& kernel,
                                          const DesignSpace& space,
                                          std::size_t threads_per_stratum,
                                          std::size_t repetitions, std::uint64_t seed,
                                          double work_scale, TaskPool* pool) {
  SOCRATES_REQUIRE_MSG(repetitions >= 1,
                       "stratified repetitions must be >= 1 (got 0)");
  const StratifiedExplorer explorer(threads_per_stratum);
  ExploreContext ctx{model, kernel, space, repetitions, seed, work_scale, pool, 1};
  return explorer.explore(ctx).points;
}

}  // namespace socrates::dse
