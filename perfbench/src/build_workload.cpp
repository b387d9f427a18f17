// Workload `build`: the offline toolchain, cold and warm.
//
// Set-up trains COBAYN once (plus one warm-up build).  The measured
// phase repeats campaigns: all 18 registered benchmarks are built with a
// fresh ArtifactCache that holds only the trained model (cold: every
// DSE is a miss), then rebuilt with the same cache (warm: every DSE
// artifact is a hit).  The runtime and the server do no work here.
#include <algorithm>
#include <cmath>
#include <cstdio>
#include <exception>
#include <map>
#include <string>
#include <vector>

#include "common.hpp"
#include "harness.hpp"
#include "ir/parser.hpp"
#include "ir/printer.hpp"
#include "kernels/registry.hpp"
#include "margot/asrtm.hpp"
#include "margot/context.hpp"
#include "margot/kb_io.hpp"
#include "support/rng.hpp"

namespace perfbench {

namespace {

using socrates::ArtifactCache;
using socrates::Pipeline;
using socrates::platform::PerformanceModel;

constexpr std::size_t kSetupReps = 41;

/// Per-layer metric of a pipeline stage.  The Dse stage explores on a
/// cold build and loads the cached profile on a warm one.  A stage
/// without a declared metric yields an undeclared name, which the
/// report flags as a failed check.
std::string stage_metric(const std::string& stage, bool warm) {
  static const std::map<std::string, std::string> layer = {
      {"Parse", "ir.parse_ms"},          {"Features", "features.extract_ms"},
      {"CobaynPredict", "cobayn.predict_ms"}, {"Weave", "weaver.weave_ms"},
      {"Knowledge", "margot.knowledge_ms"}};
  if (stage == "Dse") return warm ? "dse.cache_load_ms.warm" : "dse.explore_ms.cold";
  const auto it = layer.find(stage);
  return (it != layer.end() ? it->second : "stage." + stage) + (warm ? ".warm" : ".cold");
}

struct Temperature {
  std::vector<double> us;                   ///< wall time per build
  std::map<std::string, double> stage_ns;   ///< summed stage seconds, in ns
  double wall_ns = 0.0;
};

struct PassResult {
  Temperature cold;
  Temperature warm;
  std::int64_t cpu_ns = 0;
  std::size_t campaigns = 0;
  std::size_t cache_hits = 0;
  std::size_t cache_lookups = 0;
  double points_evaluated = 0.0;  ///< summed over cold builds
  double bloat = 0.0;             ///< summed over cold builds
  double regret_pct = 0.0;        ///< mean over the first campaign's binaries
};

/// Relative Thr/W^2 gap between the AS-RTM's pick from the binary's
/// knowledge and the best point of its space on the noise-free model.
double pick_regret_pct(const socrates::AdaptiveBinary& bin, const PerformanceModel& platform) {
  using M = socrates::margot::ContextMetrics;
  const auto& params = socrates::kernels::find_benchmark(bin.benchmark).model;
  const auto objective = [&](const socrates::platform::Configuration& c) {
    const auto m = platform.evaluate(params, c);
    return (1.0 / m.exec_time_s) / (m.avg_power_w * m.avg_power_w);
  };
  socrates::margot::Asrtm asrtm(bin.knowledge);
  asrtm.set_rank(
      socrates::margot::Rank::maximize_throughput_per_watt2(M::kThroughput, M::kPower));
  const std::size_t pick = asrtm.find_best_operating_point();
  double best = 0.0;
  for (const auto& p : bin.profile) best = std::max(best, objective(p.configuration));
  return 100.0 * (best - objective(bin.profile[pick].configuration)) / best;
}

class BuildPass {
 public:
  BuildPass(const PerformanceModel& platform, const socrates::ToolchainOptions& options,
            const TrainedModel& model, std::uint64_t order_seed, Report& report,
            Calibrator& calibrator, SpanRecorder* spans)
      : platform_(platform),
        options_(options),
        model_(model),
        order_rng_(order_seed),
        report_(report),
        calibrator_(calibrator),
        spans_(spans) {}

  /// Runs whole campaigns until `deadline_ns` (at least one).
  PassResult run(std::int64_t deadline_ns) {
    PassResult r;
    do {
      campaign(r);
      calibrator_.tick();
    } while (now_ns() < deadline_ns);
    return r;
  }

 private:
  void campaign(PassResult& r) {
    ArtifactCache cache;
    cache.store(model_.key, "cobayn-model", model_.payload);
    Pipeline pipeline(platform_, options_, &cache);
    pipeline.cobayn_model();  // loads the seeded model outside the timed builds
    const auto before = cache.stats();

    auto order = all_benchmarks();
    order_rng_.shuffle(order);

    std::vector<std::string> cold_kb(order.size());
    for (std::size_t i = 0; i < order.size(); ++i) {
      const auto bin = timed_build(pipeline, order[i], false, r.cold, r.cpu_ns);
      cold_kb[i] = socrates::margot::knowledge_to_string(bin.knowledge);
      r.points_evaluated += static_cast<double>(bin.profile.size());
      r.bloat += bin.woven.report.bloat();
      if (r.campaigns == 0) r.regret_pct += pick_regret_pct(bin, platform_) / order.size();
      check_woven(bin);
    }
    for (std::size_t i = 0; i < order.size(); ++i) {
      const auto bin = timed_build(pipeline, order[i], true, r.warm, r.cpu_ns);
      report_.check(socrates::margot::knowledge_to_string(bin.knowledge) == cold_kb[i],
                    "warm knowledge differs from cold: " + order[i]);
      check_woven(bin);
    }
    const auto after = cache.stats();
    r.cache_hits += after.memory_hits - before.memory_hits;
    r.cache_lookups += (after.memory_hits - before.memory_hits) +
                       (after.misses - before.misses);
    ++r.campaigns;
  }

  socrates::AdaptiveBinary timed_build(Pipeline& pipeline, const std::string& name,
                                       bool warm, Temperature& t, std::int64_t& cpu_ns) {
    const std::int64_t c0 = process_cpu_ns();
    const std::int64_t t0 = now_ns();
    auto bin = pipeline.build(name);
    const std::int64_t t1 = now_ns();
    cpu_ns += process_cpu_ns() - c0;
    t.us.push_back(static_cast<double>(t1 - t0) / 1e3);
    t.wall_ns += static_cast<double>(t1 - t0);

    const auto& stages = pipeline.last_report().stages;
    const auto* dse = pipeline.last_report().stage("Dse");
    report_.check(dse != nullptr && dse->cache_hit == warm,
                  "Dse cache " + std::string(warm ? "miss on warm" : "hit on cold") +
                      " build: " + name);
    bool degraded = false;
    for (const auto& s : stages) degraded = degraded || s.degraded();
    report_.check(!degraded, "degraded stage in build: " + name);

    // Stage spans come from the pipeline's own stage clock; they are
    // laid back to back from the build's start under the build span.
    std::uint64_t parent = 0;
    if (spans_ != nullptr)
      parent = spans_->record(spans_->name_id(warm ? "pipeline.build.warm"
                                                   : "pipeline.build.cold"),
                              t0, t1);
    std::int64_t cursor = t0;
    for (const auto& s : stages) {
      const double ns = s.seconds * 1e9;
      const std::string layer = stage_metric(s.name, warm);
      t.stage_ns[layer] += ns;
      if (spans_ != nullptr) {
        const auto end = cursor + static_cast<std::int64_t>(ns);
        spans_->record(spans_->name_id(layer), cursor, end, parent);
        cursor = end;
      }
    }
    return bin;
  }

  void check_woven(const socrates::AdaptiveBinary& bin) {
    bool ok = !bin.woven.kernels.empty();
    try {
      socrates::ir::parse(socrates::ir::print(bin.woven.unit));
    } catch (const std::exception&) {
      ok = false;
    }
    report_.check(ok, "woven source does not re-parse: " + bin.benchmark);
  }

  const PerformanceModel& platform_;
  const socrates::ToolchainOptions& options_;
  const TrainedModel& model_;
  socrates::Rng order_rng_;
  Report& report_;
  Calibrator& calibrator_;
  SpanRecorder* spans_;
};

}  // namespace

void run_build(const Args& args, Report& report) {
  const auto platform = PerformanceModel::paper_platform();
  const auto options = toolchain_options(derive_seed(args.seed, "toolchain") % 1000000);
  report.note("toolchain_seed", std::to_string(options.seed));
  report.note("jobs", std::to_string(options.jobs));

  // ---- set-up: COBAYN training + one warm-up build, repeated ----------------
  std::vector<double> setup_s;
  std::vector<double> train_ms;
  TrainedModel model;
  Calibrator setup_calibrator;
  for (std::size_t rep = 0; rep < kSetupReps; ++rep) {
    const std::int64_t t0 = now_ns();
    ArtifactCache cache;
    Pipeline pipeline(platform, options, &cache);
    const std::int64_t tt = now_ns();
    pipeline.cobayn_model();
    train_ms.push_back(static_cast<double>(now_ns() - tt) / 1e6);
    pipeline.build(paper_benchmarks().front());
    setup_s.push_back(static_cast<double>(now_ns() - t0) / 1e9);
    if (rep + 1 == kSetupReps) model = stored_model(cache, platform, options);
    setup_calibrator.run(1);
  }
  report.phase("setup", kSetupReps, 0);

  // ---- measured phase ----------------------------------------------------------
  Calibrator calibrator;
  calibrator.run(3);
  const auto order_seed = derive_seed(args.seed, "build-order");
  const double measured_s = args.trace ? args.seconds / 2.0 : args.seconds;
  BuildPass untraced(platform, options, model, order_seed, report, calibrator, nullptr);
  const PassResult u = untraced.run(now_ns() + static_cast<std::int64_t>(measured_s * 1e9));
  const std::size_t builds = u.cold.us.size() + u.warm.us.size();
  report.phase("cold builds", u.cold.us.size(), 0);
  report.phase("warm builds", u.warm.us.size(), 0);
  report.note("campaigns", std::to_string(u.campaigns));

  const Summary setup = summarize(setup_s);
  report.timing("setup", setup, "s");
  report.timing("build.cold", summarize(u.cold.us), "us");
  report.timing("build.warm", summarize(u.warm.us), "us");
  report.timing("cobayn.train", summarize(train_ms), "ms");

  if (!args.trace) {
    report.calibration(calibrator);
    const double k = calibrator.factor();
    report.note("setup_speed_factor", std::to_string(setup_calibrator.factor()));
    report.metric("setup_s", setup_calibrator.factor() * setup.p50, "s");
    report.metric("cold_us", k * u.cold.wall_ns / 1e3 / static_cast<double>(u.cold.us.size()), "us");
    report.metric("warm_us", k * u.warm.wall_ns / 1e3 / static_cast<double>(u.warm.us.size()), "us");
    report.metric("cpu_ns_per_op", k * static_cast<double>(u.cpu_ns) / builds, "ns");
    return;
  }

  // ---- traced pass: the same campaigns with spans ------------------------------------
  SpanRecorder spans;
  BuildPass traced(platform, options, model, order_seed, report, calibrator, &spans);
  const PassResult t = traced.run(now_ns() + static_cast<std::int64_t>(measured_s * 1e9));
  report.calibration(calibrator);
  const double k = calibrator.factor();
  for (const bool w : {false, true}) {
    const Temperature& temp = w ? t.warm : t.cold;
    double covered = 0.0;
    for (const auto& [layer, ns] : temp.stage_ns) {
      report.metric(layer, k * ns / 1e6 / static_cast<double>(temp.us.size()), "ms");
      covered += ns;
    }
    const double remainder = 100.0 * (temp.wall_ns - covered) / temp.wall_ns;
    report.metric(w ? "build.remainder_pct.warm" : "build.remainder_pct.cold", remainder,
                  "%");
    report.check(remainder <= 10.0, "stages cover less than 90% of the build time");
  }
  report.metric("cobayn.train_ms", k * summarize(train_ms).p50, "ms");
  report.metric("cache.hit_pct",
                100.0 * t.cache_hits / std::max<std::size_t>(1, t.cache_lookups), "%");
  report.metric("dse.points_evaluated", t.points_evaluated / t.cold.us.size(), "count");
  report.metric("weaver.bloat_x", t.bloat / t.cold.us.size(), "x");
  report.metric("build.pick_regret_pct", t.regret_pct, "%");
  const double untraced_mean = (u.cold.wall_ns + u.warm.wall_ns) / builds;
  const double traced_mean =
      (t.cold.wall_ns + t.warm.wall_ns) / (t.cold.us.size() + t.warm.us.size());
  report.metric("trace.overhead_pct", 100.0 * (traced_mean / untraced_mean - 1.0), "%");
  if (!spans.write(args.out_dir + "/trace-build.jsonl"))
    report.note("trace_file", "not written");
}

}  // namespace perfbench
