// Workload `adapt`: the mARGOt MAPE-K loop an adaptive binary runs on
// every kernel call.
//
// Set-up builds the 12 paper benchmarks (full 512-point knowledge) and
// the contexts of 4 applications, a seeded draw from them.  The
// measured phase runs segments of ~200 calls, round robin over the
// apps.  Each segment starts with a seeded requirement change — a new
// power cap, sometimes a rank switch between Thr/W^2 and Thr (Fig. 5),
// sometimes a co-runner episode — so its first update is a cold
// decision; the other calls are the steady loop
//   update -> decode_knobs -> start_monitors -> kernel -> stop_monitors.
// The simulated kernel is timed apart from the four runtime calls.  The
// AS-RTM keeps its default decision epsilon (0: every change in a
// correction invalidates the cached decision).
#include <algorithm>
#include <cmath>
#include <limits>
#include <memory>
#include <string>
#include <vector>

#include "common.hpp"
#include "harness.hpp"
#include "kernels/registry.hpp"
#include "margot/context.hpp"
#include "platform/executor.hpp"
#include "support/rng.hpp"

namespace perfbench {

namespace {

using socrates::platform::PerformanceModel;
using M = socrates::margot::ContextMetrics;

constexpr std::size_t kApps = 4;
constexpr std::size_t kSetupReps = 31;
constexpr std::size_t kReplaySegments = 200;  ///< prefix replayed with spans (trace 0)

/// One adaptive application: the toolchain's binary, its simulated
/// machine and its mARGOt context.  Not movable: the context reads the
/// executor's sensors by reference.
struct App {
  App(const socrates::AdaptiveBinary& binary, const PerformanceModel& platform,
      std::uint64_t noise_seed)
      : bin(binary),
        exec(platform, socrates::kernels::find_benchmark(binary.benchmark).model, 1.0,
             noise_seed),
        ctx(binary.knowledge, exec.sensor_clock(), exec.sensor_counter()) {
    auto& asrtm = ctx.asrtm();
    asrtm.set_rank(thr_per_w2());
    const auto& kb = binary.knowledge;
    power_sorted.assign(kb.metric_means(M::kPower), kb.metric_means(M::kPower) + kb.size());
    std::sort(power_sorted.begin(), power_sorted.end());
    cap_handle = asrtm.add_constraint(
        {M::kPower, socrates::margot::ComparisonOp::kLess, power_sorted.back(), 0, 0.0});
    std::vector<double> times;
    for (std::size_t i = 0; i < kb.size(); ++i) {
      const std::vector<int> knobs = kb[i].knobs;
      const auto m = platform.evaluate(exec.kernel(),
                                       socrates::dse::decode_knobs(binary.space, knobs));
      clean_power.push_back(m.avg_power_w);
      clean_thr.push_back(1.0 / m.exec_time_s);
      times.push_back(m.exec_time_s);
    }
    std::sort(times.begin(), times.end());
    typical_exec_s = times[times.size() / 2];
  }
  App(const App&) = delete;
  App& operator=(const App&) = delete;

  static socrates::margot::Rank thr_per_w2() {
    return socrates::margot::Rank::maximize_throughput_per_watt2(M::kThroughput, M::kPower);
  }
  double objective(std::size_t op) const {
    return thr_rank ? clean_thr[op]
                    : clean_thr[op] / (clean_power[op] * clean_power[op]);
  }

  const socrates::AdaptiveBinary& bin;
  socrates::platform::KernelExecutor exec;
  socrates::margot::Context ctx;
  std::size_t cap_handle = 0;
  std::vector<int> knobs{0, 0, 0};
  std::vector<double> power_sorted;  ///< knowledge power means, ascending
  std::vector<double> clean_power;   ///< noise-free model, per knowledge point
  std::vector<double> clean_thr;
  double typical_exec_s = 0.0;
  bool thr_rank = false;
  double cap = 0.0;
  double best_objective = 0.0;  ///< best feasible clean objective (0: none)
};

/// One requirement change, drawn from the run's seed.
struct Segment {
  std::size_t app = 0;
  std::size_t calls = 0;
  double cap_quantile = 0.5;
  bool switch_rank = false;
  bool disturb = false;
  socrates::platform::Disturbance episode;
  double episode_share = 1.0;  ///< of the segment's expected duration
};

class SegmentSource {
 public:
  explicit SegmentSource(std::uint64_t seed) : rng_(seed) {}
  Segment next() {
    Segment s;
    s.app = index_++ % kApps;
    s.calls = static_cast<std::size_t>(rng_.uniform_int(150, 250));
    s.cap_quantile = rng_.uniform(0.15, 0.85);
    s.switch_rank = rng_.uniform() < 0.25;
    s.disturb = rng_.uniform() < 0.3;
    s.episode.bandwidth_steal = rng_.uniform(0.1, 0.5);
    s.episode.compute_steal = rng_.uniform(0.0, 0.3);
    s.episode.power_overhead_w = rng_.uniform(5.0, 25.0);
    s.episode_share = rng_.uniform(0.3, 1.0);
    return s;
  }

 private:
  socrates::Rng rng_;
  std::size_t index_ = 0;
};

struct PassResult {
  std::size_t segments = 0;
  std::size_t calls = 0;
  LinearHistogram cycle{1.0, 1 << 17};  ///< ns per MAPE cycle, every call
  std::vector<double> redecide_ns;
  std::int64_t cpu_ns = 0;  ///< thread CPU in the four runtime calls (untraced pass)
  std::size_t violations = 0;
  double regret_sum = 0.0;
  std::size_t regret_calls = 0;
  std::size_t cached = 0;
  std::size_t switches = 0;
  std::size_t crashes = 0;
  std::uint64_t prefix_hash = 0;  ///< chosen points of the first kReplaySegments
  std::uint64_t hash = 0;         ///< chosen points of the whole pass
};

std::vector<std::unique_ptr<App>> make_apps(
    const std::vector<socrates::AdaptiveBinary>& bins, const PerformanceModel& platform,
    std::uint64_t seed) {
  std::vector<std::unique_ptr<App>> apps;
  for (std::size_t i = 0; i < bins.size(); ++i)
    apps.push_back(std::make_unique<App>(
        bins[i], platform, derive_seed(seed, "adapt-noise-" + std::to_string(i))));
  return apps;
}

void apply_segment(App& app, const Segment& s) {
  const auto& p = app.power_sorted;
  app.cap = p[static_cast<std::size_t>(s.cap_quantile * static_cast<double>(p.size() - 1))];
  auto& asrtm = app.ctx.asrtm();
  asrtm.set_constraint_goal(app.cap_handle, app.cap);
  if (s.switch_rank) {
    app.thr_rank = !app.thr_rank;
    asrtm.set_rank(app.thr_rank ? socrates::margot::Rank::maximize_throughput(M::kThroughput)
                                : App::thr_per_w2());
  }
  socrates::platform::DisturbanceSchedule schedule;
  if (s.disturb) {
    auto episode = s.episode;
    episode.start_s = app.exec.clock().now_s();
    episode.end_s = episode.start_s + s.episode_share * static_cast<double>(s.calls) *
                                          app.typical_exec_s;
    schedule.add(episode);
  }
  app.exec.set_disturbances(std::move(schedule));
  app.best_objective = 0.0;
  for (std::size_t op = 0; op < app.clean_power.size(); ++op)
    if (app.clean_power[op] < app.cap)
      app.best_objective = std::max(app.best_objective, app.objective(op));
}

/// Names of the spans the traced pass records.
struct SpanNames {
  explicit SpanNames(SpanRecorder& r)
      : iteration(r.name_id("mape.iteration")),
        cycle(r.name_id("mape.cycle")),
        update(r.name_id("margot.update")),
        redecide(r.name_id("margot.redecide")),
        decode(r.name_id("dse.decode_knobs")),
        start(r.name_id("margot.start_monitors")),
        kernel(r.name_id("platform.kernel_run")),
        stop(r.name_id("margot.stop_monitors")) {}
  std::uint32_t iteration, cycle, update, redecide, decode, start, kernel, stop;
};

/// Runs segments until `deadline_ns` or `max_segments`, whichever comes
/// first.  With `spans`, every call is traced.
PassResult run_pass(std::vector<std::unique_ptr<App>>& apps, std::uint64_t schedule_seed,
                    std::int64_t deadline_ns, std::size_t max_segments,
                    Calibrator& calibrator, SpanRecorder* spans) {
  PassResult r;
  SegmentSource source(schedule_seed);
  StreamHash hash;
  std::unique_ptr<SpanNames> names;
  if (spans != nullptr) names = std::make_unique<SpanNames>(*spans);
  while (r.segments < max_segments && (r.segments == 0 || now_ns() < deadline_ns)) {
    calibrator.tick();
    const Segment s = source.next();
    App& app = *apps[s.app];
    apply_segment(app, s);
    const std::size_t space = app.clean_power.size();
    for (std::size_t j = 0; j < s.calls; ++j) {
      bool changed = false;
      socrates::platform::Measurement m;
      std::int64_t cycle_ns = 0;
      // Two copies of the call sequence: the untraced one reads the clocks
      // only where the cycle needs them, so spans cost it nothing.  Its
      // CPU windows enclose the wall windows and leave the kernel out.
      const std::int64_t iteration0 = names == nullptr ? 0 : now_ns();
      if (names == nullptr) {
        const std::int64_t c0 = thread_cpu_ns();
        const std::int64_t t0 = now_ns();
        changed = app.ctx.update(app.knobs);
        if (j == 0) r.redecide_ns.push_back(static_cast<double>(now_ns() - t0));
        const auto config = socrates::dse::decode_knobs(app.bin.space, app.knobs);
        app.ctx.start_monitors();
        const std::int64_t t1 = now_ns();
        r.cpu_ns += thread_cpu_ns() - c0;
        try {
          m = app.exec.run(config);
        } catch (const std::exception&) {
          ++r.crashes;
          app.ctx.cancel_monitors();
          continue;
        }
        const std::int64_t c2 = thread_cpu_ns();
        const std::int64_t t2 = now_ns();
        app.ctx.stop_monitors();
        cycle_ns = (t1 - t0) + (now_ns() - t2);
        r.cpu_ns += thread_cpu_ns() - c2;
      } else {
        const std::int64_t t0 = now_ns();
        changed = app.ctx.update(app.knobs);
        const std::int64_t t1 = now_ns();
        const auto config = socrates::dse::decode_knobs(app.bin.space, app.knobs);
        const std::int64_t t2 = now_ns();
        app.ctx.start_monitors();
        const std::int64_t t3 = now_ns();
        try {
          m = app.exec.run(config);
        } catch (const std::exception&) {
          ++r.crashes;
          app.ctx.cancel_monitors();
          continue;
        }
        const std::int64_t t4 = now_ns();
        app.ctx.stop_monitors();
        const std::int64_t t5 = now_ns();
        cycle_ns = (t3 - t0) + (t5 - t4);
        const auto call = spans->record(names->cycle, t0, t5, 0, r.calls + 1);
        spans->record(j == 0 ? names->redecide : names->update, t0, t1, call, r.calls + 1);
        spans->record(names->decode, t1, t2, call, r.calls + 1);
        spans->record(names->start, t2, t3, call, r.calls + 1);
        spans->record(names->kernel, t3, t4, call, r.calls + 1);
        spans->record(names->stop, t4, t5, call, r.calls + 1);
        if (j == 0) r.redecide_ns.push_back(static_cast<double>(t1 - t0));
      }
      r.cycle.add(cycle_ns);
      ++r.calls;
      const std::size_t op = app.ctx.current_operating_point();
      hash.add(static_cast<std::uint64_t>(op));
      if (changed) ++r.switches;
      if (app.ctx.asrtm().last_decision_was_cached()) ++r.cached;
      if (m.avg_power_w > app.cap) ++r.violations;
      if (app.best_objective > 0.0 && op < space) {
        r.regret_sum +=
            std::max(0.0, (app.best_objective - app.objective(op)) / app.best_objective);
        ++r.regret_calls;
      }
      // The whole iteration: the calls plus the benchmark's own
      // bookkeeping and spans, against which layer coverage is judged.
      if (names != nullptr) spans->record(names->iteration, iteration0, now_ns(), 0, r.calls);
    }
    ++r.segments;
    if (r.segments == kReplaySegments) r.prefix_hash = hash.digest();
  }
  r.hash = hash.digest();
  if (r.segments < kReplaySegments) r.prefix_hash = r.hash;
  return r;
}

}  // namespace

void run_adapt(const Args& args, Report& report) {
  const auto platform = PerformanceModel::paper_platform();
  const auto options = toolchain_options(derive_seed(args.seed, "toolchain") % 1000000);

  // Inputs: which 4 of the 12 paper benchmarks, and the segment schedule.
  auto names = paper_benchmarks();
  socrates::Rng draw(derive_seed(args.seed, "adapt-apps"));
  draw.shuffle(names);
  names.resize(kApps);
  std::string drawn;
  for (const auto& n : names) {
    if (!drawn.empty()) drawn += ',';
    drawn += n;
  }
  report.note("apps", drawn);
  const std::uint64_t schedule_seed = derive_seed(args.seed, "adapt-schedule");

  // ---- set-up: 12 builds + 4 contexts, repeated ----------------------------------
  // All 12 are built, not only the 4 drawn, so that set-up costs the same
  // for every seed: building only the draw cost up to a third more on
  // some seeds than on others.
  std::vector<double> setup_s;
  std::vector<socrates::AdaptiveBinary> bins;
  std::vector<std::unique_ptr<App>> apps;
  Calibrator setup_calibrator;
  for (std::size_t rep = 0; rep < kSetupReps; ++rep) {
    apps.clear();
    bins.clear();
    const std::int64_t t0 = now_ns();
    socrates::ArtifactCache cache;
    socrates::Pipeline pipeline(platform, options, &cache);
    std::vector<socrates::AdaptiveBinary> pool;
    for (const auto& n : paper_benchmarks()) pool.push_back(pipeline.build(n));
    for (const auto& n : names)
      for (auto& b : pool)
        if (b.benchmark == n) bins.push_back(std::move(b));
    apps = make_apps(bins, platform, args.seed);
    setup_s.push_back(static_cast<double>(now_ns() - t0) / 1e9);
    setup_calibrator.run(1);
  }
  report.phase("setup", kSetupReps, 0);
  report.check(bins.size() == kApps, "a drawn app was not built");
  for (const auto& b : bins)
    report.check(b.knowledge.size() == 512, "knowledge base is not 512 points: " + b.benchmark);

  // ---- measured phase ---------------------------------------------------------------
  Calibrator calibrator;
  calibrator.run(3);
  const double measured_s = args.trace ? args.seconds * 0.45 : args.seconds;
  PassResult u = run_pass(apps, schedule_seed,
                          now_ns() + static_cast<std::int64_t>(measured_s * 1e9),
                          std::numeric_limits<std::size_t>::max(), calibrator, nullptr);
  report.phase("mape calls", u.calls, u.crashes);
  report.phase("requirement changes", u.segments, 0);
  report.check(u.crashes == 0, "a kernel call crashed");

  // Replay with spans on fresh apps: the chosen-point sequence must not
  // depend on tracing.  Trace 0 replays a prefix, trace 1 the whole pass.
  SpanRecorder spans;
  auto replay_apps = make_apps(bins, platform, args.seed);
  const std::size_t replay_segments =
      args.trace ? u.segments : std::min(u.segments, kReplaySegments);
  PassResult t = run_pass(replay_apps, schedule_seed,
                          std::numeric_limits<std::int64_t>::max(), replay_segments,
                          calibrator, &spans);
  report.check(t.crashes == 0, "a kernel call crashed in the traced pass");
  report.check((args.trace ? t.hash : t.prefix_hash) == (args.trace ? u.hash : u.prefix_hash),
               "chosen-point sequence differs between untraced and traced runs");

  const Summary setup = summarize(setup_s);
  const Summary redecide = summarize(u.redecide_ns);
  const Summary cycle = u.cycle.summary();
  report.timing("setup", setup, "s");
  report.timing("mape.cycle", cycle, "ns");
  report.timing("margot.redecide", redecide, "ns");

  report.calibration(calibrator);
  const double k = calibrator.factor();
  if (!args.trace) {
    report.note("setup_speed_factor", std::to_string(setup_calibrator.factor()));
    report.metric("setup_s", setup_calibrator.factor() * setup.p50, "s");
    report.metric("cold_us", k * redecide.mean / 1e3, "us");
    report.metric("warm_us", k * cycle.mean / 1e3, "us");
    report.metric("cpu_ns_per_op", k * static_cast<double>(u.cpu_ns) / u.calls, "ns");
    return;
  }

  const double calls = static_cast<double>(t.calls);
  const double update_ns =
      (spans.total_ns("margot.update") + spans.total_ns("margot.redecide")) / calls;
  const double layers_ns = update_ns + spans.mean_ns("dse.decode_knobs") +
                           spans.mean_ns("margot.start_monitors") +
                           spans.mean_ns("margot.stop_monitors");
  // Coverage within the traced pass: the four runtime calls against the
  // whole iteration without the kernel, bookkeeping and spans included.
  const double outside_kernel_ns =
      spans.mean_ns("mape.iteration") - spans.mean_ns("platform.kernel_run");
  const double remainder = 100.0 * (1.0 - layers_ns / outside_kernel_ns);
  report.metric("margot.update_ns", k * update_ns, "ns");
  report.metric("margot.update_cached_pct", 100.0 * t.cached / calls, "%");
  report.metric("margot.monitor_start_ns", k * spans.mean_ns("margot.start_monitors"), "ns");
  report.metric("margot.monitor_stop_ns", k * spans.mean_ns("margot.stop_monitors"), "ns");
  report.metric("dse.decode_knobs_ns", k * spans.mean_ns("dse.decode_knobs"), "ns");
  report.metric("margot.redecide_ns_per_point",
                k * summarize(t.redecide_ns).p50 /
                    static_cast<double>(bins.front().knowledge.size()),
                "ns");
  report.metric("margot.redecide_count", static_cast<double>(t.redecide_ns.size()), "count");
  report.metric("margot.switch_pct", 100.0 * t.switches / calls, "%");
  report.metric("platform.kernel_sim_ns", k * spans.mean_ns("platform.kernel_run"), "ns");
  report.metric("mape.remainder_pct", remainder, "%");
  report.check(remainder <= 10.0, "layers cover less than 90% of the MAPE cycle");
  report.metric("adapt.cap_violation_pct", 100.0 * t.violations / calls, "%");
  report.metric("adapt.track_regret_pct",
                100.0 * t.regret_sum / std::max<std::size_t>(1, t.regret_calls), "%");
  report.metric("trace.overhead_pct", 100.0 * (t.cycle.mean() / u.cycle.mean() - 1.0), "%");
  if (!spans.write(args.out_dir + "/trace-adapt.jsonl"))
    report.note("trace_file", "not written");
}

}  // namespace perfbench
