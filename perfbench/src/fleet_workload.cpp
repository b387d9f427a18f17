// Workload `fleet`: the multi-tenant server under open-loop feedback.
//
// Set-up builds the 18 knowledge bases and registers 1024 tenants, each
// with a seeded benchmark, that benchmark's features (so the knowledge
// pool is live) and a seeded power cap.  A warm-up phase runs until
// every tenant has donated to the pool.  Then one generator thread
// submits feedback open-loop at 250k events/s: each value is the
// knowledge mean of the tenant's current point x a seeded per-tenant
// drift x seeded noise.  About every 60th event is a freshness probe,
// and every millisecond a decide_batch sweeps the next slice of tenants.
// ServerOptions and the AS-RTM decision epsilon stay at their defaults
// (2 shards, kBlock, group commit 64; epsilon 0); checkpoints go to the
// run's output directory.
#include <algorithm>
#include <cstdio>
#include <filesystem>
#include <memory>
#include <span>
#include <string>
#include <unistd.h>
#include <vector>

#include "common.hpp"
#include "harness.hpp"
#include "margot/context.hpp"
#include "server/server.hpp"
#include "sources.hpp"

namespace perfbench {

namespace {

using socrates::margot::Asrtm;
using socrates::platform::PerformanceModel;
using socrates::server::Admission;
using socrates::server::Server;
using M = socrates::margot::ContextMetrics;

constexpr std::uint32_t kTenants = 1024;
constexpr double kEventsPerS = 250000.0;
constexpr std::int64_t kDecidePeriodNs = 1000000;
/// The measured phase is also summarized per window of this length; the
/// end-to-end figures are medians over the windows, so a burst of host
/// or disk contention in part of a run does not move them.
constexpr std::int64_t kWindowNs = 1000000000;
/// Tenants per sweep, in rotation: each is re-decided about once a
/// second.  At the default epsilon every tenant has new feedback by its
/// next sweep, so its decision is retaken over 512 points (20-40 us with
/// apply running), and a sweep over all 1024 tenants every millisecond
/// would need 20-40 ms of the generator's thread.  With a slice of 8,
/// freshness p50 rose from ~68 to ~128 us because the generator fell
/// behind its schedule; with 1 it stays on schedule.
constexpr std::size_t kSweepTenants = 1;
constexpr std::size_t kSetupReps = 9;
constexpr std::size_t kSampleTenants = 16;
constexpr std::size_t kRegisterReps = 21;
/// Warm-up events per tenant: above ServerOptions::pool_publish_after
/// (64), so every tenant donates before the measured phase.
constexpr std::size_t kWarmupPerTenant = 80;

struct TenantSpec {
  std::size_t bench = 0;  ///< index into the 18 binaries
  double cap = 0.0;       ///< power constraint goal
  double drift[3] = {1.0, 1.0, 1.0};
};

/// What the generator drives: seeded tenant specs over the 18 binaries.
struct FleetInputs {
  std::vector<socrates::AdaptiveBinary> bins;
  std::vector<TenantSpec> tenants;
  std::vector<bool> sampled;  ///< tenants whose stream is replayed standalone
};

std::function<void(Asrtm&)> configure(double cap) {
  return [cap](Asrtm& asrtm) {
    asrtm.set_rank(
        socrates::margot::Rank::maximize_throughput_per_watt2(M::kThroughput, M::kPower));
    asrtm.add_constraint({M::kPower, socrates::margot::ComparisonOp::kLess, cap, 0, 0.0});
  };
}

std::string tenant_name(std::size_t t) { return "tenant" + std::to_string(t); }

socrates::server::ServerOptions server_options(const std::string& dir) {
  socrates::server::ServerOptions o;  // defaults, never from_env()
  o.checkpoint_dir = dir;
  return o;
}

/// Registers every tenant; returns the per-call times in us.
std::vector<double> create_tenants(Server& server, const FleetInputs& in,
                                   std::vector<Server::TenantHandle>& handles,
                                   std::size_t& warm_started, Report& report) {
  std::vector<double> us;
  handles.clear();
  warm_started = 0;
  for (std::size_t t = 0; t < in.tenants.size(); ++t) {
    const auto& spec = in.tenants[t];
    socrates::server::TenantProfile profile;
    profile.features = in.bins[spec.bench].kernel_features;
    const std::int64_t t0 = now_ns();
    const auto created = server.create_tenant(tenant_name(t), in.bins[spec.bench].knowledge,
                                              configure(spec.cap), profile);
    us.push_back(static_cast<double>(now_ns() - t0) / 1e3);
    report.check(created.created, "create_tenant failed: " + tenant_name(t));
    handles.push_back(created.handle);
    if (created.warm_started) ++warm_started;
  }
  return us;
}

struct RecordedEvent {
  std::uint32_t op;
  std::uint32_t metric;
  double value;
};

/// The generator: submits events, sweeps decisions, polls probes.
class Generator {
 public:
  Generator(Server& server, const FleetInputs& in,
            const std::vector<Server::TenantHandle>& handles, std::uint64_t seed)
      : server_(server),
        in_(in),
        handles_(handles),
        source_(seed, kTenants),
        best_(kTenants, 0),
        accepted_(kTenants, 0),
        recorded_(kTenants) {
    server_.decide_batch(handles_, best_);
  }

  struct Phase {
    std::size_t submitted = 0;
    std::size_t accepted = 0;
    std::size_t refused = 0;
    std::vector<double> fresh_us;
    std::vector<double> sent_fresh_us;
    std::size_t probes = 0;
    std::size_t probes_lost = 0;
    LinearHistogram late_us{0.25, 200000};
    std::int64_t process_cpu_ns = 0;
    std::int64_t generator_cpu_ns = 0;
    std::size_t sweeps = 0;
    std::size_t lockfree = 0;
    double sweep_ns = 0.0;
    /// Per whole window of the schedule: probe freshness (by due time)
    /// and server CPU per accepted event.
    std::vector<std::vector<double>> window_fresh_us;
    std::vector<double> window_cpu_ns;
  };

  /// Closed loop: `per_tenant` events for every tenant, as fast as the
  /// server accepts them, then a full drain.
  void warm_up(std::size_t per_tenant, Report& report) {
    Phase ignored;
    for (std::size_t round = 0; round < per_tenant; ++round)
      for (std::uint32_t t = 0; t < kTenants; ++t) submit(source_.next(), t, ignored, nullptr);
    report.check(server_.drain(60.0), "warm-up did not drain");
    server_.decide_batch(handles_, best_);
  }

  /// Open loop at kEventsPerS for `seconds`; with `spans`, every call
  /// into the server is traced.
  Phase drive(double seconds, SpanRecorder* spans) {
    Phase p;
    const std::int64_t period = static_cast<std::int64_t>(1e9 / kEventsPerS);
    struct Probe {
      std::uint32_t tenant;
      std::uint64_t target;
      std::int64_t due;
      std::int64_t sent;
      std::uint64_t event;
    };
    std::vector<Probe> pending;
    const std::uint32_t poll_span = spans ? spans->name_id("server.tenant_status") : 0;
    const std::uint32_t sweep_span = spans ? spans->name_id("server.decide_batch") : 0;
    const std::uint32_t fresh_span = spans ? spans->name_id("probe.fresh") : 0;
    if (spans) submit_span_ = spans->name_id("server.submit_feedback");

    const std::int64_t cpu0 = process_cpu_ns();
    const std::int64_t gen0 = thread_cpu_ns();
    const std::int64_t start = now_ns();
    const std::int64_t end = start + static_cast<std::int64_t>(seconds * 1e9);
    const std::int64_t give_up = end + 1000000000;  // probes unseen 1 s after the end are lost
    std::int64_t due = start;
    std::int64_t next_sweep = start;
    std::uint64_t event_id = 0;
    const auto windows = static_cast<std::size_t>((end - start) / kWindowNs);
    p.window_fresh_us.resize(windows);
    std::int64_t window_serve0 = cpu0 - gen0;
    std::size_t window_accepted0 = 0;
    const auto close_window = [&] {
      const std::int64_t serve = process_cpu_ns() - thread_cpu_ns();
      p.window_cpu_ns.push_back(
          static_cast<double>(serve - window_serve0) /
          static_cast<double>(std::max<std::size_t>(1, p.accepted - window_accepted0)));
      window_serve0 = serve;
      window_accepted0 = p.accepted;
    };
    for (;;) {
      std::int64_t now = now_ns();
      if (p.window_cpu_ns.size() < windows &&
          now >= start + static_cast<std::int64_t>(p.window_cpu_ns.size() + 1) * kWindowNs)
        close_window();
      if (due < end && now >= due) {
        p.late_us.add(static_cast<double>(now - due) / 1e3);
        const FleetEvent e = source_.next();
        ++event_id;
        const bool accepted = submit(e, e.tenant, p, spans, event_id);
        if (accepted && e.probe) {
          pending.push_back({e.tenant, accepted_[e.tenant], due, now_ns(), event_id});
          ++p.probes;
        }
        due += period;
        continue;
      }
      if (due >= end && (pending.empty() || now > give_up)) break;
      if (due < end && now >= next_sweep) {
        const std::int64_t s0 = now_ns();
        p.lockfree += server_.decide_batch(
            std::span(handles_).subspan(next_slice_, kSweepTenants),
            std::span(best_).subspan(next_slice_, kSweepTenants));
        next_slice_ = (next_slice_ + kSweepTenants) % kTenants;
        const std::int64_t s1 = now_ns();
        if (spans) spans->record(sweep_span, s0, s1);
        p.sweep_ns += static_cast<double>(s1 - s0);
        ++p.sweeps;
        next_sweep = std::max(next_sweep + kDecidePeriodNs, s1);
        continue;
      }
      for (std::size_t i = 0; i < pending.size();) {
        const Probe& probe = pending[i];
        const std::int64_t t0 = now_ns();
        const bool seen = server_.tenant_status(handles_[probe.tenant]).applied >= probe.target;
        if (spans) spans->record(poll_span, t0, now_ns(), 0, probe.event);
        if (seen) {
          p.fresh_us.push_back(static_cast<double>(t0 - probe.due) / 1e3);
          const auto window = static_cast<std::size_t>((probe.due - start) / kWindowNs);
          if (window < windows) p.window_fresh_us[window].push_back(p.fresh_us.back());
          p.sent_fresh_us.push_back(static_cast<double>(t0 - probe.sent) / 1e3);
          if (spans) spans->record(fresh_span, probe.due, t0, 0, probe.event);
          pending[i] = pending.back();
          pending.pop_back();
        } else {
          ++i;
        }
      }
    }
    if (p.window_cpu_ns.size() < windows) close_window();  // the last one ends with the drain
    p.probes_lost = pending.size();
    p.process_cpu_ns = process_cpu_ns() - cpu0;
    p.generator_cpu_ns = thread_cpu_ns() - gen0;
    return p;
  }

  const std::vector<std::uint64_t>& accepted() const { return accepted_; }
  const std::vector<RecordedEvent>& recorded(std::size_t t) const { return recorded_[t]; }

 private:
  bool submit(const FleetEvent& e, std::uint32_t tenant, Phase& p, SpanRecorder* spans,
              std::uint64_t event_id = 0) {
    const TenantSpec& spec = in_.tenants[tenant];
    const auto op = static_cast<std::uint32_t>(best_[tenant]);
    const auto& kb = in_.bins[spec.bench].knowledge;
    const double value = kb.metric_means(e.metric)[op] * spec.drift[e.metric] * e.noise;
    const std::int64_t t0 = spans ? now_ns() : 0;
    const Admission a = server_.submit_feedback(handles_[tenant], op, e.metric, value);
    if (spans) spans->record(submit_span_, t0, now_ns(), 0, event_id);
    ++p.submitted;
    if (a != Admission::kAccepted) {
      ++p.refused;
      return false;
    }
    ++p.accepted;
    ++accepted_[tenant];
    if (in_.sampled[tenant]) recorded_[tenant].push_back({op, e.metric, value});
    return true;
  }

  Server& server_;
  const FleetInputs& in_;
  const std::vector<Server::TenantHandle>& handles_;
  FleetEventSource source_;
  std::vector<std::size_t> best_;
  std::vector<std::uint64_t> accepted_;
  std::vector<std::vector<RecordedEvent>> recorded_;
  std::uint32_t submit_span_ = 0;
  std::size_t next_slice_ = 0;  ///< first tenant of the next sweep
};

double serve_cpu_ns(const Generator::Phase& p) {
  return static_cast<double>(p.process_cpu_ns - p.generator_cpu_ns) /
         static_cast<double>(std::max<std::size_t>(1, p.accepted));
}

/// Output checks after a drained phase: conservation, per-tenant apply
/// counts, and a standalone AS-RTM replay of the sampled tenants.
void check_server(Server& server, const FleetInputs& in,
                  const std::vector<Server::TenantHandle>& handles, const Generator& gen,
                  Report& report) {
  report.check(server.drain(60.0), "server did not drain");
  const auto stats = server.stats();
  report.check(stats.accepted == stats.drained + stats.shed, "accepted != drained + shed");
  report.check(stats.shed == 0, "events were shed");
  report.check(stats.invalid == 0, "events were refused as invalid");
  std::size_t mismatched = 0;
  for (std::size_t t = 0; t < handles.size(); ++t)
    if (server.tenant_status(handles[t]).applied != gen.accepted()[t]) ++mismatched;
  report.check(mismatched == 0, std::to_string(mismatched) + " tenants applied != accepted");
  for (std::size_t t = 0; t < handles.size(); ++t) {
    if (!in.sampled[t]) continue;
    Asrtm standalone(in.bins[in.tenants[t].bench].knowledge);
    configure(in.tenants[t].cap)(standalone);
    for (const auto& e : gen.recorded(t)) standalone.send_feedback(e.op, e.metric, e.value);
    bool equal = true;
    server.with_tenant(handles[t], [&](Asrtm& served) {
      for (std::size_t m = 0; m < 3; ++m)
        equal = equal && served.correction(m) == standalone.correction(m);
    });
    report.check(equal, "served corrections differ from a standalone AS-RTM: " +
                            tenant_name(t));
  }
}

/// Checkpoints every tenant, kills the server and resumes it; returns
/// the per-tenant resume times (us) and checks the resume is exact.
std::vector<double> kill_and_resume(std::unique_ptr<Server>& server, const FleetInputs& in,
                                    std::vector<Server::TenantHandle>& handles,
                                    const std::string& dir, double& resume_s,
                                    std::size_t& warm_started, Report& report) {
  server->checkpoint_all();
  std::vector<double> before;
  for (const auto h : handles)
    server->with_tenant(h, [&](Asrtm& a) {
      for (std::size_t m = 0; m < 3; ++m) before.push_back(a.correction(m));
    });
  server.reset();
  const std::int64_t t0 = now_ns();
  server = std::make_unique<Server>(server_options(dir));
  auto us = create_tenants(*server, in, handles, warm_started, report);
  resume_s = static_cast<double>(now_ns() - t0) / 1e9;
  std::size_t exact = 0;
  for (std::size_t t = 0; t < handles.size(); ++t) {
    bool equal = true;
    server->with_tenant(handles[t], [&](Asrtm& a) {
      for (std::size_t m = 0; m < 3; ++m) equal = equal && a.correction(m) == before[3 * t + m];
    });
    if (equal) ++exact;
  }
  report.check(exact == handles.size(),
               std::to_string(handles.size() - exact) + " tenants resumed inexactly");
  return us;
}

}  // namespace

void run_fleet(const Args& args, Report& report) {
  namespace fs = std::filesystem;
  const auto platform = PerformanceModel::paper_platform();
  const auto options = toolchain_options(derive_seed(args.seed, "toolchain") % 1000000);
  const std::string root =
      args.out_dir + "/fleet-" + std::to_string(static_cast<long>(::getpid()));
  fs::remove_all(root);

  // Inputs: each tenant's benchmark, power cap quantile and drift.
  FleetInputs in;
  const auto names = all_benchmarks();
  socrates::Rng rng(derive_seed(args.seed, "fleet-tenants"));
  std::vector<double> cap_quantile;
  for (std::uint32_t t = 0; t < kTenants; ++t) {
    TenantSpec spec;
    spec.bench = static_cast<std::size_t>(rng.uniform_int(0, names.size() - 1));
    cap_quantile.push_back(rng.uniform(0.2, 0.9));
    for (double& d : spec.drift) d = rng.uniform(0.9, 1.1);
    in.tenants.push_back(spec);
    in.sampled.push_back(false);
  }
  for (std::size_t k = 0; k < kSampleTenants; ++k)
    in.sampled[static_cast<std::size_t>(rng.uniform_int(0, kTenants - 1))] = true;

  // ---- set-up: 18 builds + 1024 create_tenant, repeated ---------------------------
  std::vector<double> setup_s;
  std::vector<double> create_us;
  std::unique_ptr<Server> server;
  std::vector<Server::TenantHandle> handles;
  std::size_t warm_started = 0;
  std::string dir;
  for (std::size_t rep = 0; rep < kSetupReps; ++rep) {
    server.reset();
    if (!dir.empty()) fs::remove_all(dir);
    dir = root + "/rep" + std::to_string(rep);
    const std::int64_t t0 = now_ns();
    {
      socrates::ArtifactCache cache;
      socrates::Pipeline pipeline(platform, options, &cache);
      in.bins.clear();
      for (const auto& n : names) in.bins.push_back(pipeline.build(n));
    }
    for (std::size_t t = 0; t < kTenants; ++t) {
      const auto* power = in.bins[in.tenants[t].bench].knowledge.metric_means(M::kPower);
      std::vector<double> sorted(power, power + in.bins[in.tenants[t].bench].knowledge.size());
      std::sort(sorted.begin(), sorted.end());
      in.tenants[t].cap = quantile_sorted(sorted, cap_quantile[t]);
    }
    server = std::make_unique<Server>(server_options(dir));
    create_us = create_tenants(*server, in, handles, warm_started, report);
    setup_s.push_back(static_cast<double>(now_ns() - t0) / 1e9);
  }
  report.phase("setup", kSetupReps, 0);
  report.phase("create_tenant", create_us.size(), create_us.size() - handles.size());

  // The tenant cold start without the checkpoint layer: AS-RTM over the
  // tenant's knowledge, configure, pool lookup.  With persistence on,
  // registration time is dominated by checkpoint-directory scans and
  // varies with the file system by tens of percent between runs.  Each
  // repetition registers all tenants on a fresh server; the median of
  // the repetitions' CPU time per registration is reported (thread CPU
  // time leaves out what the hypervisor steals from the vCPU).
  std::vector<double> register_us;
  std::vector<double> register_cpu_us;
  for (std::size_t rep = 0; rep < kRegisterReps; ++rep) {
    Server memory_only(server_options(""));
    std::vector<Server::TenantHandle> ignored_handles;
    std::size_t ignored = 0;
    const std::int64_t c0 = thread_cpu_ns();
    register_us = create_tenants(memory_only, in, ignored_handles, ignored, report);
    register_cpu_us.push_back(static_cast<double>(thread_cpu_ns() - c0) / 1e3 /
                              static_cast<double>(register_us.size()));
  }
  report.timing("server.create_tenant_memory_only", summarize(register_us), "us");

  Generator gen(*server, in, handles, derive_seed(args.seed, "fleet-events"));
  gen.warm_up(kWarmupPerTenant, report);
  std::size_t donors = 0;
  for (const auto h : handles)
    if (server->tenant_status(h).applied >= server->options().pool_publish_after) ++donors;
  report.check(donors == handles.size(), "not every tenant donated during warm-up");
  report.check(server->stats().pool_entries > 0, "knowledge pool is empty after warm-up");

  const auto record_phase = [&](const std::string& name, const Generator::Phase& p) {
    report.phase(name + " events", p.submitted, p.refused);
    report.phase(name + " probes", p.probes, p.probes_lost);
    report.timing(name + ".fresh", summarize(p.fresh_us), "us");
    report.timing(name + ".sent_fresh", summarize(p.sent_fresh_us), "us");
    auto late = p.late_us;
    report.timing(name + ".generator_late", late.summary(), "us");
    report.check(p.refused == 0, name + ": events refused");
    report.check(p.probes_lost == 0, name + ": probes never became visible");
  };

  const Summary setup = summarize(setup_s);
  report.timing("setup", setup, "s");
  report.timing("server.create_tenant", summarize(create_us), "us");

  if (!args.trace) {
    const auto p = gen.drive(args.seconds, nullptr);
    record_phase("measured", p);
    check_server(*server, in, handles, gen, report);
    double resume_s = 0.0;
    const auto resume_us =
        kill_and_resume(server, in, handles, dir, resume_s, warm_started, report);
    report.timing("checkpoint.resume_tenant", summarize(resume_us), "us");
    // Not calibrated: the server's time goes to its own threads, file
    // I/O and timed sleeps, which the single-threaded reference loop
    // does not track (calibrating widened the run-to-run spread).
    report.metric("setup_s", setup.p50, "s");
    report.metric("cold_us", quantile(register_cpu_us, 0.5), "us");
    std::vector<double> window_p50;
    for (const auto& w : p.window_fresh_us)
      if (!w.empty()) window_p50.push_back(quantile(w, 0.5));
    report.timing("measured.window_fresh_p50", summarize(window_p50), "us");
    report.timing("measured.window_serve_cpu", summarize(p.window_cpu_ns), "ns");
    report.check(!window_p50.empty() && !p.window_cpu_ns.empty(), "no whole measured window");
    report.metric("warm_us", quantile(window_p50, 0.5), "us");
    report.metric("cpu_ns_per_op", quantile(p.window_cpu_ns, 0.5), "ns");
    server.reset();
    fs::remove_all(root);
    return;
  }

  // ---- traced run: idle, untraced, traced, resume, persistence off ---------------
  {
    const double idle_s = std::min(1.0, 0.1 * args.seconds);
    const std::int64_t c0 = process_cpu_ns();
    const std::int64_t w0 = now_ns();
    ::usleep(static_cast<useconds_t>(idle_s * 1e6));
    report.metric("server.idle_cpu_pct",
                  100.0 * static_cast<double>(process_cpu_ns() - c0) /
                      static_cast<double>(now_ns() - w0),
                  "%");
  }
  const double phase_s = 0.3 * args.seconds;
  const auto untraced = gen.drive(phase_s, nullptr);
  record_phase("untraced", untraced);
  SpanRecorder spans;
  const auto traced = gen.drive(phase_s, &spans);
  record_phase("traced", traced);
  check_server(*server, in, handles, gen, report);
  double resume_s = 0.0;
  kill_and_resume(server, in, handles, dir, resume_s, warm_started, report);
  server.reset();
  fs::remove_all(root);

  // Same traffic with persistence off: what apply costs without the journal.
  double memory_only_cpu_ns = 0.0;
  {
    Server memory_only(server_options(""));
    std::size_t ignored = 0;
    create_tenants(memory_only, in, handles, ignored, report);
    Generator off(memory_only, in, handles, derive_seed(args.seed, "fleet-events"));
    off.warm_up(kWarmupPerTenant, report);
    const auto p = off.drive(phase_s, nullptr);
    record_phase("memory-only", p);
    check_server(memory_only, in, handles, off, report);
    memory_only_cpu_ns = serve_cpu_ns(p);
  }
  report.metric("server.create_tenant_us", quantile(create_us, 0.5), "us");
  report.metric("pool.warm_start_pct", 100.0 * warm_started / kTenants, "%");
  report.metric("server.submit_ns", spans.mean_ns("server.submit_feedback"), "ns");
  report.metric("server.apply_cpu_ns", memory_only_cpu_ns, "ns");
  report.metric("checkpoint.journal_cpu_ns", serve_cpu_ns(untraced) - memory_only_cpu_ns,
                "ns");
  report.metric("server.decide_batch_ns_per_tenant",
                traced.sweep_ns / std::max<std::size_t>(1, traced.sweeps) / kSweepTenants, "ns");
  report.metric("server.lockfree_pct",
                100.0 * traced.lockfree /
                    std::max<double>(1.0, static_cast<double>(traced.sweeps) * kSweepTenants),
                "%");
  auto late = traced.late_us;
  report.metric("server.fresh_us_p90", quantile(traced.fresh_us, 0.9), "us");
  report.metric("server.fresh_us_p99", quantile(traced.fresh_us, 0.99), "us");
  report.metric("gen.late_us_p99", late.quantile(0.99), "us");
  report.metric("gen.late_us_max", late.max(), "us");
  report.metric("server.failed_pct",
                100.0 * traced.refused / std::max<std::size_t>(1, traced.submitted), "%");
  report.metric("checkpoint.resume_s", resume_s, "s");
  report.metric("trace.overhead_pct",
                100.0 * (quantile(traced.fresh_us, 0.5) / quantile(untraced.fresh_us, 0.5) - 1.0),
                "%");
  if (!spans.write(args.out_dir + "/trace-fleet.jsonl")) report.note("trace_file", "not written");
}

}  // namespace perfbench
