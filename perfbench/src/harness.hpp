// Shared pieces of the SOCRATES benchmark program: clocks, seeded
// generators, quantiles, the in-memory span recorder of the traced run
// and the report every workload fills.
//
// The benchmark only calls the libraries' public functions; everything it
// measures is timed here, around those calls, with steady_clock in ns.
#pragma once

#include <chrono>
#include <cstddef>
#include <cstdint>
#include <map>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

namespace perfbench {

// ---- clocks ---------------------------------------------------------------

inline std::int64_t now_ns() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

/// CPU time of the whole process / of the calling thread, in ns.
std::int64_t process_cpu_ns();
std::int64_t thread_cpu_ns();

// ---- seeds ------------------------------------------------------------------

/// The seed later performance claims are validated on, in addition to
/// the seeds a change was developed with (see perfbench/README.md).
inline constexpr std::uint64_t kValidationSeed = 7919;

/// Independent, reproducible stream seed for one generator of a run.
std::uint64_t derive_seed(std::uint64_t seed, std::string_view stream);

/// FNV-1a accumulator used for the event-stream and decision hashes.
class StreamHash {
 public:
  void add(std::uint64_t value);
  void add(double value);
  std::uint64_t digest() const { return h_; }

 private:
  std::uint64_t h_ = 0xcbf29ce484222325ULL;
};

// ---- statistics -------------------------------------------------------------

/// Quantile of `sorted` (ascending, non-empty) with linear interpolation
/// between closest ranks, q in [0, 1].
double quantile_sorted(const std::vector<double>& sorted, double q);
/// The same on unsorted values.
double quantile(std::vector<double> values, double q);

/// A timing as the report gives it: the median, plus the highest of
/// p90/p99/p99.9 that still has at least ten samples beyond it.
struct Summary {
  std::size_t n = 0;
  double mean = 0.0;
  double p50 = 0.0;
  double tail_q = 0.0;  ///< 0 when fewer than 100 samples
  double tail = 0.0;
};
Summary summarize(std::vector<double> values);

/// Fixed-width buckets for samples in [0, width * buckets); samples
/// outside that range are kept exactly.  For streams too long to store.
class LinearHistogram {
 public:
  LinearHistogram(double bucket_width, std::size_t buckets);
  void add(double v);
  std::size_t count() const { return n_; }
  double mean() const { return n_ == 0 ? 0.0 : sum_ / static_cast<double>(n_); }
  double max() const { return max_; }
  /// Nearest-rank quantile (a bucket's lower edge).
  double quantile(double q);
  Summary summary();

 private:
  double width_;
  std::vector<std::uint64_t> counts_;
  std::vector<double> outside_;
  bool outside_sorted_ = true;
  std::size_t n_ = 0;
  double sum_ = 0.0;
  double max_ = 0.0;
};

/// Machine-speed calibration.  The hosts this benchmark runs on are
/// shared: their speed drifts by tens of percent between runs minutes
/// apart.  The work times of `build` and `adapt` (CPU-bound, on the
/// calling thread or its task pool) are therefore reported at reference
/// speed:
/// measured time x kReferenceNs / (mean time of a fixed reference
/// loop, run interleaved with the measured work).  The reference loop is
/// benchmark code, so a change to the program never moves it; a change
/// of machine speed moves both and cancels.
class Calibrator {
 public:
  /// Nominal reference-loop time: reported times are those of a machine
  /// on which one reference run takes exactly this long.
  static constexpr double kReferenceNs = 2.0e6;

  /// Runs the reference loop once when `interval_ns` has passed since
  /// the last run.  Call between units of measured work.
  void tick(std::int64_t interval_ns = 20000000);
  /// Runs the reference loop `n` times now.
  void run(std::size_t n);
  /// kReferenceNs / trimmed mean reference time (needs one run).
  double factor() const;
  Summary summary() const;

 private:
  std::vector<double> ns_;
  std::int64_t last_ns_ = 0;
};

/// True when `name` is a valid metric name: [A-Za-z0-9_.-]+, starting
/// with a letter or digit, at most 64 characters.
bool valid_metric_name(std::string_view name);

// ---- traced run -----------------------------------------------------------

/// Spans recorded by the benchmark around each public call it makes.
/// Aggregates (count, total ns) are kept for every span; the first
/// `capacity` spans are also stored and written out at exit.
class SpanRecorder {
 public:
  explicit SpanRecorder(std::size_t capacity = 200000);

  /// Interns a span name; the returned id is what record() takes.
  std::uint32_t name_id(const std::string& name);

  /// Records one span and returns its id (usable as a parent).
  /// `event` ties together the spans of one request (0 = none).
  std::uint64_t record(std::uint32_t name, std::int64_t start_ns, std::int64_t end_ns,
                       std::uint64_t parent = 0, std::uint64_t event = 0);

  std::size_t count(const std::string& name) const;
  double total_ns(const std::string& name) const;
  double mean_ns(const std::string& name) const;

  /// Writes stored spans as JSON lines of {id,name,start,end,parent,event}.
  bool write(const std::string& path) const;

 private:
  struct Span {
    std::uint64_t id;
    std::uint32_t name;
    std::int64_t start;
    std::int64_t end;
    std::uint64_t parent;
    std::uint64_t event;
  };
  struct Aggregate {
    std::size_t count = 0;
    double total_ns = 0.0;
  };
  std::vector<std::string> names_;
  std::map<std::string, std::uint32_t> ids_;
  std::vector<Aggregate> aggregates_;
  std::vector<Span> spans_;
  std::size_t capacity_;
  std::uint64_t next_id_ = 1;
};

// ---- report -----------------------------------------------------------------

struct Args {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  std::string out_dir = ".bench_build/perfbench-out";  ///< checkpoints, traces
};

/// What one run measured and checked.  main() prints the detail and
/// the final result line from it.
class Report {
 public:
  /// One output check: counts as attempted, and as failed when !ok.
  void check(bool ok, const std::string& what);
  std::size_t failed() const { return failed_; }

  /// Attempted / succeeded / failed operations of one phase.
  void phase(const std::string& name, std::size_t attempted, std::size_t failed);

  void metric(const std::string& name, double value, const std::string& unit);
  void timing(const std::string& name, const Summary& summary, const std::string& unit);
  void note(const std::string& key, const std::string& value);
  /// Records the reference-loop timings and the speed factor applied.
  void calibration(const Calibrator& calibrator);

  const std::vector<std::pair<std::string, std::pair<double, std::string>>>& metrics()
      const {
    return metrics_;
  }
  /// The detail line: notes, phases, timings and failed checks.
  std::string detail_json() const;
  /// The result line: {"correct","attempted","failed","metrics"}.
  std::string result_json() const;

 private:
  struct Phase {
    std::string name;
    std::size_t attempted;
    std::size_t failed;
  };
  struct Timing {
    std::string name;
    Summary summary;
    std::string unit;
  };
  std::size_t attempted_ = 0;
  std::size_t failed_ = 0;
  std::vector<std::string> failures_;
  std::vector<Phase> phases_;
  std::vector<std::pair<std::string, std::pair<double, std::string>>> metrics_;
  std::vector<Timing> timings_;
  std::vector<std::pair<std::string, std::string>> notes_;
};

/// Every metric the benchmark declares: name, unit, and whether it is
/// end-to-end (reported with --trace 0) or per-layer (--trace 1).  Each
/// workload reports all of its mode's metrics; BENCHMARK.json lists the
/// same set and run.py checks the two agree.
struct MetricDecl {
  const char* name;
  const char* unit;
  bool end_to_end;
};
const std::vector<MetricDecl>& declared_metrics();

/// Fills every declared metric of the run's mode that the workload did
/// not drive with 0 (a layer the workload never calls did no work) and
/// checks that nothing undeclared was reported.
void complete_metrics(Report& report, bool trace);

// ---- workloads ----------------------------------------------------------------

void run_build(const Args& args, Report& report);
void run_adapt(const Args& args, Report& report);
void run_fleet(const Args& args, Report& report);

/// Harness self-tests (quantiles, name grammar, stream hashing); returns
/// the number of failed tests and prints one line per test.
int run_self_tests();

}  // namespace perfbench
