#include "harness.hpp"

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstring>
#include <ctime>
#include <fstream>
#include <set>
#include <sstream>

namespace perfbench {

namespace {

std::int64_t cpu_clock_ns(clockid_t id) {
  timespec ts{};
  clock_gettime(id, &ts);
  return static_cast<std::int64_t>(ts.tv_sec) * 1000000000 + ts.tv_nsec;
}

std::string json_escape(const std::string& s) {
  std::string out;
  for (const char c : s) {
    if (c == '"' || c == '\\') {
      out += '\\';
      out += c;
    } else if (static_cast<unsigned char>(c) < 0x20) {
      char buf[8];
      std::snprintf(buf, sizeof buf, "\\u%04x", c);
      out += buf;
    } else {
      out += c;
    }
  }
  return out;
}

/// Text that reads back as exactly `v`; null for a non-finite value.
std::string json_number(double v) {
  if (!std::isfinite(v)) return "null";
  char buf[40];
  std::snprintf(buf, sizeof buf, "%.17g", v);
  return buf;
}

/// The highest of p99.9/p99/p90 that leaves at least ten samples above it.
template <typename Quantile>
void set_tail(Summary& s, Quantile quantile_of) {
  for (const double q : {0.999, 0.99, 0.9}) {
    if (static_cast<double>(s.n) * (1.0 - q) >= 10.0) {
      s.tail_q = q;
      s.tail = quantile_of(q);
      return;
    }
  }
}

}  // namespace

std::int64_t process_cpu_ns() { return cpu_clock_ns(CLOCK_PROCESS_CPUTIME_ID); }
std::int64_t thread_cpu_ns() { return cpu_clock_ns(CLOCK_THREAD_CPUTIME_ID); }

std::uint64_t derive_seed(std::uint64_t seed, std::string_view stream) {
  StreamHash h;
  h.add(seed);
  for (const char c : stream) h.add(static_cast<std::uint64_t>(c));
  // splitmix64 finaliser: nearby seeds give unrelated streams.
  std::uint64_t z = h.digest() + 0x9e3779b97f4a7c15ULL;
  z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;
  z = (z ^ (z >> 27)) * 0x94d049bb133111ebULL;
  return z ^ (z >> 31);
}

void StreamHash::add(std::uint64_t value) {
  for (int i = 0; i < 8; ++i) {
    h_ ^= (value >> (8 * i)) & 0xffU;
    h_ *= 0x100000001b3ULL;
  }
}

void StreamHash::add(double value) {
  std::uint64_t bits = 0;
  std::memcpy(&bits, &value, sizeof bits);
  add(bits);
}

double quantile_sorted(const std::vector<double>& sorted, double q) {
  if (sorted.empty()) return 0.0;
  q = std::clamp(q, 0.0, 1.0);
  const double pos = q * static_cast<double>(sorted.size() - 1);
  const auto lo = static_cast<std::size_t>(std::floor(pos));
  const std::size_t hi = std::min(lo + 1, sorted.size() - 1);
  const double frac = pos - static_cast<double>(lo);
  return sorted[lo] + (sorted[hi] - sorted[lo]) * frac;
}

double quantile(std::vector<double> values, double q) {
  std::sort(values.begin(), values.end());
  return quantile_sorted(values, q);
}


Summary summarize(std::vector<double> values) {
  Summary s;
  s.n = values.size();
  if (values.empty()) return s;
  std::sort(values.begin(), values.end());
  double sum = 0.0;
  for (const double v : values) sum += v;
  s.mean = sum / static_cast<double>(values.size());
  s.p50 = quantile_sorted(values, 0.5);
  set_tail(s, [&](double q) { return quantile_sorted(values, q); });
  return s;
}

LinearHistogram::LinearHistogram(double bucket_width, std::size_t buckets)
    : width_(bucket_width), counts_(buckets, 0) {}

void LinearHistogram::add(double v) {
  ++n_;
  sum_ += v;
  max_ = n_ == 1 ? v : std::max(max_, v);
  const double b = std::floor(v / width_);
  if (b >= 0.0 && b < static_cast<double>(counts_.size())) {
    ++counts_[static_cast<std::size_t>(b)];
  } else {
    outside_.push_back(v);
    outside_sorted_ = false;
  }
}

double LinearHistogram::quantile(double q) {
  if (n_ == 0) return 0.0;
  if (!outside_sorted_) {
    std::sort(outside_.begin(), outside_.end());
    outside_sorted_ = true;
  }
  const auto rank = std::max<std::size_t>(
      1, static_cast<std::size_t>(std::ceil(std::clamp(q, 0.0, 1.0) * static_cast<double>(n_))));
  // Samples below the range come first, then the buckets, then above.
  const auto below = static_cast<std::size_t>(
      std::lower_bound(outside_.begin(), outside_.end(), 0.0) - outside_.begin());
  if (rank <= below) return outside_[rank - 1];
  std::size_t seen = below;
  for (std::size_t i = 0; i < counts_.size(); ++i) {
    seen += counts_[i];
    if (seen >= rank) return static_cast<double>(i) * width_;
  }
  return outside_[below + (rank - seen) - 1];
}

Summary LinearHistogram::summary() {
  Summary s;
  s.n = n_;
  s.mean = mean();
  s.p50 = quantile(0.5);
  set_tail(s, [&](double q) { return quantile(q); });
  return s;
}

bool valid_metric_name(std::string_view name) {
  if (name.empty() || name.size() > 64) return false;
  const auto alnum = [](char c) {
    return (c >= 'a' && c <= 'z') || (c >= 'A' && c <= 'Z') || (c >= '0' && c <= '9');
  };
  if (!alnum(name.front())) return false;
  return std::all_of(name.begin(), name.end(),
                     [&](char c) { return alnum(c) || c == '_' || c == '.' || c == '-'; });
}

// ---- SpanRecorder -------------------------------------------------------------

SpanRecorder::SpanRecorder(std::size_t capacity) : capacity_(capacity) {
  spans_.reserve(capacity_);
}

std::uint32_t SpanRecorder::name_id(const std::string& name) {
  const auto it = ids_.find(name);
  if (it != ids_.end()) return it->second;
  const auto id = static_cast<std::uint32_t>(names_.size());
  names_.push_back(name);
  ids_.emplace(name, id);
  aggregates_.emplace_back();
  return id;
}

std::uint64_t SpanRecorder::record(std::uint32_t name, std::int64_t start_ns,
                                   std::int64_t end_ns, std::uint64_t parent,
                                   std::uint64_t event) {
  const std::uint64_t id = next_id_++;
  Aggregate& a = aggregates_[name];
  ++a.count;
  a.total_ns += static_cast<double>(end_ns - start_ns);
  if (spans_.size() < capacity_)
    spans_.push_back({id, name, start_ns, end_ns, parent, event});
  return id;
}

std::size_t SpanRecorder::count(const std::string& name) const {
  const auto it = ids_.find(name);
  return it == ids_.end() ? 0 : aggregates_[it->second].count;
}

double SpanRecorder::total_ns(const std::string& name) const {
  const auto it = ids_.find(name);
  return it == ids_.end() ? 0.0 : aggregates_[it->second].total_ns;
}

double SpanRecorder::mean_ns(const std::string& name) const {
  const std::size_t n = count(name);
  return n == 0 ? 0.0 : total_ns(name) / static_cast<double>(n);
}

bool SpanRecorder::write(const std::string& path) const {
  std::ofstream out(path, std::ios::trunc);
  if (!out) return false;
  for (const Span& s : spans_) {
    out << "{\"id\":" << s.id << ",\"name\":\"" << json_escape(names_[s.name])
        << "\",\"start_ns\":" << s.start << ",\"end_ns\":" << s.end
        << ",\"parent\":" << s.parent << ",\"event\":" << s.event << "}\n";
  }
  return static_cast<bool>(out);
}

// ---- Report ---------------------------------------------------------------------

void Report::check(bool ok, const std::string& what) {
  ++attempted_;
  if (ok) return;
  ++failed_;
  if (failures_.size() < 20) failures_.push_back(what);
}

void Report::phase(const std::string& name, std::size_t attempted, std::size_t failed) {
  phases_.push_back({name, attempted, failed});
}

void Report::metric(const std::string& name, double value, const std::string& unit) {
  for (auto& m : metrics_) {
    if (m.first == name) {
      m.second = {value, unit};
      return;
    }
  }
  metrics_.push_back({name, {value, unit}});
}

void Report::timing(const std::string& name, const Summary& summary,
                    const std::string& unit) {
  timings_.push_back({name, summary, unit});
}

void Report::note(const std::string& key, const std::string& value) {
  notes_.push_back({key, value});
}

void Report::calibration(const Calibrator& calibrator) {
  timing("reference_loop", calibrator.summary(), "ns");
  note("speed_factor", json_number(calibrator.factor()));
}

std::string Report::detail_json() const {
  std::ostringstream os;
  os << "{\"notes\":{";
  for (std::size_t i = 0; i < notes_.size(); ++i)
    os << (i ? "," : "") << '"' << json_escape(notes_[i].first) << "\":\""
       << json_escape(notes_[i].second) << '"';
  os << "},\"phases\":[";
  for (std::size_t i = 0; i < phases_.size(); ++i) {
    const Phase& p = phases_[i];
    os << (i ? "," : "") << "{\"name\":\"" << json_escape(p.name)
       << "\",\"attempted\":" << p.attempted << ",\"succeeded\":" << p.attempted - p.failed
       << ",\"failed\":" << p.failed << '}';
  }
  os << "],\"timings\":[";
  for (std::size_t i = 0; i < timings_.size(); ++i) {
    const Timing& t = timings_[i];
    os << (i ? "," : "") << "{\"name\":\"" << json_escape(t.name) << "\",\"unit\":\""
       << json_escape(t.unit) << "\",\"n\":" << t.summary.n
       << ",\"mean\":" << json_number(t.summary.mean)
       << ",\"p50\":" << json_number(t.summary.p50)
       << ",\"tail_q\":" << json_number(t.summary.tail_q)
       << ",\"tail\":" << json_number(t.summary.tail) << '}';
  }
  os << "],\"failures\":[";
  for (std::size_t i = 0; i < failures_.size(); ++i)
    os << (i ? "," : "") << '"' << json_escape(failures_[i]) << '"';
  os << "]}";
  return os.str();
}

std::string Report::result_json() const {
  std::ostringstream os;
  os << "{\"correct\":" << (failed_ == 0 ? "true" : "false")
     << ",\"attempted\":" << std::max<std::size_t>(attempted_, 1)
     << ",\"failed\":" << failed_ << ",\"metrics\":{";
  for (std::size_t i = 0; i < metrics_.size(); ++i) {
    const auto& [name, vu] = metrics_[i];
    os << (i ? "," : "") << '"' << json_escape(name) << "\":{\"value\":"
       << json_number(vu.first) << ",\"unit\":\"" << json_escape(vu.second) << "\"}";
  }
  os << "}}";
  return os.str();
}

// ---- declared metrics --------------------------------------------------------------

const std::vector<MetricDecl>& declared_metrics() {
  static const std::vector<MetricDecl> decls = {
      // End-to-end: every workload reports each of these for its own
      // path (README.md, "End-to-end metrics", gives the definitions).
      {"setup_s", "s", true},
      {"cold_us", "us", true},
      {"warm_us", "us", true},
      {"cpu_ns_per_op", "ns", true},
      // Per-layer, toolchain (driven by `build`).
      {"ir.parse_ms.cold", "ms", false},
      {"ir.parse_ms.warm", "ms", false},
      {"features.extract_ms.cold", "ms", false},
      {"features.extract_ms.warm", "ms", false},
      {"cobayn.predict_ms.cold", "ms", false},
      {"cobayn.predict_ms.warm", "ms", false},
      {"dse.explore_ms.cold", "ms", false},
      {"dse.cache_load_ms.warm", "ms", false},
      {"weaver.weave_ms.cold", "ms", false},
      {"weaver.weave_ms.warm", "ms", false},
      {"margot.knowledge_ms.cold", "ms", false},
      {"margot.knowledge_ms.warm", "ms", false},
      {"cobayn.train_ms", "ms", false},
      {"cache.hit_pct", "%", false},
      {"dse.points_evaluated", "count", false},
      {"weaver.bloat_x", "x", false},
      {"build.remainder_pct.cold", "%", false},
      {"build.remainder_pct.warm", "%", false},
      {"build.pick_regret_pct", "%", false},
      // Per-layer, runtime (driven by `adapt`).
      {"margot.update_ns", "ns", false},
      {"margot.update_cached_pct", "%", false},
      {"margot.monitor_start_ns", "ns", false},
      {"margot.monitor_stop_ns", "ns", false},
      {"dse.decode_knobs_ns", "ns", false},
      {"margot.redecide_ns_per_point", "ns", false},
      {"margot.redecide_count", "count", false},
      {"margot.switch_pct", "%", false},
      {"platform.kernel_sim_ns", "ns", false},
      {"mape.remainder_pct", "%", false},
      {"adapt.cap_violation_pct", "%", false},
      {"adapt.track_regret_pct", "%", false},
      // Per-layer, server (driven by `fleet`).
      {"server.create_tenant_us", "us", false},
      {"pool.warm_start_pct", "%", false},
      {"server.submit_ns", "ns", false},
      {"server.idle_cpu_pct", "%", false},
      {"server.apply_cpu_ns", "ns", false},
      {"checkpoint.journal_cpu_ns", "ns", false},
      {"server.decide_batch_ns_per_tenant", "ns", false},
      {"server.lockfree_pct", "%", false},
      {"server.fresh_us_p90", "us", false},
      {"server.fresh_us_p99", "us", false},
      {"gen.late_us_p99", "us", false},
      {"gen.late_us_max", "us", false},
      {"server.failed_pct", "%", false},
      {"checkpoint.resume_s", "s", false},
      // Every workload: cost of the benchmark's own spans.
      {"trace.overhead_pct", "%", false},
  };
  return decls;
}

void complete_metrics(Report& report, bool trace) {
  std::set<std::string> declared;
  for (const MetricDecl& d : declared_metrics()) {
    if (d.end_to_end == trace) continue;
    declared.insert(d.name);
    const bool present =
        std::any_of(report.metrics().begin(), report.metrics().end(),
                    [&](const auto& m) { return m.first == d.name; });
    if (present) continue;
    // An end-to-end metric is the workload's own result: missing is a bug.
    // A per-layer metric of a layer the workload never calls is 0.
    report.check(!d.end_to_end, std::string("metric not measured: ") + d.name);
    report.metric(d.name, 0.0, d.unit);
  }
  for (const auto& m : report.metrics())
    report.check(declared.count(m.first) == 1 && valid_metric_name(m.first),
                 "undeclared metric reported: " + m.first);
}

}  // namespace perfbench
