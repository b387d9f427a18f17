#include "dse/dse.hpp"

#include <algorithm>
#include <charconv>
#include <limits>

#include "support/error.hpp"
#include "support/serialize.hpp"
#include "support/statistics.hpp"

namespace socrates::dse {

DesignSpace DesignSpace::paper_space(const platform::MachineTopology& topology) {
  DesignSpace space;
  space.configs = platform::reduced_design_space();
  for (std::size_t t = 1; t <= topology.logical_cores(); ++t)
    space.thread_counts.push_back(t);
  space.bindings = {platform::BindingPolicy::kClose, platform::BindingPolicy::kSpread};
  return space;
}

ProfiledPoint profile_point(const platform::PerformanceModel& model,
                            const platform::KernelModelParams& kernel,
                            const DesignSpace& space, std::size_t config_index,
                            std::size_t threads, platform::BindingPolicy binding,
                            std::size_t repetitions, Rng& noise, double work_scale) {
  SOCRATES_REQUIRE(config_index < space.configs.size());
  ProfiledPoint p;
  p.config_index = config_index;
  p.config_name = space.configs[config_index].name;
  p.configuration =
      platform::Configuration{space.configs[config_index].config, threads, binding};

  // The repetitions differ only in their noise draws: evaluate the
  // model once, then draw one (time, power) noise pair per run.
  const auto expected = model.expected(kernel, p.configuration, work_scale);
  RunningStats time_stats;
  RunningStats power_stats;
  for (std::size_t r = 0; r < repetitions; ++r) {
    const auto m = model.with_noise(expected, noise);
    time_stats.add(m.exec_time_s);
    power_stats.add(m.avg_power_w);
  }
  p.exec_time_mean_s = time_stats.mean();
  p.exec_time_stddev_s = time_stats.stddev();
  p.power_mean_w = power_stats.mean();
  p.power_stddev_w = power_stats.stddev();
  return p;
}

namespace {

void append_uint(std::string& out, std::uint64_t v) {
  char buf[24];
  const auto res = std::to_chars(buf, buf + sizeof(buf), v);
  out.append(buf, res.ptr);
}

// One-pass tokenizer over a profile payload: tokens are runs of
// non-whitespace separated by any whitespace (the grammar `istream >>`
// read before).  Every malformed field throws ContractViolation.
class ProfileReader {
 public:
  explicit ProfileReader(std::string_view text) : rest_(text) {}

  std::string_view token() {
    std::size_t i = 0;
    while (i < rest_.size() && is_space(rest_[i])) ++i;
    std::size_t j = i;
    while (j < rest_.size() && !is_space(rest_[j])) ++j;
    SOCRATES_REQUIRE_MSG(j > i, "truncated profile artifact");
    const std::string_view out = rest_.substr(i, j - i);
    rest_.remove_prefix(j);
    return out;
  }

  /// Unsigned decimal in [0, max]; signs are rejected.
  template <typename T>
  T integer(T max = std::numeric_limits<T>::max()) {
    const std::string_view text = token();
    T v{};
    const auto res = std::from_chars(text.data(), text.data() + text.size(), v);
    SOCRATES_REQUIRE_MSG(res.ec == std::errc{} && res.ptr == text.data() + text.size() &&
                             v <= max,
                         "malformed profile field '" << text << "'");
    return v;
  }

  double exact() { return parse_exact_text(token()); }

  std::size_t remaining() const { return rest_.size(); }

 private:
  static bool is_space(char c) {
    return c == ' ' || c == '\n' || c == '\t' || c == '\r' || c == '\v' || c == '\f';
  }

  std::string_view rest_;
};

// A point is ten tokens of at least one character each.
constexpr std::size_t kMinPointChars = 10;

}  // namespace

std::string save_profile(const std::vector<ProfiledPoint>& points) {
  std::string out;
  out.reserve(24 + points.size() * 112);
  out += "profile v1 ";
  append_uint(out, points.size());
  out += '\n';
  for (const auto& p : points) {
    // Config names ("O3", "CF1", ...) never contain whitespace.
    append_uint(out, p.config_index);
    out += ' ';
    out += p.config_name;
    out += ' ';
    append_uint(out, static_cast<unsigned>(p.configuration.flags.level()));
    out += ' ';
    append_uint(out, p.configuration.flags.flag_bits());
    out += ' ';
    append_uint(out, p.configuration.threads);
    out += p.configuration.binding == platform::BindingPolicy::kClose ? " 0 " : " 1 ";
    append_exact(out, p.exec_time_mean_s);
    out += ' ';
    append_exact(out, p.exec_time_stddev_s);
    out += ' ';
    append_exact(out, p.power_mean_w);
    out += ' ';
    append_exact(out, p.power_stddev_w);
    out += '\n';
  }
  return out;
}

std::vector<ProfiledPoint> load_profile(std::string_view text) {
  ProfileReader in(text);
  SOCRATES_REQUIRE_MSG(in.token() == "profile" && in.token() == "v1",
                       "not a profile artifact");
  const auto count = in.integer<std::size_t>();
  SOCRATES_REQUIRE_MSG(count <= in.remaining() / kMinPointChars,
                       "profile artifact claims " << count << " points in "
                                                  << in.remaining() << " bytes");
  std::vector<ProfiledPoint> points(count);
  for (auto& p : points) {
    p.config_index = in.integer<std::size_t>();
    p.config_name = in.token();
    const auto level = in.integer<unsigned>(3);
    const auto bits = in.integer<unsigned>(63);
    p.configuration.threads = in.integer<std::size_t>();
    const auto binding = in.integer<unsigned>(1);
    p.configuration.flags =
        platform::FlagConfig(static_cast<platform::OptLevel>(level), bits);
    p.configuration.binding = binding == 0 ? platform::BindingPolicy::kClose
                                           : platform::BindingPolicy::kSpread;
    p.exec_time_mean_s = in.exact();
    p.exec_time_stddev_s = in.exact();
    p.power_mean_w = in.exact();
    p.power_stddev_w = in.exact();
  }
  return points;
}

std::vector<std::size_t> pareto_filter(const std::vector<ProfiledPoint>& points) {
  const std::size_t n = points.size();
  std::vector<std::size_t> order(n);
  for (std::size_t i = 0; i < n; ++i) order[i] = i;
  // Power ascending, throughput descending within a power tie.
  std::sort(order.begin(), order.end(), [&](std::size_t a, std::size_t b) {
    if (points[a].power_mean_w != points[b].power_mean_w)
      return points[a].power_mean_w < points[b].power_mean_w;
    if (points[a].throughput() != points[b].throughput())
      return points[a].throughput() > points[b].throughput();
    return a < b;
  });

  // Sweep power groups left to right.  A point survives iff it has the
  // best throughput of its equal-power group AND beats every strictly
  // cheaper point's throughput; exact duplicates tie on both axes and
  // therefore all survive (nobody strictly dominates them).
  std::vector<std::size_t> front;
  double best_cheaper_thr = -std::numeric_limits<double>::infinity();
  std::size_t g = 0;
  while (g < n) {
    std::size_t h = g;
    while (h < n && points[order[h]].power_mean_w == points[order[g]].power_mean_w) ++h;
    const double group_best_thr = points[order[g]].throughput();
    if (group_best_thr > best_cheaper_thr) {
      for (std::size_t k = g; k < h; ++k) {
        if (points[order[k]].throughput() == group_best_thr) front.push_back(order[k]);
      }
      best_cheaper_thr = group_best_thr;
    }
    g = h;
  }
  std::sort(front.begin(), front.end());
  return front;
}

margot::KnowledgeBase to_knowledge_base(const std::vector<ProfiledPoint>& points) {
  SOCRATES_REQUIRE(!points.empty());
  margot::KnowledgeBase kb({"config", "threads", "binding"},
                           {"exec_time_s", "power_w", "throughput"});
  for (const auto& p : points) {
    margot::OperatingPoint op;
    op.knobs = {static_cast<int>(p.config_index),
                static_cast<int>(p.configuration.threads),
                p.configuration.binding == platform::BindingPolicy::kClose ? 0 : 1};
    // Throughput stddev via first-order error propagation: d(1/t) = dt/t^2.
    const double thr_stddev =
        p.exec_time_stddev_s / (p.exec_time_mean_s * p.exec_time_mean_s);
    op.metrics = {{p.exec_time_mean_s, p.exec_time_stddev_s},
                  {p.power_mean_w, p.power_stddev_w},
                  {p.throughput(), thr_stddev}};
    kb.add(std::move(op));
  }
  return kb;
}

margot::KnowledgeBase to_knowledge_base(const std::vector<ProfiledPoint>& points,
                                        const std::vector<std::size_t>& indices) {
  SOCRATES_REQUIRE(!indices.empty());
  std::vector<ProfiledPoint> selected;
  selected.reserve(indices.size());
  for (const std::size_t i : indices) {
    SOCRATES_REQUIRE(i < points.size());
    selected.push_back(points[i]);
  }
  return to_knowledge_base(selected);
}

platform::Configuration decode_knobs(const DesignSpace& space,
                                     const std::vector<int>& knobs) {
  SOCRATES_REQUIRE(knobs.size() == 3);
  const auto ci = static_cast<std::size_t>(knobs[0]);
  SOCRATES_REQUIRE(ci < space.configs.size());
  SOCRATES_REQUIRE(knobs[1] >= 1);
  SOCRATES_REQUIRE(knobs[2] == 0 || knobs[2] == 1);
  platform::Configuration config;
  config.flags = space.configs[ci].config;
  config.threads = static_cast<std::size_t>(knobs[1]);
  config.binding =
      knobs[2] == 0 ? platform::BindingPolicy::kClose : platform::BindingPolicy::kSpread;
  return config;
}

}  // namespace socrates::dse
