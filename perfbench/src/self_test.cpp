// Harness self-tests: the helpers every reported number depends on.
#include <cmath>
#include <cstdio>
#include <set>
#include <string>
#include <vector>

#include "harness.hpp"
#include "sources.hpp"

namespace perfbench {

namespace {

std::uint64_t stream_hash(std::uint64_t seed, std::size_t events) {
  FleetEventSource source(seed, 1024);
  StreamHash h;
  for (std::size_t i = 0; i < events; ++i) {
    const FleetEvent e = source.next();
    h.add(static_cast<std::uint64_t>(e.tenant));
    h.add(static_cast<std::uint64_t>(e.metric));
    h.add(e.noise);
    h.add(static_cast<std::uint64_t>(e.probe));
  }
  return h.digest();
}

bool near(double a, double b) { return std::fabs(a - b) <= 1e-12 * std::max(1.0, std::fabs(b)); }

}  // namespace

int run_self_tests() {
  int failed = 0;
  const auto expect = [&](bool ok, const char* name) {
    std::printf("self-test %-44s %s\n", name, ok ? "ok" : "FAILED");
    if (!ok) ++failed;
  };

  // Quantiles: linear interpolation between closest ranks, which is
  // what Python's statistics.quantiles(..., method="inclusive") gives.
  const std::vector<double> v = {1, 2, 3, 4, 5, 6, 7, 8, 9, 10};
  expect(near(quantile_sorted(v, 0.5), 5.5) && near(quantile_sorted(v, 0.25), 3.25) &&
             near(quantile_sorted(v, 0.9), 9.1) && near(quantile_sorted(v, 0.0), 1.0) &&
             near(quantile_sorted(v, 1.0), 10.0) && near(quantile_sorted({4.0}, 0.7), 4.0),
         "quantile_sorted interpolates");
  std::vector<double> many;
  for (int i = 1; i <= 1000; ++i) many.push_back(1001 - i);
  const Summary s = summarize(many);
  expect(s.n == 1000 && near(s.p50, 500.5) && s.tail_q == 0.99 && near(s.mean, 500.5),
         "summarize picks the p99 tail at n=1000");
  expect(summarize(std::vector<double>(50, 2.0)).tail_q == 0.0,
         "summarize gives no tail below 100 samples");
  LinearHistogram h(1.0, 100);
  for (int i = 0; i < 100; ++i) h.add(i);
  h.add(-5.0);
  h.add(250.0);
  expect(h.count() == 102 && h.quantile(0.0) == -5.0 && h.quantile(1.0) == 250.0 &&
             h.quantile(0.5) == 49.0 && h.max() == 250.0,
         "LinearHistogram ranks in-range and outside samples");

  // Metric-name grammar, and every declared name obeys it once.
  expect(valid_metric_name("setup_s") && valid_metric_name("ir.parse_ms.cold") &&
             valid_metric_name("9-a_b.c") && !valid_metric_name("") &&
             !valid_metric_name(".x") && !valid_metric_name("a b") &&
             !valid_metric_name("a/b") && !valid_metric_name(std::string(65, 'a')),
         "metric-name grammar");
  std::set<std::string> names;
  bool all_valid = true;
  bool has_setup = false;
  for (const auto& d : declared_metrics()) {
    all_valid = all_valid && valid_metric_name(d.name) && names.insert(d.name).second;
    has_setup = has_setup || (std::string(d.name) == "setup_s" && d.end_to_end);
  }
  expect(all_valid && has_setup, "declared metrics are valid, unique, with setup_s");

  // Each workload reports exactly the declared set of its mode.
  Report partial;
  partial.metric("setup_s", 1.0, "s");
  complete_metrics(partial, false);
  expect(partial.failed() == 3, "missing end-to-end metrics are failures");
  Report layers;
  layers.metric("ir.parse_ms.cold", 0.1, "ms");
  layers.metric("not.declared", 1.0, "x");
  complete_metrics(layers, true);
  std::size_t per_layer = 0;
  for (const auto& d : declared_metrics()) per_layer += d.end_to_end ? 0 : 1;
  expect(layers.failed() == 1 && layers.metrics().size() == per_layer + 1,
         "per-layer set completed, undeclared metric fails");

  // Seeded inputs: same seed, same stream; another seed, another stream.
  expect(stream_hash(42, 10000) == stream_hash(42, 10000), "same seed gives the same stream");
  expect(stream_hash(42, 10000) != stream_hash(43, 10000), "another seed gives another stream");
  expect(derive_seed(1, "a") == derive_seed(1, "a") && derive_seed(1, "a") != derive_seed(1, "b") &&
             derive_seed(1, "a") != derive_seed(2, "a"),
         "derive_seed separates seeds and streams");
  return failed;
}

}  // namespace perfbench
