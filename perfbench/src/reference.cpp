// The reference loop behind Calibrator: fixed benchmark-side work with
// the mix the measured layers have — floating point, a tree map over
// scattered keys, number formatting and parsing, and a sort.
#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <map>
#include <string>
#include <vector>

#include "harness.hpp"

namespace perfbench {

namespace {

volatile double g_sink = 0.0;  ///< keeps the reference work observable

double reference_ns() {
  static const std::vector<std::uint32_t> walk = [] {
    std::vector<std::uint32_t> v(1u << 20);
    for (std::uint32_t i = 0; i < v.size(); ++i)
      v[i] = (i * 2654435761u + 12345u) & ((1u << 20) - 1);
    return v;
  }();
  const std::int64_t t0 = now_ns();
  double fp = 0.0;
  for (int i = 1; i < 20000; ++i) fp += (i & 7) / (i * 1.0000001);
  std::map<std::uint32_t, std::uint32_t> tree;
  std::uint32_t x = 1;
  for (std::uint32_t i = 0; i < 3000; ++i) {
    x = walk[x];
    tree[x] = i;
  }
  std::string text;
  char buf[32];
  for (int i = 0; i < 1500; ++i) {
    std::snprintf(buf, sizeof buf, "%.17g,", fp + i);
    text += buf;
  }
  double parsed = 0.0;
  for (const char* p = text.c_str(); *p != '\0';) {
    char* end = nullptr;
    parsed += std::strtod(p, &end);
    p = end + 1;
  }
  std::vector<std::uint32_t> sorted(walk.begin(), walk.begin() + 8000);
  std::sort(sorted.begin(), sorted.end());
  const std::int64_t t1 = now_ns();
  g_sink = fp + parsed + static_cast<double>(tree.size() + sorted[100]);
  return static_cast<double>(t1 - t0);
}

}  // namespace

void Calibrator::tick(std::int64_t interval_ns) {
  if (!ns_.empty() && now_ns() - last_ns_ < interval_ns) return;
  run(1);
}

void Calibrator::run(std::size_t n) {
  for (std::size_t i = 0; i < n; ++i) ns_.push_back(reference_ns());
  last_ns_ = now_ns();
}

double Calibrator::factor() const {
  // Mean of the middle 80%: tracks the share of time the machine ran
  // slow (a median would flip between a fast and a slow mode), without
  // letting a preempted run dominate.
  std::vector<double> sorted = ns_;
  std::sort(sorted.begin(), sorted.end());
  const std::size_t cut = sorted.size() / 10;
  double sum = 0.0;
  for (std::size_t i = cut; i < sorted.size() - cut; ++i) sum += sorted[i];
  return kReferenceNs * static_cast<double>(sorted.size() - 2 * cut) / sum;
}

Summary Calibrator::summary() const { return summarize(ns_); }

}  // namespace perfbench
