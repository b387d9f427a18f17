// SOCRATES benchmark program.
//
//   perfbench --workload build|adapt|fleet --seed N --seconds S --trace 0|1
//             [--out-dir DIR] [--revision REV]
//   perfbench --self-test
//   perfbench --list-metrics
//
// Prints a detail line (fingerprint, phases, timings) and, last, the
// result line {"correct","attempted","failed","metrics"}.  perfbench/run.py
// builds this program and is the command the benchmark is run with.
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <exception>
#include <filesystem>
#include <fstream>
#include <string>
#include <thread>

#include "harness.hpp"

extern char** environ;

namespace {

std::string cpu_model() {
  std::ifstream in("/proc/cpuinfo");
  std::string line;
  while (std::getline(in, line)) {
    if (line.rfind("model name", 0) == 0) {
      const auto colon = line.find(':');
      return colon == std::string::npos ? line : line.substr(colon + 2);
    }
  }
  return "unknown";
}

/// Every SOCRATES_* variable set in the environment: the benchmark pins
/// its options explicitly, but the record shows what else was set.
std::string socrates_env() {
  std::string out;
  for (char** e = environ; *e != nullptr; ++e)
    if (std::strncmp(*e, "SOCRATES_", 9) == 0) {
      if (!out.empty()) out += ' ';
      out += *e;
    }
  return out;
}

int usage() {
  std::fprintf(stderr,
               "usage: perfbench --workload build|adapt|fleet --seed N --seconds S "
               "--trace 0|1 [--out-dir DIR] [--revision REV]\n"
               "       perfbench --self-test | --list-metrics\n");
  return 2;
}

}  // namespace

int main(int argc, char** argv) {
  using namespace perfbench;
  Args args;
  std::string revision = "unknown";
  for (int i = 1; i < argc; ++i) {
    const std::string a = argv[i];
    if (a == "--self-test") return run_self_tests() == 0 ? 0 : 1;
    if (a == "--list-metrics") {
      for (const auto& d : declared_metrics())
        std::printf("%s %s %s\n", d.end_to_end ? "end_to_end" : "per_layer", d.name, d.unit);
      return 0;
    }
    if (i + 1 >= argc) return usage();
    const std::string v = argv[++i];
    try {
      if (a == "--workload") args.workload = v;
      else if (a == "--seed") args.seed = std::stoull(v);
      else if (a == "--seconds") args.seconds = std::stod(v);
      else if (a == "--trace") args.trace = std::stoi(v) != 0;
      else if (a == "--out-dir") args.out_dir = v;
      else if (a == "--revision") revision = v;
      else return usage();
    } catch (const std::exception&) {
      return usage();
    }
  }
  if (!(args.seconds > 0.0)) return usage();
  void (*workload)(const Args&, Report&) = nullptr;
  if (args.workload == "build") workload = run_build;
  else if (args.workload == "adapt") workload = run_adapt;
  else if (args.workload == "fleet") workload = run_fleet;
  else return usage();

  Report report;
  report.note("workload", args.workload);
  report.note("seed", std::to_string(args.seed));
  report.note("validation_seed", std::to_string(kValidationSeed));
  report.note("trace", args.trace ? "1" : "0");
  report.note("seconds", std::to_string(args.seconds));
  report.note("nproc", std::to_string(std::thread::hardware_concurrency()));
  report.note("cpu_model", cpu_model());
  report.note("revision", revision);
  report.note("socrates_env", socrates_env());
  try {
    std::filesystem::create_directories(args.out_dir);
    workload(args, report);
  } catch (const std::exception& e) {
    std::fprintf(stderr, "perfbench: %s workload failed: %s\n", args.workload.c_str(),
                 e.what());
    return 1;
  }
  complete_metrics(report, args.trace);
  std::printf("detail %s\n", report.detail_json().c_str());
  std::printf("%s\n", report.result_json().c_str());
  return 0;
}
