#!/usr/bin/env python3
"""Builds and runs the SOCRATES benchmark.

    python3 perfbench/run.py --workload build|adapt|fleet --seed N \
        --seconds S --trace 0|1

Run from the root of a checkout.  The first run configures perfbench/
(which compiles the repository's libraries from src/) into
$CARGO_TARGET_DIR, default .bench_build/; every run then builds it, which
CMake makes a no-op when no source changed.  Every run then executes the harness self-tests,
checks that the program declares exactly the metrics BENCHMARK.json
lists, runs the workload and prints its result line last on stdout.
Build output and diagnostics go to stderr.
"""
import argparse
import hashlib
import json
import math
import os
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
RUN_TIMEOUT_S = 170
RESULT_KEYS = {"correct", "attempted", "failed", "metrics"}


def fail(message):
    print(f"perfbench: {message}", file=sys.stderr)
    sys.exit(1)


def source_digest():
    """Digest of every file the benchmark program is built from, reported
    as the revision outside a git checkout."""
    h = hashlib.sha256()
    for top in ("src", "perfbench"):
        for dirpath, dirnames, filenames in os.walk(os.path.join(ROOT, top)):
            dirnames.sort()
            for name in sorted(filenames):
                path = os.path.join(dirpath, name)
                h.update(os.path.relpath(path, ROOT).encode())
                with open(path, "rb") as f:
                    h.update(f.read())
    return h.hexdigest()


def revision():
    if not os.path.isdir(os.path.join(ROOT, ".git")):
        return "tree-" + source_digest()[:16]
    try:
        out = subprocess.run(["git", "-C", ROOT, "rev-parse", "HEAD"],
                             capture_output=True, text=True, timeout=10)
        if out.returncode == 0 and out.stdout.strip():
            return out.stdout.strip()
    except (OSError, subprocess.SubprocessError):
        pass
    return "tree-" + source_digest()[:16]


def build(target_dir):
    if not os.path.exists(os.path.join(ROOT, "src", "CMakeLists.txt")):
        fail("SOCRATES sources (src/) not found next to perfbench/")
    build_dir = os.path.join(target_dir, "perfbench-build")
    jobs = str(max(1, min(os.cpu_count() or 1, 4)))
    steps = [["cmake", "--build", build_dir, "-j", jobs]]
    if not os.path.exists(os.path.join(build_dir, "CMakeCache.txt")):
        steps.insert(0, ["cmake", "-S", os.path.join(ROOT, "perfbench"), "-B", build_dir,
                         "-DCMAKE_BUILD_TYPE=Release"])
    for cmd in steps:
        if subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr).returncode != 0:
            fail("build failed: " + " ".join(cmd))
    return os.path.join(build_dir, "perfbench")


def declared_metrics(binary):
    out = subprocess.run([binary, "--list-metrics"], capture_output=True, text=True,
                         timeout=30)
    if out.returncode != 0:
        fail("--list-metrics failed")
    declared = {"end_to_end": {}, "per_layer": {}}
    for line in out.stdout.splitlines():
        kind, name, unit = line.split()
        declared[kind][name] = unit
    return declared


def check_declaration(binary):
    """BENCHMARK.json and the program must declare the same metrics."""
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    declared = declared_metrics(binary)
    for kind in ("end_to_end", "per_layer"):
        listed = {m["name"]: m["unit"] for m in spec[kind]}
        if listed != declared[kind]:
            fail(f"{kind} metrics in BENCHMARK.json differ from the program's: "
                 f"only listed {sorted(set(listed) - set(declared[kind]))}, "
                 f"only declared {sorted(set(declared[kind]) - set(listed))}")
    return declared


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=["build", "adapt", "fleet"])
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=float)
    parser.add_argument("--trace", required=True, type=int, choices=[0, 1])
    args = parser.parse_args()

    target_dir = os.path.join(ROOT, os.environ.get("CARGO_TARGET_DIR", ".bench_build"))
    binary = build(target_dir)
    if subprocess.run([binary, "--self-test"], stdout=sys.stderr,
                      timeout=60).returncode != 0:
        fail("harness self-tests failed")
    declared = check_declaration(binary)

    cmd = [binary, "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", repr(args.seconds), "--trace", str(args.trace),
           "--out-dir", os.path.join(target_dir, "perfbench-out"),
           "--revision", revision()]
    try:
        run = subprocess.run(cmd, capture_output=True, text=True, timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        fail(f"workload {args.workload} did not finish within {RUN_TIMEOUT_S} s")
    sys.stderr.write(run.stderr)
    lines = run.stdout.strip().splitlines()
    if run.returncode != 0 or not lines:
        fail(f"workload {args.workload} exited with code {run.returncode}")
    for line in lines[:-1]:
        print(line)

    result = json.loads(lines[-1])
    expected = declared["per_layer" if args.trace else "end_to_end"]
    if set(result) != RESULT_KEYS or set(result["metrics"]) != set(expected):
        fail("result line does not carry exactly the declared metrics")
    for name, m in result["metrics"].items():
        value = m["value"]
        if (m["unit"] != expected[name] or not isinstance(value, (int, float))
                or not math.isfinite(value)):
            fail(f"metric {name} is malformed: {m}")
    print(json.dumps(result, separators=(",", ":")))


if __name__ == "__main__":
    main()
