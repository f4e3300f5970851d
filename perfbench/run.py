#!/usr/bin/env python3
"""Live end-to-end benchmark of the lss runtime.

Run from the root of a checkout:

    python3 perfbench/run.py --workload paper_live --seed 1 --seconds 10 --trace 0

Builds the benchmark (perfbench/CMakeLists.txt, which compiles the
library from src/) into .bench_build/, runs one workload and prints its
metrics; the last line of standard output is one JSON object with the
keys correct, attempted, failed and metrics. --trace 0 reports the
end-to-end metrics of BENCHMARK.json, --trace 1 the per-layer ones and
writes a Chrome trace to .bench_out/. Exits non-zero when the build
fails, an output check fails, or the output does not match
BENCHMARK.json.

    python3 perfbench/run.py --workload all --seconds 25   # every workload
    python3 perfbench/run.py --selftest      # the benchmark's own tests
    python3 perfbench/run.py ... --inject column|chunk
                                              # a deliberate output fault
"""
import argparse
import fcntl
import hashlib
import json
import os
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
HERE = os.path.join(ROOT, "perfbench")
BUILD = os.path.join(ROOT, ".bench_build")
OUT = os.path.join(ROOT, ".bench_out")
RUN_TIMEOUT_S = 170


def fail(msg, code=2):
    print("perfbench: " + msg, file=sys.stderr)
    sys.exit(code)


def build(targets):
    if not os.path.isfile(os.path.join(ROOT, "src", "CMakeLists.txt")):
        fail("library sources (src/) not found next to perfbench/")
    os.makedirs(BUILD, exist_ok=True)
    with open(os.path.join(BUILD, ".lock"), "w") as lock:
        fcntl.flock(lock, fcntl.LOCK_EX)
        steps = []
        if not os.path.isfile(os.path.join(BUILD, "CMakeCache.txt")):
            steps.append(["cmake", "-S", HERE, "-B", BUILD,
                          "-DCMAKE_BUILD_TYPE=Release"])
        steps.append(["cmake", "--build", BUILD, "-j", "4", "--target"] + targets)
        for cmd in steps:
            if subprocess.run(cmd, stdout=sys.stderr, cwd=ROOT).returncode != 0:
                fail("build failed: " + " ".join(cmd))


def source_digest():
    """sha256 over the library and benchmark sources: names the code
    measured even in a checkout exported without .git."""
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


def git_sha():
    if not os.path.exists(os.path.join(ROOT, ".git")):
        return "unknown"
    r = subprocess.run(["git", "-C", ROOT, "rev-parse", "HEAD"],
                       capture_output=True, text=True)
    return r.stdout.strip() if r.returncode == 0 else "unknown"


def expected_metrics(trace):
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    return spec, [m["name"] for m in spec["per_layer" if trace else "end_to_end"]]


def validate(last_line, names):
    try:
        result = json.loads(last_line)
    except ValueError:
        return "last line is not JSON"
    if set(result) != {"correct", "attempted", "failed", "metrics"}:
        return "result keys are " + ", ".join(sorted(result))
    if list(result["metrics"]) != names:
        return "metrics differ from BENCHMARK.json"
    return None


def run_workload(workload, a, names, binary, stamp):
    """Runs one workload, forwards its output; returns the exit code."""
    cmd = [os.path.join(BUILD, binary), "--workload", workload,
           "--seed", str(a.seed), "--seconds", str(a.seconds),
           "--out-dir", OUT, "--stamp", stamp]
    if a.inject:
        cmd += ["--inject", a.inject]
    try:
        r = subprocess.run(cmd, stdout=subprocess.PIPE, text=True, cwd=ROOT,
                           timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        fail("run exceeded %d s" % RUN_TIMEOUT_S, 1)
    lines = r.stdout.rstrip("\n").split("\n")
    sys.stdout.write("\n".join(lines[:-1]) + "\n")
    why = validate(lines[-1], names) if lines else "no output"
    if why:
        fail(why, 3)
    print(lines[-1], flush=True)
    return r.returncode


def main():
    p = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    p.add_argument("--workload", help="a workload of BENCHMARK.json, or all")
    p.add_argument("--seed", type=int, default=1)
    p.add_argument("--seconds", type=float, default=10)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--inject", choices=("column", "chunk"))
    p.add_argument("--selftest", action="store_true")
    a = p.parse_args()

    if a.selftest:
        build(["perfbench_selftest"])
        sys.exit(subprocess.run([os.path.join(BUILD, "perfbench_selftest")]).returncode)

    spec, names = expected_metrics(a.trace == 1)
    workloads = [w["name"] for w in spec["workloads"]]
    if a.workload != "all" and a.workload not in workloads:
        fail("unknown workload %r" % a.workload)
    binary = "perfbench_traced" if a.trace else "perfbench_run"
    build([binary])
    stamp = json.dumps({"git_sha": git_sha(), "src_sha256": source_digest()},
                       separators=(",", ":"))
    codes = [run_workload(w, a, names, binary, stamp)
             for w in (workloads if a.workload == "all" else [a.workload])]
    sys.exit(max(codes))


if __name__ == "__main__":
    main()
