#!/usr/bin/env python3
"""End-to-end benchmark entry point (see perfbench/README.md).

Run from the repository root. Builds pimbench and pimserved from source into
.bench_build/ (Release), then runs one workload and passes its result through:

  python3 perfbench/run.py --workload zoo_timing --seed 1 --seconds 10 --trace 0

The last line on stdout is the JSON result {"correct", "attempted", "failed",
"metrics"}; the exit code is non-zero when any output mismatched its golden or
the run could not be made.

Steadiness self-check: run every workload on seeds 1..N, print the median
and quartiles of every end-to-end metric and flag spreads beyond the bound in
BENCHMARK.json; --holdout also runs one more, unused seed and compares it:

  python3 perfbench/run.py --steady --runs 10 [--holdout 1001]

Re-capture the goldens (only at a commit whose simulated outputs are the
reference):

  python3 perfbench/run.py --capture-goldens
"""
import argparse
import json
import os
import signal
import statistics
import subprocess
import sys

BUILD_DIR = ".bench_build"
BENCH = os.path.join(BUILD_DIR, "pimbench")
PIMSERVED = os.path.join(BUILD_DIR, "pimsim", "pimserved")
GOLDENS = os.path.join("perfbench", "goldens.json")
RUN_TIMEOUT_S = 170


def log(msg):
    print(msg, file=sys.stderr, flush=True)


def build():
    """Configure once, then build incrementally; all output goes to stderr."""
    if not (os.path.isfile("CMakeLists.txt") and os.path.isdir("src")):
        log("run.py: run from the repository root (CMakeLists.txt and src/ are missing)")
        return False
    if not os.path.isfile(os.path.join(BUILD_DIR, "CMakeCache.txt")):
        cfg = ["cmake", "-S", "perfbench", "-B", BUILD_DIR, "-DCMAKE_BUILD_TYPE=Release"]
        if subprocess.run(cfg, stdout=sys.stderr).returncode != 0:
            return False
    jobs = str(min(4, os.cpu_count() or 1))
    cmd = ["cmake", "--build", BUILD_DIR, "--target", "pimbench", "pimserved", "-j", jobs]
    return subprocess.run(cmd, stdout=sys.stderr).returncode == 0


def run_bench(args, capture_stdout):
    """Run pimbench in its own process group so a timeout can stop its daemon too."""
    proc = subprocess.Popen([BENCH] + args, start_new_session=True,
                            stdout=subprocess.PIPE if capture_stdout else None)
    try:
        out, _ = proc.communicate(timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        os.killpg(proc.pid, signal.SIGKILL)
        proc.wait()
        log("run.py: pimbench timed out")
        return 1, b""
    return proc.returncode, out or b""


def bench_args(workload, seed, seconds, trace):
    return ["--workload", workload, "--seed", str(seed), "--seconds", str(seconds),
            "--trace", str(trace), "--goldens", GOLDENS, "--pimserved", PIMSERVED,
            "--out-dir", os.path.join(BUILD_DIR, "out")]


def spread(values):
    q1, med, q3 = statistics.quantiles(values, n=4)
    return q1, med, q3, (q3 - q1) / med if med else float("inf")


def steady(opts, spec):
    """Repeat each workload on seeds 1..runs and report every metric's spread."""
    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}
    seconds = opts.seconds or spec["run_seconds"]
    flagged = 0
    for w in (w["name"] for w in spec["workloads"]):
        runs = []
        for seed in range(1, opts.runs + 1):
            code, out = run_bench(bench_args(w, seed, seconds, 0), capture_stdout=True)
            lines = out.decode().strip().splitlines()
            if code != 0 or not lines:
                log(f"{w} seed {seed}: failed (exit {code})")
                return 1
            runs.append(json.loads(lines[-1])["metrics"])
            log(f"{w} seed {seed}: " + ", ".join(
                f"{k} {v['value']:.4g}" for k, v in sorted(runs[-1].items())))
        print(f"\n{w}: {opts.runs} runs, seeds 1..{opts.runs}")
        print(f"  {'metric':<18} {'q1':>11} {'median':>11} {'q3':>11} {'spread':>8} {'bound':>6}")
        medians = {}
        for name in sorted(bounds):
            q1, med, q3, s = spread([r[name]["value"] for r in runs])
            medians[name] = med
            flag = s > bounds[name]
            warn = s > bounds[name] / 3
            flagged += flag
            mark = "  EXCEEDS BOUND" if flag else ("  above bound/3" if warn else "")
            print(f"  {name:<18} {q1:11.5g} {med:11.5g} {q3:11.5g} {s:8.3f} {bounds[name]:6.2f}{mark}")
        if opts.holdout is not None:
            code, out = run_bench(bench_args(w, opts.holdout, seconds, 0), capture_stdout=True)
            lines = out.decode().strip().splitlines()
            if code != 0 or not lines:
                log(f"{w} holdout seed {opts.holdout}: failed (exit {code})")
                return 1
            held = json.loads(lines[-1])["metrics"]
            print(f"  holdout seed {opts.holdout}:")
            for name in sorted(bounds):
                dev = held[name]["value"] / medians[name] - 1 if medians[name] else float("inf")
                flag = abs(dev) > bounds[name]
                flagged += flag
                print(f"  {name:<18} {held[name]['value']:11.5g} {dev:+8.3f}"
                      f"{'  EXCEEDS BOUND' if flag else ''}")
        sys.stdout.flush()
    return 1 if flagged else 0


def main():
    ap = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("--workload")
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=int, default=0, help="0 = run_seconds from BENCHMARK.json")
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--steady", action="store_true", help="steadiness self-check")
    ap.add_argument("--runs", type=int, default=10)
    ap.add_argument("--holdout", type=int, help="unused seed to compare against the --steady medians")
    ap.add_argument("--capture-goldens", action="store_true")
    opts = ap.parse_args()

    if not build():
        log("run.py: build failed")
        return 1
    if opts.capture_goldens:
        return run_bench(["--capture-goldens", GOLDENS], capture_stdout=False)[0]
    if opts.steady:
        with open("BENCHMARK.json") as f:
            return steady(opts, json.load(f))
    if not opts.workload:
        ap.error("--workload is required")
    with open("BENCHMARK.json") as f:
        seconds = opts.seconds or json.load(f)["run_seconds"]
    return run_bench(bench_args(opts.workload, opts.seed, seconds, opts.trace), capture_stdout=False)[0]


if __name__ == "__main__":
    sys.exit(main())
