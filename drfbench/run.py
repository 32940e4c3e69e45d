#!/usr/bin/env python3
"""Build and run one drfbench workload; print its result as JSON.

Usage (from the repository root):

    python3 drfbench/run.py --workload soak|fleet|triage --seed N \\
        --seconds S --trace 0|1 [--size full|tiny]

Builds the repository's libraries and the drfbench program from source
into .bench_build/drfbench (Release; the first run pays the build), runs
the workload, and prints two JSON lines on stdout: a host-provenance
block, then the result as the last line:

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

With --trace 0 the metrics are the end-to-end ones, with --trace 1 the
per-layer ones (BENCHMARK.json). The full record, with the per-repetition
figures, provenance and failed checks, is also written to
.bench_build/drfbench/results/. Exits non-zero, printing no result, when
the sources are missing, the build fails or the program does not finish.
"""

import argparse
import hashlib
import json
import os
import platform
import signal
import subprocess
import sys
import time

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH_DIR)
BUILD_DIR = os.path.join(ROOT, ".bench_build", "drfbench")
BUILD_TYPE = "Release"
WORKLOADS = ("soak", "fleet", "triage")
PROGRAM_TIMEOUT_S = 170


def log(msg):
    print(msg, file=sys.stderr, flush=True)


def build():
    """Configure once, then bring the program up to date. True on success."""
    if not os.path.isfile(os.path.join(ROOT, "src", "CMakeLists.txt")):
        log("drfbench: library sources (src/) not found next to drfbench/")
        return False
    steps = []
    if not os.path.isfile(os.path.join(BUILD_DIR, "CMakeCache.txt")):
        steps.append(["cmake", "-S", BENCH_DIR, "-B", BUILD_DIR,
                      "-DCMAKE_BUILD_TYPE=" + BUILD_TYPE])
    steps.append(["cmake", "--build", BUILD_DIR, "--target", "drfbench",
                  "-j", "4"])
    for cmd in steps:
        proc = subprocess.run(cmd, stdout=subprocess.PIPE,
                              stderr=subprocess.STDOUT, text=True)
        if proc.returncode != 0:
            log(proc.stdout[-4000:])
            log("drfbench: build step failed: " + " ".join(cmd))
            return False
    return True


def cpu_model():
    try:
        with open("/proc/cpuinfo") as f:
            for line in f:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def git_sha():
    try:
        proc = subprocess.run(["git", "rev-parse", "--short=12", "HEAD"],
                              cwd=ROOT, stdout=subprocess.PIPE,
                              stderr=subprocess.DEVNULL, text=True,
                              timeout=10)
        if proc.returncode == 0 and proc.stdout.strip():
            return proc.stdout.strip()
    except (OSError, subprocess.SubprocessError):
        pass
    return "unknown"


def source_digest():
    """sha256 over src/ and drfbench/: identifies the code without git."""
    h = hashlib.sha256()
    for base in ("src", "drfbench"):
        top = os.path.join(ROOT, base)
        for dirpath, dirnames, filenames in os.walk(top):
            dirnames.sort()
            for name in sorted(filenames):
                if name.endswith((".cc", ".hh", ".txt", ".py")):
                    path = os.path.join(dirpath, name)
                    h.update(os.path.relpath(path, ROOT).encode())
                    with open(path, "rb") as f:
                        h.update(f.read())
    return h.hexdigest()[:16]


def load_average():
    try:
        return [round(x, 2) for x in os.getloadavg()]
    except OSError:
        return []


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--size", choices=("full", "tiny"), default="full")
    args = ap.parse_args()
    if args.seed < 0 or args.seconds <= 0:
        ap.error("--seed must be >= 0 and --seconds > 0")

    if not build():
        return 2

    out_dir = os.path.join(BUILD_DIR, "work")
    results_dir = os.path.join(BUILD_DIR, "results")
    os.makedirs(results_dir, exist_ok=True)
    cmd = [os.path.join(BUILD_DIR, "drfbench"),
           "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", repr(args.seconds), "--trace", str(args.trace),
           "--size", args.size, "--out-dir", out_dir]

    provenance = {
        "nproc": os.cpu_count(),
        "affinity": len(os.sched_getaffinity(0)),
        "cpu_model": cpu_model(),
        "git_sha": git_sha(),
        "source_digest": source_digest(),
        "build_type": BUILD_TYPE,
        "loadavg_before": load_average(),
    }
    start = time.monotonic()
    # Own process group, so a timeout also stops forked fleet workers.
    proc = subprocess.Popen(cmd, cwd=ROOT, stdout=subprocess.PIPE,
                            stderr=subprocess.PIPE, text=True,
                            start_new_session=True)
    try:
        stdout, stderr = proc.communicate(timeout=PROGRAM_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        os.killpg(proc.pid, signal.SIGKILL)
        stdout, stderr = proc.communicate()
        log(stderr[-4000:])
        log("drfbench: program exceeded %d s" % PROGRAM_TIMEOUT_S)
        return 3
    provenance["loadavg_after"] = load_average()
    provenance["program_wall_s"] = round(time.monotonic() - start, 3)
    sys.stderr.write(stderr)
    lines = stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        log("drfbench: program exited %d without a result" % proc.returncode)
        return 4
    raw = json.loads(lines[-1])
    # Before/after speed of a fixed load chain: a contended host shows.
    provenance["host_probe_loads_per_s"] = raw["detail"].pop(
        "host_probe_loads_per_s", None)

    record = dict(raw)
    record["workload"] = args.workload
    record["seed"] = args.seed
    record["seconds"] = args.seconds
    record["trace"] = args.trace
    record["size"] = args.size
    record["provenance"] = provenance
    name = "%s-seed%d-trace%d-%s.json" % (args.workload, args.seed,
                                          args.trace, args.size)
    with open(os.path.join(results_dir, name), "w") as f:
        json.dump(record, f, indent=1)

    print(json.dumps({"provenance": provenance}))
    print(json.dumps({key: raw[key] for key in
                      ("correct", "attempted", "failed", "metrics")}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
