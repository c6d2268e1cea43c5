#!/usr/bin/env python3
"""Open-loop, layer-attributed benchmark for the route service and fleet.

Builds the driver from source (openbench/CMakeLists.txt, into
.bench_build/openbench), runs one workload and prints one JSON result as the
last line of standard output:

    python3 openbench/run.py --workload read_static --seed 2007 \
        --seconds 12 --trace 0

--trace 0 reports the end-to-end metrics, --trace 1 the per-layer ones (a
separate run with stage histograms and spans on). Without --workload every
workload in BENCHMARK.json runs in turn at the default seed, 2007, and each
metric is printed with its unit. Seed 90821 is held out: it was not used
while the benchmark was tuned, so later claims can be rechecked on it.
README.md describes the workloads.
"""

import argparse
import hashlib
import json
import os
import subprocess
import sys

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH_DIR)
BUILD_DIR = os.path.join(ROOT, ".bench_build", "openbench")
DRIVER = os.path.join(BUILD_DIR, "openbench_driver")
DRIVER_TIMEOUT_S = 170
DEFAULT_SEED = 2007


def log(*parts):
    print(*parts, file=sys.stderr, flush=True)


def build():
    """Configures once, then lets the build tool decide what is stale."""
    jobs = str(max(1, len(os.sched_getaffinity(0))))
    steps = []
    if not os.path.exists(os.path.join(BUILD_DIR, "CMakeCache.txt")):
        steps.append(["cmake", "-S", BENCH_DIR, "-B", BUILD_DIR,
                      "-DCMAKE_BUILD_TYPE=Release"])
    steps.append(["cmake", "--build", BUILD_DIR, "-j", jobs])
    for cmd in steps:
        done = subprocess.run(cmd, stdout=subprocess.PIPE,
                              stderr=subprocess.STDOUT, text=True)
        if done.returncode != 0:
            log(done.stdout[-4000:])
            raise RuntimeError("build failed: " + " ".join(cmd))


def source_digest():
    """SHA-256 over the library and benchmark sources: identifies the code
    measured even where the checkout carries no git metadata."""
    digest = hashlib.sha256()
    for top in ("src", "openbench"):
        base = os.path.join(ROOT, top)
        for dirpath, dirnames, filenames in os.walk(base):
            dirnames.sort()
            for name in sorted(filenames):
                path = os.path.join(dirpath, name)
                digest.update(os.path.relpath(path, ROOT).encode())
                with open(path, "rb") as f:
                    digest.update(f.read())
    return digest.hexdigest()


def git(*args):
    try:
        done = subprocess.run(["git", "-C", ROOT, *args],
                              stdout=subprocess.PIPE,
                              stderr=subprocess.DEVNULL, text=True,
                              timeout=30)
    except (OSError, subprocess.TimeoutExpired):
        return None
    return done.stdout.strip() if done.returncode == 0 else None


def provenance():
    commit = git("rev-parse", "HEAD")
    status = git("status", "--porcelain") if commit else None
    return {
        "commit": commit or "unknown (no git metadata)",
        "dirty": (status != "") if status is not None else None,
        "source_sha256": source_digest(),
        "nproc": len(os.sched_getaffinity(0)),
    }


def load_json(path):
    with open(path) as f:
        return json.load(f)


def run_workload(name, seed, seconds, trace, declared):
    cmd = [DRIVER, "--workload", name, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", str(trace)]
    if trace:
        cmd += ["--spans-out", os.path.join(BUILD_DIR, f"spans-{name}.csv")]
    done = subprocess.run(cmd, stdout=subprocess.PIPE, text=True,
                          timeout=DRIVER_TIMEOUT_S)
    lines = done.stdout.strip().splitlines()
    if not lines:
        raise RuntimeError(f"driver exited {done.returncode} with no result")
    record = json.loads(lines[-1])
    got = list(record["metrics"])
    if got != declared:
        raise RuntimeError(f"driver metrics {got} differ from BENCHMARK.json "
                           f"{declared}")
    record["provenance"].update(provenance())
    record["seed"] = seed
    record["seconds"] = seconds
    record["trace"] = trace
    results = os.path.join(BUILD_DIR, "results")
    os.makedirs(results, exist_ok=True)
    out = os.path.join(results, f"{name}-seed{seed}-trace{trace}.json")
    with open(out, "w") as f:
        json.dump(record, f, indent=1)
    return record, done.returncode


def print_metrics(name, record):
    info = record["info"]
    prov = record["provenance"]
    print(f"[{name}] correct={record['correct']} attempted="
          f"{record['attempted']} failed={record['failed']} "
          f"error_pct={info['error_pct']:.4f} valid={prov['valid']} "
          f"nproc={prov['nproc']} avx2={prov['avx2_dispatch']}")
    for metric, m in record["metrics"].items():
        print(f"[{name}] {metric} = {m['value']:.6g} {m['unit']}")
    for key in ("query_p99_ms", "event_visible_p95_ms", "latency_samples",
                "latency_windows",
                "min_samples_beyond_p99_per_window", "event_samples",
                "event_source", "fixed_rate_valid", "gate_checked",
                "gate_stale_on_churned_epochs"):
        if key in info:
            print(f"[{name}] {key} = {info[key]}")


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload")
    parser.add_argument("--seed", type=int)
    parser.add_argument("--seconds", type=float)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()

    bench = load_json(os.path.join(ROOT, "BENCHMARK.json"))
    seconds = args.seconds or bench["run_seconds"]
    seed = DEFAULT_SEED if args.seed is None else args.seed
    declared = [m["name"] for m in
                bench["per_layer" if args.trace else "end_to_end"]]
    names = ([args.workload] if args.workload
             else [w["name"] for w in bench["workloads"]])

    try:
        build()
        outcome = 0
        for name in names:
            record, code = run_workload(name, seed, seconds, args.trace,
                                        declared)
            print_metrics(name, record)
            outcome = outcome or code or (0 if record["correct"] else 1)
    except (RuntimeError, OSError, ValueError, KeyError,
            subprocess.TimeoutExpired) as e:
        log(f"benchmark failed: {e}")
        return 1
    if args.workload:
        print(json.dumps({k: record[k] for k in
                          ("correct", "attempted", "failed", "metrics")}))
    return outcome


if __name__ == "__main__":
    sys.exit(main())
