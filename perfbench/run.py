#!/usr/bin/env python3
"""Build and run the repository benchmark.

    python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>

Run it from the root of a checkout. It builds the `perfbench` package
(release profile, offline) into `$CARGO_TARGET_DIR` (default
`.bench_build`), runs one benchmark run, and prints:

* the benchmark's record line (deterministic fingerprint, check failures);
* a host line: core count, CPU model, rustc version, build profile, git
  commit (when the checkout is a git repository) and a digest of the
  sources the benchmark builds;
* as the last line, the result object with exactly the keys `correct`,
  `attempted`, `failed` and `metrics`.

Across processes, every run of one workload, seed and source digest must
report the same deterministic fingerprint and simulated figures; the
first run records them under `$CARGO_TARGET_DIR/perfbench-det/` and every
later run compares against that record.

Exit status: 0 when every check passed, 1 when a check failed (the result
line is still printed), 2 on bad arguments, 3 when the build or the run
itself failed (no result line).
"""

import argparse
import hashlib
import json
import os
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORKLOADS = ("gups_lanes2", "churn_mixed", "bfs_isir")
# Seconds allowed for one run of the benchmark binary (the build comes
# first and has its own, longer allowance).
RUN_TIMEOUT_S = 170
BUILD_TIMEOUT_S = 700
# The sources whose digest identifies what was measured.
SOURCE_DIRS = ("crates", "perfbench", "shims")
SOURCE_FILES = ("Cargo.toml", os.path.join(".cargo", "config.toml"))


def fail(msg, code=3):
    print(f"perfbench: {msg}", file=sys.stderr)
    sys.exit(code)


def capture(cmd):
    """First line of a command's output, or 'unknown'."""
    try:
        out = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=30)
    except (OSError, subprocess.TimeoutExpired):
        return "unknown"
    lines = out.stdout.strip().splitlines()
    return lines[0] if out.returncode == 0 and lines else "unknown"


def source_digest(target_dir):
    """SHA-256 over the path and contents of every source file built."""
    skip = os.path.abspath(target_dir)
    h = hashlib.sha256()
    paths = [os.path.join(ROOT, f) for f in SOURCE_FILES]
    for d in SOURCE_DIRS:
        for dirpath, dirnames, filenames in os.walk(os.path.join(ROOT, d)):
            dirnames[:] = sorted(
                n for n in dirnames
                if n != "target" and os.path.abspath(os.path.join(dirpath, n)) != skip
            )
            paths.extend(os.path.join(dirpath, f) for f in sorted(filenames))
    for p in paths:
        if os.path.isfile(p):
            h.update(os.path.relpath(p, ROOT).encode())
            with open(p, "rb") as f:
                h.update(hashlib.sha256(f.read()).digest())
    return h.hexdigest()


def cpu_model():
    try:
        with open("/proc/cpuinfo") as f:
            for line in f:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return "unknown"


def host_record(digest):
    git = "unknown"
    if os.path.isdir(os.path.join(ROOT, ".git")):
        git = capture(["git", "rev-parse", "HEAD"])
    try:
        nproc = len(os.sched_getaffinity(0))
    except AttributeError:
        nproc = os.cpu_count()
    return {
        "nproc": nproc,
        "cpu_model": cpu_model(),
        "rustc": capture(["rustc", "--version"]),
        "profile": "release",
        "git_commit": git,
        "source_sha256": digest,
    }


def check_repeat(target_dir, args, digest, record):
    """Compare this run's fingerprint with earlier runs of the same
    workload, seed and sources; returns a problem string or None."""
    mine = {"det": record["det"], "sim": {
        k: record["sim"][k] for k in ("makespan_us", "op_p50_ns", "op_p99_ns", "op_samples")
    }}
    d = os.path.join(target_dir, "perfbench-det")
    os.makedirs(d, exist_ok=True)
    path = os.path.join(d, f"{args.workload}-{args.seed}-{digest[:16]}.json")
    if os.path.exists(path):
        with open(path) as f:
            earlier = json.load(f)
        if earlier != mine:
            return f"fingerprint {mine} differs from an earlier run's {earlier}"
        return None
    tmp = f"{path}.{os.getpid()}"
    with open(tmp, "w") as f:
        json.dump(mine, f, sort_keys=True)
    os.replace(tmp, path)
    return None


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", required=True, type=int)
    ap.add_argument("--seconds", required=True, type=float)
    ap.add_argument("--trace", required=True, choices=("0", "1"))
    args = ap.parse_args()

    target_dir = os.environ.get("CARGO_TARGET_DIR") or ".bench_build"
    if not os.path.isabs(target_dir):
        target_dir = os.path.join(os.getcwd(), target_dir)
    env = dict(os.environ, CARGO_TARGET_DIR=target_dir)
    manifest = os.path.join(HERE, "Cargo.toml")
    if not os.path.isdir(os.path.join(ROOT, "crates")):
        fail("the repository's crates/ are missing; run from a full checkout")

    started = time.monotonic()
    try:
        build = subprocess.run(
            ["cargo", "build", "--release", "--offline", "--quiet", "--manifest-path", manifest],
            cwd=ROOT, env=env, timeout=BUILD_TIMEOUT_S,
        )
    except (OSError, subprocess.TimeoutExpired) as e:
        fail(f"build failed: {e}")
    if build.returncode != 0:
        fail(f"build failed with status {build.returncode}")
    build_s = time.monotonic() - started

    binary = os.path.join(target_dir, "release", "perfbench")
    spans = os.path.join(target_dir, "perfbench-spans", f"{args.workload}.csv")
    cmd = [
        binary, "--workload", args.workload, "--seed", str(args.seed),
        "--seconds", str(args.seconds), "--trace", args.trace,
        "--spans-out", spans,
    ]
    try:
        run = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=RUN_TIMEOUT_S)
    except (OSError, subprocess.TimeoutExpired) as e:
        fail(f"benchmark run failed: {e}")
    sys.stderr.write(run.stderr)
    lines = run.stdout.strip().splitlines()
    if run.returncode not in (0, 1) or len(lines) < 2:
        fail(f"benchmark exited with status {run.returncode} and no result")
    record = json.loads(lines[-2])["record"]
    result = json.loads(lines[-1])

    digest = source_digest(target_dir)
    problem = check_repeat(target_dir, args, digest, record)
    if problem:
        print(f"perfbench: check failed: {problem}", file=sys.stderr)
        result["correct"] = False
        result["failed"] = result["attempted"]
    host = host_record(digest)
    host["build_s"] = round(build_s, 3)
    for line in lines[:-1]:
        print(line)
    print(json.dumps({"host": host}))
    print(json.dumps(result))
    sys.exit(0 if result["correct"] else 1)


if __name__ == "__main__":
    main()
