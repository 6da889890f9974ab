#!/usr/bin/env python3
"""The repository benchmark: one command, three workloads.

    python3 perfbench/run.py --workload serve|editor|train \
        --seed N --seconds S --trace 0|1
    python3 perfbench/run.py --selftest     # the harness helpers' unit tests

Run from the root of a checkout. The first run builds the program and the
harness from source (CMake, Release) into $CARGO_TARGET_DIR/perfbench
(default .bench_build/perfbench) and trains the two model artifacts with
the program's own `typilus_cli train`; later runs reuse both.

Every run generates its inputs from --seed, does a fixed amount of work
sized from --seconds, checks every output against an in-process
reference, and prints as its last stdout line one JSON object
{correct, attempted, failed, metrics}: the end-to-end metrics of
BENCHMARK.json with --trace 0, its per-layer metrics with --trace 1 (a
traced run also writes a Chrome trace next to the build). The exit code
is 0 only when every output was correct. perfbench/README.md describes
the workloads and how each metric is measured.
"""

import argparse
import hashlib
import json
import os
import subprocess
import sys

WORKLOADS = ("serve", "editor", "train")
# Artifact recipes: typilus_cli train arguments per artifact.
ARTIFACTS = {
    "serve": ["--files", "600", "--epochs", "2"],  # ~11k markers
    "editor": [],  # the CLI's default scale, ~1k markers
}
HARNESS_TIMEOUT_S = 170
BUILD_TIMEOUT_S = 780


def log(*parts):
    print(*parts, file=sys.stderr, flush=True)


def run_logged(cmd, timeout):
    """Runs cmd with its output on stderr; raises on failure."""
    subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr, check=True,
                   timeout=timeout)


def build(root, bench_dir, build_dir, targets):
    if not os.path.exists(os.path.join(build_dir, "CMakeCache.txt")):
        run_logged(["cmake", "-S", bench_dir, "-B", build_dir,
                    "-DCMAKE_BUILD_TYPE=Release"], BUILD_TIMEOUT_S)
    run_logged(["cmake", "--build", build_dir, "-j4", "--target"] + targets,
               BUILD_TIMEOUT_S)


def file_digest(path):
    h = hashlib.sha256()
    with open(path, "rb") as f:
        for chunk in iter(lambda: f.read(1 << 20), b""):
            h.update(chunk)
    return h.hexdigest()


def ensure_artifact(cli, work, name):
    """Trains the named artifact once per build of typilus_cli."""
    path = os.path.join(work, name + ".typilus")
    stamp_path = path + ".stamp"
    stamp = file_digest(cli) + " " + " ".join(ARTIFACTS[name])
    if os.path.exists(path) and os.path.exists(stamp_path):
        with open(stamp_path) as f:
            if f.read() == stamp:
                return path
    log(f"perfbench: training the {name} artifact")
    run_logged([cli, "train"] + ARTIFACTS[name] + ["--out", path],
               BUILD_TIMEOUT_S)
    with open(stamp_path, "w") as f:
        f.write(stamp)
    return path


def metric_names(root, trace):
    with open(os.path.join(root, "BENCHMARK.json")) as f:
        spec = json.load(f)
    return [m["name"] for m in spec["per_layer" if trace else "end_to_end"]]


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", choices=WORKLOADS)
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=int, default=10)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--selftest", action="store_true")
    args = ap.parse_args()
    if not args.selftest and not args.workload:
        ap.error("--workload is required")
    if args.seconds < 1:
        ap.error("--seconds must be positive")

    root = os.getcwd()
    bench_dir = os.path.dirname(os.path.abspath(__file__))
    for needed in ("CMakeLists.txt", "src", "tools"):
        if not os.path.exists(os.path.join(root, needed)):
            log(f"perfbench: {needed} not found; run from the root of a "
                "checkout of the program")
            return 2
    build_dir = os.path.join(
        root, os.environ.get("CARGO_TARGET_DIR") or ".bench_build",
        "perfbench")
    work = os.path.join(build_dir, "work")
    os.makedirs(work, exist_ok=True)

    try:
        if args.selftest:
            build(root, bench_dir, build_dir, ["perfbench_tests"])
            return subprocess.run(
                [os.path.join(build_dir, "perfbench_tests")]).returncode
        build(root, bench_dir, build_dir, ["perfbench_harness", "typilus_cli"])
        cli = os.path.join(build_dir, "typilus", "tools", "typilus_cli")
        artifact = ""
        if args.workload in ARTIFACTS:
            artifact = ensure_artifact(cli, work, args.workload)
        cmd = [os.path.join(build_dir, "perfbench_harness"), args.workload,
               "--seed", str(args.seed), "--seconds", str(args.seconds),
               "--trace", str(args.trace), "--artifact", artifact,
               "--cli", cli, "--work-dir", work]
        proc = subprocess.run(cmd, stdout=subprocess.PIPE, stderr=sys.stderr,
                              text=True, timeout=HARNESS_TIMEOUT_S)
    except (subprocess.CalledProcessError, subprocess.TimeoutExpired,
            OSError) as e:
        log(f"perfbench: {e}")
        return 2

    lines = proc.stdout.strip().splitlines()
    try:
        result = json.loads(lines[-1])
    except (IndexError, ValueError):
        log(f"perfbench: harness exited {proc.returncode} without a result")
        return 2
    expected = metric_names(root, args.trace)
    if set(result["metrics"]) != set(expected):
        log("perfbench: harness metrics do not match BENCHMARK.json: "
            f"{sorted(set(result['metrics']) ^ set(expected))}")
        return 2
    result["metrics"] = {name: result["metrics"][name] for name in expected}
    if args.trace:
        log(f"perfbench: trace written to {work}/trace-{args.workload}-"
            f"{args.seed}.json")
    print(json.dumps(result))
    ok = result["correct"] and result["failed"] == 0 and proc.returncode == 0
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
