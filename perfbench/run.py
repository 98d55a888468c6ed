#!/usr/bin/env python3
"""dartd end-to-end benchmark: one command per workload and seed.

    python3 perfbench/run.py --workload NAME [--seed N] [--seconds T] [--trace 0|1]

Run from the root of a source checkout. The script
  1. builds perfbench/ (the repository's libraries plus the `dartbench`
     harness) into .bench_build/cmake,
  2. generates the seeded campus-mix input trace, cached per seed and
     generator config in .bench_build/inputs (generation is never timed),
  3. computes the workload's reference output once per input and build,
  4. runs the workload for T seconds and prints its metrics.

The last stdout line is the JSON result {"correct", "attempted", "failed",
"metrics"}: the end-to-end metrics with --trace 0, the per-layer metrics of
the traced run with --trace 1. The exit code is non-zero when an output
check fails or the benchmark cannot run. Workloads and metrics are
documented in BENCHMARK.json.
"""

import argparse
import hashlib
import os
import shutil
import subprocess
import sys

WORKLOADS = ("replay_paper_tables", "replay_small_tables", "live_socket")
DEFAULT_SEED = 20220822
# Campus-mix input: 150k connections over 5 s, about 2.55M packets (the
# paper trace's connection rate).
CONNECTIONS = 150_000
DURATION_S = 5
RUN_TIMEOUT_S = 170


def log(*parts):
    print(*parts, file=sys.stderr, flush=True)


def sha256_file(path):
    digest = hashlib.sha256()
    with open(path, "rb") as f:
        for block in iter(lambda: f.read(1 << 20), b""):
            digest.update(block)
    return digest.hexdigest()


def source_digest(src):
    digest = hashlib.sha256()
    for root, dirs, files in os.walk(src):
        dirs.sort()
        for name in sorted(files):
            path = os.path.join(root, name)
            digest.update(os.path.relpath(path, src).encode())
            digest.update(sha256_file(path).encode())
    return digest.hexdigest()[:16]


def git_sha(root):
    try:
        out = subprocess.run(["git", "-C", root, "rev-parse", "HEAD"],
                             capture_output=True, text=True, timeout=10)
    except (OSError, subprocess.TimeoutExpired):
        return "none"
    return out.stdout.strip() if out.returncode == 0 else "none"


def build(root, build_dir):
    """Configure once, then (re)build the harness; build output to stderr."""
    generator = ["-G", "Ninja"] if shutil.which("ninja") else []
    if not os.path.exists(os.path.join(build_dir, "CMakeCache.txt")):
        subprocess.run(["cmake", "-S", os.path.join(root, "perfbench"),
                        "-B", build_dir, "-DCMAKE_BUILD_TYPE=RelWithDebInfo"]
                       + generator, check=True, stdout=sys.stderr)
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    subprocess.run(["cmake", "--build", build_dir, "--target", "dartbench",
                    "-j", jobs], check=True, stdout=sys.stderr)
    return os.path.join(build_dir, "dartbench")


def cached(path, make):
    """Create `path` through a temporary file unless it already exists."""
    if not os.path.exists(path):
        tmp = path + ".tmp"
        make(tmp)
        os.replace(tmp, path)
    return path


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=10)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()

    root = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
    src = os.path.join(root, "src")
    if not os.path.exists(os.path.join(src, "CMakeLists.txt")):
        log("perfbench: no dart sources at", src)
        return 1
    work = os.path.join(root, ".bench_build")
    inputs = os.path.join(work, "inputs")
    os.makedirs(inputs, exist_ok=True)
    os.makedirs(os.path.join(work, "spans"), exist_ok=True)

    try:
        binary = build(root, os.path.join(work, "cmake"))
    except (OSError, subprocess.CalledProcessError) as err:
        log("perfbench: build failed:", err)
        return 1

    def run_tool(argv, timeout):
        subprocess.run([binary] + argv, check=True, stdout=sys.stderr,
                       timeout=timeout)

    stem = f"campus-s{args.seed}-c{CONNECTIONS}-d{DURATION_S}"
    try:
        trace = cached(os.path.join(inputs, stem + ".dtrc"), lambda out: run_tool(
            ["gen", "--seed", str(args.seed), "--connections", str(CONNECTIONS),
             "--duration-s", str(DURATION_S), "--out", out], 300))
        build_id = sha256_file(binary)[:12]
        reference = cached(
            os.path.join(inputs, f"ref-{args.workload}-{stem}-{build_id}.txt"),
            lambda out: run_tool(["reference", "--workload", args.workload,
                                  "--input", trace, "--out", out], 300))
    except (OSError, subprocess.CalledProcessError,
            subprocess.TimeoutExpired) as err:
        log("perfbench: input preparation failed:", err)
        return 1

    print("source " + "{" + f'"git_sha": "{git_sha(root)}", '
          f'"src_digest": "{source_digest(src)}", "seed": {args.seed}, '
          f'"input": "{stem}"' + "}", flush=True)
    argv = ["run", "--workload", args.workload, "--input", trace,
            "--reference", reference, "--seconds", str(args.seconds),
            "--trace", str(args.trace)]
    if args.trace:
        argv += ["--spans",
                 os.path.join(work, "spans", f"{args.workload}-s{args.seed}.tsv")]
    try:
        result = subprocess.run([binary] + argv, stdout=subprocess.PIPE,
                                text=True, timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        log("perfbench: run timed out")
        return 1
    lines = result.stdout.rstrip("\n").split("\n")
    if not lines or not lines[-1].startswith('{"correct"'):
        sys.stdout.write(result.stdout)
        log("perfbench: the run produced no result (exit %d)" % result.returncode)
        return 1
    sys.stdout.write(result.stdout)
    sys.stdout.flush()
    return result.returncode


if __name__ == "__main__":
    sys.exit(main())
