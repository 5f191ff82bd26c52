#!/usr/bin/env python3
"""Build and run the repository benchmark.

    python3 perfbench/run.py --workload study|serve_tcp|serve_delta \
        --seed N --seconds S --trace 0|1
    python3 perfbench/run.py --self-check

Run from the root of a checkout. The first call configures and builds the
rcr library and the rcr_perfbench binary from source (CMake, Release) into
$CARGO_TARGET_DIR, or .bench_build when that is unset; later calls only
re-check the build. The binary's standard output is passed through, so the
last line is the result JSON. --self-check runs all three workloads at tiny
sizes with their correctness gates, in seconds.
"""
import json
import os
import subprocess
import sys
import tempfile

HERE = os.path.dirname(os.path.abspath(__file__))
WORKLOADS = ("study", "serve_tcp", "serve_delta")


def build_dir():
    return os.path.abspath(os.environ.get("CARGO_TARGET_DIR") or ".bench_build")


def build():
    out = os.path.join(build_dir(), "perfbench")
    os.makedirs(out, exist_ok=True)
    jobs = str(max(1, os.cpu_count() or 1))
    steps = [
        ["cmake", "-S", HERE, "-B", out, "-DCMAKE_BUILD_TYPE=Release"],
        ["cmake", "--build", out, "--target", "rcr_perfbench", "-j", jobs],
    ]
    for cmd in steps:
        # Build chatter goes to stderr: stdout ends with the result line.
        done = subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr)
        if done.returncode != 0:
            sys.exit("perfbench: build step failed: " + " ".join(cmd))
    return os.path.join(out, "rcr_perfbench")


def run(binary, args, data_dir):
    os.makedirs(data_dir, exist_ok=True)
    return subprocess.run([binary, *args, "--data-dir", data_dir]).returncode


def self_check(binary):
    failed = []
    with tempfile.TemporaryDirectory(dir=build_dir()) as data_dir:
        for workload in WORKLOADS:
            for trace in ("0", "1"):
                args = ["--workload", workload, "--seed", "7", "--seconds",
                        "0.5", "--trace", trace, "--tiny"]
                done = subprocess.run(
                    [binary, *args, "--data-dir", data_dir],
                    stdout=subprocess.PIPE, text=True)
                last = done.stdout.strip().splitlines()[-1:] or [""]
                ok = done.returncode == 0
                try:
                    ok = ok and json.loads(last[0])["correct"] is True
                except ValueError:
                    ok = False
                print("self-check %-11s trace=%s %s" %
                      (workload, trace, "ok" if ok else "FAILED"))
                if not ok:
                    sys.stderr.write(done.stdout)
                    failed.append(workload)
    return 1 if failed else 0


def main(argv):
    binary = build()
    if argv == ["--self-check"]:
        return self_check(binary)
    return run(binary, argv, os.path.join(build_dir(), "data"))


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
