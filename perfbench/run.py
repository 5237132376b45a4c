#!/usr/bin/env python3
"""Builds and runs the repository benchmark (documented in README.md).

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run it from the repository root. It builds libdpc and the harness from
source with CMake in Release mode under $CARGO_TARGET_DIR (default
.bench_build), then runs one workload. Build output goes to stderr; the
last line on stdout is the harness's JSON result. WAL files and the traced
run's Chrome-trace export are written under the same directory.
"""
import argparse
import fcntl
import hashlib
import os
import signal
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORKLOADS = ("fwd-steady", "dns-burst")


def fail(msg):
    print("perfbench: " + msg, file=sys.stderr)
    sys.exit(1)


def source_sha1():
    """Digest of every file the benchmark builds from."""
    h = hashlib.sha1()
    for top in ("src", os.path.basename(HERE)):
        for d, dirs, files in os.walk(os.path.join(ROOT, top)):
            dirs.sort()
            for name in sorted(files):
                path = os.path.join(d, name)
                h.update(os.path.relpath(path, ROOT).encode())
                with open(path, "rb") as f:
                    h.update(f.read())
    return h.hexdigest()


def commit():
    if not os.path.isdir(os.path.join(ROOT, ".git")):
        return "unknown"
    try:
        out = subprocess.run(["git", "-C", ROOT, "rev-parse", "HEAD"],
                             capture_output=True, text=True, timeout=30)
    except OSError:
        return "unknown"
    return out.stdout.strip() if out.returncode == 0 else "unknown"


def build(build_dir):
    os.makedirs(build_dir, exist_ok=True)
    jobs = str(min(os.cpu_count() or 1, 4))
    with open(os.path.join(build_dir, ".lock"), "w") as lock:
        fcntl.flock(lock, fcntl.LOCK_EX)
        if not os.path.exists(os.path.join(build_dir, "CMakeCache.txt")):
            subprocess.run(["cmake", "-S", HERE, "-B", build_dir,
                            "-DCMAKE_BUILD_TYPE=Release"],
                           stdout=sys.stderr, check=True)
        subprocess.run(["cmake", "--build", build_dir, "-j", jobs,
                        "--target", "dpc_perfbench"],
                       stdout=sys.stderr, check=True)


def main():
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True, choices=WORKLOADS)
    p.add_argument("--seed", required=True, type=int)
    p.add_argument("--seconds", required=True, type=int)
    p.add_argument("--trace", required=True, choices=("0", "1"))
    args = p.parse_args()
    if args.seed < 0 or args.seconds <= 0:
        fail("--seed must be >= 0 and --seconds > 0")
    if not os.path.isfile(os.path.join(ROOT, "src", "CMakeLists.txt")):
        fail("no libdpc sources at %s/src: run from a full checkout" % ROOT)

    target = os.environ.get("CARGO_TARGET_DIR") or ".bench_build"
    if not os.path.isabs(target):
        target = os.path.join(ROOT, target)
    build_dir = os.path.join(target, "perfbench")
    try:
        build(build_dir)
    except (OSError, subprocess.CalledProcessError) as e:
        fail("build failed: %s" % e)

    cmd = [os.path.join(build_dir, "dpc_perfbench"),
           "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", args.trace,
           "--wal-root", os.path.join(target, "perfbench-wal"),
           "--commit", commit(), "--source-sha1", source_sha1()]
    if args.trace == "1":
        cmd += ["--trace-out",
                os.path.join(target, "perfbench-trace-%s.json" % args.workload)]
    proc = subprocess.Popen(cmd, cwd=ROOT)

    def stop(signum, _frame):
        proc.terminate()
        proc.wait()
        sys.exit(128 + signum)

    signal.signal(signal.SIGTERM, stop)
    signal.signal(signal.SIGINT, stop)
    sys.exit(proc.wait())


if __name__ == "__main__":
    main()
