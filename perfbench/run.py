#!/usr/bin/env python3
"""Builds and runs tormet's end-to-end benchmark (see perfbench/README.md).

Run from the repository root:

    python3 perfbench/run.py --workload paper-day --seed 1 --seconds 15 --trace 0

The benchmark binary is configured and built from the checkout's own
sources into $CARGO_TARGET_DIR (default .bench_build) on every call; once
built, the rebuild is a no-op. The last line of stdout is the JSON result.
The exit code is non-zero when the build fails or any correctness check
fails.
"""
import argparse
import hashlib
import os
import signal
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORKLOADS = ("paper-day", "psc-crypto-heavy", "relay-fanin")
# The binary stops starting deployments after 150 s; this only catches a hang.
RUN_TIMEOUT_S = 175


def parse_args():
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True, choices=WORKLOADS)
    p.add_argument("--seed", required=True, type=int)
    p.add_argument("--seconds", required=True, type=float)
    p.add_argument("--trace", required=True, choices=("0", "1"))
    p.add_argument("--size", default="full", choices=("full", "tiny"),
                   help="tiny: every workload's shape at test size")
    return p.parse_args()


def build_root():
    return os.path.join(ROOT, os.environ.get("CARGO_TARGET_DIR", ".bench_build"))


def local_env():
    """The environment for every child, with temporary files kept inside
    the checkout."""
    tmp = os.path.join(build_root(), "tmp")
    os.makedirs(tmp, exist_ok=True)
    return dict(os.environ, TMPDIR=tmp)


def build():
    """Configures and builds the binary (a no-op once built); returns its
    path. Tool output is shown only when a step fails."""
    build_dir = os.path.join(build_root(), "perfbench")
    jobs = str(min(4, os.cpu_count() or 1))
    for step in (["cmake", "-S", HERE, "-B", build_dir,
                  "-DCMAKE_BUILD_TYPE=Release"],
                 ["cmake", "--build", build_dir, "-j", jobs]):
        out = subprocess.run(step, stdout=subprocess.PIPE,
                             stderr=subprocess.STDOUT, text=True,
                             env=local_env())
        if out.returncode != 0:
            sys.stderr.write(out.stdout)
            raise subprocess.CalledProcessError(out.returncode, step)
    return os.path.join(build_dir, "perfbench")


def source_id():
    """The git commit when there is one, else a digest of the sources."""
    try:
        out = subprocess.run(["git", "rev-parse", "--show-toplevel", "HEAD"],
                             cwd=ROOT, capture_output=True, text=True,
                             timeout=10)
        lines = out.stdout.split()
        if out.returncode == 0 and len(lines) == 2 and \
                os.path.realpath(lines[0]) == os.path.realpath(ROOT):
            return lines[1]
    except (OSError, subprocess.TimeoutExpired):
        pass
    digest = hashlib.sha256()
    for top in ("CMakeLists.txt", "src", "apps", "perfbench"):
        path = os.path.join(ROOT, top)
        files = [path] if os.path.isfile(path) else sorted(
            os.path.join(d, f) for d, _, fs in os.walk(path) for f in fs)
        for f in files:
            digest.update(os.path.relpath(f, ROOT).encode())
            with open(f, "rb") as fh:
                digest.update(fh.read())
    return "sources-sha256:" + digest.hexdigest()[:16]


def main():
    args = parse_args()
    try:
        binary = build()
    except (OSError, subprocess.CalledProcessError) as e:
        print(f"perfbench: build failed: {e}", file=sys.stderr)
        return 2
    cmd = [binary, "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", args.trace,
           "--size", args.size,
           "--work-dir", os.path.join(build_root(), "perfbench-work"),
           "--commit", source_id()]
    # Own process group, so a hung or interrupted run is stopped together
    # with every node process it spawned.
    proc = subprocess.Popen(cmd, cwd=ROOT, env=local_env(),
                            start_new_session=True)

    def stop(signum, _frame):
        os.killpg(proc.pid, signal.SIGKILL)
        proc.wait()
        sys.exit(128 + signum)

    signal.signal(signal.SIGTERM, stop)
    signal.signal(signal.SIGINT, stop)
    try:
        return proc.wait(timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        os.killpg(proc.pid, signal.SIGKILL)
        proc.wait()
        print("perfbench: run timed out", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
