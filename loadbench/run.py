#!/usr/bin/env python3
"""Builds and runs the S-MATCH load benchmark.

    python3 loadbench/run.py --workload query_skew --seed 1 --seconds 16 --trace 0

The first run configures and builds loadbench/ (which compiles ../src)
into the build directory: $CARGO_TARGET_DIR when set, else .bench_build,
both relative to the checkout root. Later runs only re-check the build.
Build output goes to stderr; the benchmark's report goes to stdout, whose
last line is the JSON result. Extra flags (--tiny, --tamper) pass through
to the binary. The exit code is the binary's (non-zero when a correctness
gate failed, or when the sources or the build are missing).
"""
import argparse
import hashlib
import os
import shutil
import signal
import subprocess
import sys
import tempfile

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
RUN_TIMEOUT_S = 170
BUILD_JOBS = "4"


def build_dir():
    return os.path.join(ROOT, os.environ.get("CARGO_TARGET_DIR") or ".bench_build")


def build():
    """Configures (once) and builds the benchmark; returns the binary path."""
    if not os.path.isfile(os.path.join(ROOT, "src", "CMakeLists.txt")):
        sys.exit("loadbench: no S-MATCH sources next to loadbench/ (expected ../src)")
    out = build_dir()
    steps = []
    if not os.path.isfile(os.path.join(out, "CMakeCache.txt")):
        steps.append(["cmake", "-S", HERE, "-B", out])
    steps.append(["cmake", "--build", out, "--target", "loadbench", "-j", BUILD_JOBS])
    for cmd in steps:
        if subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr).returncode != 0:
            sys.exit("loadbench: build failed: " + " ".join(cmd))
    return os.path.join(out, "loadbench")


def source_id():
    """The git commit when the checkout is a repository, else a digest of
    the sources the benchmark builds from."""
    if os.path.isdir(os.path.join(ROOT, ".git")):
        head = subprocess.run(["git", "-C", ROOT, "rev-parse", "HEAD"],
                              capture_output=True, text=True)
        if head.returncode == 0:
            return head.stdout.strip()
    digest = hashlib.sha256()
    for top in ("src", "loadbench"):
        for dirpath, dirnames, filenames in os.walk(os.path.join(ROOT, top)):
            dirnames.sort()
            for name in sorted(filenames):
                path = os.path.join(dirpath, name)
                digest.update(os.path.relpath(path, ROOT).encode())
                with open(path, "rb") as f:
                    digest.update(f.read())
    return "source-sha256:" + digest.hexdigest()[:16]


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", required=True)
    parser.add_argument("--seconds", required=True)
    parser.add_argument("--trace", default="0", choices=["0", "1"])
    args, extra = parser.parse_known_args()

    # A terminated run still stops its child and removes its store.
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))
    binary = build()
    tmp_root = os.path.join(build_dir(), "tmp")
    os.makedirs(tmp_root, exist_ok=True)
    tmp = tempfile.mkdtemp(prefix="smatch_store_", dir=tmp_root)
    cmd = [binary, "--workload", args.workload, "--seed", args.seed,
           "--seconds", args.seconds, "--trace", args.trace, "--tmp", tmp,
           "--commit", source_id()] + extra
    child = subprocess.Popen(cmd, stdout=subprocess.PIPE, text=True)
    try:
        out, _ = child.communicate(timeout=RUN_TIMEOUT_S)
        sys.stdout.write(out)
        sys.stdout.flush()
        return child.returncode
    except subprocess.TimeoutExpired:
        print("loadbench: run exceeded %d s" % RUN_TIMEOUT_S, file=sys.stderr)
        return 1
    finally:
        if child.poll() is None:
            child.kill()
        child.wait()
        shutil.rmtree(tmp, ignore_errors=True)


if __name__ == "__main__":
    sys.exit(main())
