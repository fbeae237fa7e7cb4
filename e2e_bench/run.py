#!/usr/bin/env python3
"""Entry point of the end-to-end BGC benchmark (see README.md here).

    python3 e2e_bench/run.py --workload reddit-attack --seed 1 --seconds 30 --trace 0

Builds the e2e_bench CMake package (the repository's libraries, compiled
with the repository's own flags, plus bgc_e2e_bench) under
$CARGO_TARGET_DIR (default .bench_build) at the repository root, runs one
workload and relays its output. The last line on stdout is the result JSON;
build logs go to stderr. The full result, with the host/build fingerprint,
is written to <build dir>/e2e/results/ unless --result names a file.
"""

import argparse
import hashlib
import os
import shutil
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORKLOADS = ("cora-attack", "reddit-attack", "victim-eval", "serve-mixed")
# A run must end within 180 s; the binary itself stops after --seconds.
RUN_TIMEOUT_S = 170
BUILD_JOBS = str(min(4, os.cpu_count() or 1))


def log(msg):
    print(msg, file=sys.stderr, flush=True)


def build_dir():
    base = os.environ.get("CARGO_TARGET_DIR") or ".bench_build"
    return os.path.join(ROOT, base, "e2e")


def src_digest():
    """sha256 of the library sources: src/ and the root CMakeLists.txt."""
    digest = hashlib.sha256()
    paths = [os.path.join(ROOT, "CMakeLists.txt")]
    for top, dirs, files in os.walk(os.path.join(ROOT, "src")):
        dirs.sort()
        paths += [os.path.join(top, f) for f in sorted(files)]
    for path in paths:
        digest.update(os.path.relpath(path, ROOT).encode())
        with open(path, "rb") as f:
            digest.update(f.read())
    return digest.hexdigest()[:16]


def source_id():
    """git sha in a clone (with "+dirty:<src sha256>" when the library
    sources have uncommitted edits), else a content hash of the sources."""
    if os.path.isdir(os.path.join(ROOT, ".git")):
        sha = subprocess.run(["git", "-C", ROOT, "rev-parse", "HEAD"],
                             capture_output=True, text=True)
        dirty = subprocess.run(["git", "-C", ROOT, "status", "--porcelain",
                                "--", "src", "CMakeLists.txt"],
                               capture_output=True, text=True)
        if sha.returncode == 0 and dirty.returncode == 0:
            sid = "git:" + sha.stdout.strip()
            if dirty.stdout.strip():
                sid += "+dirty:" + src_digest()
            return sid
    return "src-sha256:" + src_digest()


def run_quiet(cmd):
    """Runs a build step with its output on stderr; True on success."""
    return subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr).returncode == 0


def build(out):
    """Configures (once) and builds bgc_e2e_bench; returns its path."""
    if shutil.which("cmake") is None:
        raise RuntimeError("cmake not found")
    configure = ["cmake", "-S", HERE, "-B", out, "-DCMAKE_BUILD_TYPE=Release"]
    if shutil.which("ninja"):
        configure += ["-G", "Ninja"]
    compile_cmd = ["cmake", "--build", out, "--target", "bgc_e2e_bench",
                   "-j", BUILD_JOBS]
    if not os.path.exists(os.path.join(out, "CMakeCache.txt")):
        if not run_quiet(configure):
            raise RuntimeError("cmake configure failed")
    if not run_quiet(compile_cmd):
        raise RuntimeError("build failed")
    return os.path.join(out, "bgc_e2e_bench")


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    parser.add_argument("--result", help="full result JSON path")
    parser.add_argument("--smoke", action="store_true",
                        help="tiny-sim, few epochs (self-test only)")
    args = parser.parse_args()
    if args.seed < 0 or args.seconds < 1:
        parser.error("--seed must be >= 0 and --seconds >= 1")
    if not os.path.exists(os.path.join(ROOT, "src", "CMakeLists.txt")):
        log("e2e_bench: no bgc sources next to %s; nothing to build" % HERE)
        return 2

    out = build_dir()
    try:
        binary = build(out)
    except RuntimeError as e:
        log("e2e_bench: %s" % e)
        return 2
    result = args.result or os.path.join(
        out, "results", "%s-seed%d-trace%d.json" %
        (args.workload, args.seed, args.trace))
    os.makedirs(os.path.dirname(os.path.abspath(result)), exist_ok=True)
    workdir = os.path.join(out, "work", "%s-%d-%d" %
                           (args.workload, args.seed, os.getpid()))
    cmd = [binary, "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace),
           "--workdir", workdir, "--result", result,
           "--source-id", source_id()]
    if args.smoke:
        cmd.append("--smoke")
    sys.stdout.flush()
    try:
        return subprocess.run(cmd, timeout=RUN_TIMEOUT_S).returncode
    except subprocess.TimeoutExpired:
        log("e2e_bench: run exceeded %d s" % RUN_TIMEOUT_S)
        return 3
    finally:
        shutil.rmtree(workdir, ignore_errors=True)


if __name__ == "__main__":
    sys.exit(main())
