#!/usr/bin/env python3
"""Build the wsched benchmark from this checkout's sources and run it.

    python3 perfbench/run.py --workload fig4-grid --seed 1 --seconds 20 --trace 0

Configures and builds perfbench/ (which compiles ../src as libwsched) into
.bench_build/perfbench with CMake in Release mode, then runs the benchmark
binary with the given arguments. Build output goes to stderr, so the last
line of stdout is the benchmark's JSON result. Exits non-zero without a
result when the build or the run fails.
"""
import os
import shutil
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD = os.path.join(ROOT, ".bench_build", "perfbench")
BINARY = os.path.join(BUILD, "perfbench")


def build():
    if not os.path.exists(os.path.join(BUILD, "CMakeCache.txt")):
        configure = ["cmake", "-S", HERE, "-B", BUILD,
                     "-DCMAKE_BUILD_TYPE=Release"]
        if shutil.which("ninja"):
            configure += ["-G", "Ninja"]
        subprocess.run(configure, check=True, stdout=sys.stderr)
    jobs = str(min(4, os.cpu_count() or 1))
    subprocess.run(["cmake", "--build", BUILD, "-j", jobs], check=True,
                   stdout=sys.stderr)


def git_revision():
    try:
        out = subprocess.run(["git", "-C", ROOT, "rev-parse", "HEAD"],
                             capture_output=True, text=True, timeout=10)
    except (OSError, subprocess.SubprocessError):
        return "none"
    rev = out.stdout.strip()
    return rev if out.returncode == 0 and rev else "none"


def main():
    try:
        build()
    except (OSError, subprocess.CalledProcessError) as err:
        print(f"run.py: build failed: {err}", file=sys.stderr)
        return 2
    args = sys.argv[1:]
    if not any(a == "--git-rev" or a.startswith("--git-rev=") for a in args):
        args += ["--git-rev", git_revision()]
    if not any(a == "--spans-out" or a.startswith("--spans-out=")
               for a in args):
        args += ["--spans-out", os.path.join(ROOT, ".bench_build",
                                             "spans.json")]
    sys.stdout.flush()
    return subprocess.run([BINARY] + args).returncode


if __name__ == "__main__":
    sys.exit(main())
