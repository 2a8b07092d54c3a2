#!/usr/bin/env python3
"""Build the cordbench binary from source and run one workload.

Run from the repository root:

    python3 cordbench/run.py --workload campaign|record|offline \
        --seed N --seconds S --trace 0|1

The binary and the simulator libraries are built with CMake (Release)
under $CARGO_TARGET_DIR, default .bench_build; the first call builds,
later calls only re-check.  The binary's last stdout line is the JSON
result; progress and the build log location go to stderr.  Exit codes:
0 success, 1 build or run failure, 2 a malformed argument.
"""

import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))

# A run measures for --seconds and then finishes its current pass; this
# caps a wedged run well inside the 180 s a run may take.
RUN_TIMEOUT_S = 170


def build_dir():
    return os.path.join(os.environ.get("CARGO_TARGET_DIR", ".bench_build"),
                        "cordbench")


def build():
    """Configure and build the binary; return its path or None."""
    out = build_dir()
    os.makedirs(out, exist_ok=True)
    log_path = os.path.join(out, "build.log")
    jobs = str(min(4, os.cpu_count() or 1))
    steps = [["cmake", "-S", HERE, "-B", out, "-DCMAKE_BUILD_TYPE=Release"],
             ["cmake", "--build", out, "--target", "cordbench", "-j", jobs]]
    with open(log_path, "wb") as log:
        for cmd in steps:
            if subprocess.run(cmd, stdout=log, stderr=log).returncode != 0:
                sys.stderr.write("cordbench: build failed; see %s\n"
                                 % log_path)
                return None
    return os.path.join(out, "cordbench")


def main():
    exe = build()
    if exe is None:
        return 1
    workdir = os.path.join(os.path.dirname(build_dir()), "work")
    cmd = [exe] + sys.argv[1:] + ["--workdir", workdir]
    try:
        return subprocess.run(cmd, timeout=RUN_TIMEOUT_S).returncode
    except subprocess.TimeoutExpired:
        sys.stderr.write("cordbench: run exceeded %d s\n" % RUN_TIMEOUT_S)
        return 1


if __name__ == "__main__":
    sys.exit(main())
