#!/usr/bin/env python3
"""Self-test of the benchmark; run from the repository root:

    python3 cordbench/selftest.py

Builds the cordbench binary (as run.py does), then:
  * runs a tiny pass of every workload with --trace 0 and --trace 1 and
    asserts that every end_to_end (resp. per_layer) metric named in
    BENCHMARK.json is emitted with its unit, and that no op failed;
  * feeds truncated order logs to the replay check and asserts that
    every replay is counted as a failed op, not silently passed;
  * asserts that a malformed argument or an unknown workload is a
    one-line error with exit code 2.
Exits 0 when every check holds and prints each failure otherwise.
"""

import json
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)
sys.dont_write_bytecode = True
import run  # noqa: E402

# Splash apps in the record workload: one replay op per app.
RECORD_APPS = 12


def load_spec():
    with open(os.path.join(HERE, "..", "BENCHMARK.json")) as f:
        return json.load(f)


def invoke(exe, workdir, args):
    proc = subprocess.run([exe] + args + ["--workdir", workdir],
                          capture_output=True, text=True, timeout=170)
    return proc


def result_of(proc):
    return json.loads(proc.stdout.strip().splitlines()[-1])


def main():
    exe = run.build()
    if exe is None:
        return 1
    workdir = os.path.join(os.path.dirname(run.build_dir()), "work")
    spec = load_spec()
    problems = []

    for wl in spec["workloads"]:
        for trace, key in (("0", "end_to_end"), ("1", "per_layer")):
            name = "%s --trace %s" % (wl["name"], trace)
            proc = invoke(exe, workdir, [
                "--workload", wl["name"], "--seed", "7", "--seconds", "1",
                "--trace", trace, "--tiny"])
            if proc.returncode != 0:
                problems.append("%s exited %d: %s"
                                % (name, proc.returncode, proc.stderr))
                continue
            res = result_of(proc)
            if set(res) != {"correct", "attempted", "failed", "metrics"}:
                problems.append("%s: result keys %s" % (name, sorted(res)))
            if not res["correct"] or res["failed"] or res["attempted"] < 1:
                problems.append("%s: correct=%s attempted=%s failed=%s"
                                % (name, res["correct"], res["attempted"],
                                   res["failed"]))
            want = {m["name"]: m["unit"] for m in spec[key]}
            got = {k: v["unit"] for k, v in res["metrics"].items()}
            if got != want:
                problems.append("%s: metrics differ from BENCHMARK.json: "
                                "missing %s, extra or wrong unit %s"
                                % (name, sorted(set(want.items()) -
                                                set(got.items())),
                                   sorted(set(got.items()) -
                                          set(want.items()))))

    # A corrupted order log must fail the replay check.
    proc = invoke(exe, workdir, [
        "--workload", "record", "--seed", "7", "--seconds", "1",
        "--trace", "0", "--tiny", "--corrupt-log"])
    if proc.returncode != 0:
        problems.append("corrupt-log run exited %d" % proc.returncode)
    else:
        res = result_of(proc)
        passes = res["attempted"] // (3 * RECORD_APPS)
        if res["correct"] or res["failed"] != passes * RECORD_APPS:
            problems.append("corrupt-log run: correct=%s failed=%s, "
                            "expected %d failed replays"
                            % (res["correct"], res["failed"],
                               passes * RECORD_APPS))

    for bad in (["--workload", "nope", "--seed", "1", "--seconds", "1",
                 "--trace", "0"],
                ["--workload", "record", "--seed", "12x", "--seconds",
                 "1", "--trace", "0"],
                ["--workload", "record", "--seed", "1", "--seconds", "-3",
                 "--trace", "0"],
                ["--workload", "record", "--seed", "1", "--seconds", "1",
                 "--trace", "2"]):
        proc = invoke(exe, workdir, bad)
        lines = proc.stderr.strip().splitlines()
        if proc.returncode != 2 or len(lines) != 1 or proc.stdout:
            problems.append("%s: exit %d, stderr %r"
                            % (" ".join(bad), proc.returncode, proc.stderr))

    for p in problems:
        print("selftest: FAIL " + p)
    print("selftest: %s" % ("ok" if not problems else
                            "%d problems" % len(problems)))
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
