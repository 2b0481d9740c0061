#!/usr/bin/env python3
"""Smoke test of the jadebench benchmark at a tiny size.

    python3 jadebench/smoke_test.py

Runs every workload for one second with --size tiny, untraced and traced,
and checks that the last line of stdout parses as the result object, that
it names exactly the end-to-end (untraced) or per-layer (traced) metrics of
BENCHMARK.json with the units listed there, that every output was verified
and nothing failed, and that the stamp line carries the run's provenance.
Then checks that a directory holding only BENCHMARK.json and jadebench/
makes run.py exit non-zero without printing a result.  Exits non-zero on
the first problem.
"""
import json
import math
import os
import shutil
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
STAMP_KEYS = {"workload", "seed", "trace", "hardware_cores", "build_type",
              "git_sha", "samples"}


def check(cond, msg):
    if not cond:
        print("FAIL: " + msg)
        sys.exit(1)


def run(workload, trace, cwd=ROOT):
    cmd = [sys.executable, os.path.join(cwd, "jadebench", "run.py"),
           "--workload", workload, "--seed", "7", "--seconds", "1",
           "--trace", str(trace), "--size", "tiny"]
    return subprocess.run(cmd, cwd=cwd, capture_output=True, text=True,
                          timeout=600)


def main():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    expected = {
        0: {m["name"]: m["unit"] for m in spec["end_to_end"]},
        1: {m["name"]: m["unit"] for m in spec["per_layer"]},
    }
    for w in spec["workloads"]:
        for trace in (0, 1):
            label = "%s trace=%d" % (w["name"], trace)
            proc = run(w["name"], trace)
            check(proc.returncode == 0,
                  "%s exited %d: %s" % (label, proc.returncode,
                                        proc.stderr[-2000:]))
            lines = proc.stdout.strip().splitlines()
            check(len(lines) >= 2, label + ": no stamp and result lines")
            result = json.loads(lines[-1])
            check(set(result) == {"correct", "attempted", "failed", "metrics"},
                  label + ": result keys " + str(sorted(result)))
            check(result["correct"] is True, label + ": output not verified")
            check(result["failed"] == 0, label + ": failed operations")
            check(isinstance(result["attempted"], int) and
                  result["attempted"] >= 1, label + ": attempted")
            got = {k: v["unit"] for k, v in result["metrics"].items()}
            check(got == expected[trace],
                  label + ": metric names/units differ from BENCHMARK.json: " +
                  str(set(got.items()) ^ set(expected[trace].items())))
            for name, m in result["metrics"].items():
                check(set(m) == {"value", "unit"}, label + ": " + name)
                check(isinstance(m["value"], (int, float)) and
                      math.isfinite(m["value"]), label + ": value of " + name)
            if trace == 0:
                for m in spec["end_to_end"]:
                    check(result["metrics"][m["name"]]["value"] > 0,
                          label + ": " + m["name"] + " is not positive")
            stamp = json.loads(lines[-2])["stamp"]
            check(STAMP_KEYS <= set(stamp), label + ": stamp " + str(stamp))
            check(stamp["workload"] == w["name"] and stamp["seed"] == 7,
                  label + ": stamp does not match the run")
            print("ok  " + label)

    # Without the library sources next to it the benchmark must refuse to run.
    bare = os.path.join(ROOT, ".bench_build", "smoke-bare")
    shutil.rmtree(bare, ignore_errors=True)
    os.makedirs(bare)
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), bare)
    shutil.copytree(HERE, os.path.join(bare, "jadebench"),
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = run(spec["workloads"][0]["name"], 0, cwd=bare)
    shutil.rmtree(bare, ignore_errors=True)
    check(proc.returncode != 0, "bare directory: exited 0")
    check(not proc.stdout.strip(), "bare directory: printed a result")
    print("ok  bare directory refused")


if __name__ == "__main__":
    main()
