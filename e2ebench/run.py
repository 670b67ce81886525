#!/usr/bin/env python3
"""Build and run the end-to-end TopoDB benchmark.

    python3 e2ebench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>
    python3 e2ebench/run.py --selftest

Run from the repository root. The first run configures and builds the
library and the benchmark binary into .bench_build/ (later runs only re-check the
build). Build output goes to stderr; the benchmark report goes to stdout,
its last line being the result JSON. Traced runs write their spans to
.bench_build/traces/<workload>-seed<n>.jsonl.

--selftest runs every workload briefly with and without tracing, checks
that every metric BENCHMARK.json names is printed with its unit, and checks
that the correctness gate fails a run whose expected answers are corrupted.
"""

import json
import os
import shutil
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD = os.path.join(ROOT, ".bench_build")
BINARY = os.path.join(BUILD, "topodb_e2ebench")


def build():
    if not any(os.path.exists(os.path.join(BUILD, f))
               for f in ("build.ninja", "Makefile")):
        generator = ["-G", "Ninja"] if shutil.which("ninja") else []
        subprocess.run(
            ["cmake", "-S", HERE, "-B", BUILD, *generator,
             "-DCMAKE_BUILD_TYPE=RelWithDebInfo"],
            check=True, stdout=sys.stderr)
    subprocess.run(
        ["cmake", "--build", BUILD, "--target", "topodb_e2ebench",
         "--parallel", "4"],
        check=True, stdout=sys.stderr)


def benchmark_args(workload, seed, seconds, trace):
    args = [BINARY, "--workload", workload, "--seed", str(seed),
            "--seconds", str(seconds), "--trace", str(trace),
            "--workdir", os.path.join(BUILD, "run")]
    if trace:
        traces = os.path.join(BUILD, "traces")
        os.makedirs(traces, exist_ok=True)
        args += ["--trace-out",
                 os.path.join(traces, f"{workload}-seed{seed}.jsonl")]
    return args


def selftest():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    problems = []
    # catalog-eval runs too, though BENCHMARK.json leaves it out (README).
    workloads = [w["name"] for w in spec["workloads"]] + ["catalog-eval"]
    for workload in workloads:
        for trace, key in ((0, "end_to_end"), (1, "per_layer")):
            proc = subprocess.run(benchmark_args(workload, 1, 1, trace),
                                  capture_output=True, text=True)
            lines = proc.stdout.strip().splitlines()
            if proc.returncode != 0 or not lines:
                problems.append(f"{workload} trace {trace}: exit "
                                f"{proc.returncode}\n{proc.stderr[-2000:]}")
                continue
            result = json.loads(lines[-1])
            if sorted(result) != ["attempted", "correct", "failed", "metrics"]:
                problems.append(f"{workload} trace {trace}: keys {sorted(result)}")
            if result["correct"] is not True or result["attempted"] < 1:
                problems.append(f"{workload} trace {trace}: {lines[-1][:200]}")
            wanted = {m["name"]: m["unit"] for m in spec[key]}
            got = {name: m["unit"] for name, m in result["metrics"].items()}
            if got != wanted:
                missing = sorted(set(wanted) - set(got))
                extra = sorted(set(got) - set(wanted))
                wrong_unit = sorted(n for n in set(got) & set(wanted)
                                    if got[n] != wanted[n])
                problems.append(f"{workload} trace {trace}: missing {missing} "
                                f"extra {extra} unit mismatch {wrong_unit}")
            print(f"selftest: {workload} trace {trace}: "
                  f"{len(got)} metrics, {result['attempted']} requests")
        proc = subprocess.run(
            benchmark_args(workload, 1, 1, 0) + ["--corrupt-expected"],
            capture_output=True, text=True)
        if proc.returncode == 0 or "WRONG answer" not in proc.stderr:
            problems.append(f"{workload}: a corrupted expected answer did not "
                            f"fail the run (exit {proc.returncode})")
        else:
            print(f"selftest: {workload}: corrupted expectation fails the run")
    for problem in problems:
        print("selftest FAILED: " + problem, file=sys.stderr)
    return 1 if problems else 0


def main():
    try:
        build()
    except (OSError, subprocess.CalledProcessError) as err:
        print(f"e2ebench: build failed: {err}", file=sys.stderr)
        return 1
    if sys.argv[1:] == ["--selftest"]:
        return selftest()
    args = sys.argv[1:]
    opts = dict(zip(args[::2], args[1::2]))
    if len(args) % 2 or not {"--workload", "--seed", "--seconds",
                             "--trace"} <= set(opts):
        print(__doc__, file=sys.stderr)
        return 2
    sys.stdout.flush()
    return subprocess.run(benchmark_args(opts["--workload"], opts["--seed"],
                                      opts["--seconds"],
                                      int(opts["--trace"]))).returncode


if __name__ == "__main__":
    sys.exit(main())
