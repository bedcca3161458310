#!/usr/bin/env python3
"""Builds and runs the repository benchmark.

Run from the repository root:

    python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>
    python3 perfbench/run.py --workload all --seed 1 --seconds 10 --trace 0
    python3 perfbench/run.py --check

The first call configures and builds perfbench/ (CMake, Release) into
.bench_build/perfbench; later calls rebuild incrementally. Build output goes
to standard error, so the last line of standard output is the benchmark's
JSON result. Any other arguments are passed to the benchmark binary (see
perfbench/README.md). The exit code is the binary's: nonzero when any output
check failed, or when the build failed.

--check is the benchmark's own check: one pass of every workload on a second
seed (failed must be 0), the same pass under the tree-walking interpreter
(simulated outputs must be identical), and a run with a deliberately broken
output check (must exit nonzero).
"""

import json
import os
import shutil
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD = os.path.join(ROOT, ".bench_build", "perfbench")
BINARY = os.path.join(BUILD, "perfbench")
WORKLOADS = ["gpt2_swap_lowmem", "graph_optimize", "dataframe_faults"]


def build():
    """Configures (once) and builds the benchmark; returns True on success."""
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    if not os.path.exists(os.path.join(BUILD, "CMakeCache.txt")):
        configure = ["cmake", "-S", HERE, "-B", BUILD, "-DCMAKE_BUILD_TYPE=Release"]
        if shutil.which("ninja"):
            configure += ["-G", "Ninja"]
        if subprocess.run(configure, stdout=sys.stderr, stderr=sys.stderr).returncode != 0:
            return False
    done = subprocess.run(["cmake", "--build", BUILD, "-j", jobs], stdout=sys.stderr,
                          stderr=sys.stderr)
    return done.returncode == 0 and os.path.exists(BINARY)


def run_binary(args, capture=False):
    """Runs the benchmark binary from the repository root; waits for it."""
    if capture:
        return subprocess.run([BINARY] + args, cwd=ROOT, stdout=subprocess.PIPE,
                              stderr=sys.stderr, text=True)
    return subprocess.run([BINARY] + args, cwd=ROOT)


def parse_output(text):
    """Returns (result JSON, {workload/system: 'sim_ns=.. result=..'})."""
    lines = [line for line in text.splitlines() if line.strip()]
    result = json.loads(lines[-1]) if lines else {}
    sims = {}
    for line in lines:
        parts = line.split()
        if len(parts) == 5 and parts[0] == "sim":
            sims[parts[1] + "/" + parts[2]] = parts[3] + " " + parts[4]
    return result, sims


def check():
    """The benchmark's own check; returns a process exit code."""
    problems = []
    short = ["--passes", "1", "--trace", "0"]
    for workload in WORKLOADS:
        outputs = {}
        for engine in ("bytecode", "tree"):
            done = run_binary(["--workload", workload, "--seed", "2", "--interp", engine] + short,
                              capture=True)
            result, sims = parse_output(done.stdout)
            print(f"check: {workload} seed 2 {engine}: exit {done.returncode}, "
                  f"attempted {result.get('attempted')}, failed {result.get('failed')}")
            if done.returncode != 0 or result.get("failed") != 0 or not sims:
                problems.append(f"{workload} under {engine} failed its checks")
            norms = {k: v["value"] for k, v in result.get("metrics", {}).items()
                     if k.endswith("_norm")}
            outputs[engine] = (sims, norms)
        if outputs["bytecode"] != outputs["tree"]:
            problems.append(f"{workload}: simulated outputs differ between engines: {outputs}")
    done = run_binary(["--workload", "gpt2_swap_lowmem", "--seed", "2", "--break-check"] + short,
                      capture=True)
    result, _ = parse_output(done.stdout)
    print(f"check: broken output check: exit {done.returncode}, correct {result.get('correct')}")
    if done.returncode == 0 or result.get("correct") is not False:
        problems.append("a deliberately broken output check did not fail the run")
    for problem in problems:
        print("check FAILED: " + problem)
    print("check: " + ("ok" if not problems else f"{len(problems)} problem(s)"))
    return 0 if not problems else 1


def main(argv):
    if not build():
        print("perfbench: build failed", file=sys.stderr)
        return 1
    if argv == ["--check"]:
        return check()
    args = list(argv)
    if "--trace" in args and "--spans-out" not in args:
        i = args.index("--trace")
        if i + 1 < len(args) and args[i + 1] != "0":
            name = "-".join(args[j + 1] for j, a in enumerate(args[:-1])
                            if a in ("--workload", "--seed"))
            args += ["--spans-out", os.path.join(BUILD, f"spans-{name}.json")]
    return run_binary(args).returncode


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
