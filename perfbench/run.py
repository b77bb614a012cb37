#!/usr/bin/env python3
"""Build and run the repo benchmark.

Run from the root of a checkout:

    python3 perfbench/run.py --workload suites --seed 1 --seconds 30 --trace 0
    python3 perfbench/run.py --self-test

--self-test runs the perfbench binary's own checks; then one short
serve-repeat run, which fails unless it reaches FTL, commits
transactions, hits the program cache and matches the reference; then
each serving workload BENCHMARK.json lists, at its run_seconds, three
times on the primary seed and three times on a held-out one,
interleaved. It fails unless the median of every end-to-end metric on
the held-out seed lies within the bound BENCHMARK.json gives it,
relative to the median on the primary seed.

The first call configures and builds perfbench/ (the library from
src/ plus the benchmark program) into $CARGO_TARGET_DIR or
.bench_build; later calls rebuild incrementally. Build output goes to
stderr, so the last line of stdout is the JSON result. Exits non-zero,
printing no result, when the build or the run fails.
"""

import json
import os
import shutil
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.getcwd()


def build(build_dir):
    """Configure (once) and build; returns the binary path or None."""
    cache = os.path.join(build_dir, "CMakeCache.txt")
    if not os.path.exists(cache):
        cmd = ["cmake", "-S", HERE, "-B", build_dir,
               "-DCMAKE_BUILD_TYPE=Release"]
        if shutil.which("ninja"):
            cmd += ["-G", "Ninja"]
        if subprocess.run(cmd, stdout=sys.stderr).returncode != 0:
            return None
    cmd = ["cmake", "--build", build_dir, "--target", "perfbench",
           "-j", "4"]
    if subprocess.run(cmd, stdout=sys.stderr).returncode != 0:
        return None
    return os.path.join(build_dir, "perfbench")


HELD_OUT_SEEDS = (1, 9001)
HELD_OUT_REPEATS = 3
REPEAT_CHECK_SECONDS = "5"


def last_json(cmd):
    out = subprocess.run(cmd, stdout=subprocess.PIPE, text=True)
    lines = out.stdout.strip().splitlines()
    if out.returncode != 0 or not lines:
        return None
    return json.loads(lines[-1])


def serve_repeat_check(cmd):
    """serve-repeat's own checks (FTL, commits, cache hits) pass."""
    result = last_json(cmd + ["--workload", "serve-repeat", "--seed", "1",
                              "--seconds", REPEAT_CHECK_SECONDS,
                              "--trace", "0"])
    ok = (result is not None and result["correct"]
          and result["failed"] == 0)
    print(f"perfbench self-test: {'ok  ' if ok else 'FAIL'}: serve-repeat "
          "reaches FTL, commits transactions, hits the program cache and "
          "matches the reference", file=sys.stderr)
    return ok


def held_out_seed_check(cmd):
    """Serving metrics on a held-out seed stay within the bounds."""
    with open(os.path.join(HERE, "..", "BENCHMARK.json")) as f:
        bench = json.load(f)
    bounds = {m["name"]: m["bound"] for m in bench["end_to_end"]}
    serving = [w["name"] for w in bench["workloads"]
               if w["name"].startswith("serve-")]
    ok = True
    for workload in serving:
        values = {seed: {} for seed in HELD_OUT_SEEDS}
        for _ in range(HELD_OUT_REPEATS):
            for seed in HELD_OUT_SEEDS:
                result = last_json(cmd + [
                    "--workload", workload, "--seed", str(seed),
                    "--seconds", str(bench["run_seconds"]), "--trace", "0"])
                if result is None or not result["correct"]:
                    print(f"perfbench self-test: FAIL: {workload} seed "
                          f"{seed} did not run correctly", file=sys.stderr)
                    return False
                for name, metric in result["metrics"].items():
                    values[seed].setdefault(name, []).append(
                        metric["value"])
        for name, bound in bounds.items():
            a = statistics.median(values[HELD_OUT_SEEDS[0]][name])
            b = statistics.median(values[HELD_OUT_SEEDS[1]][name])
            shift = abs(b - a) / a if a else float("inf")
            good = shift <= bound
            ok = ok and good
            print(f"perfbench self-test: {'ok  ' if good else 'FAIL'}: "
                  f"{workload} {name}: seed {HELD_OUT_SEEDS[1]} is "
                  f"{shift:.3f} from seed {HELD_OUT_SEEDS[0]} (medians "
                  f"of {HELD_OUT_REPEATS}, bound {bound})", file=sys.stderr)
    return ok


def main(argv):
    base = os.environ.get("CARGO_TARGET_DIR") or ".bench_build"
    base = os.path.join(ROOT, base)
    build_dir = os.path.join(base, "perfbench")
    out_dir = os.path.join(base, "perfbench-out")
    if shutil.which("cmake") is None:
        print("perfbench: cmake not found", file=sys.stderr)
        return 1
    binary = build(build_dir)
    if binary is None:
        print("perfbench: build failed", file=sys.stderr)
        return 1
    os.makedirs(out_dir, exist_ok=True)
    cmd = [binary, "--expected", os.path.join(HERE, "suites_expected.tsv"),
           "--out-dir", out_dir]
    if "--self-test" in argv:
        if subprocess.run(cmd + argv).returncode != 0:
            return 1
        if not serve_repeat_check(cmd):
            return 1
        return 0 if held_out_seed_check(cmd) else 1
    return subprocess.run(cmd + argv).returncode


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
