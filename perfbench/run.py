#!/usr/bin/env python3
"""Builds the benchmark from source and runs it.

    python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>
        One run.  The last line of standard output is the JSON result.
    python3 perfbench/run.py --self-test --workload <name> [--seed <n>]
        Shows that the output checks fire on a corrupted expectation and
        on a tampered served result.
    python3 perfbench/run.py --steady <runs> --workload <name|all> [--trace <0|1>] [--first-seed <n>]
        Steadiness mode: runs the workload (all: each workload listed in
        BENCHMARK.json) <runs> times, each for the run_seconds of
        BENCHMARK.json, with seeds first-seed, first-seed+1, ... and
        prints each metric's median, quartiles,
        quartile spread as a share of the median (next to the bound in
        BENCHMARK.json) and max/min ratio.

Run from the root of the repository.  The build goes to $CARGO_TARGET_DIR
(default .bench_build).
"""

import json
import os
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))


def build():
    target = os.environ.setdefault("CARGO_TARGET_DIR", ".bench_build")
    manifest = os.path.join(HERE, "Cargo.toml")
    done = subprocess.run(
        ["cargo", "build", "--release", "--offline", "--manifest-path", manifest],
        stdout=sys.stderr,
    )
    if done.returncode != 0:
        sys.exit("perfbench: build failed")
    return os.path.join(target, "release", "perfbench")


def flag(argv, name, default=None):
    if name in argv:
        i = argv.index(name)
        if i + 1 >= len(argv):
            sys.exit(f"perfbench: {name} needs a value")
        value = argv[i + 1]
        del argv[i : i + 2]
        return value
    return default


def benchmark_spec():
    with open(os.path.join(HERE, "..", "BENCHMARK.json")) as f:
        return json.load(f)


def steady(binary, argv):
    runs = int(flag(argv, "--steady"))
    workload = flag(argv, "--workload")
    trace = flag(argv, "--trace", "0")
    first = int(flag(argv, "--first-seed", "1"))
    if argv:
        sys.exit(f"perfbench: unexpected arguments {argv}")
    spec = benchmark_spec()
    seconds = str(spec["run_seconds"])
    limits = {m["name"]: m["bound"] for m in spec["end_to_end"]}
    names = [w["name"] for w in spec["workloads"]]
    for name in names if workload == "all" else [workload]:
        values, shares = {}, []
        for seed in range(first, first + runs):
            cmd = [binary, "--workload", name, "--seed", str(seed),
                   "--seconds", seconds, "--trace", trace]
            done = subprocess.run(cmd, capture_output=True, text=True)
            if done.returncode != 0:
                sys.stderr.write(done.stderr)
                sys.exit(f"perfbench: {name} seed {seed} exited {done.returncode}")
            result = json.loads(done.stdout.strip().splitlines()[-1])
            if not result["correct"]:
                sys.stderr.write(done.stderr)
                sys.exit(f"perfbench: {name} seed {seed} reported wrong results")
            shares.append(f'{result["failed"]}/{result["attempted"]}')
            for metric, m in result["metrics"].items():
                values.setdefault(metric, []).append(m["value"])
            print(f"{name} seed {seed}: " + ", ".join(
                f"{k}={v['value']:.4g}" for k, v in result["metrics"].items()), flush=True)
        print(f"\n{name}: {runs} runs, failed/attempted per run: {' '.join(shares)}")
        print(f"{'metric':<36} {'median':>12} {'q1':>12} {'q3':>12} {'iqr/med':>8} {'bound':>6} {'max/min':>8}")
        for metric, vs in values.items():
            med = statistics.median(vs)
            q1, _, q3 = statistics.quantiles(vs, n=4) if len(vs) > 1 else (vs[0], 0, vs[0])
            spread = (q3 - q1) / med if med else float("nan")
            ratio = max(vs) / min(vs) if min(vs) > 0 else float("nan")
            bound = limits.get(metric)
            bound = f"{bound:.2f}" if bound is not None else "-"
            print(f"{metric:<36} {med:>12.5g} {q1:>12.5g} {q3:>12.5g} {spread:>8.3f} {bound:>6} {ratio:>8.3f}")
        print(flush=True)


def main():
    argv = sys.argv[1:]
    binary = build()
    if "--steady" in argv:
        steady(binary, argv)
        return
    os.execv(binary, [binary] + argv)


if __name__ == "__main__":
    main()
