#!/usr/bin/env python3
"""Build and run the simulator's host-speed benchmark.

One run, from the root of a checkout:

    python3 perfbench/run.py --workload fig10 --seed 1 --seconds 20 --trace 0

Steadiness report: N runs with seeds seed, seed+1, ..., then the median,
quartiles and spread (interquartile range over median) of every metric:

    python3 perfbench/run.py --workload serve --seconds 20 --repeat 5

The benchmark is the Go program in this directory, a module of its own that
builds against the simulator sources one directory up. It is compiled into
.bench_build/, with the Go build cache and temporary files kept there too, so
a run reads and writes only inside the checkout.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD = os.path.join(ROOT, ".bench_build")
BINARY = os.path.join(BUILD, "perfbench")


def build():
    if not os.path.isfile(os.path.join(ROOT, "go.mod")):
        sys.exit("perfbench: the simulator sources (go.mod) are not next to perfbench/")
    env = dict(os.environ)
    # XDG_CONFIG_HOME keeps the go command's settings and telemetry files
    # in the build directory as well.
    for var, sub in (("GOCACHE", "gocache"), ("GOTMPDIR", "tmp"), ("GOPATH", "gopath"), ("XDG_CONFIG_HOME", "config")):
        env[var] = os.path.join(BUILD, sub)
        os.makedirs(env[var], exist_ok=True)
    # Everything the build needs is in the checkout: never fetch modules or
    # toolchains.
    env.update(GOPROXY="off", GOFLAGS="-mod=mod", GOTOOLCHAIN="local", GOWORK="off")
    r = subprocess.run(["go", "build", "-o", BINARY, "."], cwd=HERE, env=env)
    if r.returncode != 0:
        sys.exit("perfbench: build failed")


def command(args, seed):
    return [BINARY, "--workload", args.workload, "--seed", str(seed),
            "--seconds", str(args.seconds), "--trace", str(args.trace)]


def steadiness(args):
    values, failed = {}, 0
    for seed in range(args.seed, args.seed + args.repeat):
        r = subprocess.run(command(args, seed), cwd=ROOT, stdout=subprocess.PIPE, text=True)
        if r.returncode != 0:
            sys.exit(f"perfbench: seed {seed} exited {r.returncode}")
        res = json.loads(r.stdout.strip().splitlines()[-1])
        failed += res["failed"] + (0 if res["correct"] else 1)
        for name, m in res["metrics"].items():
            values.setdefault(name, []).append(m["value"])
        print(f"seed {seed}: " + ", ".join(f"{n}={m['value']:.6g}" for n, m in sorted(res["metrics"].items())),
              flush=True)
    print(f"\n{args.workload}: {args.repeat} runs, {failed} failed operations")
    print(f"{'metric':32} {'median':>12} {'q1':>12} {'q3':>12} {'spread':>8}")
    for name, xs in sorted(values.items()):
        q1, med, q3 = statistics.quantiles(xs, n=4)
        spread = (q3 - q1) / med if med else float("nan")
        print(f"{name:32} {med:12.6g} {q1:12.6g} {q3:12.6g} {spread:8.2%}")
    return 1 if failed else 0


def main():
    p = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    p.add_argument("--workload", required=True)
    p.add_argument("--seed", type=int, default=1)
    p.add_argument("--seconds", type=int, default=20)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--repeat", type=int, default=0, help="steadiness report over this many seeds")
    args = p.parse_args()
    build()
    if args.repeat > 1:
        return steadiness(args)
    return subprocess.run(command(args, args.seed), cwd=ROOT).returncode


if __name__ == "__main__":
    sys.exit(main())
