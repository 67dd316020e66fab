#!/usr/bin/env python3
"""Build and run one benchmark run of the CAKE GEMM library.

    python3 perfbench/run.py --workload <square|shallow-k|infer-mix> \
        --seed <n> --seconds <s> --trace <0|1>

Run from the root of a checkout. The first run configures and builds the
benchmark (and the library it links) under .bench_build/ in the checkout;
later runs only re-check the build. The benchmark binary prints its run
record and, as its last line, the result object; with --trace 1 its spans
are written to .bench_build/traces/<workload>-seed<n>.json.

Exit codes: the binary's (0 ok, 1 output check failed, 2 bad arguments or
environment); 2 if the build fails.
"""

import argparse
import os
import shutil
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
BUILD = ROOT / ".bench_build" / "perfbench"
BINARY = BUILD / "perfbench_run"
WORKLOADS = ("square", "shallow-k", "infer-mix")


def build() -> None:
    """Configure once, then bring perfbench_run up to date."""
    BUILD.mkdir(parents=True, exist_ok=True)
    tmp = BUILD / "tmp"
    tmp.mkdir(exist_ok=True)
    env = dict(os.environ, TMPDIR=str(tmp))
    log_path = BUILD / "build.log"
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    steps = []
    if not any((BUILD / f).exists() for f in ("build.ninja", "Makefile")):
        configure = ["cmake", "-S", str(HERE), "-B", str(BUILD),
                     "-DCMAKE_BUILD_TYPE=Release"]
        if shutil.which("ninja"):
            configure += ["-G", "Ninja"]
        steps.append(configure)
    steps.append(["cmake", "--build", str(BUILD), "--target", "perfbench_run",
                  "-j", jobs])
    with open(log_path, "w") as log:
        for step in steps:
            result = subprocess.run(step, stdout=log, stderr=subprocess.STDOUT,
                                    env=env, cwd=ROOT)
            if result.returncode != 0:
                log.flush()
                tail = log_path.read_text(errors="replace").splitlines()[-40:]
                sys.stderr.write("perfbench: build failed: "
                                 + " ".join(step) + "\n"
                                 + "\n".join(tail) + "\n")
                sys.exit(2)


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=float)
    parser.add_argument("--trace", required=True, choices=("0", "1"))
    args = parser.parse_args()
    if args.seed < 0:
        parser.error("--seed must be non-negative")

    build()
    command = [str(BINARY), "--workload", args.workload,
               "--seed", str(args.seed), "--seconds", repr(args.seconds),
               "--trace", args.trace]
    if args.trace == "1":
        trace_out = (ROOT / ".bench_build" / "traces"
                     / f"{args.workload}-seed{args.seed}.json")
        command += ["--trace-out", str(trace_out)]
    sys.stdout.flush()
    return subprocess.run(command, cwd=ROOT).returncode


if __name__ == "__main__":
    sys.exit(main())
