#!/usr/bin/env python3
"""Build and run the uvmsim benchmark.

    python3 perfbench/run.py --workload paper-110 --seed 42 --seconds 30 --trace 0
    python3 perfbench/run.py --selftest

Run from the root of a checkout.  The first run configures and builds
perfbench/ (which compiles the library from src/) into .bench_build/;
later runs only check that the build is current.  Build output goes to
stderr; the benchmark's own lines go to stdout, and the last stdout
line is the JSON result.  Exits nonzero when the build fails, a
correctness check fails, or the run does not finish in time.

--selftest runs every workload at reduced scale (--quick), checks that
every metric named in BENCHMARK.json is printed with its unit, and
that every exact count repeats between two runs.  See GLOSSARY.md.
"""

import argparse
import json
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD = os.path.join(ROOT, ".bench_build")
BINARY = os.path.join(BUILD, "cmake", "uvmbench")
WORKLOADS = ["paper-110", "server-replay", "sweep-fits"]
RUN_TIMEOUT_S = 170

# Metrics that are deterministic functions of (workload, seed): a
# simulator change that keeps behaviour must leave them bit-identical.
EXACT = [
    "fig11_err", "fig15_err",
    "workloads.accesses", "gpu.accesses_issued", "gpu.l1_hit_ratio",
    "gpu.l2_probes", "gpu.l2_hit_ratio", "mem.tlb_probes",
    "mem.tlb_miss_ratio", "mem.page_walks", "core.far_faults",
    "core.pages_migrated", "core.pages_prefetched", "core.pages_evicted",
    "core.thrash_ratio", "core.cross_tenant_evictions",
    "interconnect.h2d_mib", "interconnect.d2h_mib",
    "interconnect.transfers", "sim.kernel_ms", "sim.traced_events",
    "api.store_hit_ratio",
]


def build():
    """Configure (once) and build the benchmark; False on failure."""
    jobs = str(min(4, os.cpu_count() or 1))
    steps = [
        ["cmake", "-S", HERE, "-B", os.path.dirname(BINARY),
         "-DCMAKE_BUILD_TYPE=Release"],
        ["cmake", "--build", os.path.dirname(BINARY), "--target", "uvmbench",
         "-j", jobs],
    ]
    # A configure that finished leaves a Makefile; one that failed does not.
    if os.path.exists(os.path.join(os.path.dirname(BINARY), "Makefile")):
        steps = steps[1:]
    for cmd in steps:
        try:
            done = subprocess.run(cmd, cwd=ROOT, stdout=sys.stderr,
                                  stderr=sys.stderr, timeout=850)
        except (OSError, subprocess.TimeoutExpired) as err:
            print(f"run.py: build step failed: {err}", file=sys.stderr)
            return False
        if done.returncode != 0:
            print("run.py: build failed", file=sys.stderr)
            return False
    return True


def run_bench(workload, seed, seconds, trace, quick=False):
    """Run uvmbench once; returns (exit code, stdout lines)."""
    cmd = [BINARY, f"--workload={workload}", f"--seed={seed}",
           f"--seconds={seconds}", f"--trace={trace}",
           f"--work-dir={os.path.join(BUILD, 'work')}"]
    if quick:
        cmd.append("--quick")
    try:
        done = subprocess.run(cmd, cwd=ROOT, stdout=subprocess.PIPE,
                              stderr=sys.stderr, text=True,
                              timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        print(f"run.py: {workload} did not finish in {RUN_TIMEOUT_S} s",
              file=sys.stderr)
        return 1, []
    return done.returncode, done.stdout.splitlines()


def selftest():
    """Quick runs of every workload; True when every check holds."""
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    ok = True
    for workload in WORKLOADS:
        for trace, key in ((0, "end_to_end"), (1, "per_layer")):
            want = {m["name"]: m["unit"] for m in spec[key]}
            results = []
            for _ in range(2):
                code, lines = run_bench(workload, 42, 1, trace, quick=True)
                if code != 0 or not lines:
                    print(f"selftest: {workload} trace={trace} failed "
                          f"(exit {code})", file=sys.stderr)
                    ok = False
                    break
                results.append(json.loads(lines[-1]))
            if len(results) < 2:
                continue
            for res in results:
                got = {k: v["unit"] for k, v in res["metrics"].items()}
                if got != want:
                    print(f"selftest: {workload} trace={trace}: metrics "
                          f"{sorted(set(got.items()) ^ set(want.items()))} "
                          f"differ from BENCHMARK.json", file=sys.stderr)
                    ok = False
                if not res["correct"] or res["failed"] != 0:
                    ok = False
            for name in EXACT:
                vals = [r["metrics"][name]["value"] for r in results
                        if name in r["metrics"]]
                if len(vals) == 2 and vals[0] != vals[1]:
                    print(f"selftest: {workload}: exact count {name} "
                          f"differs between runs: {vals}", file=sys.stderr)
                    ok = False
            print(f"selftest: {workload} trace={trace}: "
                  f"{len(want)} metrics checked", file=sys.stderr)
    print("selftest: " + ("PASS" if ok else "FAIL"), file=sys.stderr)
    return ok


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=42)
    parser.add_argument("--seconds", type=float, default=10)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--selftest", action="store_true")
    args = parser.parse_args()
    if not args.selftest and not args.workload:
        parser.error("--workload is required")
    if not build():
        return 1
    if args.selftest:
        return 0 if selftest() else 1
    code, lines = run_bench(args.workload, args.seed, args.seconds,
                            args.trace)
    for line in lines:
        print(line)
    sys.stdout.flush()
    return code


if __name__ == "__main__":
    sys.exit(main())
