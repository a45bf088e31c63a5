#!/usr/bin/env python3
"""Exact-counter gate: compare the benchmark's deterministic counters.

Usage: scripts/exact_counters.py <tree-a> <tree-b>

Loads each tree's own perfbench/run.py, builds that tree's benchmark
with it (Release, into <tree>/.bench_build/cmake, where a later run.py
reuses it) and runs every workload once at reduced scale (--quick,
seed 42) with the per-layer trace on.  Then it compares the counters
run.py lists in EXACT (fault, migration, eviction, cache and TLB
counts, simulated kernel time, the paper-accuracy errors).  A change
that keeps the simulated behaviour must leave every one of them
bit-identical.

Only the workloads and counters that both trees list are compared, so
a change that only adds one to the benchmark does not fail the gate;
the skipped names are printed.  Prints one line per counter that
differs and exits 1 if any does; exits 2 when a build or a run fails.
"""

import importlib.util
import json
import os
import sys

SEED = 42


def load_run_py(tree, name):
    """Import <tree>/perfbench/run.py as module `name`."""
    path = os.path.join(tree, "perfbench", "run.py")
    spec = importlib.util.spec_from_file_location(name, path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def common(kind, a, b):
    """Names both lists hold (in a's order); prints the others."""
    skipped = sorted(set(a) ^ set(b))
    if skipped:
        print(f"exact_counters: {kind} not in both trees, skipped: "
              f"{' '.join(skipped)}", file=sys.stderr)
    return [x for x in a if x in b]


def main():
    if len(sys.argv) != 3:
        print(f"usage: {sys.argv[0]} <tree-a> <tree-b>", file=sys.stderr)
        return 2
    # Importing run.py must not leave bytecode under perfbench/.
    sys.dont_write_bytecode = True
    runs = [load_run_py(tree, f"run_{side}")
            for side, tree in zip("ab", sys.argv[1:])]
    workloads = common("workloads", runs[0].WORKLOADS, runs[1].WORKLOADS)
    exact = common("counters", runs[0].EXACT, runs[1].EXACT)

    metrics = []
    for run, tree in zip(runs, sys.argv[1:]):
        if not run.build():
            print(f"exact_counters: build of {tree} failed", file=sys.stderr)
            return 2
        per_workload = {}
        for wl in workloads:
            code, lines = run.run_bench(wl, SEED, 1, 1, quick=True)
            if code != 0 or not lines:
                print(f"exact_counters: {wl} failed in {tree}",
                      file=sys.stderr)
                return 2
            per_workload[wl] = json.loads(lines[-1])["metrics"]
        metrics.append(per_workload)

    status = 0
    for wl in workloads:
        a, b = ({name: m[wl].get(name, {}).get("value") for name in exact}
                for m in metrics)
        diff = [name for name in exact if a[name] != b[name]]
        for name in diff:
            print(f"{wl}: {name}: {a[name]} -> {b[name]}")
        print(f"{wl}: {len(exact) - len(diff)}/{len(exact)} exact "
              f"counters identical", file=sys.stderr)
        if diff:
            status = 1
    return status


if __name__ == "__main__":
    sys.exit(main())
