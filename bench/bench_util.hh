/**
 * @file
 * Shared helpers for the paper_figures runner (paper_figures.cc):
 * option decoding, row formatting and batch execution.
 *
 * The runner queues every (benchmark, config) cell of the selected
 * figures into one job list, executes it once through runAll() -- in
 * parallel on a RunExecutor pool sized by --jobs -- and then formats
 * rows from the resolved results.  Output is bit-identical for every
 * --jobs value; only wall-clock time changes.
 */

#pragma once

#include <cstddef>
#include <string>
#include <vector>

#include "api/run_executor.hh"
#include "api/simulator.hh"
#include "sim/options.hh"

namespace uvmsim::bench
{

/** The --benchmarks list; `defaults` (the paper's seven) if absent. */
std::vector<std::string>
selectedBenchmarks(const Options &opts,
                   const std::vector<std::string> &defaults =
                       allWorkloadNames());

/** Workload parameters honoring --scale / --seed. */
WorkloadParams workloadParams(const Options &opts);

/** Worker-pool size from --jobs (default 0: hardware concurrency). */
std::size_t jobCount(const Options &opts);

/**
 * With --trace=<spec>, apply it (plus --trace-out / --epoch-ticks) to
 * the config; no-op without.  Each traced cell writes
 * <trace-out>-<label>.trace.json and .epochs.csv, so distinct labels
 * keep concurrent cells' artifacts (and cache keys) apart.
 */
void applyTraceOptions(SimConfig &config, const Options &opts,
                       const std::string &label);

/** Print the standard header: figure id, description, options. */
void printHeader(const std::string &figure, const std::string &what);

/** Print one aligned row: first column the label, then values. */
void printRow(const std::string &label,
              const std::vector<std::string> &cells);

/** Fixed-point format (precision 0 prints counts). */
std::string fmt(double v, int precision = 3);

/** Geometric mean; 0.0 when empty, fatal() on non-positive values. */
double geomean(const std::vector<double> &values);

/**
 * Run a whole batch of jobs on a RunExecutor pool sized by --jobs,
 * echoing one `[bench i/N]` line per simulated job, where N counts the
 * simulations the batch starts (duplicates and cache/store hits start
 * none), so the last line reads N/N.  Results come back in
 * submission order; duplicate cells are simulated once.  With
 * --store=DIR, cells are read through / written back to a persistent
 * result store shared with uvmsim_sweep and other runs;
 * --cache-bytes=N bounds the in-process result cache.
 */
std::vector<RunResult> runAll(const std::vector<RunJob> &jobs,
                              const Options &opts);

} // namespace uvmsim::bench
