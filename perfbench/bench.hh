/**
 * @file
 * Shared declarations of the uvmsim benchmark program (uvmbench).
 *
 * The program measures uvmsim from outside, through its public API
 * only: Simulator::run, RunExecutor, ResultStore with the result
 * codec, the workload factories and trace sources, the standalone
 * layer classes and the observer/trace-sink hooks.  Nothing here is
 * linked into the library.
 */

#pragma once

#include <chrono>
#include <cstdint>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <vector>

#include "api/simulator.hh"

namespace uvmbench
{

using Clock = std::chrono::steady_clock;

/** Seconds elapsed between two steady-clock readings. */
inline double
seconds(Clock::time_point a, Clock::time_point b)
{
    return std::chrono::duration<double>(b - a).count();
}

/** Command-line options of one benchmark run. */
struct Options
{
    std::string workload;
    std::uint64_t seed = 42;
    double run_seconds = 10.0;
    bool trace = false;
    /** Reduced scale and repeat counts, for the self-test. */
    bool quick = false;
    /** Scratch directory inside the checkout (traces, store). */
    std::string work_dir;
    /** Where the traced run writes its span files (work-dir/spans). */
    std::string span_dir;
};

/** One input of a cell: a generator, or a recorded .uvmt replay. */
struct Source
{
    std::string generator;  //!< makeWorkload name (or recorded name)
    std::string trace_path; //!< non-empty: replay this .uvmt instead
    uvmsim::WorkloadParams params;
};

/** One simulation: its sources (one per tenant) and configuration. */
struct Cell
{
    std::string label;
    std::vector<Source> sources;
    uvmsim::SimConfig config;
};

/**
 * Pool width of the pooled passes: two of the host's four vCPUs, so
 * the pool never competes with itself for a core.
 */
constexpr std::size_t poolThreads = 2;

/** A named benchmark workload: its cells and how it runs them. */
struct Suite
{
    std::string name;
    std::vector<Cell> cells;
    /** Cells additionally run through a RunExecutor and store. */
    bool pooled = false;
    /** Sources the set-up records to their .uvmt trace_path. */
    std::vector<Source> recordings;
    /** Untimed cells that give the paper-accuracy metrics. */
    std::vector<Cell> accuracy_cells;
    /** Scale the suite's cells run at. */
    double scale = 1.0;
    /**
     * How far the suite's host time moves per unit of probe time, in
     * log terms: the slope of log(time) on log(probe time) over runs
     * of ten seeds on a shared 4-vCPU KVM guest (GLOSSARY.md).
     */
    double probe_elasticity = 1.5;
};

/** Build the named suite; fails on an unknown name. */
Suite makeSuite(const Options &opts);

/** Workload names uvmbench accepts, in documentation order. */
std::vector<std::string> suiteNames();

/**
 * Prepare the suite's inputs: record every .uvmt it replays and
 * construct one fresh generator per cell (returned, so the warm-up
 * pass can use them).  Repeatable; each call redoes the work.
 */
std::vector<std::vector<std::unique_ptr<uvmsim::Workload>>>
prepareInputs(const Suite &suite, const Options &opts);

/** Fresh workload objects for one cell, one per source. */
std::vector<std::unique_ptr<uvmsim::Workload>>
makeSources(const Cell &cell);

/** Run one cell on `sim` with freshly built (or given) sources. */
uvmsim::RunResult
runCell(uvmsim::Simulator &sim, const Cell &cell,
        std::vector<std::unique_ptr<uvmsim::Workload>> sources = {});

/** Bit-exact equality of two results (every stat, every time). */
bool sameResult(const uvmsim::RunResult &a, const uvmsim::RunResult &b);

/** Σ smN.accesses_issued of one result. */
double accessesIssued(const uvmsim::RunResult &r);

/** Sum of every stat named <prefix><N><suffix> (N = 0, 1, ...). */
double sumIndexed(const uvmsim::RunResult &r, const std::string &prefix,
                  const std::string &suffix);

/**
 * Fig. 11 / Fig. 15 accuracy: |ln(measured geomean / paper)|.  The
 * cells must include, per paper workload, LRU4K+none, TBNe+TBNp and
 * LRU2MB+TBNp at 110%.  Returns false if any is missing.
 */
bool paperErrors(const std::vector<Cell> &cells,
                 const std::vector<uvmsim::RunResult> &results,
                 double &fig11_err, double &fig15_err);

/**
 * DESIGN.md section 6 orderings at 110%: SLe+SLp and TBNe+TBNp beat
 * LRU4K+none and Re+Rp on geomean kernel time, and nw prefers SLe+SLp.
 * Appends a line per broken ordering to `why`.
 */
bool paperOrderings(const std::vector<Cell> &cells,
                    const std::vector<uvmsim::RunResult> &results,
                    std::vector<std::string> &why);

/** Per-tenant far-faults/migrations/evictions sum to the globals. */
bool tenantsSumToGlobals(const uvmsim::RunResult &r, std::uint32_t tenants);

// ---------------------------------------------------------------------
// Host-speed probe (probe.cc)
// ---------------------------------------------------------------------

/**
 * A fixed sort owned by the benchmark; it never calls program code.
 * Its time tracks the host's current speed, so a host time t measured
 * beside probe time p is scaled to the reference host as
 * t * (refProbeMs / p)^e, e being the suite's probe elasticity.
 */
class Probe
{
  public:
    /** Probe time of the reference host, in ms. */
    static constexpr double refProbeMs = 6.0;

    Probe();

    /** Run the probe once; returns its wall time in ms. */
    double runMs();

    /** Scale host seconds measured beside `probe_ms` to the reference;
     *  elasticity 0 leaves them unscaled. */
    static double scaleToReference(double seconds, double probe_ms,
                                   double elasticity);

  private:
    std::vector<std::uint32_t> keys_;
};

/** Host facts recorded with every run. */
struct HostRecord
{
    std::string cpu_model;
    unsigned nproc = 0;
    std::string loadavg_before;
    std::string loadavg_after;
};

HostRecord hostRecordBefore();
void hostRecordAfter(HostRecord &rec);

// ---------------------------------------------------------------------
// Spans (spans.cc)
// ---------------------------------------------------------------------

/** One timed interval around a call into a layer. */
struct Span
{
    std::string name;         //!< "<layer>.<call>", e.g. "api.run"
    double start_us = 0.0;    //!< since the log's epoch
    double end_us = 0.0;
    std::uint64_t cell = 0;   //!< shared by every span of one cell
    std::uint64_t id = 0;     //!< unique, 1-based
    std::uint64_t parent = 0; //!< 0 = root
    std::uint32_t thread = 0;
};

/** In-memory span store; written out once, at the end of the run. */
class SpanLog
{
  public:
    SpanLog();

    /** Open a span now; returns its id. */
    std::uint64_t open(const std::string &name, std::uint64_t cell,
                       std::uint64_t parent, std::uint32_t thread = 0);

    /** Close span `id` now. */
    void close(std::uint64_t id);

    /** Record a span with explicit clock readings. */
    std::uint64_t add(const std::string &name, std::uint64_t cell,
                      std::uint64_t parent, Clock::time_point start,
                      Clock::time_point end, std::uint32_t thread = 0);

    /** Chrome trace_event JSON (loads in Perfetto). */
    bool writeChromeJson(const std::string &path) const;

    /** Per-name total and self time, sorted by self time. */
    std::string selfTimeTable() const;

    std::size_t size() const;

  private:
    double sinceEpochUs(Clock::time_point t) const;

    Clock::time_point epoch_;
    mutable std::mutex mutex_;
    std::vector<Span> spans_;
};

/** RAII span around one call. */
class ScopedSpan
{
  public:
    ScopedSpan(SpanLog &log, const std::string &name, std::uint64_t cell,
               std::uint64_t parent, std::uint32_t thread = 0)
        : log_(log), id_(log.open(name, cell, parent, thread))
    {}
    ~ScopedSpan() { log_.close(id_); }
    ScopedSpan(const ScopedSpan &) = delete;
    ScopedSpan &operator=(const ScopedSpan &) = delete;

    std::uint64_t id() const { return id_; }

  private:
    SpanLog &log_;
    std::uint64_t id_;
};

// ---------------------------------------------------------------------
// Reporting (report.cc)
// ---------------------------------------------------------------------

/** One reported metric. */
struct Metric
{
    double value = 0.0;
    std::string unit;
};

/** Outcome of one benchmark run, printed as the last stdout line. */
struct Report
{
    std::uint64_t attempted = 0;
    std::uint64_t failed = 0;
    std::vector<std::string> errors;
    std::map<std::string, Metric> metrics;

    void set(const std::string &name, double value, const std::string &unit)
    {
        metrics[name] = Metric{value, unit};
    }

    /** Count a failed check and say why (printed to stderr). */
    void fail(const std::string &why);

    bool correct() const { return failed == 0 && errors.empty(); }

    /** Print "# name = value unit" lines, then the JSON result line. */
    void print(const std::vector<std::string> &order) const;
};

/** Median of a sample (0 for an empty one). */
double median(std::vector<double> v);

/**
 * The highest whole percentile of `v` that still has at least
 * `beyond` samples above it; `pct` receives the percentile.
 */
double tailPercentile(std::vector<double> v, std::size_t beyond, int &pct);

// ---------------------------------------------------------------------
// The two modes (timed.cc, traced.cc)
// ---------------------------------------------------------------------

/** Untraced run: every end-to-end metric. */
void runTimed(const Suite &suite, const Options &opts, Report &report);

/** Traced run: every per-layer metric, spans written to span_dir. */
void runTraced(const Suite &suite, const Options &opts, Report &report);

} // namespace uvmbench
