/**
 * @file
 * The untraced run: set-up, an untimed warm-up pass, then interleaved
 * timed passes until the run's time is up.  Every host time is scaled
 * to the reference host by the probe runs around it; every cell's
 * result is checked against the warm-up pass.
 */

#include <sys/resource.h>

#include <cstdio>
#include <filesystem>

#include "api/result_store.hh"
#include "api/run_executor.hh"
#include "bench.hh"

namespace uvmbench
{

using namespace uvmsim;

namespace
{

/** One timed host interval and the probe times around it. */
struct Timing
{
    double raw_s = 0.0;
    double probe_ms = 0.0; //!< probe time it is scaled by

    double
    scaled(double elasticity) const
    {
        return Probe::scaleToReference(raw_s, probe_ms, elasticity);
    }
};

/** One Timing per timed cell run, per cell, in run order. */
struct Samples
{
    std::vector<std::vector<Timing>> per_cell;
    std::vector<double> probes;

    std::vector<double>
    all(double elasticity) const
    {
        std::vector<double> out;
        for (const auto &cell : per_cell)
            for (const Timing &t : cell)
                out.push_back(t.scaled(elasticity));
        return out;
    }

    /** Each cell's median time over its timed runs. */
    std::vector<double>
    cellMedians(double elasticity) const
    {
        std::vector<double> out;
        for (const auto &cell : per_cell) {
            std::vector<double> v;
            for (const Timing &t : cell)
                v.push_back(t.scaled(elasticity));
            out.push_back(median(v));
        }
        return out;
    }

    double
    sumOfMedians(double elasticity) const
    {
        double sum = 0.0;
        for (double m : cellMedians(elasticity))
            sum += m;
        return sum;
    }
};

std::vector<RunJob>
jobsOf(const Suite &suite)
{
    std::vector<RunJob> jobs;
    for (const Cell &cell : suite.cells) {
        const Source &s = cell.sources.front();
        jobs.push_back(RunJob{s.generator, cell.config, s.params});
    }
    return jobs;
}

/** Run a cell, catching what it throws; false on failure. */
bool
tryRun(const Cell &cell, std::vector<std::unique_ptr<Workload>> sources,
       RunResult &out, Report &report)
{
    ++report.attempted;
    try {
        Simulator sim(cell.config);
        out = runCell(sim, cell, std::move(sources));
        return true;
    } catch (const std::exception &e) {
        report.fail(cell.label + ": " + e.what());
        return false;
    }
}

/** Suite-level checks on one full set of results. */
void
checkSuite(const Suite &suite, const std::vector<RunResult> &results,
           Report &report)
{
    for (std::size_t c = 0; c < suite.cells.size(); ++c) {
        const Cell &cell = suite.cells[c];
        if (cell.config.tenants > 1 &&
            !tenantsSumToGlobals(results[c], cell.config.tenants))
            report.fail(cell.label + ": per-tenant stats do not sum to "
                                     "the global counters");
        if (suite.pooled && results[c].pagesEvicted() != 0)
            report.fail(cell.label + ": evicted pages in a fitting run");
    }
    // The orderings are the paper's, so they hold at paper scale only.
    if (suite.name == "paper-110" && suite.scale == 1.0) {
        std::vector<std::string> why;
        if (!paperOrderings(suite.cells, results, why))
            for (const std::string &w : why)
                report.errors.push_back("paper ordering: " + w);
    }
}

/**
 * Timed pooled pass: cold store, then a warm pass of all hits; returns
 * the cold batch's wall time.
 */
double
pooledPass(const Suite &suite, const std::vector<RunJob> &jobs,
           RunExecutor &exec, const std::string &store_dir,
           const std::vector<RunResult> &ref, Report &report)
{
    std::filesystem::remove_all(store_dir);
    ResultStore store(store_dir);
    exec.clearCache();
    exec.attachStore(&store);
    const std::size_t n = jobs.size();
    report.attempted += n;

    const auto t0 = Clock::now();
    std::vector<RunResult> cold;
    try {
        cold = exec.runBatch(jobs);
    } catch (const std::exception &e) {
        report.fail("pooled pass: " + std::string(e.what()));
    }
    const double raw_s = seconds(t0, Clock::now());

    const ResultStore::Counters before = store.counters();
    exec.clearCache();
    std::vector<RunResult> warm;
    try {
        warm = exec.runBatch(jobs);
    } catch (const std::exception &e) {
        report.fail("warm pass: " + std::string(e.what()));
    }
    const ResultStore::Counters after = store.counters();
    if (after.hits - before.hits != n || after.misses != before.misses)
        report.fail("warm store pass was not all hits");
    for (std::size_t c = 0; c < n && c < cold.size() && c < warm.size();
         ++c) {
        if (!sameResult(cold[c], ref[c]))
            report.fail(suite.cells[c].label + ": jobs=" +
                        std::to_string(exec.threads()) +
                        " result differs from the serial run");
        if (!sameResult(warm[c], ref[c]))
            report.fail(suite.cells[c].label +
                        ": warm-store decode differs from the original");
    }
    exec.attachStore(nullptr);
    std::filesystem::remove_all(store_dir);
    return raw_s;
}

} // namespace

void
runTimed(const Suite &suite, const Options &opts, Report &report)
{
    Probe probe;
    probe.runMs(); // page the key array in before the first measurement
    const double k = suite.probe_elasticity;
    const std::size_t n = suite.cells.size();

    // Set-up, repeated; each repeat redoes all of it from scratch.
    const int setup_reps = opts.quick ? 2 : 9;
    std::vector<double> setup_scaled, setup_raw;
    std::vector<std::vector<std::unique_ptr<Workload>>> inputs;
    const std::string store_dir = opts.work_dir + "/store";
    for (int r = 0; r < setup_reps; ++r) {
        inputs.clear();
        std::filesystem::remove_all(store_dir);
        const double p0 = probe.runMs();
        const auto t0 = Clock::now();
        inputs = prepareInputs(suite, opts);
        if (suite.pooled) {
            ResultStore store(store_dir);
        }
        Timing t{seconds(t0, Clock::now()), 0.0};
        t.probe_ms = 0.5 * (p0 + probe.runMs());
        setup_raw.push_back(t.raw_s);
        setup_scaled.push_back(t.scaled(k));
    }

    // Warm-up pass, untimed: its results are the reference every
    // later run of the same cell must reproduce bit for bit.
    std::vector<RunResult> ref(n);
    for (std::size_t c = 0; c < n; ++c)
        tryRun(suite.cells[c], std::move(inputs[c]), ref[c], report);
    inputs.clear();
    if (report.failed == 0)
        checkSuite(suite, ref, report);

    std::unique_ptr<RunExecutor> exec;
    std::vector<RunJob> jobs;
    if (suite.pooled && report.failed == 0) {
        exec = std::make_unique<RunExecutor>(poolThreads);
        jobs = jobsOf(suite);
        pooledPass(suite, jobs, *exec, store_dir, ref, report);
    }

    // Timed passes: every cell once per pass, a probe between cells.
    Samples samples;
    samples.per_cell.resize(n);
    std::vector<double> pooled; // cold-batch walls, diagnostic only
    const auto start = Clock::now();
    double last_pass_s = 0.0;
    int passes = 0;
    while (report.failed == 0) {
        const double elapsed = seconds(start, Clock::now());
        if (passes >= (opts.quick ? 1 : 2) &&
            elapsed + last_pass_s > opts.run_seconds)
            break;
        const auto pass_start = Clock::now();
        double p_prev = probe.runMs();
        samples.probes.push_back(p_prev);
        for (std::size_t c = 0; c < n; ++c) {
            const Cell &cell = suite.cells[c];
            auto sources = makeSources(cell);
            Simulator sim(cell.config);
            RunResult r;
            ++report.attempted;
            const auto t0 = Clock::now();
            try {
                r = runCell(sim, cell, std::move(sources));
            } catch (const std::exception &e) {
                report.fail(cell.label + ": " + e.what());
                continue;
            }
            const double raw = seconds(t0, Clock::now());
            const double p_next = probe.runMs();
            samples.probes.push_back(p_next);
            samples.per_cell[c].push_back(Timing{raw, 0.5 * (p_prev + p_next)});
            p_prev = p_next;
            if (!sameResult(r, ref[c]))
                report.fail(cell.label + ": result differs between repeats");
        }
        if (exec)
            pooled.push_back(
                pooledPass(suite, jobs, *exec, store_dir, ref, report));
        last_pass_s = seconds(pass_start, Clock::now());
        ++passes;
    }
    const double window_s = seconds(start, Clock::now());

    // Paper accuracy, on the reference inputs (see accuracyCells).
    double fig11 = 0.0, fig15 = 0.0;
    std::vector<RunResult> acc(suite.accuracy_cells.size());
    for (std::size_t c = 0; c < acc.size(); ++c)
        tryRun(suite.accuracy_cells[c], {}, acc[c], report);
    if (!paperErrors(suite.accuracy_cells, acc, fig11, fig15))
        report.errors.push_back("paper-accuracy cells missing");
    if (report.failed != 0)
        return;

    double accesses = 0.0;
    for (const RunResult &r : ref)
        accesses += accessesIssued(r);

    // Throughput from the serial passes' per-cell medians.  The
    // pooled passes' throughput swings with the state of a second vCPU
    // that no probe tracks (GLOSSARY.md), so it is printed, not gated.
    const double total = samples.sumOfMedians(k);
    const double sims_s = n / total;
    const double macc_s = accesses / total / 1e6;
    const double raw_sims_s = n / samples.sumOfMedians(0.0);
    const std::vector<double> all = samples.all(k);
    const std::vector<double> all_raw = samples.all(0.0);
    int pct = 0, raw_pct = 0;
    const double tail = tailPercentile(all, 10, pct);
    const double raw_tail = tailPercentile(all_raw, 10, raw_pct);

    rusage usage{};
    getrusage(RUSAGE_SELF, &usage);

    report.set("setup_s", median(setup_scaled), "s");
    report.set("sims_per_s", sims_s, "1/s");
    report.set("maccesses_per_s", macc_s, "M/s");
    report.set("cell_s_p50", median(samples.cellMedians(k)), "s");
    report.set("cell_s_tail", tail, "s");
    report.set("peak_rss_mib", usage.ru_maxrss / 1024.0, "MiB");
    report.set("fig11_err", fig11, "ln");
    report.set("fig15_err", fig15, "ln");

    std::printf("# workload %s: %zu cells x %d timed passes in %.1f s "
                "(scale %g, seed %llu)\n",
                suite.name.c_str(), n, passes, window_s, suite.scale,
                static_cast<unsigned long long>(opts.seed));
    std::printf("# cell_s_tail is p%d of %zu timed cell runs\n", pct,
                all.size());
    std::printf("# probe: median %.4f ms over %zu runs (reference %.1f ms, "
                "elasticity %.2f)\n",
                median(samples.probes), samples.probes.size(),
                Probe::refProbeMs, k);

    if (!pooled.empty())
        std::printf("# pooled: %d cold %zu-thread batches, median %.6g cells/s"
                    " unscaled\n",
                    passes, poolThreads, n / median(pooled));
    std::printf("# unscaled: setup_s %.6g  sims_per_s %.6g  cell_s_p50 %.6g"
                "  cell_s_tail(p%d) %.6g\n",
                median(setup_raw), raw_sims_s,
                median(samples.cellMedians(0.0)), raw_pct, raw_tail);
}

} // namespace uvmbench
