/**
 * @file
 * uvmbench: the uvmsim benchmark program.
 *
 *   uvmbench --workload=paper-110|server-replay|sweep-fits
 *            [--seed=42] [--seconds=10] [--trace=0|1] [--quick]
 *            [--work-dir=DIR]
 *
 * Prints "# name = value unit" lines, then one JSON result line.
 * Exits 1 on a bad argument or any correctness failure.
 */

#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <string>
#include <unistd.h>

#include "bench.hh"

using namespace uvmbench;

namespace
{

// Print order of the metrics; BENCHMARK.json lists the same names.
const std::vector<std::string> endToEnd = {
    "setup_s",      "sims_per_s",  "maccesses_per_s", "cell_s_p50",
    "cell_s_tail",  "peak_rss_mib", "fig11_err",      "fig15_err",
};

const std::vector<std::string> perLayer = {
    "workloads.gen_s",
    "workloads.accesses",
    "workloads.ns_per_access",
    "workloads.decode_s",
    "workloads.decode_mrec_per_s",
    "gpu.accesses_issued",
    "gpu.l1_hit_ratio",
    "gpu.l2_probes",
    "gpu.l2_hit_ratio",
    "gpu.l1_ns_per_probe",
    "gpu.l2_ns_per_probe",
    "gpu.kernel_host_ms_p50",
    "mem.tlb_probes",
    "mem.tlb_miss_ratio",
    "mem.page_walks",
    "mem.tlb_ns_per_probe",
    "core.far_faults",
    "core.pages_migrated",
    "core.pages_prefetched",
    "core.pages_evicted",
    "core.thrash_ratio",
    "core.cross_tenant_evictions",
    "core.residency_ns_per_op",
    "core.tree_ns_per_op",
    "interconnect.h2d_mib",
    "interconnect.d2h_mib",
    "interconnect.transfers",
    "interconnect.pcie_ns_per_transfer",
    "sim.kernel_ms",
    "sim.traced_events",
    "sim.event_queue_ns_per_event",
    "sim.trace_overhead_pct",
    "api.run_s",
    "api.executor_busy_ratio",
    "api.executor_idle_s",
    "api.store_publish_ms_p50",
    "api.store_load_ms_p50",
    "api.store_hit_ratio",
    "api.codec_us_per_result",
    "host.probe_ms",
};

[[noreturn]] void
usage(const std::string &why)
{
    std::fprintf(stderr,
                 "uvmbench: %s\n"
                 "usage: uvmbench --workload=NAME [--seed=N] [--seconds=S]"
                 " [--trace=0|1] [--quick] [--work-dir=DIR]\n"
                 "workloads: paper-110 server-replay sweep-fits\n",
                 why.c_str());
    std::exit(1);
}

double
parseNumber(const std::string &flag, const std::string &text)
{
    char *end = nullptr;
    const double v = std::strtod(text.c_str(), &end);
    if (text.empty() || *end != '\0' || !(v >= 0))
        usage("bad value for " + flag + ": '" + text + "'");
    return v;
}

Options
parse(int argc, char **argv)
{
    Options opts;
    for (int i = 1; i < argc; ++i) {
        std::string arg = argv[i];
        std::string value;
        const auto eq = arg.find('=');
        if (eq != std::string::npos) {
            value = arg.substr(eq + 1);
            arg = arg.substr(0, eq);
        } else if (arg != "--quick") {
            if (i + 1 >= argc)
                usage("missing value for " + arg);
            value = argv[++i];
        }
        if (arg == "--workload")
            opts.workload = value;
        else if (arg == "--seed")
            opts.seed = static_cast<std::uint64_t>(parseNumber(arg, value));
        else if (arg == "--seconds")
            opts.run_seconds = parseNumber(arg, value);
        else if (arg == "--trace")
            opts.trace = parseNumber(arg, value) != 0;
        else if (arg == "--quick")
            opts.quick = true;
        else if (arg == "--work-dir")
            opts.work_dir = value;
        else
            usage("unknown option " + arg);
    }
    bool known = false;
    for (const std::string &name : suiteNames())
        known = known || name == opts.workload;
    if (!known)
        usage("unknown workload '" + opts.workload + "'");
    return opts;
}

} // namespace

int
main(int argc, char **argv)
{
    Options opts = parse(argc, argv);
    namespace fs = std::filesystem;
    const std::string base = opts.work_dir.empty() ? "uvmbench-work"
                                                   : opts.work_dir;
    // A private scratch directory per process, removed at exit.
    opts.work_dir = base + "/" + opts.workload + "-" +
                    std::to_string(::getpid());
    opts.span_dir = base + "/spans";

    HostRecord host = hostRecordBefore();
    Report report;
    try {
        fs::create_directories(opts.work_dir);
        const Suite suite = makeSuite(opts);
        if (opts.trace)
            runTraced(suite, opts, report);
        else
            runTimed(suite, opts, report);
    } catch (const std::exception &e) {
        report.fail(std::string("benchmark aborted: ") + e.what());
    }
    hostRecordAfter(host);
    std::error_code ec;
    fs::remove_all(opts.work_dir, ec);

    std::printf("# host: cpu \"%s\", nproc %u, loadavg before %s, "
                "after %s\n",
                host.cpu_model.c_str(), host.nproc,
                host.loadavg_before.c_str(), host.loadavg_after.c_str());
    report.print(opts.trace ? perLayer : endToEnd);
    return report.correct() ? 0 : 1;
}
