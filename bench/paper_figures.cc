/**
 * @file
 * paper_figures: regenerates every paper artifact -- Table 1, Figures
 * 3-7 and 9-16 -- and the ablations A1-A7 from one compiled table.
 *
 *   paper_figures [ID...] [--benchmarks=a,b] [--scale=F] [--seed=N]
 *                 [--jobs=N] [--store=DIR] [--cache-bytes=N]
 *                 [--trace=SPEC [--trace-out=P] [--epoch-ticks=N]]
 *                 [--iter-a=N] [--iter-b=N] [--samples=N]
 *
 * IDs select entries (a2-a6 a7 a1 fig03 .. fig16 table1; default all,
 * in that order).  A grid entry is its benchmarks x its columns, each
 * a tweak of a base SimConfig, reduced to one metric.  All selected
 * cells run as one batch (--jobs workers), so cells several figures
 * share are simulated once; stdout is identical for every --jobs.
 */

#include <algorithm>
#include <cstdio>
#include <map>
#include <string>
#include <vector>

#include "bench_util.hh"
#include "interconnect/pcie_link.hh"
#include "sim/logging.hh"

using namespace uvmsim;

namespace
{

using Tweak = void (*)(SimConfig &);
using Row = std::vector<double>; // one benchmark's metric per column

/** The per-cell statistic a grid entry reports. */
struct Metric
{
    double (*of)(const RunResult &);
    int precision; //!< fmt() digits (0 for counts).
};

/** One simulated column: a label and a tweak of the section's base. */
struct Column
{
    const char *label;
    Tweak tweak;
};

/**
 * One printed cell: column `num`'s metric, or with `den` set the
 * ratio num/den at `precision` digits plus `suffix`.  The header
 * label defaults to column num's; the geomean row aggregates the
 * cells marked `geomean` and prints "-" for the others.
 */
struct Cell
{
    std::size_t num;
    int den = -1;
    int precision = 2;
    const char *suffix = "x";
    const char *label = nullptr;
    bool geomean = false;
};

/** One printed table: the benchmarks x `columns` over `base`. */
struct Section
{
    const char *heading; //!< "## ..." subtitle, or nullptr.
    SimConfig base;
    std::vector<Column> columns;
    std::vector<Cell> cells = {}; //!< Empty: every column's metric.
    bool geomean = false;         //!< Close with a "geomean" row.
    /** One-off formats: a trailing cell per row, a closing row. */
    const char *extra_label = nullptr;
    std::string (*extra)(const Row &) = nullptr;
    void (*closing)(const std::vector<Row> &) = nullptr;
};

/** One paper artifact. */
struct Figure
{
    const char *id;
    const char *title;
    const char *what;
    std::vector<std::string> benchmarks; //!< Unless --benchmarks.
    Metric metric;
    std::vector<Section> sections;
    const char *shape; //!< Closing lines, printed verbatim.
    /** Entries outside the grid print their own body. */
    void (*print)(const Options &) = nullptr;
};

// ------------------------------------------------------------ tweaks

/** Set one SimConfig field. */
template <auto Field, auto Value>
void
set(SimConfig &c)
{
    c.*Field = Value;
}

/** Set one GpuConfig field. */
template <auto Field, auto Value>
void
gpu(SimConfig &c)
{
    c.gpu.*Field = Value;
}

/** Apply tweaks in order. */
template <Tweak... Ts>
void
all(SimConfig &c)
{
    (Ts(c), ...);
}

constexpr Tweak keep = all<>;

/** The same prefetcher before and after device capacity. */
template <PrefetcherKind P>
constexpr Tweak prefetch = all<set<&SimConfig::prefetcher_before, P>,
                               set<&SimConfig::prefetcher_after, P>>;
template <PrefetcherKind P>
constexpr Tweak after = set<&SimConfig::prefetcher_after, P>;
template <EvictionKind E>
constexpr Tweak evict = set<&SimConfig::eviction, E>;
template <int Percent>
constexpr Tweak oversub =
    set<&SimConfig::oversubscription_percent, 1.0 * Percent>;
template <int Percent>
constexpr Tweak buffer = set<&SimConfig::free_buffer_percent, 1.0 * Percent>;
template <int Percent>
constexpr Tweak reserve = set<&SimConfig::lru_reserve_percent, 1.0 * Percent>;

constexpr auto kNone = PrefetcherKind::none;
constexpr auto kTbnp = PrefetcherKind::treeBasedNeighborhood;
constexpr auto kTbne = EvictionKind::treeBasedNeighborhood;

/** Fits in memory: TBNp throughout (the default config's before). */
constexpr Tweak fits = after<kTbnp>;

/** A GPU-model variation under TBNe+TBNp instead of LRU4K+none. */
template <Tweak V>
constexpr Tweak tbn = all<V, evict<kTbne>, after<kTbnp>>;

// ------------------------------------------------- one-off formatters

/** Figure 14: the reservation with the lowest kernel time. */
std::string
bestReserve(const Row &ms)
{
    static const char *const percent[] = {"0%", "10%", "20%"};
    return percent[std::min_element(ms.begin(), ms.end()) - ms.begin()];
}

/** Figure 15: TBNe's improvement over 2MB eviction. */
std::string
improvement(const Row &ms)
{
    return bench::fmt((ms[0] - ms[1]) / ms[0] * 100.0, 1) + "%";
}

/** Figure 15: geomean of the 2MB / TBNe kernel-time ratio. */
void
geomeanRatio(const std::vector<Row> &rows)
{
    std::vector<double> ratios;
    for (const Row &ms : rows)
        ratios.push_back(ms[0] / ms[1]);
    bench::printRow("geomean_x",
                    {"-", "-", bench::fmt(bench::geomean(ratios), 3) + "x"});
}

// ---------------------------------------------------- custom entries

/**
 * Table 1: the paper's calibration, the interpolated model (exact at
 * those points), the affine fit, and a transfer timed through a link.
 */
void
printTable1(const Options &)
{
    PcieBandwidthModel interp(PcieModelKind::interpolated);
    PcieBandwidthModel affine(PcieModelKind::affine);
    bench::printRow("size_KB", {"paper_GBps", "model_GBps",
                                "affine_GBps", "measured_GBps"});
    for (const auto &point : PcieBandwidthModel::table1Calibration()) {
        EventQueue eq;
        PcieLink link(eq, interp);
        link.transfer(PcieDir::hostToDevice, point.bytes, [] {});
        eq.run();
        double measured = static_cast<double>(point.bytes) /
                          ticksToSeconds(eq.curTick()) / 1e9;
        bench::printRow(
            std::to_string(point.bytes / sizeKiB),
            {bench::fmt(point.gb_per_sec, 4),
             bench::fmt(interp.bandwidthGBps(point.bytes), 4),
             bench::fmt(affine.bandwidthGBps(point.bytes), 4),
             bench::fmt(measured, 4)});
    }

    std::printf("\n# interpolation between calibration points "
                "(log2-size linear):\n");
    bench::printRow("size_KB", {"model_GBps"});
    for (std::uint64_t s = kib(4); s <= mib(1); s *= 2)
        bench::printRow(std::to_string(s / sizeKiB),
                        {bench::fmt(interp.bandwidthGBps(s), 4)});
}

/**
 * Figure 12: (core_cycle, virtual_page) samples of nw without eviction
 * in iterations --iter-a and --iter-b, at most --samples each.
 */
void
printFigure12(const Options &opts)
{
    const std::uint64_t tracked[] = {opts.getUint("iter-a", 60),
                                     opts.getUint("iter-b", 70)};
    const std::uint64_t max_samples = opts.getUint("samples", 400);

    auto workload = makeWorkload("nw", bench::workloadParams(opts));
    SimConfig cfg; // fits in memory: no eviction
    Simulator sim(cfg);
    std::map<std::uint64_t, std::pair<Tick, Tick>> windows;
    std::vector<std::pair<Tick, PageNum>> samples;
    sim.setKernelObserver([&](std::uint64_t idx, const std::string &,
                              Tick start, Tick end) {
        windows[idx] = {start, end};
    });
    sim.setAccessObserver(
        [&](Tick t, PageNum p, bool) { samples.emplace_back(t, p); });
    sim.run(*workload);

    const Tick period = cfg.gpu.corePeriod();
    for (std::uint64_t iter : tracked) {
        auto it = windows.find(iter);
        if (it == windows.end()) {
            std::printf("# iteration %llu not reached\n",
                        static_cast<unsigned long long>(iter));
            continue;
        }
        const auto [start, end] = it->second;
        std::vector<std::pair<Tick, PageNum>> in_window;
        for (const auto &[t, p] : samples) {
            if (t >= start && t <= end)
                in_window.emplace_back(t, p);
        }
        std::printf("\n# iteration %llu: %zu accesses, cycles %llu..%llu\n",
                    static_cast<unsigned long long>(iter), in_window.size(),
                    static_cast<unsigned long long>(start / period),
                    static_cast<unsigned long long>(end / period));
        bench::printRow("iter" + std::to_string(iter),
                        {"core_cycle", "virtual_page"});
        std::size_t stride =
            std::max<std::size_t>(1, in_window.size() / max_samples);
        PageNum min_p = ~PageNum{0}, max_p = 0;
        for (std::size_t i = 0; i < in_window.size(); i += stride) {
            const auto &[t, p] = in_window[i];
            bench::printRow("", {std::to_string(t / period),
                                 std::to_string(p)});
            min_p = std::min(min_p, p);
            max_p = std::max(max_p, p);
        }
        std::printf("# page span in iteration: %llu pages\n",
                    static_cast<unsigned long long>(max_p - min_p));
    }
}

// -------------------------------------------------------------- table

/** Every artifact, in the order a full run prints them. */
const std::vector<Figure> &
figures()
{
    using P = PrefetcherKind;
    using E = EvictionKind;
    using Pcie = PcieModelKind;
    auto config = [](Tweak t) {
        SimConfig c; // the default config with `t` applied
        t(c);
        return c;
    };
    const Metric kernel_ms{[](const RunResult &r) { return r.kernelTimeMs(); },
                           3};
    const std::vector<std::string> paper = allWorkloadNames();
    const SimConfig fit = config(keep);
    const SimConfig at110 = config(oversub<110>);
    const SimConfig tbnp = config(prefetch<kTbnp>);
    const std::vector<Column> prefetchers = {
        {"none", prefetch<kNone>}, {"Rp", prefetch<P::random>},
        {"SLp", prefetch<P::sequentialLocal>}, {"TBNp", prefetch<kTbnp>}};
    const std::vector<Column> evictions = {
        {"LRU4K", evict<E::lru4k>}, {"Re", evict<E::random4k>},
        {"SLe", evict<E::sequentialLocal>}, {"TBNe", evict<kTbne>}};

    static const std::vector<Figure> table = {
        {"a2-a6", "Ablations A2-A5",
         "modeling/design choice sensitivity (kernel ms)",
         {"backprop", "hotspot", "nw", "srad"}, kernel_ms,
         {{"## A2: PCI-e timing model (TBNp, fits)", tbnp,
           {{"interpolated", set<&SimConfig::pcie_model, Pcie::interpolated>},
            {"affine", set<&SimConfig::pcie_model, Pcie::affine>}}},
          {"## A3: far-fault service latency (TBNp, fits)", tbnp,
           {{"30us", set<&SimConfig::fault_latency, microseconds(30)>},
            {"45us", set<&SimConfig::fault_latency, microseconds(45)>},
            {"60us", set<&SimConfig::fault_latency, microseconds(60)>}}},
          {"## A4: write-back policy (TBNe+TBNp, WS=110%)",
           config(all<prefetch<kTbnp>, evict<kTbne>, oversub<110>>),
           {{"whole_unit", set<&SimConfig::whole_unit_writeback, true>},
            {"dirty_only", set<&SimConfig::whole_unit_writeback, false>}}},
          {"## A5: anti-thrash fix: MRU vs 10% LRU reservation "
           "(4KB on-demand after capacity, WS=110%)",
           at110,
           {{"LRU", keep}, {"MRU", evict<E::mru4k>},
            {"LRU+reserve10", reserve<10>}}},
          {"## A6: fault services per 45us window "
           "(no prefetching -- the worst case for seriality)",
           config(prefetch<kNone>),
           {{"batch1", set<&SimConfig::fault_batch_size, 1u>},
            {"batch4", set<&SimConfig::fault_batch_size, 4u>},
            {"batch16", set<&SimConfig::fault_batch_size, 16u>}}}},
         "\n# A2: shapes must be insensitive to the fit choice. "
         "A3: on-demand-dominated runs scale with latency.\n"
         "# A4: whole-unit write-back costs little (duplex channel). "
         "A5: MRU helps loops but is pattern-fragile.\n"},

        {"a7", "Ablation A7",
         "TBNe+TBNp speedup over LRU4K+none under GPU model variations "
         "(must stay > 1x everywhere)",
         {"hotspot", "nw", "srad"}, kernel_ms,
         {{nullptr, at110,
           {{"default", keep}, {"", tbn<keep>},
            {"warps4", gpu<&GpuConfig::max_warps_per_sm, 4u>},
            {"", tbn<gpu<&GpuConfig::max_warps_per_sm, 4u>>},
            {"warps48", gpu<&GpuConfig::max_warps_per_sm, 48u>},
            {"", tbn<gpu<&GpuConfig::max_warps_per_sm, 48u>>},
            {"walkers1", set<&SimConfig::page_walkers, 1u>},
            {"", tbn<set<&SimConfig::page_walkers, 1u>>},
            {"walkersInf", set<&SimConfig::page_walkers, 0u>},
            {"", tbn<set<&SimConfig::page_walkers, 0u>>},
            {"mshr64", set<&SimConfig::mshr_entries, 64u>},
            {"", tbn<set<&SimConfig::mshr_entries, 64u>>},
            {"noL1", gpu<&GpuConfig::l1_bytes, std::uint64_t{0}>},
            {"", tbn<gpu<&GpuConfig::l1_bytes, std::uint64_t{0}>>},
            {"sms8", gpu<&GpuConfig::num_sms, 8u>},
            {"", tbn<gpu<&GpuConfig::num_sms, 8u>>}},
           {{0, 1}, {2, 3}, {4, 5}, {6, 7}, {8, 9}, {10, 11}, {12, 13},
            {14, 15}}}},
         "# the TBN advantage is a property of the UVM layer, not of a "
         "particular GPU-side configuration\n"},

        {"a1", "Ablation A1",
         "paper prefetchers vs Zheng et al. baselines; kernel time (ms), "
         "no over-subscription",
         paper, kernel_ms,
         {{nullptr, fit,
           {{"SLp", prefetch<P::sequentialLocal>},
            {"TBNp", prefetch<kTbnp>},
            {"SGp", prefetch<P::sequentialGlobal>},
            {"ZLp", prefetch<P::zhengLocality>}}}},
         "# TBNp's adaptive grouping should match or beat the fixed-run "
         "baselines across patterns\n"},

        {"fig03", "Figure 3",
         "kernel execution time (ms) per prefetcher, working set fits in "
         "device memory",
         paper, kernel_ms,
         {{nullptr, fit,
           {{"none_ms", prefetch<kNone>},
            {"Rp_ms", prefetch<P::random>},
            {"SLp_ms", prefetch<P::sequentialLocal>},
            {"TBNp_ms", prefetch<kTbnp>}},
           {{0}, {1}, {2}, {3},
            {0, 1, 2, "", "Rp_x", true},
            {0, 2, 2, "", "SLp_x", true},
            {0, 3, 2, "", "TBNp_x", true}},
           true}},
         "# paper shape: TBNp best everywhere; all prefetchers >> "
         "on-demand paging\n"},

        {"fig04", "Figure 4",
         "average PCI-e read bandwidth (GB/s) per prefetcher, no "
         "over-subscription",
         paper,
         {[](const RunResult &r) { return r.avgReadBandwidthGBps(); }, 2},
         {{nullptr, fit, prefetchers, {}, true}},
         "# paper shape: none~3.2, SLp mid, TBNp approaches the "
         "1MB-transfer bandwidth\n"},

        {"fig05", "Figure 5",
         "total far-faults per prefetcher, no over-subscription",
         paper,
         {[](const RunResult &r) { return r.farFaults(); }, 0},
         {{nullptr, fit, prefetchers,
           {{0}, {1}, {2}, {3}, {0, 3, 1, "x", "TBNp_reduction"}}}},
         "# paper shape: locality-aware prefetching within 2MB removes "
         "almost all far-faults\n"},

        {"fig06", "Figure 6",
         "kernel slowdown vs no over-subscription; TBNp until capacity "
         "then on-demand 4KB; LRU-4KB eviction",
         paper, kernel_ms,
         {{nullptr, fit,
           {{"fits_ms", fits}, {"105%", oversub<105>},
            {"110%", oversub<110>}, {"115%", oversub<115>},
            {"125%", oversub<125>},
            {"110%+buf5", all<oversub<110>, buffer<5>>},
            {"110%+buf10", all<oversub<110>, buffer<10>>}},
           {{0}, {1, 0}, {2, 0}, {3, 0}, {4, 0}, {5, 0}, {6, 0}}}},
         "# paper shape: sharp slowdowns at small over-subscription; the "
         "free-page buffer hurts\n"},

        {"fig07", "Figure 7",
         "4KB page transfers (migrations + write-backs); TBNp until "
         "capacity then on-demand 4KB; LRU-4KB eviction",
         paper,
         {[](const RunResult &r) {
              return r.pagesMigrated() + r.stat("gmmu.pages_written_back");
          },
          0},
         {{nullptr, fit,
           {{"fits", fits}, {"105%", oversub<105>},
            {"110%", oversub<110>}, {"125%", oversub<125>},
            {"110%+buf5", all<oversub<110>, buffer<5>>},
            {"110%+buf10", all<oversub<110>, buffer<10>>}}}},
         "# paper shape: transfer counts explode under over-subscription "
         "and with the free-page buffer\n"},

        {"fig09", "Figure 9",
         "kernel time (ms) per eviction policy; prefetcher disabled after "
         "capacity; WS=110%",
         paper, kernel_ms,
         {{nullptr, at110, evictions,
           {{.num = 0, .label = "LRU4K_ms"},
            {.num = 1, .label = "Re_ms"},
            {.num = 2, .label = "SLe_ms"},
            {.num = 3, .label = "TBNe_ms"},
            {.num = 0, .den = 1, .label = "Re_vs_LRU"}}}},
         "# paper shape: streaming benchmarks flat; Re beats LRU for "
         "iterative benchmarks\n"},

        {"fig10", "Figure 10",
         "4KB pages evicted per eviction policy; prefetcher disabled after "
         "capacity; WS=110%",
         paper,
         {[](const RunResult &r) { return r.pagesEvicted(); }, 0},
         {{nullptr, at110, evictions}},
         "# paper shape: eviction counts track the Figure 9 kernel "
         "times\n"},

        {"fig11", "Figure 11",
         "kernel time (ms) for eviction+prefetcher combinations; WS=110%",
         paper, kernel_ms,
         {{nullptr, at110,
           {{"LRU4K+none", keep},
            {"Re+Rp", all<evict<E::random4k>, after<P::random>>},
            {"SLe+SLp",
             all<evict<E::sequentialLocal>, after<P::sequentialLocal>>},
            {"TBNe+TBNp", tbn<keep>}},
           {{0}, {1}, {2}, {3},
            {.num = 0, .den = 3, .label = "TBN_speedup", .geomean = true}},
           true}},
         "# paper: TBNe+TBNp averages ~93% improvement over LRU4K+none "
         "(about 1.9x); SLe+SLp wins on nw\n"},

        {"fig12", "Figure 12",
         "nw page access pattern (cycle, virtual page) at two mid-run "
         "iterations, no eviction",
         {}, kernel_ms, {},
         "\n# paper shape: widely spaced page bands accessed repeatedly "
         "within each iteration\n",
         printFigure12},

        {"fig13", "Figure 13",
         "TBNe+TBNp slowdown vs over-subscription percentage (relative to "
         "fits-in-memory)",
         paper, kernel_ms,
         {{nullptr, tbnp,
           {{"fits_ms", keep}, {"110%", all<evict<kTbne>, oversub<110>>},
            {"125%", all<evict<kTbne>, oversub<125>>},
            {"150%", all<evict<kTbne>, oversub<150>>}},
           {{0}, {1, 0}, {2, 0}, {3, 0}}}},
         "# paper shape: streaming flat, others roughly linear, nw "
         "degrades dramatically\n"},

        {"fig14", "Figure 14",
         "kernel time (ms) vs LRU reservation; TBNe+TBNp; WS=110%",
         paper, kernel_ms,
         {{nullptr, config(all<prefetch<kTbnp>, evict<kTbne>, oversub<110>>),
           {{"reserve0_ms", reserve<0>}, {"reserve10_ms", reserve<10>},
            {"reserve20_ms", reserve<20>}},
           {}, false, "best", bestReserve}},
         "# paper shape: 10% helps reuse benchmarks; higher reservation "
         "can backfire\n"},

        {"fig15", "Figure 15",
         "TBNe vs 2MB LRU eviction, TBNp prefetching; WS=110%",
         paper, kernel_ms,
         {{nullptr, config(all<prefetch<kTbnp>, oversub<110>>),
           {{"LRU2MB_ms", evict<E::lru2mb>}, {"TBNe_ms", evict<kTbne>}},
           {}, false, "improvement", improvement, geomeanRatio}},
         "# paper: TBNe averages 18.5% (up to 52%) better than 2MB "
         "eviction\n"},

        {"fig16", "Figure 16",
         "pages thrashed: TBNe vs 2MB eviction at 110% and 125% "
         "over-subscription",
         paper,
         {[](const RunResult &r) { return r.pagesThrashed(); }, 0},
         {{nullptr, tbnp,
           {{"2MB@110", all<evict<E::lru2mb>, oversub<110>>},
            {"TBNe@110", all<evict<kTbne>, oversub<110>>},
            {"2MB@125", all<evict<E::lru2mb>, oversub<125>>},
            {"TBNe@125", all<evict<kTbne>, oversub<125>>}}}},
         "# paper shape: no thrashing for streaming benchmarks; TBNe "
         "thrashes far less than 2MB eviction\n"},

        {"table1", "Table 1",
         "PCI-e read bandwidth (GB/s) vs transfer size, GTX 1080ti PCI-e "
         "3.0 16x calibration",
         {}, kernel_ms, {}, "", printTable1},
    };
    return table;
}

// ------------------------------------------------------------ runner

/** Print one section's rows from its results (benchmark-major). */
void
printSection(const Figure &fig, const Section &s,
             const std::vector<std::string> &names, const RunResult *res)
{
    std::vector<Cell> cells = s.cells;
    for (std::size_t c = 0; s.cells.empty() && c < s.columns.size(); ++c)
        cells.push_back({.num = c, .geomean = s.geomean});
    if (s.heading != nullptr)
        std::printf("\n%s\n", s.heading);
    std::vector<std::string> header;
    for (const Cell &cell : cells)
        header.push_back(cell.label ? cell.label : s.columns[cell.num].label);
    if (s.extra != nullptr)
        header.push_back(s.extra_label);
    bench::printRow("benchmark", header);

    // A value cell prints at the metric's precision, a ratio at its own.
    auto format = [&fig](const Cell &cell, double v) {
        return cell.den < 0 ? bench::fmt(v, fig.metric.precision)
                            : bench::fmt(v, cell.precision) + cell.suffix;
    };
    std::vector<Row> rows;
    std::vector<std::vector<double>> geo(cells.size());
    for (const std::string &name : names) {
        Row row(s.columns.size());
        for (double &v : row)
            v = fig.metric.of(*res++);
        std::vector<std::string> out;
        for (std::size_t i = 0; i < cells.size(); ++i) {
            const Cell &cell = cells[i];
            double v = row[cell.num];
            if (cell.den >= 0)
                v /= row[static_cast<std::size_t>(cell.den)];
            geo[i].push_back(v);
            out.push_back(format(cell, v));
        }
        if (s.extra != nullptr)
            out.push_back(s.extra(row));
        bench::printRow(name, out);
        rows.push_back(std::move(row));
    }
    if (s.geomean) {
        std::vector<std::string> out;
        for (std::size_t i = 0; i < cells.size(); ++i)
            out.push_back(cells[i].geomean
                              ? format(cells[i], bench::geomean(geo[i]))
                              : "-");
        bench::printRow("geomean", out);
    }
    if (s.closing != nullptr)
        s.closing(rows);
}

/** The entries named on the command line; all of them by default. */
std::vector<const Figure *>
selectFigures(const Options &opts)
{
    std::vector<const Figure *> out;
    std::string valid;
    for (const Figure &f : figures()) {
        valid += std::string(" ") + f.id;
        if (opts.positional().empty())
            out.push_back(&f);
    }
    for (const std::string &id : opts.positional()) {
        auto it = std::find_if(figures().begin(), figures().end(),
                               [&](const Figure &f) { return id == f.id; });
        if (it == figures().end())
            fatal("paper_figures: unknown figure '%s'; valid ids:%s",
                  id.c_str(), valid.c_str());
        out.push_back(&*it);
    }
    return out;
}

} // namespace

int
main(int argc, char **argv)
{
    Options opts(argc, argv);
    const std::vector<const Figure *> selected = selectFigures(opts);
    const WorkloadParams params = bench::workloadParams(opts);

    // Phase 1: queue every selected grid cell into one batch, section
    // by section, benchmark-major.  --trace labels each cell
    // <figure>-<workload>-<i>, i its index within the figure.
    std::vector<RunJob> jobs;
    for (const Figure *fig : selected) {
        const std::size_t first = jobs.size();
        for (const Section &s : fig->sections) {
            for (const std::string &name :
                 bench::selectedBenchmarks(opts, fig->benchmarks)) {
                for (const Column &col : s.columns) {
                    SimConfig cfg = s.base;
                    col.tweak(cfg);
                    bench::applyTraceOptions(
                        cfg, opts,
                        std::string(fig->id) + "-" + name + "-" +
                            std::to_string(jobs.size() - first));
                    jobs.push_back(RunJob{name, cfg, params});
                }
            }
        }
    }
    const std::vector<RunResult> results = bench::runAll(jobs, opts);

    // Phase 2: print each entry from the resolved results, in order.
    const RunResult *next = results.data();
    for (const Figure *fig : selected) {
        bench::printHeader(fig->title, fig->what);
        if (fig->print != nullptr)
            fig->print(opts);
        const auto names = bench::selectedBenchmarks(opts, fig->benchmarks);
        for (const Section &s : fig->sections) {
            printSection(*fig, s, names, next);
            next += names.size() * s.columns.size();
        }
        std::fputs(fig->shape, stdout);
    }
    return 0;
}
