/**
 * @file
 * The traced run: per-layer counts and costs.
 *
 * Counts come from the simulator's own statistics and from its hooks
 * (an "all" trace sink, the kernel observer and the access observer),
 * summed over the suite's cells.  Costs come from spans the benchmark
 * records around each call into a layer, and from replaying each
 * cell's captured streams through the standalone layer classes
 * (L2Cache, Tlb, ResidencyTracker, LargePageTree, PcieLink,
 * EventQueue).  Spans cover the benchmark's calls only; spans inside
 * the simulator are not recorded.
 */

#include <cstdio>
#include <filesystem>
#include <fstream>
#include <thread>
#include <unordered_map>

#include "api/result_store.hh"
#include "api/run_executor.hh"
#include "bench.hh"
#include "core/large_page_tree.hh"
#include "core/managed_space.hh"
#include "core/residency_tracker.hh"
#include "gpu/l2_cache.hh"
#include "interconnect/pcie_link.hh"
#include "mem/tlb.hh"
#include "sim/event_queue.hh"
#include "workloads/uvmt.hh"

namespace uvmbench
{

using namespace uvmsim;

namespace
{

/** Operations and host time of one replayed layer. */
struct Cost
{
    double seconds = 0.0;
    double ops = 0.0;

    double nsPerOp() const { return ops > 0 ? seconds * 1e9 / ops : 0.0; }
};

/** Everything one traced cell run hands to the replays. */
struct Capture final : trace::TraceSink
{
    enum class TreeOp : std::uint8_t { fault, arrive, drain };
    struct TreeEvent
    {
        TreeOp op;
        PageNum page;
        std::uint64_t pages;
    };
    struct Transfer
    {
        std::uint64_t bytes;
        bool d2h;
    };

    std::uint64_t events = 0;
    std::vector<Tick> ticks;
    std::vector<TreeEvent> tree;
    std::vector<Transfer> transfers;
    std::vector<PageNum> pages;
    std::vector<double> kernel_host_ms;
    std::vector<std::pair<Clock::time_point, Clock::time_point>> kernels;

    void
    record(const trace::Event &e) override
    {
        ++events;
        ticks.push_back(e.start);
        switch (e.kind) {
        case trace::Kind::faultRaised:
            tree.push_back(TreeEvent{TreeOp::fault, e.value, 1});
            break;
        case trace::Kind::migrationArrived:
            tree.push_back(TreeEvent{TreeOp::arrive, e.value, e.pages});
            break;
        case trace::Kind::evictionDrain:
            tree.push_back(TreeEvent{TreeOp::drain, e.value, e.pages});
            break;
        case trace::Kind::pcieTransfer:
            transfers.push_back(Transfer{e.bytes, e.aux == 1});
            break;
        default:
            break;
        }
    }
};

/** Cells' captures, results and host times from one traced pass. */
struct TracedPass
{
    std::uint64_t first_id = 0; //!< span cell id of cell 0
    std::vector<RunResult> results;
    std::vector<std::unique_ptr<Capture>> captures;
    std::vector<double> run_s;
    double wall_s = 0.0;
};

/** Σ over cells of each layer's replay cost. */
struct Replays
{
    Cost l1, l2, tlb, residency, tree, pcie, queue;
};

/** Run one cell with every hook attached; spans go under `parent`. */
RunResult
tracedRun(const Cell &cell, Capture &cap, SpanLog &spans, std::uint64_t id,
          std::uint64_t parent, std::uint32_t thread, double &run_s)
{
    SimConfig cfg = cell.config;
    cfg.trace_spec = "all";
    cfg.trace_out.clear();
    const std::uint64_t root = spans.open("bench.cell", id, parent, thread);
    std::vector<std::unique_ptr<Workload>> sources;
    {
        ScopedSpan make(spans, "workloads.make", id, root, thread);
        sources = makeSources(cell);
    }
    Simulator sim(cfg);
    sim.addTraceSink(&cap);
    sim.setAccessObserver(
        [&cap](Tick, PageNum page, bool) { cap.pages.push_back(page); });
    Clock::time_point last = Clock::now();
    sim.setKernelObserver(
        [&cap, &last](std::uint64_t, const std::string &, Tick, Tick) {
            const auto now = Clock::now();
            cap.kernel_host_ms.push_back(seconds(last, now) * 1e3);
            cap.kernels.emplace_back(last, now);
            last = now;
        });
    const auto t0 = Clock::now();
    last = t0;
    RunResult r = runCell(sim, cell, std::move(sources));
    const auto t1 = Clock::now();
    run_s = seconds(t0, t1);
    const std::uint64_t run = spans.add("api.run", id, root, t0, t1, thread);
    for (const auto &[start, end] : cap.kernels)
        spans.add("gpu.kernel", id, run, start, end, thread);
    spans.close(root);
    return r;
}

/** Every line the workload touches, drained with no simulation. */
std::vector<std::uint64_t>
drainLines(Workload &wl, std::uint32_t line_bytes)
{
    ManagedSpace space;
    wl.setup(space);
    std::vector<std::uint64_t> lines; // line address << 1 | is_write
    while (Kernel *kernel = wl.nextKernel()) {
        while (auto tb = kernel->nextThreadBlock()) {
            for (auto &warp : tb->warps) {
                WarpOp op;
                while (warp->next(op)) {
                    for (const TraceAccess &a : op.accesses) {
                        const Addr first = a.addr / line_bytes;
                        const Addr last = (a.addr + a.size - 1) / line_bytes;
                        for (Addr l = first; l <= last; ++l)
                            lines.push_back((l * line_bytes) << 1 |
                                            (a.is_write ? 1 : 0));
                    }
                }
            }
        }
    }
    return lines;
}

/** Drain without keeping anything: the generator's own cost. */
std::uint64_t
drainCount(Workload &wl)
{
    ManagedSpace space;
    wl.setup(space);
    std::uint64_t accesses = 0;
    while (Kernel *kernel = wl.nextKernel())
        while (auto tb = kernel->nextThreadBlock())
            for (auto &warp : tb->warps) {
                WarpOp op;
                while (warp->next(op))
                    accesses += op.accesses.size();
            }
    return accesses;
}

/** L1 (reads) then L2 (L1 misses and writes) at device geometry. */
void
replayCaches(const std::vector<std::uint64_t> &lines, const GpuConfig &gpu,
             Replays &out)
{
    L2Cache l1(gpu.l1_bytes, gpu.l1_assoc, gpu.l2_line_bytes, "replay.l1");
    L2Cache l2(gpu.l2_bytes, gpu.l2_assoc, gpu.l2_line_bytes, "replay.l2");
    std::vector<std::uint8_t> to_l2(lines.size(), 1);
    auto t0 = Clock::now();
    std::uint64_t reads = 0;
    for (std::size_t i = 0; i < lines.size(); ++i) {
        if (lines[i] & 1)
            continue;
        ++reads;
        to_l2[i] = !l1.access(lines[i] >> 1, false);
    }
    auto t1 = Clock::now();
    std::uint64_t probes = 0;
    for (std::size_t i = 0; i < lines.size(); ++i) {
        if (!to_l2[i])
            continue;
        ++probes;
        l2.access(lines[i] >> 1, lines[i] & 1);
    }
    auto t2 = Clock::now();
    out.l1.seconds += seconds(t0, t1);
    out.l1.ops += reads;
    out.l2.seconds += seconds(t1, t2);
    out.l2.ops += probes;
}

void
countFired(void *ctx, std::uint64_t)
{
    ++*static_cast<std::uint64_t *>(ctx);
}

/** Replay one cell's captured streams through the layer classes. */
void
replayCell(const Cell &cell, const RunResult &r, const Capture &cap,
           SpanLog &spans, std::uint64_t id, Replays &out, Report &report)
{
    const std::uint64_t root = spans.open("bench.replay", id, 0);
    {
        ScopedSpan s(spans, "mem.tlb_replay", id, root);
        Tlb tlb("replay.tlb", cell.config.gpu.tlb_entries);
        const auto t0 = Clock::now();
        for (PageNum p : cap.pages)
            if (!tlb.lookup(p))
                tlb.insert(p);
        out.tlb.seconds += seconds(t0, Clock::now());
        out.tlb.ops += cap.pages.size();
    }
    {
        ScopedSpan s(spans, "core.residency_replay", id, root);
        const std::uint64_t frames = r.device_memory_bytes / pageSize;
        ResidencyTracker rt;
        std::uint64_t ops = 0;
        const auto t0 = Clock::now();
        for (PageNum p : cap.pages) {
            if (rt.isTracked(p)) {
                rt.onAccess(p);
                ++ops;
                continue;
            }
            if (rt.size() >= frames) {
                if (auto victim = rt.lruPageVictim(0)) {
                    rt.onEvicted(*victim);
                    ops += 2;
                }
            }
            rt.onResident(p);
            ++ops;
        }
        out.residency.seconds += seconds(t0, Clock::now());
        out.residency.ops += ops;
    }
    {
        ScopedSpan s(spans, "core.tree_replay", id, root);
        std::unordered_map<std::uint64_t, LargePageTree> trees;
        std::uint64_t ops = 0;
        const auto t0 = Clock::now();
        for (const Capture::TreeEvent &e : cap.tree) {
            const std::uint64_t slot = e.page / pagesPerLargePage;
            auto it = trees.find(slot);
            if (it == trees.end())
                it = trees
                         .emplace(slot,
                                  LargePageTree(slot * largePageSize,
                                                blocksPerLargePage))
                         .first;
            LargePageTree &tree = it->second;
            if (e.op == Capture::TreeOp::fault) {
                tree.faultFill(e.page);
                ++ops;
                continue;
            }
            for (std::uint64_t i = 0; i < e.pages; ++i) {
                const PageNum p = e.page + i;
                if (!tree.covers(p))
                    break;
                if (e.op == Capture::TreeOp::arrive)
                    tree.markPage(p);
                else
                    tree.unmarkPage(p);
                ++ops;
            }
        }
        out.tree.seconds += seconds(t0, Clock::now());
        out.tree.ops += ops;
    }
    {
        ScopedSpan s(spans, "interconnect.pcie_replay", id, root);
        EventQueue eq;
        PcieLink link(eq, PcieBandwidthModel(cell.config.pcie_model));
        std::uint64_t done = 0;
        const auto t0 = Clock::now();
        for (const Capture::Transfer &x : cap.transfers) {
            link.transfer(x.d2h ? PcieDir::deviceToHost : PcieDir::hostToDevice,
                          x.bytes, [&done] { ++done; });
            if (eq.pending() > 64)
                eq.runOne();
        }
        eq.run();
        out.pcie.seconds += seconds(t0, Clock::now());
        out.pcie.ops += cap.transfers.size();
        if (done != cap.transfers.size())
            report.fail(cell.label + ": PcieLink replay lost transfers");
    }
    {
        ScopedSpan s(spans, "sim.event_queue_replay", id, root);
        EventQueue eq;
        std::uint64_t fired = 0;
        const auto t0 = Clock::now();
        for (Tick t : cap.ticks) {
            eq.scheduleCall(std::max(t, eq.curTick()), &countFired, &fired, 0);
            if (eq.pending() > 256)
                eq.runOne();
        }
        eq.run();
        out.queue.seconds += seconds(t0, Clock::now());
        out.queue.ops += cap.ticks.size();
        if (fired != cap.ticks.size())
            report.fail(cell.label + ": EventQueue replay lost events");
    }
    spans.close(root);
}

/** Serial traced pass, or a pooled one through RunExecutor::runTasks. */
TracedPass
tracedPass(const Suite &suite, SpanLog &spans, std::uint64_t &next_id,
           Report &report)
{
    const std::size_t n = suite.cells.size();
    TracedPass pass;
    pass.results.resize(n);
    pass.run_s.resize(n);
    for (std::size_t c = 0; c < n; ++c)
        pass.captures.push_back(std::make_unique<Capture>());
    const std::uint64_t first_id = next_id;
    pass.first_id = first_id;
    next_id += n;
    report.attempted += n;

    if (!suite.pooled) {
        const auto t0 = Clock::now();
        for (std::size_t c = 0; c < n; ++c) {
            try {
                pass.results[c] =
                    tracedRun(suite.cells[c], *pass.captures[c], spans,
                              first_id + c, 0, 0, pass.run_s[c]);
            } catch (const std::exception &e) {
                report.fail(suite.cells[c].label + ": " + e.what());
            }
        }
        pass.wall_s = seconds(t0, Clock::now());
        return pass;
    }

    // Pool threads get span lanes 1..poolThreads in order of first use.
    std::mutex lane_mutex;
    std::map<std::thread::id, std::uint32_t> lanes;
    auto lane = [&] {
        std::lock_guard<std::mutex> lock(lane_mutex);
        return lanes.try_emplace(std::this_thread::get_id(),
                                 static_cast<std::uint32_t>(lanes.size() + 1))
            .first->second;
    };
    RunExecutor exec(poolThreads);
    const std::uint64_t batch = spans.open("api.pool_batch", first_id, 0);
    std::vector<RunExecutor::Task> tasks;
    for (std::size_t c = 0; c < n; ++c) {
        tasks.push_back([&, c] {
            return tracedRun(suite.cells[c], *pass.captures[c], spans,
                             first_id + c, batch, lane(), pass.run_s[c]);
        });
    }
    const auto t0 = Clock::now();
    std::vector<RunExecutor::Outcome> outcomes = exec.runTasks(tasks);
    pass.wall_s = seconds(t0, Clock::now());
    spans.close(batch);
    for (std::size_t c = 0; c < n; ++c) {
        if (outcomes[c].ok())
            pass.results[c] = std::move(outcomes[c].result);
        else
            report.fail(suite.cells[c].label + ": traced pool run threw");
    }
    return pass;
}

/** Untraced serial pass: the reference results and the host time. */
double
untracedPass(const Suite &suite, std::vector<RunResult> &results,
             Report &report)
{
    results.assign(suite.cells.size(), RunResult{});
    double total = 0.0;
    for (std::size_t c = 0; c < suite.cells.size(); ++c) {
        const Cell &cell = suite.cells[c];
        auto sources = makeSources(cell);
        Simulator sim(cell.config);
        ++report.attempted;
        const auto t0 = Clock::now();
        try {
            results[c] = runCell(sim, cell, std::move(sources));
        } catch (const std::exception &e) {
            report.fail(cell.label + ": " + e.what());
        }
        total += seconds(t0, Clock::now());
    }
    return total;
}

struct StoreCosts
{
    std::vector<double> publish_ms, load_ms;
    double codec_us = 0.0;
    double hit_ratio = 0.0;
};

/** Store publish/load/codec costs and a warm executor pass. */
StoreCosts
storeLayer(const Suite &suite, const std::vector<RunResult> &results,
           const std::string &dir, SpanLog &spans, std::uint64_t id,
           Report &report)
{
    StoreCosts out;
    std::filesystem::remove_all(dir);
    ResultStore store(dir);
    std::vector<RunJob> jobs;
    const std::uint64_t root = spans.open("bench.store", id, 0);
    for (std::size_t c = 0; c < suite.cells.size(); ++c) {
        const Cell &cell = suite.cells[c];
        const Source &s = cell.sources.front();
        jobs.push_back(RunJob{s.generator, cell.config, s.params});
        const std::string key = runJobKey(jobs.back());

        auto t0 = Clock::now();
        std::string payload;
        {
            ScopedSpan span(spans, "api.codec_encode", id, root);
            payload = encodeRunResult(results[c]);
        }
        RunResult decoded;
        bool decoded_ok = false;
        {
            ScopedSpan span(spans, "api.codec_decode", id, root);
            decoded_ok = decodeRunResult(payload, decoded);
        }
        auto t1 = Clock::now();
        out.codec_us += seconds(t0, t1) * 1e6;
        if (!decoded_ok || !sameResult(decoded, results[c]))
            report.fail(cell.label + ": codec round trip differs");

        {
            ScopedSpan span(spans, "api.store_publish", id, root);
            t0 = Clock::now();
            store.publish(key, payload);
            out.publish_ms.push_back(seconds(t0, Clock::now()) * 1e3);
        }
        {
            ScopedSpan span(spans, "api.store_load", id, root);
            t0 = Clock::now();
            std::optional<std::string> back = store.load(key);
            out.load_ms.push_back(seconds(t0, Clock::now()) * 1e3);
            if (!back || *back != payload)
                report.fail(cell.label + ": store load differs from publish");
        }
    }
    out.codec_us /= static_cast<double>(suite.cells.size());

    // A warm executor pass over the filled store must be all hits.
    const ResultStore::Counters before = store.counters();
    RunExecutor exec(poolThreads);
    exec.attachStore(&store);
    std::vector<RunResult> warm;
    {
        ScopedSpan span(spans, "api.warm_batch", id, root);
        warm = exec.runBatch(jobs);
    }
    exec.attachStore(nullptr);
    const ResultStore::Counters after = store.counters();
    const double hits = static_cast<double>(after.hits - before.hits);
    const double misses = static_cast<double>(after.misses - before.misses);
    out.hit_ratio = hits + misses > 0 ? hits / (hits + misses) : 0.0;
    for (std::size_t c = 0; c < warm.size(); ++c)
        if (!sameResult(warm[c], results[c]))
            report.fail(suite.cells[c].label +
                        ": warm-store result differs from the original");
    spans.close(root);
    std::filesystem::remove_all(dir);
    return out;
}

} // namespace

void
runTraced(const Suite &suite, const Options &opts, Report &report)
{
    Probe probe;
    probe.runMs();
    std::vector<double> probes;
    SpanLog spans;
    std::uint64_t next_id = 1;
    const std::size_t n = suite.cells.size();

    {
        ScopedSpan s(spans, "workloads.prepare", next_id++, 0);
        prepareInputs(suite, opts);
    }

    // workloads: generator build + drain, no simulation; the drained
    // lines feed the L1/L2 replays.
    std::vector<Source> generators;
    for (const Cell &cell : suite.cells)
        for (const Source &s : cell.sources) {
            Source g{s.generator, "", s.params};
            bool seen = false;
            for (const Source &k : generators)
                seen = seen || k.generator == g.generator;
            if (!seen)
                generators.push_back(g);
        }
    Cost gen;
    std::map<std::string, std::uint64_t> drained;
    Replays replays;
    const GpuConfig &gpu = suite.cells.front().config.gpu;
    for (const Source &g : generators) {
        const std::uint64_t id = next_id++;
        probes.push_back(probe.runMs());
        {
            ScopedSpan s(spans, "workloads.generate", id, 0);
            const auto t0 = Clock::now();
            auto wl = makeWorkload(g.generator, g.params);
            drained[g.generator] = drainCount(*wl);
            gen.seconds += seconds(t0, Clock::now());
            gen.ops += drained[g.generator];
        }
        auto wl = makeWorkload(g.generator, g.params);
        const auto lines = drainLines(*wl, gpu.l2_line_bytes);
        ScopedSpan s(spans, "gpu.cache_replay", id, 0);
        replayCaches(lines, gpu, replays);
    }

    // workloads: .uvmt decode through TraceSource.
    Cost decode;
    for (const Source &rec : suite.recordings) {
        ScopedSpan s(spans, "workloads.decode", next_id++, 0);
        const auto t0 = Clock::now();
        auto src = tracefmt::openUvmtTrace(rec.trace_path);
        tracefmt::TraceEvent ev;
        std::uint64_t records = 0;
        while (src->next(ev))
            ++records;
        decode.seconds += seconds(t0, Clock::now());
        decode.ops += records;
    }

    // Untraced then traced passes over the same cells; the first
    // traced pass also feeds the replays.  Pairs repeat while the
    // run's time lasts, for a steadier tracing-overhead figure.
    std::vector<RunResult> ref;
    double untraced_s = 0.0, traced_s = 0.0, run_s = 0.0;
    double busy_ratio = 0.0, idle_s = 0.0;
    std::vector<double> kernel_ms;
    std::uint64_t traced_events = 0;
    const auto start = Clock::now();
    for (int pair = 0; report.correct(); ++pair) {
        if (pair >= 1 && seconds(start, Clock::now()) * (pair + 1) / pair >
                             opts.run_seconds)
            break;
        probes.push_back(probe.runMs());
        std::vector<RunResult> plain;
        untraced_s += untracedPass(suite, plain, report);
        probes.push_back(probe.runMs());
        TracedPass pass = tracedPass(suite, spans, next_id, report);
        if (!report.correct())
            break;
        for (std::size_t c = 0; c < n; ++c) {
            if (!sameResult(pass.results[c], plain[c]))
                report.fail(suite.cells[c].label +
                            (suite.pooled ? ": traced jobs=2 result differs "
                                            "from the untraced serial run"
                                          : ": traced result differs from "
                                            "the untraced run"));
            if (pair > 0 && !sameResult(plain[c], ref[c]))
                report.fail(suite.cells[c].label +
                            ": result differs between repeats");
        }
        double cell_sum = 0.0;
        for (double s : pass.run_s)
            cell_sum += s;
        traced_s += cell_sum;
        if (pair > 0)
            continue;
        ref = plain;
        run_s = cell_sum;
        // The GPU issues exactly the accesses the generators drain.
        for (std::size_t c = 0; c < n; ++c) {
            std::uint64_t want = 0;
            for (const Source &src : suite.cells[c].sources)
                want += drained[src.generator];
            if (accessesIssued(plain[c]) != static_cast<double>(want))
                report.fail(suite.cells[c].label + ": GPU issued " +
                            std::to_string(accessesIssued(plain[c])) +
                            " accesses, generators drained " +
                            std::to_string(want));
        }
        if (suite.pooled) {
            const double capacity = poolThreads * pass.wall_s;
            busy_ratio = cell_sum / capacity;
            idle_s = capacity - cell_sum;
        }
        for (std::size_t c = 0; c < n; ++c) {
            const Capture &cap = *pass.captures[c];
            traced_events += cap.events;
            kernel_ms.insert(kernel_ms.end(), cap.kernel_host_ms.begin(),
                             cap.kernel_host_ms.end());
            replayCell(suite.cells[c], pass.results[c], cap, spans,
                       pass.first_id + c, replays, report);
            pass.captures[c].reset();
        }
    }
    if (!report.correct())
        return;

    StoreCosts store;
    if (suite.pooled)
        store = storeLayer(suite, ref, opts.work_dir + "/store", spans,
                           next_id++, report);

    // Counts: exact, summed over the suite's cells.
    double acc = 0, l1h = 0, l1m = 0, l2h = 0, l2m = 0, tlbh = 0, tlbm = 0,
           walks = 0, faults = 0, migrated = 0, prefetched = 0, evicted = 0,
           thrashed = 0, cross = 0, h2d = 0, d2h = 0, xfers = 0, sim_ms = 0;
    for (const RunResult &r : ref) {
        acc += accessesIssued(r);
        l1h += sumIndexed(r, "sm", ".l1.hits");
        l1m += sumIndexed(r, "sm", ".l1.misses");
        l2h += r.stat("l2.hits");
        l2m += r.stat("l2.misses");
        tlbh += sumIndexed(r, "sm", ".tlb.hits");
        tlbm += sumIndexed(r, "sm", ".tlb.misses");
        walks += r.stat("gmmu.page_walks");
        faults += r.farFaults();
        migrated += r.pagesMigrated();
        prefetched += r.stat("gmmu.pages_prefetched");
        evicted += r.pagesEvicted();
        thrashed += r.pagesThrashed();
        cross += sumIndexed(r, "tenant", ".pages_evicted_cross");
        h2d += r.stat("pcie.h2d.bytes");
        d2h += r.stat("pcie.d2h.bytes");
        xfers += r.stat("pcie.h2d.transfers") + r.stat("pcie.d2h.transfers");
        sim_ms += r.kernelTimeMs();
    }
    auto ratio = [](double a, double b) { return b > 0 ? a / b : 0.0; };

    report.set("workloads.gen_s", gen.seconds, "s");
    report.set("workloads.accesses", gen.ops, "count");
    report.set("workloads.ns_per_access", gen.nsPerOp(), "ns");
    report.set("workloads.decode_s", decode.seconds, "s");
    report.set("workloads.decode_mrec_per_s",
               decode.seconds > 0 ? decode.ops / decode.seconds / 1e6 : 0.0,
               "M/s");
    report.set("gpu.accesses_issued", acc, "count");
    report.set("gpu.l1_hit_ratio", ratio(l1h, l1h + l1m), "ratio");
    report.set("gpu.l2_probes", l2h + l2m, "count");
    report.set("gpu.l2_hit_ratio", ratio(l2h, l2h + l2m), "ratio");
    report.set("gpu.l1_ns_per_probe", replays.l1.nsPerOp(), "ns");
    report.set("gpu.l2_ns_per_probe", replays.l2.nsPerOp(), "ns");
    report.set("gpu.kernel_host_ms_p50", median(kernel_ms), "ms");
    report.set("mem.tlb_probes", tlbh + tlbm, "count");
    report.set("mem.tlb_miss_ratio", ratio(tlbm, tlbh + tlbm), "ratio");
    report.set("mem.page_walks", walks, "count");
    report.set("mem.tlb_ns_per_probe", replays.tlb.nsPerOp(), "ns");
    report.set("core.far_faults", faults, "count");
    report.set("core.pages_migrated", migrated, "count");
    report.set("core.pages_prefetched", prefetched, "count");
    report.set("core.pages_evicted", evicted, "count");
    report.set("core.thrash_ratio", ratio(thrashed, migrated), "ratio");
    report.set("core.cross_tenant_evictions", cross, "count");
    report.set("core.residency_ns_per_op", replays.residency.nsPerOp(), "ns");
    report.set("core.tree_ns_per_op", replays.tree.nsPerOp(), "ns");
    report.set("interconnect.h2d_mib", h2d / (1 << 20), "MiB");
    report.set("interconnect.d2h_mib", d2h / (1 << 20), "MiB");
    report.set("interconnect.transfers", xfers, "count");
    report.set("interconnect.pcie_ns_per_transfer", replays.pcie.nsPerOp(),
               "ns");
    report.set("sim.kernel_ms", sim_ms, "ms");
    report.set("sim.traced_events", static_cast<double>(traced_events),
               "count");
    report.set("sim.event_queue_ns_per_event", replays.queue.nsPerOp(), "ns");
    report.set("sim.trace_overhead_pct",
               ratio(traced_s - untraced_s, untraced_s) * 100.0, "%");
    report.set("api.run_s", run_s, "s");
    report.set("api.executor_busy_ratio", busy_ratio, "ratio");
    report.set("api.executor_idle_s", idle_s, "s");
    report.set("api.store_publish_ms_p50", median(store.publish_ms), "ms");
    report.set("api.store_load_ms_p50", median(store.load_ms), "ms");
    report.set("api.store_hit_ratio", store.hit_ratio, "ratio");
    report.set("api.codec_us_per_result", store.codec_us, "us");
    report.set("host.probe_ms", median(probes), "ms");

    // Spans: Chrome trace_event JSON and the self-time table.
    std::filesystem::create_directories(opts.span_dir);
    const std::string base = opts.span_dir + "/" + suite.name;
    if (!spans.writeChromeJson(base + ".trace.json"))
        report.errors.push_back("cannot write " + base + ".trace.json");
    const std::string table = spans.selfTimeTable();
    std::ofstream(base + ".selftime.txt") << table;
    std::printf("# spans: %zu written to %s.trace.json\n", spans.size(),
                base.c_str());
    std::printf("# self time by span (ms):\n");
    std::size_t pos = 0;
    while (pos < table.size()) {
        const std::size_t nl = table.find('\n', pos);
        std::printf("#   %s\n", table.substr(pos, nl - pos).c_str());
        pos = nl == std::string::npos ? table.size() : nl + 1;
    }
}

} // namespace uvmbench
