/**
 * @file
 * Fixture-tree tests for the uvmsim_lint checks.  Each test seeds one
 * violation class into a throwaway tree and asserts the check reports
 * it -- and nothing else -- then the self-test runs every check over
 * the real source tree and requires zero findings.
 *
 * Banned-construct fixture content is assembled from adjacent string
 * fragments so this file itself lints clean under its own rules.
 */

#include <filesystem>
#include <fstream>
#include <set>
#include <sstream>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "lint.hh"

namespace fs = std::filesystem;

namespace uvmsim::lint
{
namespace
{

class LintFixture : public ::testing::Test
{
  protected:
    void
    SetUp() override
    {
        const ::testing::TestInfo *info =
            ::testing::UnitTest::GetInstance()->current_test_info();
        root_ = fs::path(::testing::TempDir()) /
                (std::string("uvmsim_lint_") + info->name());
        fs::remove_all(root_);
        fs::create_directories(root_);
    }

    void TearDown() override { fs::remove_all(root_); }

    void
    write(const std::string &rel, const std::string &text)
    {
        fs::path path = root_ / rel;
        fs::create_directories(path.parent_path());
        std::ofstream out(path, std::ios::binary);
        ASSERT_TRUE(out) << "cannot write fixture " << path;
        out << text;
    }

    std::string
    read(const std::string &rel) const
    {
        std::ifstream in(root_ / rel, std::ios::binary);
        std::ostringstream out;
        out << in.rdbuf();
        return out.str();
    }

    std::string rootStr() const { return root_.string(); }

    fs::path root_;
};

/** Findings whose message contains the needle. */
std::size_t
countMessages(const std::vector<Finding> &findings,
              const std::string &needle)
{
    std::size_t n = 0;
    for (const Finding &f : findings)
        if (f.message.find(needle) != std::string::npos)
            ++n;
    return n;
}

std::string
render(const std::vector<Finding> &findings)
{
    std::ostringstream out;
    for (const Finding &f : findings)
        out << f.file << ":" << f.line << " [" << f.check << "] "
            << f.message << "\n";
    return out.str();
}

TEST(LintChecks, CheckNamesAreStable)
{
    const std::vector<std::string> expected = {
        "flags",  "stats",      "trace",    "determinism", "headers",
        "jobkey", "forksafety", "lifetime", "layering"};
    EXPECT_EQ(allCheckNames(), expected);
}

// ------------------------------------------------------------- flags

TEST_F(LintFixture, FlagsChecksAllFourDirections)
{
    write("tools/mytool.cc",
          "// usage: --alpha --gamma\n"
          "int main() {\n"
          "    opts.get(\"alpha\");\n"
          "    opts.getBool(\"beta\");\n"
          "}\n");
    write("README.md", "Use `--alpha` to do the thing.\n");
    write("CMakeLists.txt",
          "add_test(NAME t COMMAND mytool --alpha)\n");

    std::vector<Finding> f = checkFlags(rootStr());
    EXPECT_EQ(countMessages(f, "--beta is consumed but missing"), 1u)
        << render(f);
    EXPECT_EQ(countMessages(f, "--beta is not documented"), 1u);
    EXPECT_EQ(countMessages(f, "--beta is not referenced by any test"),
              1u);
    EXPECT_EQ(countMessages(f, "--gamma appears in usage"), 1u);
    EXPECT_EQ(countMessages(f, "--alpha"), 0u);
    EXPECT_EQ(f.size(), 4u) << render(f);
}

TEST_F(LintFixture, FlagsStaleDocExample)
{
    write("tools/mytool.cc",
          "// reads --alpha\n"
          "int main() { opts.get(\"alpha\"); }\n");
    write("README.md",
          "Run it like:\n\n    uvmsim_run --alpha --vanished\n");
    write("CMakeLists.txt",
          "add_test(NAME t COMMAND mytool --alpha)\n");

    std::vector<Finding> f = checkFlags(rootStr());
    EXPECT_EQ(countMessages(f, "--vanished is not consumed"), 1u)
        << render(f);
    EXPECT_EQ(f.size(), 1u) << render(f);
}

TEST_F(LintFixture, FlagsBenchHarnessNeedsDocsOnly)
{
    write("bench/mybench.cc",
          "int main() { opts.getUint(\"samples\"); }\n");

    std::vector<Finding> f = checkFlags(rootStr());
    EXPECT_EQ(countMessages(f, "--samples is not documented"), 1u)
        << render(f);
    EXPECT_EQ(f.size(), 1u) << render(f);
}

// ------------------------------------------------------------- stats

TEST_F(LintFixture, StatsDiffsBothDirections)
{
    write("docs/STATS.md",
          "# stats\n"
          "| `a.b` | documented and registered |\n"
          "| `x.y` | documented but gone |\n"
          "| `p.q.r/s` | slash shorthand |\n"
          "| `gmmu.*` | wildcard section header |\n");
    const std::set<std::string> registered = {"a.b", "c.d", "p.q.r",
                                              "p.q.s"};

    std::vector<Finding> f = checkStats(rootStr(), registered);
    EXPECT_EQ(countMessages(f, "'c.d' is not documented"), 1u)
        << render(f);
    EXPECT_EQ(countMessages(f, "'x.y' is not registered"), 1u);
    EXPECT_EQ(f.size(), 2u) << render(f);
}

TEST_F(LintFixture, StatsMissingDocIsOneFinding)
{
    std::vector<Finding> f = checkStats(rootStr(), {"a.b"});
    ASSERT_EQ(f.size(), 1u);
    EXPECT_NE(f[0].message.find("missing or empty"),
              std::string::npos);
}

// ------------------------------------------------------------- trace

TEST_F(LintFixture, TraceFindsEveryDriftKind)
{
    write("src/sim/trace.hh",
          "enum class Category : unsigned {\n"
          "    fault = 1u << 0,\n"
          "    prefetch = 1u << 1,\n"
          "};\n"
          "constexpr unsigned allCategories = 0x1;\n");
    write("src/sim/trace.cc",
          "static const Entry categoryTable[] = {\n"
          "    {\"fault\", Category::fault},\n"
          "    {\"evict\", Category::eviction},\n"
          "};\n");
    write("README.md", "trace categories: fault\n");

    std::vector<Finding> f = checkTrace(rootStr());
    EXPECT_EQ(countMessages(f, "Category::prefetch is not handled"),
              1u)
        << render(f);
    EXPECT_EQ(countMessages(f, "\"evict\" which is not a Category"),
              1u);
    EXPECT_EQ(countMessages(f, "allCategories is 0x1"), 1u);
    EXPECT_EQ(countMessages(f, "'prefetch' is not mentioned"), 1u);
    EXPECT_EQ(f.size(), 4u) << render(f);
}

TEST_F(LintFixture, TraceTableNameMismatch)
{
    write("src/sim/trace.hh",
          "enum class Category : unsigned {\n"
          "    fault = 1u << 0,\n"
          "};\n"
          "constexpr unsigned allCategories = 0x1;\n");
    write("src/sim/trace.cc",
          "static const Entry categoryTable[] = {\n"
          "    {\"fault\", Category::kernel},\n"
          "};\n");
    write("README.md", "trace categories: fault\n");

    std::vector<Finding> f = checkTrace(rootStr());
    EXPECT_EQ(countMessages(f, "name mismatch"), 1u) << render(f);
    EXPECT_EQ(f.size(), 1u) << render(f);
}

TEST_F(LintFixture, TraceCleanFixturePasses)
{
    write("src/sim/trace.hh",
          "enum class Category : unsigned {\n"
          "    fault = 1u << 0,\n"
          "    prefetch = 1u << 1,\n"
          "};\n"
          "constexpr unsigned allCategories = 0x3;\n");
    write("src/sim/trace.cc",
          "static const Entry categoryTable[] = {\n"
          "    {\"fault\", Category::fault},\n"
          "    {\"prefetch\", Category::prefetch},\n"
          "};\n");
    write("README.md", "trace categories: fault, prefetch\n");

    std::vector<Finding> f = checkTrace(rootStr());
    EXPECT_TRUE(f.empty()) << render(f);
}

// ------------------------------------------------------- determinism

/** The new-model checks share one fixture-tree model build. */
std::vector<Finding>
runDeterminism(const std::string &root, bool fix = false)
{
    const cxx::Model model = buildRepoModel(root);
    return checkDeterminism(root, model, fix);
}

TEST_F(LintFixture, DeterminismBansWaiversAndAllowlist)
{
    // Banned names can be spelled plainly here: the token model never
    // looks inside this file's string literals.
    write("src/foo.cc",
          "int a = rand(42);\n"
          "std::mt19937 gen;\n"
          "std::random_device rd;\n"
          "long t = time(NULL);\n"
          "gettimeofday(&tv, 0);\n"
          "long c = clock();\n"
          "auto n = std::chrono::steady_clock::now();\n");
    write("tools/waived.cc",
          "int w = rand(1); // lint:allow(det)\n"
          "// lint:allow(determinism)\n"
          "int v = rand(2);\n");
    // The RNG implementation is the sanctioned home of randomness.
    write("src/sim/rng.hh", "#pragma once\nint seed = rand(7);\n");

    std::vector<Finding> f = runDeterminism(rootStr());
    // steady_clock and its ::now() are two findings on one line.
    EXPECT_EQ(f.size(), 8u) << render(f);
    for (const Finding &finding : f)
        EXPECT_EQ(finding.file, "src/foo.cc");
    EXPECT_EQ(countMessages(f, "uvmsim::Rng"), 3u) << render(f);
}

TEST_F(LintFixture, DeterminismIgnoresLookalikesCommentsAndStrings)
{
    write("src/ok.cc",
          "// a comment may say time(NULL) or rand() freely\n"
          "const char *msg = \"calling rand() or time(NULL) is "
          "banned\";\n"
          "int lifetime(int strand);\n"
          "auto t = sim.time();\n"
          "double uptime = lifetime(2);\n"
          "int clock_domains = 3;\n");
    std::vector<Finding> f = runDeterminism(rootStr());
    EXPECT_TRUE(f.empty()) << render(f);
}

TEST_F(LintFixture, DeterminismUnorderedIterationOnEmissionPath)
{
    write("src/analysis/report.cc",
          "#include <unordered_map>\n"
          "struct Reporter {\n"
          "    std::unordered_map<int, long> counts;\n"
          "    void walk() {\n"
          "        for (const auto &kv : counts)\n"
          "            consume(kv);\n"
          "    }\n"
          "    void dumpCsv() { walk(); }\n"
          "};\n");
    std::vector<Finding> f = runDeterminism(rootStr());
    EXPECT_EQ(countMessages(f, "unordered container 'counts'"), 1u)
        << render(f);
    EXPECT_EQ(f.size(), 1u) << render(f);
}

TEST_F(LintFixture, DeterminismUnorderedIterationSuppressions)
{
    // Same loop shape three ways: unreachable from any emission path,
    // the collect-then-sort snapshot idiom, and an explicit waiver.
    write("src/core/engine.cc",
          "#include <unordered_map>\n"
          "struct Engine {\n"
          "    std::unordered_map<int, long> counts;\n"
          "    void tick() {\n"
          "        for (const auto &kv : counts)\n"
          "            consume(kv);\n"
          "    }\n"
          "    void dumpSorted() {\n"
          "        std::vector<int> keys;\n"
          "        for (const auto &kv : counts)\n"
          "            keys.push_back(kv.first);\n"
          "        std::sort(keys.begin(), keys.end());\n"
          "        render(keys);\n"
          "    }\n"
          "    long dumpTally() {\n"
          "        long n = 0;\n"
          "        // lint:allow(det): order-free tally\n"
          "        for (const auto &kv : counts)\n"
          "            n += 1;\n"
          "        return n;\n"
          "    }\n"
          "};\n");
    std::vector<Finding> f = runDeterminism(rootStr());
    EXPECT_TRUE(f.empty()) << render(f);
}

TEST_F(LintFixture, DeterminismPointerKeyedOrderedContainer)
{
    write("src/core/table.hh",
          "#pragma once\n"
          "#include <map>\n"
          "struct Page;\n"
          "struct Table {\n"
          "    std::map<Page *, int> by_page;\n"
          "    std::map<int, int> by_id;\n"
          "    // lint:allow(det): diagnostics only, never emitted\n"
          "    std::map<Page *, int> debug_ptrs;\n"
          "};\n");
    std::vector<Finding> f = runDeterminism(rootStr());
    EXPECT_EQ(countMessages(f, "keyed by a pointer"), 1u) << render(f);
    EXPECT_EQ(f.size(), 1u) << render(f);
    EXPECT_EQ(f[0].line, 5u);
}

TEST_F(LintFixture, DeterminismFloatAccumulationAcrossUnorderedLoop)
{
    write("src/core/avg.cc",
          "#include <unordered_map>\n"
          "std::unordered_map<int, double> samples;\n"
          "double mean() {\n"
          "    double total = 0.0;\n"
          "    for (const auto &kv : samples)\n"
          "        total += kv.second;\n"
          "    return total;\n"
          "}\n"
          "long sampleCount() {\n"
          "    long n = 0;\n"
          "    for (const auto &kv : samples)\n"
          "        n += 1;\n"
          "    return n;\n"
          "}\n");
    std::vector<Finding> f = runDeterminism(rootStr());
    EXPECT_EQ(countMessages(f, "floating-point accumulation"), 1u)
        << render(f);
    EXPECT_EQ(f.size(), 1u) << render(f);
}

TEST_F(LintFixture, DeterminismFixRewritesToSortedSnapshot)
{
    write("src/core/hist.cc",
          "#include <unordered_map>\n"
          "std::unordered_map<int, long> histo;\n"
          "void dumpHisto() {\n"
          "    for (const auto &[key, val] : histo) {\n"
          "        printRow(key, val);\n"
          "    }\n"
          "}\n");
    std::vector<Finding> f = runDeterminism(rootStr(), true);
    EXPECT_TRUE(f.empty()) << render(f);

    const std::string text = read("src/core/hist.cc");
    EXPECT_NE(text.find("histo_sorted_keys"), std::string::npos)
        << text;
    EXPECT_NE(text.find("std::sort(histo_sorted_keys"),
              std::string::npos)
        << text;
    EXPECT_NE(text.find("histo.at(key)"), std::string::npos) << text;

    // The rewritten tree is clean without --fix.
    EXPECT_TRUE(runDeterminism(rootStr()).empty());
}

TEST_F(LintFixture, DeterminismFixInsertsWaiverForBenignAggregation)
{
    write("src/core/tally.cc",
          "#include <unordered_map>\n"
          "std::unordered_map<int, int> tally;\n"
          "long dumpCount() {\n"
          "    long n = 0;\n"
          "    for (const auto &kv : tally)\n"
          "        n += 1;\n"
          "    return n;\n"
          "}\n");
    std::vector<Finding> f = runDeterminism(rootStr(), true);
    EXPECT_TRUE(f.empty()) << render(f);

    const std::string text = read("src/core/tally.cc");
    EXPECT_NE(text.find("lint:allow(det) TODO"), std::string::npos)
        << text;
    EXPECT_TRUE(runDeterminism(rootStr()).empty());
}

// -------------------------------------------------------- forksafety

TEST_F(LintFixture, ForkSafetyFlagsUnflushedUnterminatedChild)
{
    write("src/spawn.cc",
          "int spawnWorker() {\n"
          "    pid_t pid = fork();\n"
          "    if (pid == 0) {\n"
          "        computeStuff();\n"
          "    }\n"
          "    return 0;\n"
          "}\n");
    std::vector<Finding> f = checkForkSafety(buildRepoModel(rootStr()));
    EXPECT_EQ(countMessages(f, "without flushing stdio"), 1u)
        << render(f);
    EXPECT_EQ(countMessages(f, "neither repo-defined nor"), 1u);
    EXPECT_EQ(countMessages(f, "no _Exit/_exit termination"), 1u);
    EXPECT_EQ(f.size(), 3u) << render(f);
}

TEST_F(LintFixture, ForkSafetyCleanForkPasses)
{
    write("src/spawn.cc",
          "void workerBody() { computeStuff(); }\n"
          "int spawnWorker() {\n"
          "    unsigned n = std::thread::hardware_concurrency();\n"
          "    fflush(stdout);\n"
          "    pid_t pid = fork();\n"
          "    if (pid == 0) {\n"
          "        workerBody();\n"
          "        _Exit(0);\n"
          "    }\n"
          "    return 0;\n"
          "}\n");
    std::vector<Finding> f = checkForkSafety(buildRepoModel(rootStr()));
    EXPECT_TRUE(f.empty()) << render(f);
}

TEST_F(LintFixture, ForkSafetyFlagsThreadPoolBeforeFork)
{
    write("src/spawn.cc",
          "int spawnWorker() {\n"
          "    std::thread pump(pumpLoop);\n"
          "    fflush(stdout);\n"
          "    pid_t pid = fork();\n"
          "    if (pid == 0)\n"
          "        _Exit(0);\n"
          "    return 0;\n"
          "}\n");
    std::vector<Finding> f = checkForkSafety(buildRepoModel(rootStr()));
    EXPECT_EQ(countMessages(f, "constructed before fork()"), 1u)
        << render(f);
    EXPECT_EQ(f.size(), 1u) << render(f);
}

TEST_F(LintFixture, ForkSafetyFlagsTransitiveExit)
{
    write("src/spawn.cc",
          "void dieHard() { exit(3); }\n"
          "void workerBody() { dieHard(); }\n"
          "int spawnWorker() {\n"
          "    fflush(stdout);\n"
          "    pid_t pid = fork();\n"
          "    if (pid == 0) {\n"
          "        workerBody();\n"
          "        _Exit(0);\n"
          "    }\n"
          "    return 0;\n"
          "}\n");
    std::vector<Finding> f = checkForkSafety(buildRepoModel(rootStr()));
    EXPECT_EQ(countMessages(f, "must die through _Exit"), 1u)
        << render(f);
    EXPECT_EQ(f.size(), 1u) << render(f);
}

TEST_F(LintFixture, ForkSafetyForkAwareExitAndRngForkAreClean)
{
    // fatal()-style fork-aware termination: a reachable function may
    // say exit() when it guards its own _Exit path.
    write("src/spawn.cc",
          "void die() {\n"
          "    if (inChild())\n"
          "        _Exit(1);\n"
          "    exit(1);\n"
          "}\n"
          "int spawnWorker() {\n"
          "    fflush(stdout);\n"
          "    pid_t pid = fork();\n"
          "    if (pid == 0) {\n"
          "        die();\n"
          "        _Exit(0);\n"
          "    }\n"
          "    return 0;\n"
          "}\n");
    // Rng::fork() is the repo's RNG stream splitter, not a process
    // fork, in every spelling.
    write("src/core/rsplit.cc",
          "struct Rng { Rng fork(); };\n"
          "Rng Rng::fork() { return Rng(); }\n"
          "void splitStreams(Rng &parent) {\n"
          "    Rng child = parent.fork();\n"
          "}\n");
    std::vector<Finding> f = checkForkSafety(buildRepoModel(rootStr()));
    EXPECT_TRUE(f.empty()) << render(f);
}

TEST_F(LintFixture, ForkSafetyWaiverSilencesTheSite)
{
    write("src/spawn.cc",
          "int spawnRaw() {\n"
          "    // lint:allow(forksafety): exec follows immediately\n"
          "    pid_t pid = fork();\n"
          "    return pid;\n"
          "}\n");
    std::vector<Finding> f = checkForkSafety(buildRepoModel(rootStr()));
    EXPECT_TRUE(f.empty()) << render(f);
}

// ---------------------------------------------------------- lifetime

TEST_F(LintFixture, LifetimeFlagsStackAddressIntoScheduler)
{
    write("src/dev.cc",
          "void armTimer(EventQueue &eq) {\n"
          "    int count = 0;\n"
          "    eq.scheduleCall(10, onFire, &count);\n"
          "    eq.scheduleCall(20, onFire, &config_);\n"
          "    eq.scheduleCall(30, onFire, this);\n"
          "}\n");
    std::vector<Finding> f = checkLifetime(buildRepoModel(rootStr()));
    EXPECT_EQ(countMessages(f, "stack local 'count'"), 1u)
        << render(f);
    EXPECT_EQ(f.size(), 1u) << render(f);
}

TEST_F(LintFixture, LifetimeFlagsStackAddressIntoReservedSeq)
{
    write("src/dev.cc",
          "void armReserved(EventQueue &eq, std::uint64_t seq) {\n"
          "    int count = 0;\n"
          "    eq.scheduleReserved(10, seq, onFire, &count, 0);\n"
          "    eq.scheduleReserved(20, seq, onFire, &config_, 0);\n"
          "    eq.scheduleReserved(30, seq, onFire, this, 0);\n"
          "}\n");
    std::vector<Finding> f = checkLifetime(buildRepoModel(rootStr()));
    EXPECT_EQ(countMessages(f, "'scheduleReserved' captures the address "
                               "of stack local 'count'"),
              1u)
        << render(f);
    EXPECT_EQ(f.size(), 1u) << render(f);
}

TEST_F(LintFixture, LifetimeFlagsStackAddressIntoTranslateContinuation)
{
    write("src/dev.cc",
          "void park(Gmmu &gmmu, const MemAccess &m) {\n"
          "    Slot slot = {};\n"
          "    gmmu.translate(m, {&onWalked, &slot, 0});\n"
          "    gmmu.translate(m, {&Sm::walkedThunk, this, 7});\n"
          "    gmmu.translate(m, {&onWalked, &pool_, 1});\n"
          "}\n");
    std::vector<Finding> f = checkLifetime(buildRepoModel(rootStr()));
    EXPECT_EQ(countMessages(f, "'translate' captures the address of "
                               "stack local 'slot'"),
              1u)
        << render(f);
    EXPECT_EQ(f.size(), 1u) << render(f);
}

TEST_F(LintFixture, LifetimeFlagsRefCaptureIntoScheduler)
{
    write("src/dev.cc",
          "void armLambda(EventQueue &eq) {\n"
          "    int hits = 0;\n"
          "    eq.schedule(10, [&] { ++hits; });\n"
          "    eq.schedule(20, [this] { tick(); });\n"
          "    eq.schedule(30, [hits] { consume(hits); });\n"
          "}\n");
    std::vector<Finding> f = checkLifetime(buildRepoModel(rootStr()));
    EXPECT_EQ(countMessages(f, "by-reference lambda capture"), 1u)
        << render(f);
    EXPECT_EQ(f.size(), 1u) << render(f);
}

TEST_F(LintFixture, LifetimeSameFrameDrainSuppressesCaptures)
{
    // The dominant test idiom: schedule with by-ref captures (or a
    // stack address), then drain the queue before the frame returns.
    // Nothing outlives the frame, so neither rule may fire.
    write("src/dev.cc",
          "void drained(EventQueue &eq) {\n"
          "    int hits = 0;\n"
          "    eq.schedule(10, [&] { ++hits; });\n"
          "    int count = 0;\n"
          "    eq.scheduleCall(20, &count);\n"
          "    eq.run();\n"
          "}\n"
          "void notDrained(EventQueue &eq) {\n"
          "    int hits = 0;\n"
          "    eq.schedule(10, [&] { ++hits; });\n"
          "}\n");
    std::vector<Finding> f = checkLifetime(buildRepoModel(rootStr()));
    EXPECT_EQ(f.size(), 1u) << render(f);
    EXPECT_EQ(countMessages(f, "by-reference lambda capture"), 1u)
        << render(f);
}

TEST_F(LintFixture, LifetimeFlagsEventIdUseAfterDeschedule)
{
    write("src/dev.cc",
          "void cancelAndReuse(EventQueue &eq, EventId id) {\n"
          "    eq.deschedule(id);\n"
          "    eq.reschedule(id, 5);\n"
          "}\n"
          "void safeUses(EventQueue &eq, EventId id, EventId other) {\n"
          "    eq.deschedule(id);\n"
          "    if (id == other)\n"
          "        return;\n"
          "    eq.deschedule(id);\n"
          "    id = invalidEventId;\n"
          "    eq.reschedule(id, 5);\n"
          "}\n"
          "void waivedUse(EventQueue &eq, EventId id) {\n"
          "    eq.deschedule(id);\n"
          "    // lint:allow(lifetime): stale-handle probing test\n"
          "    eq.reschedule(id, 5);\n"
          "}\n");
    std::vector<Finding> f = checkLifetime(buildRepoModel(rootStr()));
    EXPECT_EQ(countMessages(f, "'id' used after deschedule"), 1u)
        << render(f);
    EXPECT_EQ(f.size(), 1u) << render(f);
    EXPECT_EQ(f[0].line, 3u);
}

// ---------------------------------------------------------- layering

TEST_F(LintFixture, LayeringEnforcesDesignBlock)
{
    write("DESIGN.md", "# design\n"
                       "```lint-layers\n"
                       "sim:\n"
                       "mem: sim\n"
                       "tools: *\n"
                       "```\n");
    write("src/sim/bad.hh", "#pragma once\n"
                            "#include \"mem/types.hh\"\n");
    write("src/mem/ok.hh", "#pragma once\n"
                           "#include \"sim/ticks.hh\"\n");
    write("src/sim/sys.hh", "#pragma once\n"
                            "#include <vector>\n");
    write("tools/anything.cc", "#include \"mem/types.hh\"\n");
    std::vector<Finding> f =
        checkLayering(rootStr(), buildRepoModel(rootStr()));
    EXPECT_EQ(countMessages(f, "layer 'sim' must not include"), 1u)
        << render(f);
    EXPECT_EQ(f.size(), 1u) << render(f);
    EXPECT_EQ(f[0].file, "src/sim/bad.hh");
}

TEST_F(LintFixture, LayeringWaiverAndMissingBlock)
{
    std::vector<Finding> f =
        checkLayering(rootStr(), buildRepoModel(rootStr()));
    EXPECT_EQ(countMessages(f, "no ```lint-layers block"), 1u)
        << render(f);

    write("DESIGN.md", "```lint-layers\nsim:\nmem: sim\n```\n");
    write("src/sim/waived.hh",
          "#pragma once\n"
          "// lint:allow(layering): transitional edge, see DESIGN.md\n"
          "#include \"mem/types.hh\"\n");
    f = checkLayering(rootStr(), buildRepoModel(rootStr()));
    EXPECT_TRUE(f.empty()) << render(f);
}

// ----------------------------------------------------------- headers

TEST_F(LintFixture, HeadersFlagsGuardsAndUsing)
{
    write("src/legacy.hh", "#ifndef LEGACY_HH\n"
                           "#define LEGACY_HH\n"
                           "int f();\n"
                           "#endif // LEGACY_HH\n");
    write("src/naked.hh", "int g();\n");
    write("src/using.hh", "#pragma once\n"
                          "using namespace std;\n");
    write("src/clean.hh", "#pragma once\n"
                          "int h();\n");

    std::vector<Finding> f = checkHeaders(rootStr(), false);
    EXPECT_EQ(countMessages(f, "legacy #ifndef"), 1u) << render(f);
    EXPECT_EQ(countMessages(f, "no include guard"), 1u);
    EXPECT_EQ(countMessages(f, "using-namespace"), 1u);
    EXPECT_EQ(f.size(), 3u) << render(f);
}

TEST_F(LintFixture, HeadersFixConvertsLegacyGuard)
{
    write("src/legacy.hh", "/** doc */\n"
                           "#ifndef LEGACY_HH\n"
                           "#define LEGACY_HH\n"
                           "\n"
                           "int f();\n"
                           "\n"
                           "#endif // LEGACY_HH\n");

    std::vector<Finding> f = checkHeaders(rootStr(), true);
    EXPECT_TRUE(f.empty()) << render(f);

    const std::string text = read("src/legacy.hh");
    EXPECT_NE(text.find("#pragma once"), std::string::npos) << text;
    EXPECT_EQ(text.find("#ifndef"), std::string::npos) << text;
    EXPECT_EQ(text.find("#endif"), std::string::npos) << text;
    EXPECT_NE(text.find("/** doc */"), std::string::npos) << text;
    EXPECT_NE(text.find("int f();"), std::string::npos) << text;

    // Idempotent: the converted header is clean.
    EXPECT_TRUE(checkHeaders(rootStr(), false).empty());
}

TEST_F(LintFixture, HeadersFixLeavesConditionalIfndefAlone)
{
    // An #ifndef that is not an include guard (no matching #define
    // next) must not be rewritten.
    write("src/cond.hh", "#ifndef NDEBUG\n"
                         "void check();\n"
                         "#endif\n");

    std::vector<Finding> f = checkHeaders(rootStr(), true);
    EXPECT_EQ(f.size(), 1u) << render(f);
    EXPECT_NE(read("src/cond.hh").find("#ifndef NDEBUG"),
              std::string::npos);
}

// ------------------------------------------------------------- jobkey

TEST_F(LintFixture, JobKeyFlagsUnserializedField)
{
    write("src/api/simulator.hh",
          "#pragma once\n"
          "struct SimConfig\n{\n"
          "    GpuConfig gpu;\n"
          "    double oversubscription_percent = 0.0; // swept\n"
          "    bool audit = false;\n"
          "};\n");
    write("src/gpu/gpu_config.hh",
          "#pragma once\n"
          "struct GpuConfig\n{\n"
          "    std::uint32_t num_sms = 28;\n"
          "    Tick corePeriod() const { return period(core_mhz); }\n"
          "};\n");
    write("src/workloads/workload.hh",
          "#pragma once\n"
          "struct WorkloadParams\n{\n"
          "    double size_scale = 1.0;\n"
          "};\n");
    // The key serializes everything except SimConfig::audit.
    write("src/api/run_executor.cc",
          "std::string runJobKey(const RunJob &job) {\n"
          "    const GpuConfig &g = job.config.gpu;\n"
          "    appendUint(key, g.num_sms);\n"
          "    appendDouble(key, c.oversubscription_percent);\n"
          "    appendDouble(key, p.size_scale);\n"
          "    return key;\n"
          "}\n");

    std::vector<Finding> f = checkJobKey(rootStr());
    EXPECT_EQ(countMessages(f, "SimConfig::audit"), 1u) << render(f);
    EXPECT_EQ(f.size(), 1u) << render(f);
}

TEST_F(LintFixture, JobKeyCleanFixturePasses)
{
    write("src/api/simulator.hh",
          "#pragma once\n"
          "struct SimConfig\n{\n"
          "    GpuConfig gpu;\n"
          "    /* block comment field_in_comment; */\n"
          "    bool audit = false;\n"
          "};\n");
    write("src/gpu/gpu_config.hh",
          "#pragma once\nstruct GpuConfig\n{\n"
          "    std::uint32_t num_sms = 28;\n};\n");
    write("src/workloads/workload.hh",
          "#pragma once\nstruct WorkloadParams\n{\n"
          "    std::uint64_t seed = 42;\n};\n");
    write("src/api/run_executor.cc",
          "std::string runJobKey(const RunJob &job) {\n"
          "    key += job.config.gpu.num_sms;\n"
          "    key += c.audit ? 1 : 0;\n"
          "    key += p.seed;\n"
          "    return key;\n"
          "}\n");

    std::vector<Finding> f = checkJobKey(rootStr());
    EXPECT_TRUE(f.empty()) << render(f);
}

TEST_F(LintFixture, JobKeyMissingSourcesAreFindings)
{
    // An empty tree: the key implementation itself is unreadable.
    std::vector<Finding> f = checkJobKey(rootStr());
    EXPECT_EQ(countMessages(f, "cannot read the runJobKey"), 1u)
        << render(f);

    // With a key but no struct headers, each struct is reported.
    write("src/api/run_executor.cc", "std::string runJobKey();\n");
    f = checkJobKey(rootStr());
    EXPECT_EQ(countMessages(f, "cannot find struct"), 3u) << render(f);
}

// ---------------------------------------------------------- CLI/JSON

TEST_F(LintFixture, CliExitCodes)
{
    write("src/naked.hh", "int g();\n");
    EXPECT_EQ(runCli({"--root=" + rootStr(), "--checks=headers"}), 1);
    EXPECT_EQ(runCli({"--root=" + rootStr(), "--checks=bogus"}), 2);

    write("src/naked.hh", "#pragma once\nint g();\n");
    EXPECT_EQ(runCli({"--root=" + rootStr(), "--checks=headers"}), 0);
    EXPECT_EQ(runCli({"--root=" + rootStr(),
                      "--checks=headers,determinism"}),
              0);
}

TEST_F(LintFixture, CliFixRewritesTree)
{
    write("src/legacy.hh", "#ifndef LEGACY_HH\n"
                           "#define LEGACY_HH\n"
                           "int f();\n"
                           "#endif\n");
    EXPECT_EQ(runCli({"--root=" + rootStr(), "--checks=headers",
                      "--fix"}),
              0);
    EXPECT_NE(read("src/legacy.hh").find("#pragma once"),
              std::string::npos);
}

TEST(LintJson, ShapeAndEscapes)
{
    EXPECT_EQ(toJson({}), "[]\n");

    std::vector<Finding> findings = {
        {"headers", "a \"b\".hh", 3, "line1\nline2", "tab\there"}};
    const std::string json = toJson(findings);
    EXPECT_NE(json.find("\"check\": \"headers\""), std::string::npos)
        << json;
    EXPECT_NE(json.find("\\\"b\\\""), std::string::npos) << json;
    EXPECT_NE(json.find("\"line\": 3"), std::string::npos) << json;
    EXPECT_NE(json.find("line1\\nline2"), std::string::npos) << json;
    EXPECT_NE(json.find("tab\\there"), std::string::npos) << json;
}

// ---------------------------------------------------------- self-test

#ifdef UVMSIM_SOURCE_DIR
/**
 * The permanent gate: the real source tree must be clean under every
 * check.  A failure here means code, docs and tests drifted apart --
 * run build/tools/uvmsim_lint/uvmsim_lint for the same report.
 */
TEST(LintSelfTest, RepoLintsClean)
{
    Config config;
    config.root = UVMSIM_SOURCE_DIR;
    std::vector<Finding> findings = runChecks(config);
    EXPECT_TRUE(findings.empty()) << render(findings);
}
#endif

} // namespace
} // namespace uvmsim::lint
