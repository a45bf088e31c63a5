/**
 * @file
 * The semantic check families (determinism, fork-safety, callback
 * lifetime, layering), running over the cxx_model token / declaration
 * / call-graph model instead of line regexes.  Working on tokens means
 * a banned name inside a comment or a usage string can never
 * false-positive, and "reachable from an emission path" is a computed
 * property of the call graph, not a guess.
 */

#include "lint.hh"

#include <algorithm>
#include <cctype>
#include <filesystem>
#include <fstream>
#include <regex>
#include <sstream>

namespace fs = std::filesystem;

namespace uvmsim::lint
{

using cxx::ContainerDecl;
using cxx::FunctionDef;
using cxx::Model;
using cxx::SourceFile;
using cxx::TokKind;
using cxx::Token;

namespace
{

// ---------------------------------------------------------- token helpers

/** Index one past the token matching `open` (an "(" / "[" / "{"). */
std::size_t
matchForward(const std::vector<Token> &toks, std::size_t open)
{
    const std::string &o = toks[open].text;
    const std::string c = o == "(" ? ")" : o == "[" ? "]" : "}";
    std::size_t depth = 0;
    for (std::size_t i = open; i < toks.size(); ++i) {
        if (toks[i].text == o)
            ++depth;
        else if (toks[i].text == c && --depth == 0)
            return i + 1;
    }
    return toks.size();
}

bool
isIdent(const Token &t, const char *text)
{
    return t.kind == TokKind::Identifier && t.text == text;
}

/** All-caps identifiers are macro invocations (EXPECT_EQ, O_CREAT). */
bool
looksLikeMacro(const std::string &name)
{
    bool has_alpha = false;
    for (char c : name) {
        if (std::islower(static_cast<unsigned char>(c)))
            return false;
        if (std::isupper(static_cast<unsigned char>(c)))
            has_alpha = true;
    }
    return has_alpha;
}

std::string
lowercased(const std::string &s)
{
    std::string out = s;
    std::transform(out.begin(), out.end(), out.begin(), [](char c) {
        return static_cast<char>(
            std::tolower(static_cast<unsigned char>(c)));
    });
    return out;
}

std::string
slurpText(const fs::path &path)
{
    std::ifstream in(path, std::ios::binary);
    if (!in)
        return {};
    std::ostringstream out;
    out << in.rdbuf();
    return out.str();
}

std::vector<std::string>
toLines(const std::string &text)
{
    std::vector<std::string> lines;
    std::size_t start = 0;
    while (start <= text.size()) {
        std::size_t nl = text.find('\n', start);
        if (nl == std::string::npos) {
            if (start < text.size())
                lines.push_back(text.substr(start));
            break;
        }
        lines.push_back(text.substr(start, nl - start));
        start = nl + 1;
    }
    return lines;
}

bool
writeLines(const fs::path &path, const std::vector<std::string> &lines)
{
    std::ofstream out(path, std::ios::binary | std::ios::trunc);
    if (!out)
        return false;
    for (const std::string &line : lines)
        out << line << '\n';
    return true;
}

// ----------------------------------------------------- determinism family

bool
detWaived(const SourceFile &sf, std::size_t line)
{
    return sf.waived("det", line) || sf.waived("determinism", line);
}

/** One range-based for statement. */
struct RangeFor
{
    std::size_t for_tok = 0;
    std::size_t body_begin = 0; //!< first token of the body
    std::size_t body_end = 0;   //!< one past the body
    std::string range_var;      //!< last identifier of the range expr
    std::size_t line = 0;
    bool braced = false;
};

std::vector<RangeFor>
rangeFors(const SourceFile &sf)
{
    const std::vector<Token> &toks = sf.toks;
    std::vector<RangeFor> out;
    for (std::size_t i = 0; i + 1 < toks.size(); ++i) {
        if (!isIdent(toks[i], "for") || toks[i + 1].text != "(")
            continue;
        const std::size_t close = matchForward(toks, i + 1) - 1;
        if (close >= toks.size())
            continue;
        // The range ':' at paren depth 1 (the lexer keeps "::" whole,
        // so a bare ":" is unambiguous).
        std::size_t colon = 0;
        std::size_t depth = 0;
        for (std::size_t j = i + 1; j < close; ++j) {
            const std::string &t = toks[j].text;
            if (t == "(" || t == "[" || t == "{")
                ++depth;
            else if (t == ")" || t == "]" || t == "}")
                --depth;
            else if (t == ":" && depth == 1) {
                colon = j;
                break;
            }
        }
        if (colon == 0)
            continue;
        RangeFor rf;
        rf.for_tok = i;
        rf.line = toks[i].line;
        for (std::size_t j = colon + 1; j < close; ++j)
            if (toks[j].kind == TokKind::Identifier)
                rf.range_var = toks[j].text;
        if (close + 1 >= toks.size())
            continue;
        if (toks[close + 1].text == "{") {
            rf.braced = true;
            rf.body_begin = close + 2;
            rf.body_end = matchForward(toks, close + 1) - 1;
        } else {
            rf.body_begin = close + 1;
            rf.body_end = rf.body_begin;
            while (rf.body_end < toks.size() &&
                   toks[rf.body_end].text != ";")
                ++rf.body_end;
        }
        out.push_back(rf);
    }
    return out;
}

/**
 * Functions on emission paths: stats/trace/CSV/JSON/oracle output and
 * the audit/differential compare machinery, located by name or by
 * home file.  Everything they reach (transitively) inherits the
 * ordering obligation.
 */
std::set<std::size_t>
emissionReachable(const Model &model)
{
    static const char *const name_needles[] = {
        "dump", "emit",   "render", "publish",
        "csv",  "tojson", "report", "export"};
    static const char *const file_needles[] = {
        "auditor", "oracle", "stats", "trace", "timeline",
        "differential"};
    std::set<std::size_t> roots;
    for (std::size_t i = 0; i < model.functions.size(); ++i) {
        const FunctionDef &fn = model.functions[i];
        const std::string name = lowercased(fn.name);
        const std::string file = lowercased(model.files[fn.file].rel);
        for (const char *needle : name_needles)
            if (name.find(needle) != std::string::npos)
                roots.insert(i);
        for (const char *needle : file_needles)
            if (file.find(needle) != std::string::npos)
                roots.insert(i);
    }
    return model.reachableFrom(roots);
}

/** True when the function sorts something after this loop -- the
 *  collect-then-sort snapshot idiom (e.g. FarFaultMshr's sorted
 *  pendingPageList), which restores a deterministic order. */
bool
sortedAfterLoop(const SourceFile &sf, const FunctionDef &fn,
                const RangeFor &rf)
{
    for (std::size_t i = rf.body_end; i + 1 < fn.body_end; ++i)
        if (isIdent(sf.toks[i], "sort") && sf.toks[i + 1].text == "(")
            return true;
    return false;
}

/** Loop bodies that only bump integer counters are order-independent:
 *  no calls, and only ++/--/integer += mutations. */
bool
orderIndependentAggregation(const SourceFile &sf, const RangeFor &rf)
{
    bool mutates = false;
    for (std::size_t i = rf.body_begin; i < rf.body_end; ++i) {
        const Token &t = sf.toks[i];
        if (t.kind == TokKind::Identifier && i + 1 < rf.body_end &&
            sf.toks[i + 1].text == "(")
            return false; // calls may observe order
        if (t.text == "++" || t.text == "--") {
            mutates = true;
        } else if (t.text == "+=") {
            if (i + 1 >= rf.body_end ||
                sf.toks[i + 1].kind != TokKind::Number)
                return false;
            mutates = true;
        } else if (t.text == "=" || t.text == "-=" || t.text == "<<") {
            return false;
        }
    }
    return mutates;
}

/** A banned-token finding, or nothing. */
struct Ban
{
    std::size_t line = 0;
    const char *what = nullptr;
};

std::vector<Ban>
bannedTokens(const SourceFile &sf)
{
    const std::vector<Token> &toks = sf.toks;
    std::vector<Ban> out;
    static const std::set<std::string> engines = {
        "mt19937",      "mt19937_64",   "minstd_rand",
        "minstd_rand0", "ranlux24",     "ranlux48",
        "default_random_engine"};
    static const std::set<std::string> clock_calls = {
        "gettimeofday", "clock_gettime", "timespec_get"};
    static const std::set<std::string> chrono_clocks = {
        "system_clock", "steady_clock", "high_resolution_clock"};
    for (std::size_t i = 0; i < toks.size(); ++i) {
        const Token &t = toks[i];
        if (t.kind != TokKind::Identifier)
            continue;
        const bool calls =
            i + 1 < toks.size() && toks[i + 1].text == "(";
        const std::string prev = i > 0 ? toks[i - 1].text : "";
        if ((t.text == "rand" || t.text == "srand") && calls &&
            prev != "." && prev != "->") {
            out.push_back({t.line,
                           "libc rand/srand breaks run determinism; "
                           "draw from uvmsim::Rng"});
        } else if (t.text == "random_device") {
            out.push_back({t.line,
                           "device entropy is nondeterministic; seed "
                           "an uvmsim::Rng instead"});
        } else if (engines.count(t.text)) {
            out.push_back({t.line,
                           "std library engines bypass the seeded "
                           "uvmsim::Rng"});
        } else if (t.text == "time" && calls && prev != "." &&
                   prev != "->" && prev != "::" &&
                   (i + 2 < toks.size() &&
                    (toks[i + 2].text == ")" ||
                     toks[i + 2].text == "NULL" ||
                     toks[i + 2].text == "nullptr" ||
                     toks[i + 2].text == "0"))) {
            out.push_back({t.line,
                           "wall-clock time reads break run "
                           "determinism"});
        } else if (clock_calls.count(t.text) && calls) {
            out.push_back({t.line,
                           "wall-clock reads break run determinism"});
        } else if (t.text == "clock" && calls &&
                   i + 2 < toks.size() && toks[i + 2].text == ")" &&
                   prev != "." && prev != "->" && prev != "::") {
            out.push_back({t.line,
                           "libc clock reads host time; use "
                           "simulation Ticks"});
        } else if (chrono_clocks.count(t.text)) {
            out.push_back({t.line,
                           "std::chrono clock reads break run "
                           "determinism; use simulation Ticks (bench "
                           "wall-timing lives in "
                           "scripts/bench_timing.sh)"});
        } else if (t.text == "now" && calls && prev == "::") {
            out.push_back({t.line,
                           "clock now() reads wall time and breaks "
                           "run determinism"});
        }
    }
    return out;
}

// --fix machinery: collected per file, applied bottom-up so line
// numbers stay valid.

struct LineFix
{
    std::size_t line = 0; //!< 1-based
    enum Kind
    {
        SnapshotRewrite,
        WaiverStanza
    } kind = WaiverStanza;
    std::string key_type;
    std::string container;
};

bool
applyFixes(const fs::path &path, std::vector<LineFix> fixes)
{
    std::vector<std::string> lines = toLines(slurpText(path));
    if (lines.empty())
        return false;
    std::sort(fixes.begin(), fixes.end(),
              [](const LineFix &a, const LineFix &b) {
                  return a.line > b.line;
              });
    static const std::regex binding_for(
        R"re(^(\s*)for\s*\(\s*const\s+auto\s*&\s*\[\s*([A-Za-z_]\w*)\s*,\s*([A-Za-z_]\w*)\s*\]\s*:\s*([A-Za-z_]\w*)\s*\)\s*\{\s*$)re");
    bool changed = false;
    for (const LineFix &fix : fixes) {
        if (fix.line == 0 || fix.line > lines.size())
            continue;
        std::string &text = lines[fix.line - 1];
        if (fix.kind == LineFix::WaiverStanza) {
            const std::string indent =
                text.substr(0, text.find_first_not_of(" \t"));
            lines.insert(
                lines.begin() +
                    static_cast<std::ptrdiff_t>(fix.line - 1),
                indent +
                    "// lint:allow(det) TODO(lint --fix): "
                    "order-independent aggregation over an unordered "
                    "container; keep, or sort the walk");
            changed = true;
            continue;
        }
        std::smatch m;
        if (!std::regex_match(text, m, binding_for))
            continue;
        const std::string indent = m[1].str();
        const std::string key = m[2].str();
        const std::string val = m[3].str();
        const std::string cont = m[4].str();
        const std::string keys = cont + "_sorted_keys";
        std::vector<std::string> repl = {
            indent + "// lint:fix(det): sorted key snapshot for a "
                     "stable iteration order",
            indent + "std::vector<" + fix.key_type + "> " + keys + ";",
            indent + keys + ".reserve(" + cont + ".size());",
            indent + "for (const auto &" + cont + "_kv : " + cont +
                ") // lint:allow(det): keys sorted below",
            indent + "    " + keys + ".push_back(" + cont +
                "_kv.first);",
            indent + "std::sort(" + keys + ".begin(), " + keys +
                ".end());",
            indent + "for (const auto &" + key + " : " + keys + ") {",
            indent + "    const auto &" + val + " = " + cont + ".at(" +
                key + ");",
        };
        lines.erase(lines.begin() +
                    static_cast<std::ptrdiff_t>(fix.line - 1));
        lines.insert(lines.begin() +
                         static_cast<std::ptrdiff_t>(fix.line - 1),
                     repl.begin(), repl.end());
        changed = true;
    }
    return changed && writeLines(path, lines);
}

} // namespace

std::vector<Finding>
checkDeterminism(const std::string &root, const Model &model, bool fix)
{
    std::vector<Finding> findings;
    const std::set<std::size_t> reachable = emissionReachable(model);
    std::map<std::size_t, std::vector<LineFix>> fixes_by_file;

    for (std::size_t fi = 0; fi < model.files.size(); ++fi) {
        const SourceFile &sf = model.files[fi];
        if (sf.rel == "src/sim/rng.hh")
            continue; // the sanctioned home of randomness

        // 1. Token-level randomness / wall-clock bans.
        for (const Ban &ban : bannedTokens(sf)) {
            if (detWaived(sf, ban.line))
                continue;
            findings.push_back({"determinism", sf.rel, ban.line,
                                ban.what,
                                "use uvmsim::Rng / simulation Ticks, "
                                "or waive with lint:allow(det)"});
        }

        // 2. Unordered-container iteration in emission-reachable code.
        for (const RangeFor &rf : rangeFors(sf)) {
            if (rf.range_var.empty())
                continue;
            const ContainerDecl *decl =
                model.containerFor(fi, rf.range_var);
            if (!decl || !decl->unordered())
                continue;
            const FunctionDef *fn =
                model.enclosingFunction(fi, rf.for_tok);
            if (!fn)
                continue;
            bool on_emission_path = false;
            for (std::size_t idx = 0; idx < model.functions.size();
                 ++idx) {
                if (&model.functions[idx] == fn &&
                    reachable.count(idx)) {
                    on_emission_path = true;
                    break;
                }
            }
            if (!on_emission_path)
                continue;
            if (sortedAfterLoop(sf, *fn, rf))
                continue; // collect-then-sort snapshot idiom
            if (detWaived(sf, rf.line))
                continue;
            if (fix) {
                // Mutating the container inside the body defeats the
                // snapshot rewrite; require the body to not mention it.
                bool body_uses_container = false;
                for (std::size_t i = rf.body_begin; i < rf.body_end;
                     ++i)
                    if (isIdent(sf.toks[i], rf.range_var.c_str()))
                        body_uses_container = true;
                if (!body_uses_container && rf.braced) {
                    fixes_by_file[fi].push_back(
                        {rf.line, LineFix::SnapshotRewrite,
                         decl->key_type, decl->var});
                    continue;
                }
                if (orderIndependentAggregation(sf, rf)) {
                    fixes_by_file[fi].push_back(
                        {rf.line, LineFix::WaiverStanza, "", ""});
                    continue;
                }
            }
            findings.push_back(
                {"determinism", sf.rel, rf.line,
                 "iteration over unordered container '" + decl->var +
                     "' in function '" + fn->name +
                     "', which is reachable from a stats/trace/CSV/"
                     "oracle emission path",
                 "iterate a sorted snapshot (run --fix for the "
                 "mechanical rewrite) or waive with lint:allow(det)"});
        }

        // 4. Float accumulation across unordered iteration (order
        //    changes the rounding, so the emitted value).
        for (const RangeFor &rf : rangeFors(sf)) {
            if (rf.range_var.empty())
                continue;
            const ContainerDecl *decl =
                model.containerFor(fi, rf.range_var);
            if (!decl || !decl->unordered())
                continue;
            for (std::size_t i = rf.body_begin; i < rf.body_end; ++i) {
                if (sf.toks[i].text != "+=" || i == 0)
                    continue;
                const Token &target = sf.toks[i - 1];
                if (target.kind != TokKind::Identifier)
                    continue;
                // Is the accumulator declared floating-point?
                bool is_float = false;
                for (std::size_t j = 0; j + 1 < sf.toks.size(); ++j)
                    if ((isIdent(sf.toks[j], "double") ||
                         isIdent(sf.toks[j], "float")) &&
                        sf.toks[j + 1].text == target.text)
                        is_float = true;
                if (!is_float || detWaived(sf, sf.toks[i].line))
                    continue;
                findings.push_back(
                    {"determinism", sf.rel, sf.toks[i].line,
                     "floating-point accumulation into '" +
                         target.text +
                         "' across unordered iteration: the "
                         "summation order, and so the rounding, "
                         "depends on the hash layout",
                     "accumulate over a sorted snapshot or waive "
                     "with lint:allow(det)"});
            }
        }
    }

    // 3. Pointer-keyed ordered containers order by address.
    for (const ContainerDecl &decl : model.containers) {
        if (decl.unordered() ||
            decl.key_type.find('*') == std::string::npos)
            continue;
        const SourceFile &sf = model.files[decl.file];
        if (sf.rel == "src/sim/rng.hh" || detWaived(sf, decl.line))
            continue;
        findings.push_back(
            {"determinism", sf.rel, decl.line,
             "'" + decl.var + "' is a " + decl.container +
                 " keyed by a pointer (" + decl.key_type +
                 "): its order is the allocation order of the "
                 "heap, different every run",
             "key by a stable id or waive with lint:allow(det)"});
    }

    for (const auto &[fi, fixes] : fixes_by_file)
        applyFixes(fs::path(root) / model.files[fi].rel, fixes);
    return findings;
}

// ----------------------------------------------------- forksafety family

namespace
{

/** Calls considered async-signal-safe-ish for a forked child. */
const std::set<std::string> &
forkChildAllowlist()
{
    static const std::set<std::string> allow = {
        "_Exit",  "_exit", "getpid", "getppid", "raise",  "kill",
        "signal", "alarm", "read",   "write",   "close",  "dup",
        "dup2",   "open",  "fflush", "setsid",  "chdir",  "umask",
        "execv",  "execvp", "execve", "execl",  "abort"};
    return allow;
}

/** True for a process-fork call site (not Rng::fork or a method). */
bool
isProcessFork(const std::vector<Token> &toks, std::size_t i)
{
    if (!isIdent(toks[i], "fork") || i + 1 >= toks.size() ||
        toks[i + 1].text != "(")
        return false;
    if (i == 0)
        return true;
    const std::string &prev = toks[i - 1].text;
    if (prev == "::") {
        // `::fork()` is the process fork; `Rng::fork()` (definition or
        // qualified call) is the repo's RNG-splitting method.
        return i < 2 || toks[i - 2].kind != TokKind::Identifier;
    }
    return prev == "=" || prev == ";" || prev == "{" || prev == "(" ||
           prev == "," || prev == "return";
}

/** Does this function's body contain an _Exit/_exit call? */
bool
forkAware(const SourceFile &sf, const FunctionDef &fn)
{
    for (std::size_t i = fn.body_begin; i < fn.body_end; ++i)
        if (isIdent(sf.toks[i], "_Exit") || isIdent(sf.toks[i], "_exit"))
            return true;
    return false;
}

} // namespace

std::vector<Finding>
checkForkSafety(const Model &model)
{
    std::vector<Finding> findings;
    static const std::set<std::string> thread_types = {
        "thread", "jthread", "RunExecutor", "async"};

    for (std::size_t fi = 0; fi < model.files.size(); ++fi) {
        const SourceFile &sf = model.files[fi];
        const std::vector<Token> &toks = sf.toks;
        for (std::size_t i = 0; i < toks.size(); ++i) {
            if (!isProcessFork(toks, i))
                continue;
            const std::size_t fork_line = toks[i].line;
            const FunctionDef *fn = model.enclosingFunction(fi, i);
            if (!fn || sf.waived("forksafety", fork_line))
                continue;

            // (a) Flush stdio before forking, or any buffered bytes
            // are duplicated into the child.
            bool flushed = false;
            for (std::size_t j = fn->body_begin; j < i; ++j)
                if (isIdent(toks[j], "fflush"))
                    flushed = true;
            if (!flushed)
                findings.push_back(
                    {"forksafety", sf.rel, fork_line,
                     "fork() without flushing stdio first: buffered "
                     "output is duplicated into the child",
                     "fflush(stdout)/fflush(stderr) before forking, "
                     "or waive with lint:allow(forksafety)"});

            // (b) No thread-owning object constructed before fork():
            // only the forking thread survives in the child, so any
            // held lock or live pool deadlocks or corrupts.
            for (std::size_t j = fn->body_begin; j < i; ++j) {
                if (toks[j].kind != TokKind::Identifier ||
                    !thread_types.count(toks[j].text))
                    continue;
                if (j + 1 < toks.size() && toks[j + 1].text == "::")
                    continue; // static member access, not an object
                findings.push_back(
                    {"forksafety", sf.rel, toks[j].line,
                     "thread-owning '" + toks[j].text +
                         "' constructed before fork(): the child "
                         "inherits its locks and dead threads",
                     "create pools after forking (workers build "
                     "their own executors), or waive with "
                     "lint:allow(forksafety)"});
            }

            // Locate the child branch: the next `if (...== 0...)`
            // block after the fork call.
            std::size_t child_begin = 0;
            std::size_t child_end = 0;
            for (std::size_t j = i; j + 1 < toks.size() &&
                                    j < fn->body_end;
                 ++j) {
                if (!isIdent(toks[j], "if") || toks[j + 1].text != "(")
                    continue;
                const std::size_t cond_end =
                    matchForward(toks, j + 1);
                bool zero_check = false;
                for (std::size_t k = j + 2; k + 1 < cond_end; ++k)
                    if (toks[k].text == "==" &&
                        (toks[k + 1].text == "0" ||
                         toks[k - 1].text == "0"))
                        zero_check = true;
                if (!zero_check)
                    continue;
                if (cond_end < toks.size() &&
                    toks[cond_end].text == "{") {
                    child_begin = cond_end + 1;
                    child_end = matchForward(toks, cond_end) - 1;
                } else {
                    child_begin = cond_end;
                    child_end = child_begin;
                    while (child_end < toks.size() &&
                           toks[child_end].text != ";")
                        ++child_end;
                }
                break;
            }
            if (child_begin == 0) {
                findings.push_back(
                    {"forksafety", sf.rel, fork_line,
                     "cannot identify the fork() child branch (no "
                     "pid == 0 test after the call)",
                     "structure the child as `if (pid == 0) { ... "
                     "_Exit(rc); }`"});
                continue;
            }

            // (c) The child branch may only call repo functions, the
            // async-signal-safe-ish allowlist, or macros -- and must
            // be able to terminate through _Exit/_exit.
            bool child_exits = false;
            std::set<std::string> child_callees;
            static const std::set<std::string> control_words = {
                "if",     "for",    "while", "switch",
                "return", "sizeof", "catch"};
            for (std::size_t j = child_begin; j < child_end; ++j) {
                if (toks[j].kind != TokKind::Identifier ||
                    j + 1 >= toks.size() || toks[j + 1].text != "(")
                    continue;
                const std::string &name = toks[j].text;
                if (control_words.count(name))
                    continue;
                if (name == "_Exit" || name == "_exit") {
                    child_exits = true;
                    continue;
                }
                if (looksLikeMacro(name) ||
                    forkChildAllowlist().count(name))
                    continue;
                if (model.functions_by_name.count(name)) {
                    child_callees.insert(name);
                    continue;
                }
                if (sf.waived("forksafety", toks[j].line))
                    continue;
                findings.push_back(
                    {"forksafety", sf.rel, toks[j].line,
                     "'" + name +
                         "' in the fork child branch is neither "
                         "repo-defined nor on the async-signal-safe-"
                         "ish allowlist",
                     "move the work behind a repo function or waive "
                     "with lint:allow(forksafety)"});
            }

            // (d) Transitively: anything the child can reach must not
            // run exit() -- in a forked child exit() re-flushes stdio
            // buffers inherited from the parent and runs the parent's
            // atexit/static-destructor state.  A fork-aware function
            // (one that guards its own _Exit path, like fatal()) is
            // fine.
            std::set<std::size_t> child_roots;
            for (const std::string &name : child_callees) {
                auto [lo, hi] = model.functions_by_name.equal_range(name);
                for (auto it = lo; it != hi; ++it)
                    child_roots.insert(it->second);
            }
            bool reaches_exit_safely = child_exits;
            for (std::size_t idx : model.reachableFrom(child_roots)) {
                const FunctionDef &callee = model.functions[idx];
                const SourceFile &home = model.files[callee.file];
                if (forkAware(home, callee)) {
                    reaches_exit_safely = true;
                    continue;
                }
                for (std::size_t j = callee.body_begin;
                     j + 1 < callee.body_end; ++j) {
                    if (!isIdent(home.toks[j], "exit") ||
                        home.toks[j + 1].text != "(")
                        continue;
                    if (home.waived("forksafety", home.toks[j].line))
                        continue;
                    findings.push_back(
                        {"forksafety", home.rel, home.toks[j].line,
                         "exit() in '" + callee.name +
                             "', reachable from the fork child "
                             "branch at " +
                             sf.rel +
                             ": a forked child must die through "
                             "_Exit (exit() replays inherited stdio "
                             "buffers and parent atexit state)",
                         "guard with an inForkedChild() check that "
                         "calls _Exit, or waive with "
                         "lint:allow(forksafety)"});
                    break;
                }
            }
            if (!reaches_exit_safely)
                findings.push_back(
                    {"forksafety", sf.rel, fork_line,
                     "the fork child branch has no _Exit/_exit "
                     "termination path",
                     "end the child with _Exit(rc)"});
        }
    }
    return findings;
}

// ------------------------------------------------------- lifetime family

namespace
{

/**
 * True when the enclosing function drains the event queue after the
 * schedule call: `eq.run()` (or runUntil/step/drain) before the frame
 * returns means nothing scheduled here outlives the frame, which is
 * the dominant -- and safe -- idiom in tests and benchmarks.
 */
bool
drainedInFrame(const SourceFile &sf, const FunctionDef &fn,
               std::size_t from)
{
    static const std::set<std::string> drains = {
        "run", "runOne", "runUntil", "runFor", "step", "drain"};
    for (std::size_t i = from; i + 1 < fn.body_end; ++i)
        if (sf.toks[i].kind == TokKind::Identifier &&
            drains.count(sf.toks[i].text) &&
            sf.toks[i + 1].text == "(")
            return true;
    return false;
}

} // namespace

std::vector<Finding>
checkLifetime(const Model &model)
{
    std::vector<Finding> findings;
    // Calls that park a POD (fn, ctx, arg) past the frame: event
    // scheduling, and the GMMU translate / MSHR continuations.
    static const std::set<std::string> pod_schedulers = {
        "scheduleCall", "scheduleCallAfter", "scheduleReserved",
        "emplacePod",   "translate",         "registerFault"};
    static const std::set<std::string> lambda_schedulers = {
        "schedule", "scheduleAfter", "scheduleCall",
        "scheduleCallAfter"};

    for (std::size_t fi = 0; fi < model.files.size(); ++fi) {
        const SourceFile &sf = model.files[fi];
        const std::vector<Token> &toks = sf.toks;
        for (std::size_t i = 0; i + 1 < toks.size(); ++i) {
            if (toks[i].kind != TokKind::Identifier ||
                toks[i + 1].text != "(")
                continue;
            const std::string &name = toks[i].text;
            const std::size_t call_line = toks[i].line;
            const std::size_t close = matchForward(toks, i + 1);
            const FunctionDef *fn = model.enclosingFunction(fi, i);

            // Stack addresses must not ride into the event arena: the
            // callback outlives the frame that scheduled it.
            if (pod_schedulers.count(name) && fn) {
                for (std::size_t j = i + 2; j + 1 < close; ++j) {
                    if (toks[j].text != "&" ||
                        toks[j + 1].kind != TokKind::Identifier)
                        continue;
                    const std::string &prev = toks[j - 1].text;
                    if (prev != "," && prev != "(" && prev != "{")
                        continue; // binary &, not address-of an arg
                    const std::string &var = toks[j + 1].text;
                    if (var == "this" || var.back() == '_')
                        continue; // members live with the object
                    // Declared locally in this function?
                    bool local = false;
                    for (std::size_t k = fn->body_begin; k < i; ++k) {
                        if (toks[k].kind != TokKind::Identifier ||
                            toks[k].text != var || k == 0)
                            continue;
                        const Token &before = toks[k - 1];
                        const std::string &after = toks[k + 1].text;
                        if ((before.kind == TokKind::Identifier ||
                             before.text == ">" || before.text == "*" ||
                             before.text == "&") &&
                            (after == "=" || after == ";" ||
                             after == "{" || after == "("))
                            local = true;
                    }
                    if (!local ||
                        sf.waived("lifetime", toks[j].line))
                        continue;
                    if (drainedInFrame(sf, *fn, close))
                        continue; // queue drains before frame exits
                    findings.push_back(
                        {"lifetime", sf.rel, toks[j].line,
                         "'" + name + "' captures the address of "
                         "stack local '" + var +
                             "': the callback outlives this frame "
                             "and fires on a dangling pointer",
                         "pass owned state (an arena slot index, a "
                         "member) or waive with "
                         "lint:allow(lifetime)"});
                }
            }

            // By-reference lambda captures escaping into the arena.
            if (lambda_schedulers.count(name)) {
                for (std::size_t j = i + 2; j + 1 < close; ++j) {
                    if (toks[j].text != "[")
                        continue;
                    const std::string &prev = toks[j - 1].text;
                    if (prev != "(" && prev != ",")
                        continue; // indexing, not a lambda intro
                    if (toks[j + 1].text != "&")
                        continue;
                    if (sf.waived("lifetime", toks[j].line))
                        continue;
                    if (fn && drainedInFrame(sf, *fn, close))
                        continue; // queue drains before frame exits
                    findings.push_back(
                        {"lifetime", sf.rel, toks[j].line,
                         "by-reference lambda capture passed to '" +
                             name +
                             "': the closure escapes into the event "
                             "arena and outlives the captured frame",
                         "capture by value (or capture `this`), or "
                         "waive with lint:allow(lifetime)"});
                }
            }

            // EventId reuse after deschedule: the slot may already be
            // recycled, so anything but reassignment or comparison is
            // a stale-handle bug.
            if (name == "deschedule" && fn) {
                if (i + 3 >= toks.size() ||
                    toks[i + 2].kind != TokKind::Identifier ||
                    toks[i + 3].text != ")")
                    continue;
                const std::string &id = toks[i + 2].text;
                for (std::size_t j = close; j < fn->body_end; ++j) {
                    if (toks[j].kind != TokKind::Identifier ||
                        toks[j].text != id)
                        continue;
                    const std::string &after =
                        j + 1 < toks.size() ? toks[j + 1].text : "";
                    const std::string &before =
                        j > 0 ? toks[j - 1].text : "";
                    if (after == "=" &&
                        (j + 2 >= toks.size() ||
                         toks[j + 2].text != "="))
                        break; // reassigned: handle is fresh again
                    if (after == "==" || after == "!=" ||
                        before == "==" || before == "!=")
                        continue; // comparing a stale id is fine
                    if (before == "(" && j >= 2 &&
                        isIdent(toks[j - 2], "deschedule"))
                        continue; // double-deschedule is a safe no-op
                    if (sf.waived("lifetime", toks[j].line))
                        continue;
                    findings.push_back(
                        {"lifetime", sf.rel, toks[j].line,
                         "EventId '" + id +
                             "' used after deschedule(): the arena "
                             "slot may already be recycled",
                         "reassign the id (e.g. to invalidEventId) "
                         "before reuse, or waive with "
                         "lint:allow(lifetime)"});
                    break;
                }
            }
            (void)call_line;
        }
    }
    return findings;
}

// ------------------------------------------------------- layering family

namespace
{

/** The repo layer a file belongs to, or "" when unconstrained. */
std::string
layerOf(const std::string &rel)
{
    const std::size_t slash = rel.find('/');
    if (slash == std::string::npos)
        return "";
    const std::string top = rel.substr(0, slash);
    if (top == "src") {
        const std::size_t next = rel.find('/', slash + 1);
        if (next == std::string::npos)
            return "";
        return rel.substr(slash + 1, next - slash - 1);
    }
    return top;
}

} // namespace

std::vector<Finding>
checkLayering(const std::string &root, const Model &model)
{
    std::vector<Finding> findings;
    const std::string design =
        slurpText(fs::path(root) / "DESIGN.md");

    // Parse the ```lint-layers fenced block: `layer: dep dep` lines,
    // with `*` meaning unconstrained.
    std::map<std::string, std::set<std::string>> allowed;
    std::set<std::string> wildcard;
    bool in_block = false;
    bool block_seen = false;
    for (const std::string &line : toLines(design)) {
        if (line.rfind("```", 0) == 0) {
            if (!in_block &&
                line.find("lint-layers") != std::string::npos) {
                in_block = true;
                block_seen = true;
            } else if (in_block) {
                in_block = false;
            }
            continue;
        }
        if (!in_block)
            continue;
        const std::size_t colon = line.find(':');
        if (colon == std::string::npos)
            continue;
        std::string name = line.substr(0, colon);
        name.erase(std::remove_if(name.begin(), name.end(),
                                  [](char c) { return c == ' '; }),
                   name.end());
        std::istringstream deps(line.substr(colon + 1));
        std::string dep;
        allowed[name]; // a layer with no deps is still declared
        while (deps >> dep) {
            if (dep == "*")
                wildcard.insert(name);
            else
                allowed[name].insert(dep);
        }
    }
    if (!block_seen) {
        findings.push_back(
            {"layering", "DESIGN.md", 0,
             "no ```lint-layers block found: the layering check has "
             "no ground truth to enforce",
             "declare the layer dependency diagram in DESIGN.md"});
        return findings;
    }

    for (const SourceFile &sf : model.files) {
        const std::string layer = layerOf(sf.rel);
        if (layer.empty() || !allowed.count(layer))
            continue;
        if (wildcard.count(layer))
            continue;
        for (const cxx::IncludeDirective &inc : sf.includes) {
            if (inc.angled)
                continue;
            const std::size_t slash = inc.target.find('/');
            if (slash == std::string::npos)
                continue; // same-directory include
            const std::string target = inc.target.substr(0, slash);
            if (!allowed.count(target) || target == layer)
                continue;
            if (allowed.at(layer).count(target))
                continue;
            if (sf.waived("layering", inc.line))
                continue;
            findings.push_back(
                {"layering", sf.rel, inc.line,
                 "layer '" + layer + "' must not include '" +
                     inc.target + "' (allowed: " +
                     [&] {
                         std::string deps;
                         for (const std::string &d :
                              allowed.at(layer))
                             deps += (deps.empty() ? "" : " ") + d;
                         return deps.empty() ? std::string("nothing")
                                             : deps;
                     }() +
                     ")",
                 "invert the dependency or update the DESIGN.md "
                 "layer diagram deliberately"});
        }
    }
    return findings;
}

cxx::Model
buildRepoModel(const std::string &root)
{
    return cxx::buildModel(
        root, {"src", "tools", "bench", "examples", "tests"});
}

} // namespace uvmsim::lint
