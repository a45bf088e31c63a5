/**
 * @file
 * Statistics helpers and the result line.
 */

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <iostream>

#include "bench.hh"

namespace uvmbench
{

double
median(std::vector<double> v)
{
    if (v.empty())
        return 0.0;
    std::sort(v.begin(), v.end());
    const std::size_t n = v.size();
    return n % 2 ? v[n / 2] : 0.5 * (v[n / 2 - 1] + v[n / 2]);
}

double
tailPercentile(std::vector<double> v, std::size_t beyond, int &pct)
{
    std::sort(v.begin(), v.end());
    const std::size_t n = v.size();
    pct = 50;
    for (int p = 99; p > 50; --p) {
        // Nearest-rank percentile: the sample at rank ceil(p/100 * n).
        const std::size_t rank =
            static_cast<std::size_t>(std::ceil(p / 100.0 * n));
        if (rank >= 1 && n - rank >= beyond) {
            pct = p;
            break;
        }
    }
    if (n == 0)
        return 0.0;
    const std::size_t rank = std::max<std::size_t>(
        1, static_cast<std::size_t>(std::ceil(pct / 100.0 * n)));
    return v[std::min(rank, n) - 1];
}

void
Report::fail(const std::string &why)
{
    ++failed;
    std::fprintf(stderr, "uvmbench: FAIL: %s\n", why.c_str());
}

namespace
{

std::string
jsonNumber(double v)
{
    if (!std::isfinite(v))
        return "null";
    char buf[64];
    std::snprintf(buf, sizeof(buf), "%.17g", v);
    return buf;
}

} // namespace

void
Report::print(const std::vector<std::string> &order) const
{
    for (const std::string &e : errors)
        std::printf("# error: %s\n", e.c_str());
    for (const std::string &name : order) {
        auto it = metrics.find(name);
        if (it != metrics.end())
            std::printf("# %-30s = %.6g %s\n", name.c_str(), it->second.value,
                        it->second.unit.c_str());
    }
    std::string line = "{\"correct\": ";
    line += correct() ? "true" : "false";
    line += ", \"attempted\": " + std::to_string(attempted);
    line += ", \"failed\": " +
            std::to_string(failed + (errors.empty() ? 0 : 1));
    line += ", \"metrics\": {";
    bool first = true;
    for (const std::string &name : order) {
        auto it = metrics.find(name);
        if (it == metrics.end())
            continue;
        line += first ? "" : ", ";
        first = false;
        line += "\"" + name + "\": {\"value\": " +
                jsonNumber(it->second.value) + ", \"unit\": \"" +
                it->second.unit + "\"}";
    }
    line += "}}";
    std::printf("%s\n", line.c_str());
    std::fflush(stdout);
}

} // namespace uvmbench
