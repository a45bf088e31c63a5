/**
 * @file
 * Span log of the traced run: spans stay in memory and are written
 * once, as Chrome trace_event JSON plus a self-time table.
 */

#include <algorithm>
#include <cstdio>
#include <fstream>
#include <sstream>

#include "bench.hh"

namespace uvmbench
{

SpanLog::SpanLog() : epoch_(Clock::now()) {}

double
SpanLog::sinceEpochUs(Clock::time_point t) const
{
    return std::chrono::duration<double, std::micro>(t - epoch_).count();
}

std::uint64_t
SpanLog::open(const std::string &name, std::uint64_t cell,
              std::uint64_t parent, std::uint32_t thread)
{
    const double now = sinceEpochUs(Clock::now());
    std::lock_guard<std::mutex> lock(mutex_);
    spans_.push_back(
        Span{name, now, now, cell, spans_.size() + 1, parent, thread});
    return spans_.size();
}

void
SpanLog::close(std::uint64_t id)
{
    const double now = sinceEpochUs(Clock::now());
    std::lock_guard<std::mutex> lock(mutex_);
    spans_.at(id - 1).end_us = now;
}

std::uint64_t
SpanLog::add(const std::string &name, std::uint64_t cell,
             std::uint64_t parent, Clock::time_point start,
             Clock::time_point end, std::uint32_t thread)
{
    std::lock_guard<std::mutex> lock(mutex_);
    spans_.push_back(Span{name, sinceEpochUs(start), sinceEpochUs(end), cell,
                          spans_.size() + 1, parent, thread});
    return spans_.size();
}

std::size_t
SpanLog::size() const
{
    std::lock_guard<std::mutex> lock(mutex_);
    return spans_.size();
}

bool
SpanLog::writeChromeJson(const std::string &path) const
{
    std::lock_guard<std::mutex> lock(mutex_);
    std::ofstream out(path, std::ios::trunc);
    out << "{\"displayTimeUnit\":\"ms\",\"traceEvents\":[";
    char buf[512];
    for (std::size_t i = 0; i < spans_.size(); ++i) {
        const Span &s = spans_[i];
        const std::string layer = s.name.substr(0, s.name.find('.'));
        std::snprintf(buf, sizeof(buf),
                      "%s\n{\"name\":\"%s\",\"cat\":\"%s\",\"ph\":\"X\","
                      "\"ts\":%.3f,\"dur\":%.3f,\"pid\":1,\"tid\":%u,"
                      "\"args\":{\"cell\":%llu,\"span\":%llu,"
                      "\"parent\":%llu}}",
                      i == 0 ? "" : ",", s.name.c_str(), layer.c_str(),
                      s.start_us, s.end_us - s.start_us, s.thread,
                      static_cast<unsigned long long>(s.cell),
                      static_cast<unsigned long long>(s.id),
                      static_cast<unsigned long long>(s.parent));
        out << buf;
    }
    out << "\n]}\n";
    out.close();
    return static_cast<bool>(out);
}

std::string
SpanLog::selfTimeTable() const
{
    std::lock_guard<std::mutex> lock(mutex_);
    // Self time: a span's duration minus the part of its interval its
    // children cover.  Children on pool threads may overlap, so the
    // covered part is the union of the clipped child intervals.
    std::vector<std::vector<std::pair<double, double>>> children(
        spans_.size());
    for (const Span &s : spans_) {
        if (s.parent == 0)
            continue;
        const Span &p = spans_.at(s.parent - 1);
        const double lo = std::max(s.start_us, p.start_us);
        const double hi = std::min(s.end_us, p.end_us);
        if (hi > lo)
            children[s.parent - 1].emplace_back(lo, hi);
    }
    std::vector<double> covered(spans_.size(), 0.0);
    for (std::size_t i = 0; i < spans_.size(); ++i) {
        auto &iv = children[i];
        std::sort(iv.begin(), iv.end());
        double reach = -1.0;
        for (const auto &[lo, hi] : iv) {
            const double from = std::max(lo, reach);
            if (hi > from)
                covered[i] += hi - from;
            reach = std::max(reach, hi);
        }
    }
    struct Row
    {
        std::uint64_t count = 0;
        double total_us = 0.0;
        double self_us = 0.0;
    };
    std::map<std::string, Row> rows;
    for (std::size_t i = 0; i < spans_.size(); ++i) {
        Row &r = rows[spans_[i].name];
        const double dur = spans_[i].end_us - spans_[i].start_us;
        r.count += 1;
        r.total_us += dur;
        r.self_us += std::max(0.0, dur - covered[i]);
    }
    std::vector<std::pair<std::string, Row>> sorted(rows.begin(), rows.end());
    std::sort(sorted.begin(), sorted.end(), [](const auto &a, const auto &b) {
        return a.second.self_us > b.second.self_us;
    });
    std::ostringstream out;
    char buf[256];
    std::snprintf(buf, sizeof(buf), "%-32s %8s %12s %12s\n", "span", "count",
                  "total_ms", "self_ms");
    out << buf;
    for (const auto &[name, r] : sorted) {
        std::snprintf(buf, sizeof(buf), "%-32s %8llu %12.3f %12.3f\n",
                      name.c_str(), static_cast<unsigned long long>(r.count),
                      r.total_us / 1e3, r.self_us / 1e3);
        out << buf;
    }
    return out.str();
}

} // namespace uvmbench
