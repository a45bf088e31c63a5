/**
 * @file
 * Host-speed probe and host record.  The probe sorts a fixed
 * pseudo-random array of 64 Ki 32-bit keys: branchy, cache-resident
 * work whose speed on a shared host moves with the simulator's.  It
 * calls no uvmsim code, so its time moves only with the host.
 */

#include <algorithm>
#include <cmath>
#include <fstream>
#include <thread>

#include "bench.hh"

namespace uvmbench
{

namespace
{

constexpr std::size_t probeKeys = 1u << 16;

// Volatile sink so the sort cannot be optimised away.
volatile std::uint32_t probeSink = 0;

} // namespace

Probe::Probe() : keys_(probeKeys) {}

double
Probe::runMs()
{
    // The same xorshift stream every time: the ruler never changes.
    std::uint64_t x = 0x9e3779b97f4a7c15ull;
    for (std::uint32_t &k : keys_) {
        x ^= x << 13;
        x ^= x >> 7;
        x ^= x << 17;
        k = static_cast<std::uint32_t>(x);
    }
    const auto start = Clock::now();
    std::sort(keys_.begin(), keys_.end());
    const double ms = seconds(start, Clock::now()) * 1e3;
    probeSink = probeSink + keys_[keys_.size() / 2];
    return ms;
}
double
Probe::scaleToReference(double seconds, double probe_ms, double elasticity)
{
    return seconds * std::pow(refProbeMs / probe_ms, elasticity);
}

namespace
{

std::string
readLoadavg()
{
    std::ifstream in("/proc/loadavg");
    std::string a, b, c;
    in >> a >> b >> c;
    return in ? a + " " + b + " " + c : "unknown";
}

} // namespace

HostRecord
hostRecordBefore()
{
    HostRecord rec;
    std::ifstream in("/proc/cpuinfo");
    std::string line;
    while (std::getline(in, line)) {
        if (line.rfind("model name", 0) == 0) {
            const auto colon = line.find(':');
            rec.cpu_model = line.substr(colon + 2);
            break;
        }
    }
    if (rec.cpu_model.empty())
        rec.cpu_model = "unknown";
    rec.nproc = std::thread::hardware_concurrency();
    rec.loadavg_before = readLoadavg();
    return rec;
}

void
hostRecordAfter(HostRecord &rec)
{
    rec.loadavg_after = readLoadavg();
}

} // namespace uvmbench
