#include "support.hh"

#include <sys/resource.h>
#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <cmath>
#include <fstream>
#include <iomanip>
#include <thread>

namespace perfbench {

double
median(std::vector<double> values)
{
    std::sort(values.begin(), values.end());
    const size_t n = values.size();
    return n % 2 ? values[n / 2] : 0.5 * (values[n / 2 - 1] + values[n / 2]);
}

double
geomean(const std::vector<double>& values)
{
    if (values.empty())
        return 0.0;
    double log_sum = 0.0;
    for (double v : values)
        log_sum += std::log(v);
    return std::exp(log_sum / static_cast<double>(values.size()));
}

void
Digest::add(uint64_t v)
{
    // FNV-1a over the 8 bytes of v.
    for (int i = 0; i < 8; i++) {
        h_ ^= (v >> (8 * i)) & 0xff;
        h_ *= 0x100000001b3ULL;
    }
}

SpanRecorder::SpanRecorder() : origin_(Clock::now()) {}

int
SpanRecorder::open(const std::string& name)
{
    Span span;
    span.name = name;
    span.start = secondsBetween(origin_, Clock::now());
    span.parent = stack_.empty() ? -1 : stack_.back();
    span.repeat = repeat_;
    spans_.push_back(std::move(span));
    const int idx = static_cast<int>(spans_.size()) - 1;
    stack_.push_back(idx);
    return idx;
}

void
SpanRecorder::close(int idx)
{
    spans_[idx].end = secondsBetween(origin_, Clock::now());
    stack_.pop_back();
}

std::map<std::string, double>
SpanRecorder::selfSeconds() const
{
    std::vector<double> self(spans_.size());
    for (size_t i = 0; i < spans_.size(); i++)
        self[i] = spans_[i].end - spans_[i].start;
    for (const Span& s : spans_) {
        if (s.parent >= 0)
            self[s.parent] -= s.end - s.start;
    }
    std::map<std::string, double> by_name;
    for (size_t i = 0; i < spans_.size(); i++)
        by_name[spans_[i].name] += self[i];
    return by_name;
}

std::map<std::string, double>
SpanRecorder::totalSeconds() const
{
    std::map<std::string, double> by_name;
    for (const Span& s : spans_)
        by_name[s.name] += s.end - s.start;
    return by_name;
}

void
SpanRecorder::writeJson(std::ostream& os) const
{
    os << "[\n" << std::setprecision(9);
    for (size_t i = 0; i < spans_.size(); i++) {
        const Span& s = spans_[i];
        os << "  {\"id\": " << i << ", \"name\": \"" << s.name
           << "\", \"start_s\": " << s.start << ", \"end_s\": " << s.end
           << ", \"parent\": " << s.parent << ", \"repeat\": " << s.repeat
           << "}" << (i + 1 < spans_.size() ? ",\n" : "\n");
    }
    os << "]\n";
}

namespace {

std::string
cpuModelName()
{
    std::ifstream in("/proc/cpuinfo");
    std::string line;
    while (std::getline(in, line)) {
        if (line.rfind("model name", 0) == 0) {
            const size_t colon = line.find(':');
            if (colon != std::string::npos)
                return line.substr(line.find_first_not_of(' ', colon + 1));
        }
    }
    return "unknown";
}

/** Seconds @p threads threads take to each finish the same spin. */
double
spinSeconds(unsigned threads)
{
    constexpr uint64_t iters = 40'000'000;
    std::atomic<uint64_t> sink{0};
    const auto start = Clock::now();
    std::vector<std::thread> pool;
    for (unsigned t = 0; t < threads; t++) {
        pool.emplace_back([&sink, t] {
            uint64_t x = 0x9e3779b97f4a7c15ULL + t;
            for (uint64_t i = 0; i < iters; i++)
                x = x * 6364136223846793005ULL + 1442695040888963407ULL;
            sink.fetch_add(x, std::memory_order_relaxed);
        });
    }
    for (std::thread& th : pool)
        th.join();
    return secondsBetween(start, Clock::now());
}

std::string
jsonEscape(const std::string& s)
{
    std::string out;
    for (char c : s) {
        if (c == '"' || c == '\\')
            out.push_back('\\');
        out.push_back(c);
    }
    return out;
}

} // namespace

HostInfo
describeHost()
{
    HostInfo host;
    host.cpuModel = cpuModelName();
    const long n = sysconf(_SC_NPROCESSORS_ONLN);
    host.nproc = n > 0 ? static_cast<unsigned>(n) : 1;
    const double one = spinSeconds(1);
    const double all = spinSeconds(host.nproc);
    host.effectiveParallelism = host.nproc * one / all;
    host.compiler = PB_COMPILER;
    host.flags = PB_FLAGS;
    host.buildType = PB_BUILD_TYPE;
    return host;
}

void
writeHostJson(std::ostream& os, const HostInfo& host)
{
    os << "{\"cpu\": \"" << jsonEscape(host.cpuModel)
       << "\", \"nproc\": " << host.nproc
       << ", \"effective_parallelism\": " << std::setprecision(3)
       << host.effectiveParallelism << ", \"compiler\": \""
       << jsonEscape(host.compiler) << "\", \"flags\": \""
       << jsonEscape(host.flags) << "\", \"build_type\": \""
       << jsonEscape(host.buildType) << "\"}";
}

double
peakRssMb()
{
    rusage usage{};
    getrusage(RUSAGE_SELF, &usage);
    return static_cast<double>(usage.ru_maxrss) / 1024.0;  // kB on Linux
}

} // namespace perfbench
