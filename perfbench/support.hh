/**
 * @file
 * Measurement support for the repository benchmark: host-time clock,
 * the span recorder of the traced run, the bit-exact output digest of
 * the correctness gate, and the host descriptor printed beside every
 * host-time number.
 */

#ifndef PERFBENCH_SUPPORT_HH
#define PERFBENCH_SUPPORT_HH

#include <chrono>
#include <cstdint>
#include <cstring>
#include <map>
#include <ostream>
#include <string>
#include <vector>

namespace perfbench {

using Clock = std::chrono::steady_clock;

/** Seconds between two clock readings. */
inline double
secondsBetween(Clock::time_point start, Clock::time_point stop)
{
    return std::chrono::duration<double>(stop - start).count();
}

/** Median of a non-empty sample; even sizes average the two middle
 *  values. */
double median(std::vector<double> values);

/** Geometric mean of positive values (0 when empty). */
double geomean(const std::vector<double>& values);

/**
 * Bit-exact digest of simulated outputs: every value is folded in by
 * its IEEE bit pattern, so two runs agree only when every output is
 * identical bit for bit.
 */
class Digest
{
  public:
    void add(uint64_t v);
    void add(double v)
    {
        uint64_t bits = 0;
        std::memcpy(&bits, &v, sizeof bits);
        add(bits);
    }
    void add(const std::vector<double>& values)
    {
        add(static_cast<uint64_t>(values.size()));
        for (double v : values)
            add(v);
    }
    uint64_t value() const { return h_; }

  private:
    uint64_t h_ = 0xcbf29ce484222325ULL;
};

/** One recorded span of the traced run. */
struct Span
{
    std::string name;
    double start = 0;    ///< seconds since the recorder's origin
    double end = 0;
    int parent = -1;     ///< index of the enclosing span, -1 at the root
    uint32_t repeat = 0; ///< workload repeat the span belongs to
};

/**
 * In-memory span recorder. Spans nest strictly (the benchmark is
 * single-threaded), so a span's self time is its duration minus the
 * durations of its direct children. Nothing is written until
 * writeJson() at the end of the run.
 */
class SpanRecorder
{
  public:
    SpanRecorder();

    /** Open a span under the innermost open one; returns its index. */
    int open(const std::string& name);
    void close(int idx);

    /** Spans opened from now on carry this repeat id. */
    void setRepeat(uint32_t repeat) { repeat_ = repeat; }

    const std::vector<Span>& spans() const { return spans_; }

    /** Self seconds summed per span name. */
    std::map<std::string, double> selfSeconds() const;

    /** Total seconds summed per span name. */
    std::map<std::string, double> totalSeconds() const;

    void writeJson(std::ostream& os) const;

  private:
    Clock::time_point origin_;
    std::vector<Span> spans_;
    std::vector<int> stack_;
    uint32_t repeat_ = 0;
};

/**
 * RAII span around one call into the library. A null recorder (the
 * untraced run) makes it a no-op, so the end-to-end passes pay
 * nothing for it.
 */
class ScopedSpan
{
  public:
    ScopedSpan(SpanRecorder* rec, const char* name)
        : rec_(rec), idx_(rec ? rec->open(name) : -1)
    {
    }
    ~ScopedSpan()
    {
        if (rec_)
            rec_->close(idx_);
    }
    ScopedSpan(const ScopedSpan&) = delete;
    ScopedSpan& operator=(const ScopedSpan&) = delete;

  private:
    SpanRecorder* rec_;
    int idx_;
};

/** Where and how the host-time numbers were measured. */
struct HostInfo
{
    std::string cpuModel;
    unsigned nproc = 0;
    double effectiveParallelism = 0;  ///< from the spin calibration
    std::string compiler;
    std::string flags;
    std::string buildType;
};

/**
 * Describe the host. The spin calibration times one spinning thread,
 * then nproc threads each doing the same spin: effective parallelism
 * is nproc * t(1) / t(nproc), which reads below nproc on a shared or
 * throttled host.
 */
HostInfo describeHost();

void writeHostJson(std::ostream& os, const HostInfo& host);

/** Peak resident set size of this process so far, in MB. */
double peakRssMb();

} // namespace perfbench

#endif // PERFBENCH_SUPPORT_HH
