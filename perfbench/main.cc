/**
 * @file
 * perfbench: the repository benchmark driver binary.
 *
 *   perfbench --workload W --seed N --seconds S --trace 0|1 --out DIR
 *
 * Untraced (--trace 0): sets the workload up and repeats it until S
 * seconds have passed, and reports the median set-up (setup_s), the
 * sum of each part's fastest time over the repeats (wall_s; see
 * README.md) and the peak RSS of one set-up and one repeat. Traced
 * (--trace 1):
 * alternates untraced and traced repeats for S seconds — the traced
 * ones carry spans and an attribution RunObserver — then runs the
 * per-layer replays and reports every per-layer metric; the spans go
 * to DIR/spans-W-seedN.json. Both modes run the correctness gate: the
 * simulated outputs of every repeat must agree bit for bit, the books
 * of every cluster run must balance and tile, fixed-rate points must
 * hold on a 4x longer trace, and the real engine must answer every
 * query with the expected request count and in-range CTRs.
 *
 * The last stdout line is a JSON object of correct, attempted, failed
 * and the metric values by name; perfbench/run.py adds units. The
 * exit code is non-zero when any check failed.
 */

#include <time.h>

#include <algorithm>
#include <cstdlib>
#include <fstream>
#include <iomanip>
#include <iostream>
#include <set>
#include <string>

#include "support.hh"
#include "workloads.hh"

using namespace perfbench;

namespace {

double
threadCpuSeconds()
{
    timespec ts{};
    clock_gettime(CLOCK_THREAD_CPUTIME_ID, &ts);
    return static_cast<double>(ts.tv_sec) + 1e-9 * static_cast<double>(ts.tv_nsec);
}

/** Set-ups after the first repeat; one more precedes every repeat,
 *  so set-ups sample the host across the run. setup_s is the median
 *  of all of them. */
constexpr int kExtraSetups = 4;

/** Per-layer metrics every traced run reports. A layer that does no
 *  work on a workload reads 0 there (see perfbench/README.md). */
const std::vector<std::string> kLayerMetrics = {
    "sim_max_qps", "sched_speedup", "sim_p50_ms.q1800",
    "sim_p99_ms.q1800", "sim_p50_ms.q2900", "sim_p99_ms.q2900",
    "sim_p50_ms.day", "sim_p99_ms.day", "goodput_frac", "failed_frac",
    "machine_hours_frac", "real_qps", "sim_events_per_s",
    "loadgen.ns_per_query", "costmodel.ns_per_price", "sim.ns_per_event",
    "sim.events", "sim.cpu_util", "sim.gpu_work_frac", "core.evaluations",
    "core.gpu_speedup", "cluster.routing.ns_per_route",
    "cluster.routing.mean_fanout", "cluster.routing.parts",
    "cluster.shard.ns_per_tables_of_query", "cluster.shard.ns_per_holds_all",
    "cluster.shard.build_s", "cluster.driver.ns_per_event",
    "cluster.driver.queue_ms", "cluster.driver.service_ms",
    "cluster.driver.network_ms", "cluster.driver.join_wait_ms",
    "cluster.driver.util_mean", "cluster.driver.util_max",
    "cluster.admission.dropped", "cluster.admission.degraded",
    "cluster.admission.retried", "cluster.faults.crashes",
    "cluster.faults.failovers", "cluster.faults.lost",
    "cluster.autoscaler.scale_events", "cluster.autoscaler.sla_violation_s",
    "cluster.autoscaler.min_serving", "cluster.autoscaler.max_serving",
    "serving.requests", "serving.fc_ms_per_query",
    "serving.emb_ms_per_query", "nn.fc_gflops", "nn.emb_gbps",
    "obs.overhead_frac", "backlog.points", "backlog.flagged",
};

struct Args
{
    std::string workload;
    uint64_t seed = 1;
    double seconds = 10;
    bool trace = false;
    std::string outDir = ".";
};

bool
parseArgs(int argc, char** argv, Args& args)
{
    for (int i = 1; i + 1 < argc; i += 2) {
        const std::string key = argv[i];
        const std::string value = argv[i + 1];
        if (key == "--workload")
            args.workload = value;
        else if (key == "--seed")
            args.seed = std::stoull(value);
        else if (key == "--seconds")
            args.seconds = std::stod(value);
        else if (key == "--trace")
            args.trace = value == "1";
        else if (key == "--out")
            args.outDir = value;
        else
            return false;
    }
    return argc % 2 == 1 && !args.workload.empty() && args.seconds > 0;
}

/** Refuse more simulator threads than the host has processors. */
bool
checkThreads(unsigned nproc)
{
    const char* env = std::getenv("DRS_THREADS");
    if (!env) {
        setenv("DRS_THREADS", "1", 1);
        return true;
    }
    const long threads = std::strtol(env, nullptr, 10);
    if (threads < 1 || static_cast<unsigned long>(threads) > nproc) {
        std::cerr << "perfbench: DRS_THREADS=" << env
                  << " is outside 1.." << nproc << " (nproc)\n";
        return false;
    }
    return true;
}

void
merge(PassResult& total, const PassResult& r)
{
    total.attempted += r.attempted;
    total.failed += r.failed;
    total.failures.insert(total.failures.end(), r.failures.begin(),
                          r.failures.end());
}

void
printSelfTimes(const SpanRecorder& rec)
{
    const auto self = rec.selfSeconds();
    const auto total = rec.totalSeconds();
    std::cout << "span self time (s) / total (s):\n";
    for (const auto& [name, seconds] : self) {
        std::cout << "  " << std::left << std::setw(36) << name
                  << std::right << std::setw(12) << std::setprecision(6)
                  << seconds << std::setw(12) << total.at(name) << "\n";
    }
}

} // namespace

int
main(int argc, char** argv)
{
    Args args;
    if (!parseArgs(argc, argv, args)) {
        std::cerr << "usage: perfbench --workload W --seed N --seconds S "
                     "--trace 0|1 [--out DIR]\n";
        return 2;
    }
    std::unique_ptr<Workload> w = makeWorkload(args.workload, args.seed);
    if (!w) {
        std::cerr << "perfbench: unknown workload " << args.workload << "\n";
        return 2;
    }
    const HostInfo host = describeHost();
    if (!checkThreads(host.nproc))
        return 2;
    std::cout << "host: ";
    writeHostJson(std::cout, host);
    std::cout << "\nworkload " << args.workload << ", seed " << args.seed
              << ", DRS_THREADS=" << std::getenv("DRS_THREADS")
              << ", trace " << args.trace << "\n";

    SpanRecorder recorder;
    SpanRecorder* rec = args.trace ? &recorder : nullptr;
    uint32_t repeat = 0;

    std::vector<double> setups;
    auto set_up = [&](SpanRecorder* r) {
        const auto start = Clock::now();
        w->setup(r);
        setups.push_back(secondsBetween(start, Clock::now()));
    };

    // Measured repeats. The traced run interleaves untraced and
    // traced repeats so host drift hits both sides of the overhead.
    PassResult total;
    double peak_rss = 0;
    std::vector<double> walls, traced_walls, event_rates;
    std::vector<std::vector<double>> parts;   ///< [part][untraced repeat]
    std::set<uint64_t> digests;
    const auto measure_start = Clock::now();
    while (secondsBetween(measure_start, Clock::now()) < args.seconds ||
           walls.size() < 2 || (args.trace && traced_walls.size() < 2)) {
        set_up(nullptr);
        auto start = Clock::now();
        const double cpu_start = threadCpuSeconds();
        const PassResult r = w->pass(nullptr, false);
        walls.push_back(secondsBetween(start, Clock::now()));
        std::cout << "repeat " << walls.size() << ": wall " << walls.back()
                  << " s, thread cpu " << threadCpuSeconds() - cpu_start
                  << " s\n";
        merge(total, r);
        digests.insert(r.digest);
        parts.resize(r.partSeconds.size());
        for (size_t i = 0; i < r.partSeconds.size(); i++)
            parts[i].push_back(r.partSeconds[i]);
        if (r.events > 0)
            event_rates.push_back(r.events / r.eventSeconds);
        if (walls.size() == 1) {
            // Peak RSS of one set-up and one repeat. Later set-ups
            // free and rebuild the inputs, and how far the heap grows
            // across them varies from run to run.
            peak_rss = peakRssMb();
            for (int k = 0; k < kExtraSetups; k++)
                set_up(nullptr);
        }
        if (args.trace) {
            recorder.setRepeat(repeat++);
            set_up(rec);
            start = Clock::now();
            const PassResult t = w->pass(rec, true);
            traced_walls.push_back(secondsBetween(start, Clock::now()));
            merge(total, t);
            digests.insert(t.digest);
        }
    }
    total.attempted++;
    total.check(digests.size() == 1,
                "outputs differ bit for bit between repeats (" +
                    std::to_string(digests.size()) + " digests over " +
                    std::to_string(walls.size() + traced_walls.size()) +
                    " repeats)");

    recorder.setRepeat(repeat++);
    const BacklogReport backlog = w->postChecks(rec);
    merge(total, backlog.checks);
    for (const std::string& line : backlog.lines)
        std::cout << "backlog: " << line << "\n";

    Metrics metrics;
    if (!args.trace) {
        metrics["setup_s"] = median(setups);
        double wall = 0;
        for (const std::vector<double>& part : parts)
            wall += *std::min_element(part.begin(), part.end());
        metrics["wall_s"] = wall;
        metrics["peak_rss_mb"] = peak_rss;
    } else {
        w->answers(metrics);
        w->layerReplays(metrics, rec);
        if (!event_rates.empty()) {
            const double rate = median(event_rates);
            metrics["sim_events_per_s"] = rate;
            metrics["cluster.driver.ns_per_event"] = 1e9 / rate;
        }
        sharedLayerReplays(w->load(), args.seed, metrics, rec);
        metrics["obs.overhead_frac"] =
            median(traced_walls) / median(walls) - 1.0;
        metrics["backlog.points"] = static_cast<double>(backlog.points);
        metrics["backlog.flagged"] = static_cast<double>(backlog.flagged);
        for (const std::string& name : kLayerMetrics)
            metrics.emplace(name, 0.0);
        if (metrics.size() != kLayerMetrics.size()) {
            std::cerr << "perfbench: a workload reported an undeclared "
                         "per-layer metric\n";
            return 3;
        }
        const std::string path = args.outDir + "/spans-" + args.workload +
            "-seed" + std::to_string(args.seed) + ".json";
        std::ofstream spans(path);
        recorder.writeJson(spans);
        std::cout << "wrote " << recorder.spans().size() << " spans to "
                  << path << "\n";
        printSelfTimes(recorder);
    }

    std::cout << "repeats: " << walls.size() << " untraced, "
              << traced_walls.size() << " traced; setups " << setups.size()
              << "\n";
    for (const std::string& f : total.failures)
        std::cout << "FAILED: " << f << "\n";

    std::cout << std::setprecision(15) << "{\"correct\": "
              << (total.failed == 0 ? "true" : "false")
              << ", \"attempted\": " << total.attempted
              << ", \"failed\": " << total.failed << ", \"metrics\": {";
    bool first = true;
    for (const auto& [name, value] : metrics) {
        std::cout << (first ? "" : ", ") << "\"" << name << "\": " << value;
        first = false;
    }
    std::cout << "}}" << std::endl;
    return total.failed == 0 ? 0 : 1;
}
