/**
 * @file
 * Shared helpers for the figure/table reproduction binaries.
 *
 * Every binary prints the series of one paper table or figure through
 * TextTable so outputs stay uniform and parseable. Seeds are fixed:
 * each binary's output is identical run-to-run.
 */

#ifndef DRS_BENCH_COMMON_HH
#define DRS_BENCH_COMMON_HH

#include <charconv>
#include <cstdlib>
#include <iostream>
#include <string>
#include <utility>
#include <vector>

#include "base/table.hh"
#include "base/thread_pool.hh"
#include "core/deeprecsched.hh"
#include "obs/observer.hh"

namespace deeprecsys::bench {

/** Queries per simulator evaluation used by the reproductions. */
constexpr size_t benchQueries = 1500;

/** The three SLA tiers evaluated by the paper. */
inline const std::vector<SlaTier>&
allTiers()
{
    static const std::vector<SlaTier> tiers = {
        SlaTier::Low, SlaTier::Medium, SlaTier::High};
    return tiers;
}

/** Standard experiment context for one model on Skylake. */
inline InfraConfig
defaultInfra(ModelId model, bool gpu = false)
{
    InfraConfig cfg;
    cfg.model = model;
    cfg.attachGpu = gpu;
    cfg.numQueries = benchQueries;
    return cfg;
}

/** Geometric mean of a series (requires positive entries). */
inline double
geomean(const std::vector<double>& values)
{
    if (values.empty())
        return 0.0;
    double log_sum = 0.0;
    for (double v : values)
        log_sum += std::log(v);
    return std::exp(log_sum / static_cast<double>(values.size()));
}

/**
 * Print a latency-attribution StageSplit (obs/observer.hh) as the
 * paper's Figure-6-style decomposition: mean per-query milliseconds
 * and share of total latency per stage. The four stages partition the
 * total by construction, so the shares sum to 100%.
 */
inline void
printStageSplit(std::ostream& os, const obs::StageSplit& split)
{
    os << "latency attribution ("
       << TextTable::num(static_cast<int64_t>(split.queries))
       << " measured queries):\n";
    TextTable table({"stage", "mean ms/query", "share %"});
    const std::pair<const char*, double> stages[] = {
        {"queue", split.queueSeconds},
        {"service", split.serviceSeconds},
        {"network", split.networkSeconds},
        {"join wait", split.joinWaitSeconds},
        {"total", split.totalSeconds},
    };
    for (const auto& [name, seconds] : stages)
        table.addRow({name, TextTable::num(split.meanMs(seconds), 3),
                      TextTable::num(100.0 * split.fraction(seconds), 1)});
    table.print(os);
}

/**
 * The command line of a bench binary: switches, options that take a
 * value, and at most one positional argument (the JSON output path).
 * parse() prints usage and exits 0 on --help; an unknown flag, an
 * option without its value, a bad number, or a second positional
 * argument exits 2 with the usage on stderr before the bench runs or
 * writes anything. A value may not start with '-', so "--trace
 * --smoke" is a missing value, not a file named "--smoke".
 *
 *     bool smoke = false;
 *     std::string json_path;
 *     CommandLine("fig99", "what the bench studies")
 *         .flag("--smoke", smoke, "a short run for CI")
 *         .positional("JSON", json_path, "write the table as JSON")
 *         .parse(argc, argv);
 */
class CommandLine
{
  public:
    CommandLine(std::string name, std::string summary)
        : name_(std::move(name)), summary_(std::move(summary))
    {
    }

    /** A switch: @p out becomes true when @p flag is given. */
    CommandLine&
    flag(const char* flag, bool& out, const char* help)
    {
        args_.push_back({flag, nullptr, help, &out});
        return *this;
    }

    /** @p flag VALUE: a string, e.g. an output path. */
    CommandLine&
    option(const char* flag, std::string& out, const char* metavar,
           const char* help)
    {
        args_.push_back({flag, metavar, help, nullptr, &out});
        return *this;
    }

    /** @p flag N: a decimal integer in [0, @p max]. */
    CommandLine&
    number(const char* flag, size_t& out, size_t max, const char* metavar,
           const char* help)
    {
        args_.push_back({flag, metavar, help, nullptr, nullptr, &out, max});
        return *this;
    }

    /** The one optional positional argument. */
    CommandLine&
    positional(const char* metavar, std::string& out, const char* help)
    {
        positional_ = {nullptr, metavar, help, nullptr, &out};
        return *this;
    }

    void
    parse(int argc, char** argv) const
    {
        bool positional_seen = false;
        for (int i = 1; i < argc; i++) {
            const std::string arg = argv[i];
            if (arg == "--help") {
                printUsage(std::cout);
                std::exit(0);
            }
            if (arg.empty() || arg[0] != '-') {
                if (positional_seen || !positional_.metavar)
                    fail("unexpected argument '" + arg + "'");
                *positional_.text = arg;
                positional_seen = true;
                continue;
            }
            const Arg* spec = nullptr;
            for (const Arg& a : args_)
                if (arg == a.flag)
                    spec = &a;
            if (!spec)
                fail("unknown option '" + arg + "'");
            if (spec->on) {
                *spec->on = true;
                continue;
            }
            if (i + 1 >= argc || argv[i + 1][0] == '-' ||
                argv[i + 1][0] == '\0')
                fail("option '" + arg + "' needs a value (" +
                     spec->metavar + ")");
            const std::string value = argv[++i];
            if (spec->text) {
                *spec->text = value;
                continue;
            }
            size_t n = 0;
            const char* end = value.data() + value.size();
            const auto [ptr, ec] = std::from_chars(value.data(), end, n);
            if (ec != std::errc() || ptr != end || n > spec->max)
                fail("option '" + arg + "' needs an integer in [0, " +
                     std::to_string(spec->max) + "], not '" + value + "'");
            *spec->count = n;
        }
    }

  private:
    /** One argument; exactly one of on, text and count is set. */
    struct Arg
    {
        const char* flag = nullptr;
        const char* metavar = nullptr;    ///< nullptr on a switch
        const char* help = nullptr;
        bool* on = nullptr;
        std::string* text = nullptr;
        size_t* count = nullptr;
        size_t max = 0;                   ///< largest accepted count
    };

    void
    printUsage(std::ostream& os) const
    {
        os << "usage: " << name_ << " [--help]";
        for (const Arg& a : args_) {
            os << " [" << a.flag;
            if (a.metavar)
                os << " " << a.metavar;
            os << "]";
        }
        if (positional_.metavar)
            os << " [" << positional_.metavar << "]";
        os << "\n\n" << summary_ << "\n\n";
        os << "  --help  print this message and exit\n";
        for (const Arg& a : args_) {
            os << "  " << a.flag;
            if (a.metavar)
                os << " " << a.metavar;
            os << "  " << a.help << "\n";
        }
        if (positional_.metavar)
            os << "  " << positional_.metavar << "  " << positional_.help
               << "\n";
    }

    [[noreturn]] void
    fail(const std::string& message) const
    {
        std::cerr << name_ << ": " << message << "\n";
        printUsage(std::cerr);
        std::exit(2);
    }

    std::string name_;
    std::string summary_;
    std::vector<Arg> args_;
    Arg positional_;
};

/**
 * Evaluate one sweep point per grid item on the shared thread pool
 * (DRS_THREADS) and return the results **in input order** — never in
 * completion order, so a bench's printed table and JSON are identical
 * at every thread count (the golden/bench-JSON CI checks diff them).
 * Each fn(item) must be independent and deterministic; with
 * DRS_THREADS=1 this is exactly the historical serial loop.
 */
template <typename Item, typename Fn>
auto
sweepMap(const std::vector<Item>& items, Fn fn)
{
    return ThreadPool::shared().parallelMap(
        items.size(), [&](size_t i) { return fn(items[i]); });
}

} // namespace deeprecsys::bench

#endif // DRS_BENCH_COMMON_HH
