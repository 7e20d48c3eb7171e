/**
 * @file
 * Self-measuring performance benchmark of the simulation runtime —
 * the simulator simulating how fast it simulates.
 *
 * Scenarios:
 *
 *  - `fig11_single_machine`: one ServingSimulator run over a long
 *    production trace (the fig11 operating point) — the engine
 *    hot-path metric: simulated events/second on one thread.
 *  - `cluster16_sharded`: a 16-machine sharded TwoStage cluster run
 *    with shard-aware routing — the cluster driver hot path.
 *  - `cluster16_obs_off` / `cluster16_obs_on`: the same workload with
 *    the observability layer explicitly detached and fully attached.
 *    The detached run gates the obs integration's disabled path (the
 *    null-observer pointer test plus the engine's first-service
 *    stamp) at <1% overhead (+5 ms timer-noise floor) against the
 *    baseline measured in the same process: the three runs repeat in
 *    interleaved rounds (at least 5) and the gate compares medians,
 *    reporting each run's interquartile range. Both runs must
 *    reproduce the baseline's statistics exactly — observing a run
 *    must never change it.
 *  - `find_max_qps`, `cluster_max_qps`, `plan_capacity`,
 *    `grid_sweep`: the embarrassingly parallel search layers, each
 *    run at 1 thread and at N threads (in-process pool resize) with
 *    results checked bit-identical and the wall-clock speedup
 *    reported.
 *
 * Output: a table to stdout and a JSON report (default
 * BENCH_sim_perf.json) that CI archives. `--smoke` shrinks every
 * scenario for a seconds-long CI run; `--threads K` overrides the
 * parallel thread count (default: DRS_THREADS / hardware).
 *
 * Events metric: CPU request completions + query completions (+ parts
 * and joins for the cluster), i.e. heap pops — the unit of work of a
 * discrete-event simulator.
 */

#include <chrono>
#include <fstream>
#include <iostream>
#include <string>
#include <vector>

#include "base/stats.hh"
#include "bench/bench_common.hh"
#include "cluster/capacity_planner.hh"
#include "obs/observer.hh"
#include "cluster/cluster_qps_search.hh"
#include "cluster/cluster_sim.hh"
#include "loadgen/query_stream.hh"
#include "sim/qps_search.hh"

using namespace deeprecsys;
using namespace deeprecsys::bench;

namespace {

using Clock = std::chrono::steady_clock;

double
seconds(Clock::time_point start, Clock::time_point stop)
{
    return std::chrono::duration<double>(stop - start).count();
}

/** Best-of-N wall clock for a callable (N small: sims are seconds). */
template <typename Fn>
double
bestWall(size_t repeats, Fn&& fn)
{
    double best = -1.0;
    for (size_t r = 0; r < repeats; r++) {
        const auto start = Clock::now();
        fn();
        const double w = seconds(start, Clock::now());
        if (best < 0.0 || w < best)
            best = w;
    }
    return best;
}

struct ScenarioReport
{
    std::string name;
    double wallSerial = 0;     ///< seconds at 1 thread
    double wallParallel = 0;   ///< seconds at N threads (0: n/a)
    double events = 0;         ///< simulated events (serial run)
    double queries = 0;        ///< simulated queries (serial run)
    bool identical = true;     ///< parallel result bitwise == serial

    double
    speedup() const
    {
        return wallParallel > 0.0 ? wallSerial / wallParallel : 1.0;
    }
};

SimConfig
rmc1Machine(size_t batch = 256)
{
    const ModelProfile profile = ModelProfile::forModel(ModelId::DlrmRmc1);
    SchedulerPolicy policy;
    policy.perRequestBatch = batch;
    return SimConfig{CpuCostModel(profile, CpuPlatform::skylake()),
                     std::nullopt, policy, 0.05, 1.0};
}

ClusterConfig
shardedCluster16()
{
    const ModelProfile profile = ModelProfile::forModel(ModelId::DlrmRmc2);
    ClusterConfig cluster;
    for (size_t m = 0; m < 16; m++) {
        SchedulerPolicy policy;
        policy.perRequestBatch = 256;
        SimConfig machine{CpuCostModel(profile, CpuPlatform::skylake()),
                          std::nullopt, policy, 0.05, 1.0};
        machine.memoryBytes = 1'500'000'000ULL;
        cluster.machines.push_back(machine);
    }
    cluster.network.hopSeconds = 150e-6;
    cluster.network.gigabytesPerSecond = 12.5;
    const std::vector<EmbeddingTableInfo> tables =
        embeddingTables(modelConfig(ModelId::DlrmRmc2));
    PlacementSpec placement_spec;
    const ShardPlacement placement = ShardPlacement::build(
        tables, machineMemoryBudgets(cluster.machines), placement_spec);
    TableSetSpec table_set;
    table_set.numTables = static_cast<uint32_t>(tables.size());
    table_set.tablesPerQuery = 8;
    cluster.sharding = ShardingConfig{placement, table_set};
    return cluster;
}

/** The observability disabled-path overhead gate (see main): median
 *  walls over interleaved rounds and their interquartile ranges. */
struct ObsGate
{
    double baselineWall = 0;
    double offWall = 0;
    double onWall = 0;
    size_t rounds = 0;
    double baselineIqr = 0;
    double offIqr = 0;
    double onIqr = 0;
    bool pass = true;
};

/** Interquartile range of a set of wall-clock samples. */
double
iqr(const SampleStats& walls)
{
    return walls.percentile(75) - walls.percentile(25);
}

void
writeJson(const std::string& path,
          const std::vector<ScenarioReport>& reports, size_t threads,
          double combined_speedup, const ObsGate& gate)
{
    std::ofstream out(path);
    if (!out.good()) {
        std::cerr << "cannot write " << path << "\n";
        return;
    }
    out.precision(6);
    out << "{\n  \"threads\": " << threads << ",\n"
        << "  \"combined_search_speedup\": " << combined_speedup
        << ",\n  \"obs_overhead_gate\": {"
        << "\"baseline_s\": " << gate.baselineWall << ", "
        << "\"obs_off_s\": " << gate.offWall << ", "
        << "\"obs_on_s\": " << gate.onWall << ", "
        << "\"rounds\": " << gate.rounds << ", "
        << "\"baseline_iqr_s\": " << gate.baselineIqr << ", "
        << "\"obs_off_iqr_s\": " << gate.offIqr << ", "
        << "\"obs_on_iqr_s\": " << gate.onIqr << ", "
        << "\"off_overhead_frac\": "
        << (gate.baselineWall > 0.0
                ? gate.offWall / gate.baselineWall - 1.0
                : 0.0)
        << ", \"pass\": " << (gate.pass ? "true" : "false") << "}"
        << ",\n  \"scenarios\": {\n";
    for (size_t i = 0; i < reports.size(); i++) {
        const ScenarioReport& r = reports[i];
        out << "    \"" << r.name << "\": {"
            << "\"wall_serial_s\": " << r.wallSerial << ", "
            << "\"wall_parallel_s\": " << r.wallParallel << ", "
            << "\"speedup\": " << r.speedup() << ", "
            << "\"events\": " << r.events << ", "
            << "\"events_per_s\": "
            << (r.wallSerial > 0.0 ? r.events / r.wallSerial : 0.0)
            << ", "
            << "\"queries_per_s\": "
            << (r.wallSerial > 0.0 ? r.queries / r.wallSerial : 0.0)
            << ", "
            << "\"parallel_identical\": "
            << (r.identical ? "true" : "false") << "}"
            << (i + 1 < reports.size() ? "," : "") << "\n";
    }
    out << "  }\n}\n";
    std::cout << "wrote " << path << "\n";
}

} // namespace

int
main(int argc, char** argv)
{
    bool smoke = false;
    size_t threads = ThreadPool::defaultThreadCount();
    std::string out_path = "BENCH_sim_perf.json";
    CommandLine("perf_engine",
                "Wall time and events/s of the simulation runtime, "
                "serial and parallel.")
        .flag("--smoke", smoke, "one repeat per scenario")
        .number("--threads", threads, 1024, "N",
                "pool threads of the parallel runs (default: the "
                "host's; 0 means 1)")
        .positional("JSON", out_path,
                    "where to write the report (default "
                    "BENCH_sim_perf.json)")
        .parse(argc, argv);
    if (threads < 1)
        threads = 1;
    const size_t repeats = smoke ? 1 : 3;

    printBanner(std::cout,
                "perf_engine: simulation-runtime benchmark (" +
                    std::to_string(threads) + " threads" +
                    (smoke ? ", smoke" : "") + ")");
    std::vector<ScenarioReport> reports;

    // ---- engine hot path: fig11 single-machine run (serial only;
    // one simulation is a serial dependence chain by design).
    {
        ScenarioReport report;
        report.name = "fig11_single_machine";
        const SimConfig cfg = rmc1Machine();
        LoadSpec load;
        load.qps = 600.0;
        QueryStream stream(load);
        const QueryTrace trace =
            stream.generate(smoke ? 20000 : 120000);
        ServingSimulator sim(cfg);
        SimResult result;
        report.wallSerial =
            bestWall(repeats, [&] { result = sim.run(trace); });
        report.events = static_cast<double>(result.numRequests) +
            static_cast<double>(result.numQueries);
        report.queries = static_cast<double>(result.numQueries);
        reports.push_back(report);
    }

    // ---- cluster driver hot path: 16-machine sharded fan-out/join,
    // plus the observability overhead gate. The three runs share one
    // process and trace, and their repeats are interleaved — each
    // round runs baseline, detached, and attached back to back — so a
    // slow host phase hits all three alike; the gate compares medians.
    bool obs_gate_pass = true;
    ObsGate gate;
    {
        const ClusterConfig cluster = shardedCluster16();
        LoadSpec load;
        load.qps = 4000.0;
        QueryStream stream(load);
        const QueryTrace trace =
            stream.generate(smoke ? 10000 : 60000);
        const RoutingSpec routing{RoutingKind::ShardAware};
        // Wall noise of one run is far above the 1% gate band; the
        // gated trio always takes the median of at least 5 rounds,
        // smoke or not.
        const size_t gate_rounds = repeats < 5 ? 5 : repeats;

        auto cluster_events = [](const ClusterResult& r) {
            uint64_t requests = 0;
            uint64_t joins = 0;
            for (const MachineStats& m : r.perMachine) {
                requests += m.requestsDispatched;
                joins += m.joinPhases;
            }
            return static_cast<double>(requests + r.numParts + joins +
                                       r.numCompleted);
        };
        auto same_result = [](const ClusterResult& a,
                              const ClusterResult& b) {
            return a.numCompleted == b.numCompleted &&
                a.numParts == b.numParts && a.p99Ms() == b.p99Ms() &&
                a.meanFanout == b.meanFanout;
        };

        ClusterSimulator sim(cluster);
        ClusterResult base;
        ClusterResult off;
        ClusterResult on;
        SampleStats base_walls;
        SampleStats off_walls;
        SampleStats on_walls;
        for (size_t round = 0; round < gate_rounds; round++) {
            base_walls.add(
                bestWall(1, [&] { base = sim.run(trace, routing); }));
            sim.setObserver(nullptr);   // the default disabled path
            off_walls.add(
                bestWall(1, [&] { off = sim.run(trace, routing); }));
            on_walls.add(bestWall(1, [&] {
                // One observer per run: a fresh one each round.
                obs::RunObserver observer(obs::ObsConfig::full(0.001),
                                          cluster.machines.size());
                sim.setObserver(&observer);
                on = sim.run(trace, routing);
                sim.setObserver(nullptr);
            }));
        }
        gate.baselineWall = base_walls.p50();
        gate.offWall = off_walls.p50();
        gate.onWall = on_walls.p50();
        gate.rounds = gate_rounds;
        gate.baselineIqr = iqr(base_walls);
        gate.offIqr = iqr(off_walls);
        gate.onIqr = iqr(on_walls);

        const std::pair<const char*, const ClusterResult*> runs[] = {
            {"cluster16_sharded", &base},
            {"cluster16_obs_off", &off},
            {"cluster16_obs_on", &on},
        };
        const double walls[] = {gate.baselineWall, gate.offWall,
                                gate.onWall};
        for (size_t i = 0; i < 3; i++) {
            ScenarioReport report;
            report.name = runs[i].first;
            report.wallSerial = walls[i];
            report.events = cluster_events(*runs[i].second);
            report.queries =
                static_cast<double>(runs[i].second->numCompleted);
            report.identical = same_result(base, *runs[i].second);
            reports.push_back(report);
        }

        obs_gate_pass =
            gate.offWall <= gate.baselineWall * 1.01 + 0.005;
        gate.pass = obs_gate_pass;
        std::cout << "obs overhead vs cluster16_sharded: off "
                  << TextTable::num(
                         100.0 * (gate.offWall / gate.baselineWall - 1.0),
                         2)
                  << "% (gate <1% +5ms: "
                  << (obs_gate_pass ? "PASS" : "FAIL") << "), on "
                  << TextTable::num(
                         100.0 * (gate.onWall / gate.baselineWall - 1.0),
                         2)
                  << "%; medians of " << gate_rounds
                  << " interleaved rounds, IQR baseline "
                  << TextTable::num(gate.baselineIqr * 1e3, 2)
                  << " ms, off " << TextTable::num(gate.offIqr * 1e3, 2)
                  << " ms, on " << TextTable::num(gate.onIqr * 1e3, 2)
                  << " ms\n";
    }

    // ---- parallel layers: serial vs parallel wall, results must be
    // bit-identical (the determinism contract).
    auto timed_pair = [&](auto fn, auto& serial_out, auto& parallel_out,
                          ScenarioReport& report) {
        ThreadPool::setSharedThreads(1);
        report.wallSerial = bestWall(repeats, [&] { serial_out = fn(); });
        ThreadPool::setSharedThreads(threads);
        report.wallParallel =
            bestWall(repeats, [&] { parallel_out = fn(); });
        ThreadPool::setSharedThreads(1);
    };

    {
        ScenarioReport report;
        report.name = "find_max_qps";
        QpsSearchSpec spec;
        spec.slaMs = 100.0;
        spec.numQueries = smoke ? 1200 : 4000;
        QpsSearchResult serial, parallel;
        timed_pair([&] { return findMaxQps(rmc1Machine(), spec); },
                   serial, parallel, report);
        report.identical = serial.maxQps == parallel.maxQps &&
            serial.evaluations == parallel.evaluations &&
            serial.atMax.p99Ms() == parallel.atMax.p99Ms();
        report.queries = static_cast<double>(serial.evaluations) *
            static_cast<double>(spec.numQueries);
        report.events = report.queries +
            static_cast<double>(serial.evaluations) *
                static_cast<double>(serial.atMax.numRequests);
        reports.push_back(report);
        std::cout << "find_max_qps: maxQps=" << serial.maxQps
                  << " evaluations=" << serial.evaluations << "\n";
    }

    {
        ScenarioReport report;
        report.name = "cluster_max_qps";
        ClusterQpsSpec spec;
        spec.slaMs = 100.0;
        spec.numQueries = smoke ? 1600 : 4800;
        spec.routing.kind = RoutingKind::JoinShortestQueue;
        ClusterConfig cluster;
        for (size_t m = 0; m < 8; m++)
            cluster.machines.push_back(rmc1Machine());
        ClusterQpsResult serial, parallel;
        timed_pair([&] { return findClusterMaxQps(cluster, spec); },
                   serial, parallel, report);
        report.identical = serial.maxQps == parallel.maxQps &&
            serial.evaluations == parallel.evaluations &&
            serial.atMax.p99Ms() == parallel.atMax.p99Ms();
        report.queries = static_cast<double>(serial.evaluations) *
            static_cast<double>(spec.numQueries);
        reports.push_back(report);
        std::cout << "cluster_max_qps: maxQps=" << serial.maxQps
                  << " evaluations=" << serial.evaluations << "\n";
    }

    {
        ScenarioReport report;
        report.name = "plan_capacity";
        CapacityPlanSpec spec;
        spec.unitMachines = {rmc1Machine()};
        spec.targetQps = smoke ? 4000.0 : 8000.0;
        spec.slaMs = 100.0;
        spec.queriesPerMachine = smoke ? 200 : 300;
        spec.minQueries = smoke ? 1000 : 2000;
        spec.maxUnits = 64;
        CapacityPlan serial, parallel;
        timed_pair([&] { return planCapacity(spec); }, serial, parallel,
                   report);
        report.identical = serial.units == parallel.units &&
            serial.evaluations == parallel.evaluations &&
            serial.atPlan.p99Ms() == parallel.atPlan.p99Ms();
        reports.push_back(report);
        std::cout << "plan_capacity: units=" << serial.units
                  << " evaluations=" << serial.evaluations << "\n";
    }

    {
        ScenarioReport report;
        report.name = "grid_sweep";
        // A fig09-style batch grid: independent simulations, the
        // embarrassingly parallel bench shape.
        std::vector<size_t> batches;
        for (size_t b = 1; b <= 2048; b *= 2)
            batches.push_back(b);
        const size_t queries = smoke ? 1000 : 3000;
        auto sweep = [&] {
            return sweepMap(batches, [&](size_t batch) {
                LoadSpec load;
                return evaluateAtQps(rmc1Machine(batch), load, 600.0,
                                     queries)
                    .p95Ms();
            });
        };
        std::vector<double> serial, parallel;
        timed_pair(sweep, serial, parallel, report);
        report.identical = serial == parallel;
        report.queries =
            static_cast<double>(batches.size() * queries);
        reports.push_back(report);
    }

    // ---- report
    TextTable table({"scenario", "wall 1t (s)", "wall " +
                         std::to_string(threads) + "t (s)",
                     "speedup", "events/s (1t)", "queries/s (1t)",
                     "identical"});
    double search_serial = 0.0;
    double search_parallel = 0.0;
    bool all_identical = true;
    for (const ScenarioReport& r : reports) {
        table.addRow({r.name, TextTable::num(r.wallSerial, 4),
                      r.wallParallel > 0.0
                          ? TextTable::num(r.wallParallel, 4)
                          : "-",
                      r.wallParallel > 0.0
                          ? TextTable::num(r.speedup(), 2) + "x"
                          : "-",
                      r.events > 0.0 && r.wallSerial > 0.0
                          ? TextTable::num(r.events / r.wallSerial, 0)
                          : "-",
                      r.queries > 0.0 && r.wallSerial > 0.0
                          ? TextTable::num(r.queries / r.wallSerial, 0)
                          : "-",
                      r.identical ? "yes" : "NO"});
        if (r.wallParallel > 0.0) {
            search_serial += r.wallSerial;
            search_parallel += r.wallParallel;
        }
        all_identical = all_identical && r.identical;
    }
    table.print(std::cout);
    const double combined = search_parallel > 0.0
        ? search_serial / search_parallel
        : 1.0;
    std::cout << "\ncombined search/plan/sweep speedup at "
              << threads << " threads: "
              << TextTable::num(combined, 2) << "x"
              << (all_identical
                      ? " (parallel results bitwise-identical)"
                      : " (MISMATCH: parallel results diverged!)")
              << "\n";

    writeJson(out_path, reports, threads, combined, gate);
    if (!obs_gate_pass)
        std::cerr << "obs disabled-path overhead gate FAILED\n";
    return (all_identical && obs_gate_pass) ? 0 : 1;
}
