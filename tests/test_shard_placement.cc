/**
 * @file
 * Tests for embedding-shard placement and shard-aware cluster
 * serving: budgets are never exceeded, placement and routing are
 * deterministic, fan-out/join conserves queries, shard-aware routing
 * only targets machines holding the query's tables, and replication
 * beats single-copy placement under load on skewed popularity. The
 * placement's bit words and the router's bitmask set cover are checked
 * against plain-loop oracles.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <bit>
#include <set>

#include "base/random.hh"
#include "cluster/capacity_planner.hh"
#include "cluster/cluster_sim.hh"
#include "cluster/shard_placement.hh"
#include "loadgen/query_stream.hh"

namespace deeprecsys {
namespace {

constexpr uint64_t kGB = 1'000'000'000ULL;

std::vector<EmbeddingTableInfo>
rmc2Tables()
{
    return embeddingTables(modelConfig(ModelId::DlrmRmc2));
}

SimConfig
cpuMachine(uint64_t memory_bytes)
{
    const ModelProfile profile = ModelProfile::forModel(ModelId::DlrmRmc2);
    SchedulerPolicy policy;
    policy.perRequestBatch = 256;
    SimConfig machine{CpuCostModel(profile, CpuPlatform::skylake()),
                      std::nullopt, policy, 0.05, 1.0};
    machine.memoryBytes = memory_bytes;
    return machine;
}

ClusterConfig
shardedCluster(size_t n, uint64_t budget, PlacementStrategy strategy,
               uint32_t tables_per_query = 8)
{
    ClusterConfig cfg;
    for (size_t m = 0; m < n; m++)
        cfg.machines.push_back(cpuMachine(budget));
    PlacementSpec spec;
    spec.strategy = strategy;
    const ShardPlacement placement = ShardPlacement::build(
        rmc2Tables(), machineMemoryBudgets(cfg.machines), spec);
    TableSetSpec table_set;
    table_set.numTables =
        static_cast<uint32_t>(modelConfig(ModelId::DlrmRmc2).numTables);
    table_set.tablesPerQuery = tables_per_query;
    cfg.sharding = ShardingConfig{placement, table_set};
    return cfg;
}

QueryTrace
makeTrace(double qps, size_t count, uint64_t seed = 11)
{
    LoadSpec load;
    load.qps = qps;
    load.arrivalSeed = seed;
    load.sizeSeed = seed + 1;
    QueryStream stream(load);
    return stream.generate(count);
}

TEST(EmbeddingTables, MatchModelConfigAndNormalizePopularity)
{
    const std::vector<EmbeddingTableInfo> tables = rmc2Tables();
    const ModelConfig cfg = modelConfig(ModelId::DlrmRmc2);
    ASSERT_EQ(tables.size(), cfg.numTables);
    double popularity = 0.0;
    for (size_t t = 0; t < tables.size(); t++) {
        EXPECT_EQ(tables[t].id, t);
        EXPECT_EQ(tables[t].bytes,
                  cfg.tableRows * cfg.embeddingDim * sizeof(float));
        if (t > 0) {
            EXPECT_LE(tables[t].popularity, tables[t - 1].popularity);
        }
        popularity += tables[t].popularity;
    }
    EXPECT_NEAR(popularity, 1.0, 1e-9);

    // Attention models carry their behavior table as an extra shard.
    const std::vector<EmbeddingTableInfo> dien =
        embeddingTables(modelConfig(ModelId::Dien));
    EXPECT_EQ(dien.size(), modelConfig(ModelId::Dien).numTables + 1);
}

TEST(ShardPlacement, BudgetsNeverExceededAllStrategies)
{
    const std::vector<EmbeddingTableInfo> tables = rmc2Tables();
    const std::vector<uint64_t> budgets(8, 2 * kGB);
    for (PlacementStrategy strategy : allPlacementStrategies()) {
        PlacementSpec spec;
        spec.strategy = strategy;
        const ShardPlacement p =
            ShardPlacement::build(tables, budgets, spec);
        ASSERT_TRUE(p.feasible()) << placementStrategyName(strategy);
        for (size_t m = 0; m < budgets.size(); m++) {
            EXPECT_LE(p.bytesOnMachine(m), budgets[m])
                << placementStrategyName(strategy);
            // Per-machine byte accounting matches the table list.
            uint64_t bytes = 0;
            for (uint32_t t : p.tablesOnMachine(m))
                bytes += tables[t].bytes;
            EXPECT_EQ(bytes, p.bytesOnMachine(m));
        }
        for (uint32_t t = 0; t < tables.size(); t++)
            EXPECT_FALSE(p.machinesOfTable(t).empty());
    }
}

TEST(ShardPlacement, InfeasibleWhenTablesCannotFit)
{
    const std::vector<EmbeddingTableInfo> tables = rmc2Tables();
    // 8 machines x 1 GB < 8.2 GB of tables: something must not fit.
    const std::vector<uint64_t> tight(8, 1 * kGB);
    PlacementSpec spec;
    spec.strategy = PlacementStrategy::GreedyBySize;
    EXPECT_FALSE(ShardPlacement::build(tables, tight, spec).feasible());
    // A budget below a single table size cannot hold anything.
    const std::vector<uint64_t> tiny(8, tables[0].bytes - 1);
    EXPECT_FALSE(ShardPlacement::build(tables, tiny, spec).feasible());
}

TEST(ShardPlacement, DeterministicForEqualInputs)
{
    const std::vector<EmbeddingTableInfo> tables = rmc2Tables();
    const std::vector<uint64_t> budgets(8, 2 * kGB);
    for (PlacementStrategy strategy : allPlacementStrategies()) {
        PlacementSpec spec;
        spec.strategy = strategy;
        const ShardPlacement a = ShardPlacement::build(tables, budgets, spec);
        const ShardPlacement b = ShardPlacement::build(tables, budgets, spec);
        for (size_t m = 0; m < budgets.size(); m++)
            EXPECT_EQ(a.tablesOnMachine(m), b.tablesOnMachine(m));
    }
}

TEST(ShardPlacement, HotColdReplicatesThePopularPrefix)
{
    const std::vector<EmbeddingTableInfo> tables = rmc2Tables();
    const std::vector<uint64_t> budgets(8, 3 * kGB);
    PlacementSpec spec;
    spec.strategy = PlacementStrategy::HotColdReplicated;
    const ShardPlacement p = ShardPlacement::build(tables, budgets, spec);
    ASSERT_TRUE(p.feasible());
    EXPECT_GT(p.totalReplicas(), tables.size());
    // Table 0 is the hottest under Zipf popularity: on every machine.
    EXPECT_EQ(p.machinesOfTable(0).size(), budgets.size());
    // With unconstrained budgets everything replicates everywhere.
    const ShardPlacement full = ShardPlacement::build(
        tables, std::vector<uint64_t>(4, 0), spec);
    EXPECT_EQ(full.totalReplicas(), tables.size() * 4);
}

TEST(TablesOfQuery, DeterministicDistinctAndBounded)
{
    TableSetSpec spec;
    spec.numTables = 32;
    spec.tablesPerQuery = 8;
    for (uint64_t id : {0ULL, 1ULL, 999ULL}) {
        const std::vector<uint32_t> a = tablesOfQuery(id, spec);
        const std::vector<uint32_t> b = tablesOfQuery(id, spec);
        EXPECT_EQ(a, b);
        ASSERT_EQ(a.size(), spec.tablesPerQuery);
        EXPECT_TRUE(std::is_sorted(a.begin(), a.end()));
        const std::set<uint32_t> unique(a.begin(), a.end());
        EXPECT_EQ(unique.size(), a.size());
        for (uint32_t t : a)
            EXPECT_LT(t, spec.numTables);
    }
    // Different queries draw different working sets (zipf, not const).
    EXPECT_NE(tablesOfQuery(1, spec), tablesOfQuery(2, spec));
    // tablesPerQuery 0 means the DLRM worst case: every table.
    spec.tablesPerQuery = 0;
    EXPECT_EQ(tablesOfQuery(7, spec).size(), spec.numTables);
}

TEST(TablesOfQuery, ZipfSkewPrefersHotTables)
{
    TableSetSpec spec;
    spec.numTables = 32;
    spec.tablesPerQuery = 4;
    spec.zipfS = 1.3;
    size_t hot_hits = 0;
    const size_t queries = 2000;
    for (uint64_t id = 0; id < queries; id++) {
        const std::vector<uint32_t> tables = tablesOfQuery(id, spec);
        hot_hits += std::count_if(tables.begin(), tables.end(),
                                  [](uint32_t t) { return t < 4; });
    }
    // The 4 hottest of 32 tables draw far beyond their uniform share
    // (which would be 4/32 of all picks).
    const double hot_fraction = static_cast<double>(hot_hits) /
                                static_cast<double>(queries * 4);
    EXPECT_GT(hot_fraction, 0.3);
}

TEST(ShardedCluster, RoutesOnlyToHoldersAndConservesQueries)
{
    const ClusterConfig cfg = shardedCluster(
        8, 2 * kGB, PlacementStrategy::GreedyBySize);
    const ClusterSimulator sim(cfg);
    const QueryTrace trace = makeTrace(1500.0, 3000);
    RoutingSpec spec;
    spec.kind = RoutingKind::ShardAware;
    const ClusterResult r = sim.run(trace, spec);

    // Conservation: every query dispatched and completed exactly once.
    EXPECT_EQ(r.numDispatched, trace.size());
    EXPECT_EQ(r.numCompleted, trace.size());
    uint64_t led = 0;
    uint64_t completed = 0;
    for (const MachineStats& m : r.perMachine) {
        led += m.queriesDispatched;
        completed += m.queriesCompleted;
    }
    EXPECT_EQ(led, trace.size());
    EXPECT_EQ(completed, trace.size());
    EXPECT_GE(r.numParts, r.numDispatched);
    EXPECT_GT(r.meanFanout, 1.0);    // 4 tables/machine forces fan-out

    // Shard-aware routing only targets machines holding (a replica
    // of) the query's tables, and together the parts cover them all.
    const ShardPlacement& placement = cfg.sharding->placement;
    for (size_t i = 0; i < trace.size(); i++) {
        const std::vector<uint32_t> tables =
            tablesOfQuery(trace[i].id, cfg.sharding->tableSet);
        const std::vector<uint32_t>& machines = r.partMachinesOfQuery[i];
        ASSERT_FALSE(machines.empty());
        EXPECT_EQ(machines.front(), r.machineOfQuery[i]);
        std::set<uint32_t> covered;
        for (uint32_t m : machines) {
            bool holds_any = false;
            for (uint32_t t : tables) {
                if (placement.holds(m, t)) {
                    holds_any = true;
                    covered.insert(t);
                }
            }
            EXPECT_TRUE(holds_any)
                << "machine " << m << " holds none of query " << i
                << "'s tables";
        }
        EXPECT_EQ(covered.size(), tables.size());
    }
}

TEST(ShardedCluster, DeterministicUnderFixedSeeds)
{
    const ClusterConfig cfg = shardedCluster(
        8, 2 * kGB, PlacementStrategy::HotColdReplicated);
    const ClusterSimulator sim(cfg);
    const QueryTrace trace = makeTrace(1500.0, 3000);
    RoutingSpec spec;
    spec.kind = RoutingKind::ShardAware;
    const ClusterResult a = sim.run(trace, spec);
    const ClusterResult b = sim.run(trace, spec);
    EXPECT_EQ(a.machineOfQuery, b.machineOfQuery);
    EXPECT_EQ(a.partMachinesOfQuery, b.partMachinesOfQuery);
    EXPECT_EQ(a.numParts, b.numParts);
    EXPECT_DOUBLE_EQ(a.p99Ms(), b.p99Ms());
}

TEST(ShardedCluster, MemoryBudgetsNeverExceededInRun)
{
    const ClusterConfig cfg = shardedCluster(
        8, 2 * kGB, PlacementStrategy::RoundRobin);
    const ClusterSimulator sim(cfg);
    const ClusterResult r = sim.run(makeTrace(1000.0, 1000), RoutingSpec{
        RoutingKind::ShardAware});
    for (size_t m = 0; m < r.perMachine.size(); m++) {
        EXPECT_GT(r.perMachine[m].embBytesStored, 0u);
        EXPECT_LE(r.perMachine[m].embBytesStored,
                  cfg.machines[m].memoryBytes);
    }
}

TEST(ShardedCluster, FullReplicationStaysSingleHop)
{
    // Unconstrained budgets + hot/cold replication = every machine
    // holds every table, so no query ever fans out.
    const ClusterConfig cfg = shardedCluster(
        4, 0, PlacementStrategy::HotColdReplicated);
    const ClusterSimulator sim(cfg);
    const ClusterResult r = sim.run(makeTrace(1000.0, 2000), RoutingSpec{
        RoutingKind::ShardAware});
    EXPECT_DOUBLE_EQ(r.meanFanout, 1.0);
    for (const auto& machines : r.partMachinesOfQuery)
        EXPECT_EQ(machines.size(), 1u);
}

TEST(ShardedCluster, NetworkHopRaisesLatency)
{
    ClusterConfig base = shardedCluster(
        8, 2 * kGB, PlacementStrategy::GreedyBySize);
    const QueryTrace trace = makeTrace(1200.0, 2000);
    RoutingSpec spec;
    spec.kind = RoutingKind::ShardAware;

    const ClusterResult free_net = ClusterSimulator(base).run(trace, spec);
    base.network.hopSeconds = 500e-6;
    base.network.gigabytesPerSecond = 10.0;
    const ClusterResult taxed = ClusterSimulator(base).run(trace, spec);

    // Every query pays at least a round trip; fan-out pays it per part.
    EXPECT_GT(taxed.meanMs(), free_net.meanMs() + 2 * 0.5 - 0.01);
    EXPECT_GT(taxed.p99Ms(), free_net.p99Ms());
}

TEST(ShardedCluster, ReplicationBeatsSingleCopyUnderLoadedSkew)
{
    // Under load, joining on the slowest of many parts saturates the
    // single-copy placements well before the replicated one: hot/cold
    // replication keeps popular working sets single-hop.
    const QueryTrace trace = makeTrace(3000.0, 6000);
    RoutingSpec spec;
    spec.kind = RoutingKind::ShardAware;

    const ClusterResult single = ClusterSimulator(shardedCluster(
        8, 3 * kGB, PlacementStrategy::GreedyBySize)).run(trace, spec);
    const ClusterResult replicated = ClusterSimulator(shardedCluster(
        8, 3 * kGB, PlacementStrategy::HotColdReplicated)).run(trace, spec);

    EXPECT_LT(replicated.p99Ms(), single.p99Ms());
    EXPECT_LT(replicated.meanFanout, single.meanFanout);
}

TEST(ShardedCluster, NonShardPoliciesStillRunOnShardedConfig)
{
    // A sharded ClusterConfig does not force shard-aware routing:
    // classic policies ignore the placement and stay whole-query.
    const ClusterConfig cfg = shardedCluster(
        4, 4 * kGB, PlacementStrategy::HotColdReplicated);
    const ClusterSimulator sim(cfg);
    const ClusterResult r = sim.run(makeTrace(800.0, 1000), RoutingSpec{
        RoutingKind::JoinShortestQueue});
    EXPECT_EQ(r.numCompleted, 1000u);
    EXPECT_DOUBLE_EQ(r.meanFanout, 1.0);
}

TEST(PartialRequestSeconds, ConsistentWithFullRequest)
{
    const ModelProfile profile = ModelProfile::forModel(ModelId::DlrmRmc2);
    const CpuCostModel cpu(profile, CpuPlatform::skylake());
    const size_t batch = 128;
    const size_t cores = 4;
    const double full = cpu.requestSeconds(batch, cores);
    EXPECT_DOUBLE_EQ(
        cpu.partialRequestSeconds(batch, cores, 1.0, true), full);
    const double half = cpu.partialRequestSeconds(batch, cores, 0.5, true);
    const double quarter =
        cpu.partialRequestSeconds(batch, cores, 0.25, true);
    EXPECT_LT(half, full);
    EXPECT_LT(quarter, half);
    // A remote (lookup-only) part is cheaper than a leader part at
    // the same fraction, but still pays the dispatch overhead.
    const double remote =
        cpu.partialRequestSeconds(batch, cores, 0.5, false);
    EXPECT_LT(remote, half);
    EXPECT_GE(remote, cpu.params().requestOverheadS);
}

TEST(CapacityPlanner, MemoryFloorConstrainsThePlan)
{
    // 8.2 GB of tables over 2 GB machines: at least 5 machines are
    // needed before any throughput question is asked. A trickle
    // target rate keeps memory the binding constraint.
    CapacityPlanSpec spec;
    spec.unitMachines = {cpuMachine(2 * kGB)};
    spec.targetQps = 200.0;
    spec.slaMs = 400.0;
    spec.tables = rmc2Tables();
    spec.placement.strategy = PlacementStrategy::GreedyBySize;
    spec.tableSet.numTables = static_cast<uint32_t>(spec.tables.size());
    spec.tableSet.tablesPerQuery = 8;
    spec.routing.kind = RoutingKind::ShardAware;
    spec.minQueries = 1500;
    spec.queriesPerMachine = 150;

    const CapacityPlan plan = planCapacity(spec);
    ASSERT_TRUE(plan.feasible);
    EXPECT_EQ(plan.minUnitsForMemory, 5u);
    EXPECT_GE(plan.units, plan.minUnitsForMemory);
    EXPECT_EQ(plan.machines, plan.units);
    EXPECT_LE(plan.tailMs(spec.percentile), spec.slaMs);
}

// ------------------------------------------- bit words and set cover

/** @p n equal tables with Zipf popularity, table (@p n - @p shift)
 *  mod @p n the hottest: a shift moves the cold tables, which
 *  hot/cold placement keeps single-copy, into the middle of the ids. */
std::vector<EmbeddingTableInfo>
syntheticTables(uint32_t n, uint32_t shift = 0)
{
    const std::vector<double> weights = tablePopularity(n, 1.1);
    std::vector<EmbeddingTableInfo> tables;
    for (uint32_t t = 0; t < n; t++)
        tables.push_back({t, 1000, weights[(t + shift) % n]});
    return tables;
}

TEST(ShardPlacement, HoldsBitsAgreeWithReplicaLists)
{
    for (uint32_t n : {63u, 64u, 65u, 130u}) {
        for (PlacementStrategy strategy : allPlacementStrategies()) {
            SCOPED_TRACE(testing::Message()
                         << n << " tables, "
                         << placementStrategyName(strategy));
            PlacementSpec spec;
            spec.strategy = strategy;
            spec.minReplicas = 2;
            // 5 machines, each fitting about 40% of the tables.
            const ShardPlacement p = ShardPlacement::build(
                syntheticTables(n),
                std::vector<uint64_t>(5, 1000ULL * (2 * n / 5 + 2)), spec);
            ASSERT_TRUE(p.feasible());
            ASSERT_EQ(p.numTables(), n);
            for (size_t m = 0; m < p.numMachines(); m++) {
                const std::vector<uint32_t>& on = p.tablesOnMachine(m);
                for (uint32_t t = 0; t < n; t++) {
                    const bool listed =
                        std::binary_search(on.begin(), on.end(), t);
                    const std::vector<uint32_t>& of = p.machinesOfTable(t);
                    EXPECT_EQ(p.holds(m, t), listed) << m << "," << t;
                    EXPECT_EQ(std::count(of.begin(), of.end(), m) == 1,
                              listed)
                        << m << "," << t;
                }
                EXPECT_TRUE(p.holdsAll(m, on));
                EXPECT_TRUE(p.holdsAll(m, {}));
                EXPECT_FALSE(p.holds(m, n));
                EXPECT_FALSE(p.holds(m, n + 64));
                EXPECT_FALSE(p.holdsAll(m, {n}));
                if (on.size() < n) {
                    std::vector<uint32_t> all(n);
                    for (uint32_t t = 0; t < n; t++)
                        all[t] = t;
                    EXPECT_FALSE(p.holdsAll(m, all));
                }
            }
            const size_t out = p.numMachines();
            EXPECT_FALSE(p.holds(out, 0));
            EXPECT_FALSE(p.holdsAll(out, {0}));
            EXPECT_TRUE(p.holdsAll(out, {}));
        }
    }
    const ShardPlacement empty;
    EXPECT_FALSE(empty.holds(0, 0));
    EXPECT_TRUE(empty.holdsAll(0, {}));
}

/** The working-set draw as first written, with a per-call taken flag
 *  vector: the oracle of the buffered draw. */
std::vector<uint32_t>
takenFlagDraw(uint64_t query_id, const TableSetSpec& spec,
              const std::vector<double>& weights)
{
    const uint32_t want = spec.tablesPerQuery == 0
        ? spec.numTables
        : std::min(spec.tablesPerQuery, spec.numTables);
    std::vector<uint32_t> chosen;
    if (want == spec.numTables) {
        for (uint32_t t = 0; t < spec.numTables; t++)
            chosen.push_back(t);
        return chosen;
    }
    Rng rng(spec.seed ^ (query_id * 0x9e3779b97f4a7c15ULL));
    double remaining = 1.0;
    std::vector<bool> taken(spec.numTables, false);
    for (uint32_t k = 0; k < want; k++) {
        const double r = rng.uniform() * remaining;
        double acc = 0.0;
        uint32_t pick = spec.numTables;
        for (uint32_t t = 0; t < spec.numTables; t++) {
            if (taken[t])
                continue;
            acc += weights[t];
            if (r < acc) {
                pick = t;
                break;
            }
        }
        if (pick == spec.numTables) {
            for (uint32_t t = spec.numTables; t-- > 0;) {
                if (!taken[t]) {
                    pick = t;
                    break;
                }
            }
        }
        taken[pick] = true;
        remaining -= weights[pick];
        chosen.push_back(pick);
    }
    std::sort(chosen.begin(), chosen.end());
    return chosen;
}

TEST(TablesOfQuery, BufferedDrawMatchesTakenFlagOracle)
{
    std::vector<uint32_t> buffer;
    for (uint32_t n : {1u, 2u, 32u, 130u}) {
        for (uint32_t per_query : {0u, 1u, 8u, 64u, 200u}) {
            for (double zipf : {0.0, 1.1, 3.0}) {
                TableSetSpec spec;
                spec.numTables = n;
                spec.tablesPerQuery = per_query;
                spec.zipfS = zipf;
                const std::vector<double> weights =
                    tablePopularity(n, zipf);
                for (uint64_t id = 0; id < 200; id++) {
                    const std::vector<uint32_t> want =
                        takenFlagDraw(id, spec, weights);
                    tablesOfQuery(id, spec, weights, buffer);
                    ASSERT_EQ(buffer, want) << n << " " << per_query
                                            << " " << zipf << " " << id;
                    ASSERT_EQ(tablesOfQuery(id, spec), want);
                }
            }
        }
    }
}

/** A cluster view with set loads and a set accepting mask. */
class FixedView final : public ClusterView
{
  public:
    std::vector<size_t> inFlight, queued;
    std::vector<double> speed;
    std::vector<bool> accept;

    size_t numMachines() const override { return speed.size(); }
    size_t inFlightQueries(size_t m) const override { return inFlight[m]; }
    size_t queuedWork(size_t m) const override { return queued[m]; }
    bool hasGpu(size_t) const override { return false; }
    double speedFactor(size_t m) const override { return speed[m]; }
    bool accepting(size_t m) const override { return accept[m]; }
};

double
oracleLoad(const ClusterView& view, size_t m)
{
    const double outstanding = static_cast<double>(
        view.inFlightQueries(m) + view.queuedWork(m));
    return outstanding / view.speedFactor(m);
}

/**
 * The shard-aware set cover as first written: every cover round
 * rescans every machine and asks the placement about every uncovered
 * table. The oracle the bitmask cover must match plan for plan.
 */
std::vector<ShardTarget>
nestedLoopCover(const std::vector<uint32_t>& tables,
                const ShardPlacement& placement, const ClusterView& view)
{
    std::vector<size_t> candidates;
    for (size_t m = 0; m < view.numMachines(); m++) {
        if (view.accepting(m) && placement.holdsAll(m, tables))
            candidates.push_back(m);
    }
    if (!candidates.empty()) {
        size_t best = candidates.front();
        double best_load = oracleLoad(view, best);
        for (size_t i = 1; i < candidates.size(); i++) {
            const double load = oracleLoad(view, candidates[i]);
            if (load < best_load) {
                best = candidates[i];
                best_load = load;
            }
        }
        ShardTarget whole;
        whole.machine = static_cast<uint32_t>(best);
        whole.embFraction = 1.0;
        whole.leader = true;
        return {whole};
    }

    std::vector<ShardTarget> parts;
    std::vector<bool> used(view.numMachines(), false);
    std::vector<bool> covered(tables.size(), false);
    size_t uncovered = tables.size();
    while (uncovered > 0) {
        size_t best = view.numMachines();
        size_t best_cover = 0;
        double best_load = 0.0;
        for (size_t m = 0; m < view.numMachines(); m++) {
            if (used[m] || !view.accepting(m))
                continue;
            size_t cover = 0;
            for (size_t i = 0; i < tables.size(); i++) {
                if (!covered[i] && placement.holds(m, tables[i]))
                    cover++;
            }
            if (cover == 0)
                continue;
            const double load = oracleLoad(view, m);
            if (best == view.numMachines() || cover > best_cover ||
                (cover == best_cover && load < best_load)) {
                best = m;
                best_cover = cover;
                best_load = load;
            }
        }
        if (best == view.numMachines())
            return {};
        used[best] = true;
        ShardTarget part;
        part.machine = static_cast<uint32_t>(best);
        part.leader = parts.empty();
        for (size_t i = 0; i < tables.size(); i++) {
            if (!covered[i] && placement.holds(best, tables[i])) {
                covered[i] = true;
                uncovered--;
                part.tables.push_back(tables[i]);
            }
        }
        part.embFraction = static_cast<double>(best_cover) /
                           static_cast<double>(tables.size());
        parts.push_back(std::move(part));
    }
    return parts;
}

TEST(ShardAwareRouting, BitmaskCoverMatchesNestedLoopOracle)
{
    // Seeded draws of placements, table namespaces, loads and
    // accepting masks; every plan must equal the oracle's field by
    // field, embFraction to the bit.
    Rng rng(0xc0de5e7ULL);
    size_t single_hop = 0, fanned = 0, empty = 0, wide = 0, tied = 0;
    for (int draw = 0; draw < 300; draw++) {
        const bool multi_model = draw % 3 == 2;
        // Every fourth draw is wide: working sets of up to 200 tables
        // give coverage masks of two to four words.
        const bool wide_draw = draw % 4 == 0;
        const uint32_t n = wide_draw
            ? static_cast<uint32_t>(rng.uniformInt(65, 200))
            : static_cast<uint32_t>(rng.uniformInt(8, 40));
        const size_t machines = static_cast<size_t>(
            wide_draw ? rng.uniformInt(2, 4) : rng.uniformInt(2, 12));
        PlacementSpec spec;
        spec.strategy = allPlacementStrategies()[static_cast<size_t>(
            rng.uniformInt(0, 2))];
        spec.minReplicas = static_cast<uint32_t>(rng.uniformInt(1, 3));
        spec.hotReplicaFraction = rng.uniform() < 0.5 ? 0.5 : 0.9;
        // Budgets fit the replicas the spec asks for about once (a
        // hot/cold placement then leaves only a few tables cold) or
        // 1.5 times.
        const uint64_t slack = rng.uniform() < 0.5 ? 2 : 3;
        const uint64_t budget =
            1000ULL * ((slack * n * spec.minReplicas) / (2 * machines) + 2);
        ShardingConfig sharding{
            ShardPlacement::build(syntheticTables(n, static_cast<uint32_t>(
                                      rng.uniformInt(0, n - 1))),
                                  std::vector<uint64_t>(machines, budget),
                                  spec),
            TableSetSpec{}};
        if (!sharding.placement.feasible())
            continue;
        sharding.tableSet.numTables = n;
        const uint32_t narrow_choices[] = {0, 1, 4, 8, 70};
        const uint32_t wide_choices[] = {0, 0, 70, 130, 8};
        sharding.tableSet.tablesPerQuery = (wide_draw ? wide_choices
                                                      : narrow_choices)[
            rng.uniformInt(0, 4)];
        sharding.tableSet.seed = rng();
        if (multi_model) {
            // Two namespaces splitting the table space.
            const uint32_t split =
                static_cast<uint32_t>(rng.uniformInt(1, n - 1));
            ModelTableSpace a, b;
            a.set.numTables = split;
            a.set.tablesPerQuery = sharding.tableSet.tablesPerQuery;
            a.set.seed = rng();
            b.set.numTables = n - split;
            b.set.tablesPerQuery = sharding.tableSet.tablesPerQuery;
            b.set.zipfS = 0.5;
            b.set.seed = rng();
            b.base = split;
            sharding.models = {a, b};
        }
        const auto policy = makeRoutingPolicy(
            RoutingSpec{RoutingKind::ShardAware, 0x5eedULL}, &sharding);

        FixedView view;
        view.inFlight.resize(machines);
        view.queued.resize(machines);
        view.speed.resize(machines);
        view.accept.resize(machines);
        for (int q = 0; q < 20; q++) {
            const bool equal_loads = q % 4 == 0;
            for (size_t m = 0; m < machines; m++) {
                view.inFlight[m] =
                    equal_loads ? 3 : static_cast<size_t>(rng.uniformInt(0, 4));
                view.queued[m] =
                    equal_loads ? 1 : static_cast<size_t>(rng.uniformInt(0, 2));
                view.speed[m] = equal_loads ? 1.0
                                            : (rng.uniform() < 0.5 ? 1.0 : 0.5);
                view.accept[m] = q % 5 == 0 || rng.uniform() < 0.7;
            }
            view.accept[static_cast<size_t>(rng.uniformInt(
                0, static_cast<int64_t>(machines) - 1))] = true;

            Query query;
            query.id = rng();
            query.model = multi_model
                ? static_cast<uint32_t>(rng.uniformInt(0, 1)) : 0;
            std::vector<uint32_t> tables;
            if (multi_model) {
                const ModelTableSpace& space = sharding.models[query.model];
                tables = tablesOfQuery(query.id, space.set);
                for (uint32_t& t : tables)
                    t += space.base;
            } else {
                tables = tablesOfQuery(query.id, sharding.tableSet);
            }

            const std::vector<ShardTarget> want =
                nestedLoopCover(tables, sharding.placement, view);
            const std::vector<ShardTarget> got =
                policy->routeParts(query, view);
            SCOPED_TRACE(testing::Message() << "draw " << draw << " query "
                                            << q << ", " << tables.size()
                                            << " tables");
            ASSERT_EQ(got.size(), want.size());
            for (size_t i = 0; i < want.size(); i++) {
                EXPECT_EQ(got[i].machine, want[i].machine) << "part " << i;
                EXPECT_EQ(got[i].leader, want[i].leader) << "part " << i;
                EXPECT_EQ(std::bit_cast<uint64_t>(got[i].embFraction),
                          std::bit_cast<uint64_t>(want[i].embFraction))
                    << "part " << i;
                EXPECT_EQ(got[i].tables, want[i].tables) << "part " << i;
            }
            if (want.empty())
                empty++;
            else if (want.size() == 1)
                single_hop++;
            else
                fanned++;
            if (want.size() > 1 && tables.size() > 64)
                wide++;
            if (equal_loads && want.size() > 1)
                tied++;
        }
    }
    // Every path of the cover was exercised.
    EXPECT_GT(single_hop, 0u);
    EXPECT_GT(fanned, 0u);
    EXPECT_GT(empty, 0u);
    EXPECT_GT(wide, 0u);
    EXPECT_GT(tied, 0u);
}

} // namespace
} // namespace deeprecsys
