/**
 * @file
 * Per-layer host-time replays: each times one public call of one
 * module in a tight loop over inputs drawn from the run's seed, so a
 * change to that module moves its number and nothing else. Inputs
 * that depend on a workload (its query stream, its router and tier)
 * come from the workload; the rest use the sharded_fanout tier and
 * DLRM-RMC2's layer widths on every workload.
 */

#include <algorithm>
#include <deque>

#include "cluster/cluster_sim.hh"
#include "costmodel/cpu_cost.hh"
#include "models/rec_model.hh"
#include "nn/embedding.hh"
#include "nn/mlp.hh"
#include "sim/serving_sim.hh"
#include "workloads.hh"

namespace perfbench {

using namespace deeprecsys;

namespace {

/** Queries per replay loop (enough for a steady ns/op at µs cost). */
constexpr size_t kReplayQueries = 100000;

/** Queries per routing replay (a shard-aware route costs µs). */
constexpr size_t kRouteQueries = 20000;

/** Keeps replayed results observable so the loops are not elided. */
volatile double g_sink = 0;

/** Host ns per op of @p fn(), best of three timed runs of @p ops. */
template <typename Fn>
double
nsPerOp(double ops, SpanRecorder* rec, const char* span, Fn&& fn)
{
    std::vector<double> runs;
    for (int r = 0; r < 3; r++) {
        ScopedSpan s(rec, span);
        const auto start = Clock::now();
        fn();
        runs.push_back(secondsBetween(start, Clock::now()) * 1e9 / ops);
    }
    return *std::min_element(runs.begin(), runs.end());
}

/**
 * The router's view during a replay: no engine runs, so a machine's
 * in-flight count is the number of parts routed to it among the last
 * 32 queries — enough load signal for queue-aware policies to spread.
 */
class ReplayView : public ClusterView
{
  public:
    explicit ReplayView(size_t machines) : inFlight_(machines, 0) {}

    size_t numMachines() const override { return inFlight_.size(); }
    size_t inFlightQueries(size_t m) const override { return inFlight_[m]; }
    size_t queuedWork(size_t m) const override { return inFlight_[m]; }
    bool hasGpu(size_t) const override { return false; }
    double speedFactor(size_t) const override { return 1.0; }

    void
    record(const std::vector<ShardTarget>& parts)
    {
        std::vector<uint32_t> machines;
        for (const ShardTarget& t : parts) {
            inFlight_[t.machine]++;
            machines.push_back(t.machine);
        }
        window_.push_back(std::move(machines));
        if (window_.size() > 32) {
            for (uint32_t m : window_.front())
                inFlight_[m]--;
            window_.pop_front();
        }
    }

  private:
    std::vector<size_t> inFlight_;
    std::deque<std::vector<uint32_t>> window_;
};

} // namespace

double
routingNsPerRoute(const ClusterConfig& cluster, const RoutingSpec& spec,
                  const QueryTrace& trace, SpanRecorder* rec)
{
    const ShardingConfig* sharding =
        cluster.sharding ? &*cluster.sharding : nullptr;
    const size_t n = std::min(trace.size(), kRouteQueries);
    return nsPerOp(static_cast<double>(n), rec, "cluster.routing.replay",
                   [&] {
                       auto policy = makeRoutingPolicy(spec, sharding);
                       ReplayView view(cluster.machines.size());
                       for (size_t i = 0; i < n; i++)
                           view.record(policy->routeParts(trace[i], view));
                   });
}

void
sharedLayerReplays(const LoadSpec& load, uint64_t seed, Metrics& out,
                   SpanRecorder* rec)
{
    auto fill = [&out](const std::string& name, double value) {
        out.emplace(name, value);   // a workload's own reading wins
    };

    // loadgen: draw a template and re-time it once, per query.
    fill("loadgen.ns_per_query",
         nsPerOp(kReplayQueries, rec, "loadgen.replay", [&] {
             TraceTemplate tmpl(load);
             tmpl.ensure(kReplayQueries);
             g_sink = tmpl.materialize(load.qps, kReplayQueries)
                          .back()
                          .arrivalSeconds;
         }));
    TraceTemplate tmpl(load);
    tmpl.ensure(kReplayQueries);
    const QueryTrace queries = tmpl.materialize(load.qps, kReplayQueries);

    // costmodel: price one request per query, at the batch the
    // sharded tier splits it into and a cycling busy-core count.
    const CpuCostModel rmc2(ModelProfile::forModel(ModelId::DlrmRmc2),
                            CpuPlatform::skylake());
    fill("costmodel.ns_per_price",
         nsPerOp(kReplayQueries, rec, "costmodel.replay", [&] {
             double total = 0;
             for (size_t i = 0; i < queries.size(); i++) {
                 total += rmc2.requestSeconds(
                     std::min<size_t>(queries[i].size, 256), 1 + i % 40);
             }
             g_sink = total;
         }));

    // sim: one DLRM-RMC1 machine at about half its SLA capacity.
    {
        const SimConfig machine{
            CpuCostModel(ModelProfile::forModel(ModelId::DlrmRmc1),
                         CpuPlatform::skylake()),
            std::nullopt, SchedulerPolicy{256, false, 1}, 0.05, 1.0};
        const QueryTrace trace = tmpl.materialize(1000.0, kReplayQueries);
        SimResult r;
        ServingSimulator sim(machine);
        const double ns = nsPerOp(1.0, rec, "sim.replay",
                                  [&] { r = sim.run(trace); });
        const double events =
            static_cast<double>(r.numRequests + r.numQueries);
        fill("sim.ns_per_event", ns / events);
    }

    // cluster.shard: placement build, working-set draw, containment.
    const ClusterConfig tier = shardedTier16(nullptr);
    const ShardingConfig& sharding = *tier.sharding;
    const std::vector<EmbeddingTableInfo> tables =
        embeddingTables(modelConfig(ModelId::DlrmRmc2));
    const std::vector<uint64_t> budgets = machineMemoryBudgets(tier.machines);
    fill("cluster.shard.build_s",
         1e-9 * nsPerOp(1.0, rec, "cluster.shard.build", [&] {
             g_sink = static_cast<double>(
                 ShardPlacement::build(tables, budgets, PlacementSpec{})
                     .totalReplicas());
         }));
    const std::vector<double> popularity = tablePopularity(
        sharding.tableSet.numTables, sharding.tableSet.zipfS);
    std::vector<std::vector<uint32_t>> sets(queries.size());
    fill("cluster.shard.ns_per_tables_of_query",
         nsPerOp(kReplayQueries, rec, "cluster.shard.tables_replay", [&] {
             for (size_t i = 0; i < queries.size(); i++) {
                 sets[i] = tablesOfQuery(queries[i].id ^ seed,
                                         sharding.tableSet, popularity);
             }
         }));
    const size_t machines = sharding.placement.numMachines();
    fill("cluster.shard.ns_per_holds_all",
         nsPerOp(static_cast<double>(sets.size() * machines), rec,
                 "cluster.shard.holds_replay", [&] {
                     size_t held = 0;
                     for (const std::vector<uint32_t>& set : sets) {
                         for (size_t m = 0; m < machines; m++)
                             held += sharding.placement.holdsAll(m, set);
                     }
                     g_sink = static_cast<double>(held);
                 }));

    // cluster: shard-aware routing and the static driver on the
    // sharded tier, for workloads that run no router of their own.
    const RoutingSpec shard_aware{RoutingKind::ShardAware, seed ^ 0x5eedULL};
    if (!out.count("cluster.routing.ns_per_route"))
        fill("cluster.routing.ns_per_route",
             routingNsPerRoute(tier, shard_aware, queries, rec));
    if (!out.count("cluster.driver.ns_per_event")) {
        const QueryTrace trace = tmpl.materialize(1800.0, 5000);
        const ClusterSimulator sim(tier);
        ClusterResult r;
        const double ns = nsPerOp(1.0, rec, "cluster.driver.replay", [&] {
            r = sim.run(trace, shard_aware);
        });
        fill("cluster.driver.ns_per_event", ns / clusterEvents(r));
    }

    // nn: DLRM-RMC2's Dense-FC and Predict-FC stacks and its
    // embedding tables at the engine's batch of 64. Bytes are the
    // gathered rows computed from tensor sizes, not measured traffic.
    {
        constexpr size_t batch = 64;
        const ModelConfig cfg = modelConfig(ModelId::DlrmRmc2);
        Rng rng(seed);
        std::vector<size_t> dense_dims = {cfg.denseInputDim};
        dense_dims.insert(dense_dims.end(), cfg.denseFcDims.begin(),
                          cfg.denseFcDims.end());
        const Mlp dense(dense_dims, rng);
        std::vector<size_t> predict_dims = {
            cfg.denseFcDims.back() + cfg.numTables * cfg.embeddingDim};
        predict_dims.insert(predict_dims.end(), cfg.predictFcDims.begin(),
                            cfg.predictFcDims.end());
        predict_dims.push_back(1);
        const Mlp predict(predict_dims, rng, Activation::Sigmoid);
        Tensor dense_in = Tensor::mat(batch, dense.inDim());
        Tensor predict_in = Tensor::mat(batch, predict.inDim());
        for (size_t i = 0; i < dense_in.numel(); i++)
            dense_in.data()[i] = static_cast<float>(rng.uniform() - 0.5);
        for (size_t i = 0; i < predict_in.numel(); i++)
            predict_in.data()[i] = static_cast<float>(rng.uniform() - 0.5);
        constexpr int iters = 30;
        const double flops = static_cast<double>(batch) * iters *
            static_cast<double>(dense.flopsPerSample() +
                                predict.flopsPerSample());
        const double fc_ns = nsPerOp(flops, rec, "nn.fc_replay", [&] {
            for (int i = 0; i < iters; i++) {
                g_sink = dense.forward(dense_in).data()[0] +
                    predict.forward(predict_in).data()[0];
            }
        });
        fill("nn.fc_gflops", 1.0 / fc_ns);

        const EmbeddingGroup tables_group(cfg.numTables, cfg.tableRows,
                                          cfg.embeddingDim,
                                          cfg.lookupsPerTable, cfg.pooling,
                                          rng, ModelScale{}.maxPhysicalRows);
        const std::vector<SparseBatch> lookups =
            tables_group.randomBatches(batch, rng);
        constexpr int emb_iters = 20;
        const double bytes = static_cast<double>(batch) * emb_iters *
            static_cast<double>(tables_group.bytesPerSample());
        const double emb_ns = nsPerOp(bytes, rec, "nn.emb_replay", [&] {
            for (int i = 0; i < emb_iters; i++)
                g_sink = tables_group.forward(lookups)[0].data()[0];
        });
        fill("nn.emb_gbps", 1.0 / emb_ns);
    }
}

} // namespace perfbench
