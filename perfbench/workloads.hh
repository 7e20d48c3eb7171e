/**
 * @file
 * The benchmark's four workloads and the per-layer replays.
 *
 * Every workload drives the library only through its public calls —
 * the same calls a capacity planner or an engine user makes — and
 * reads the simulated books those calls return. Nothing here changes
 * or instruments library code: host time is measured around calls,
 * and the traced run adds spans around them from this side.
 */

#ifndef PERFBENCH_WORKLOADS_HH
#define PERFBENCH_WORKLOADS_HH

#include <cstdint>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "cluster/cluster_sim.hh"
#include "loadgen/query_stream.hh"
#include "support.hh"

namespace perfbench {

using deeprecsys::ClusterConfig;
using deeprecsys::ClusterResult;
using deeprecsys::LoadSpec;
using deeprecsys::QueryTrace;
using deeprecsys::RoutingSpec;

/** Metric name -> value, in the units BENCHMARK.json declares. */
using Metrics = std::map<std::string, double>;

/** Outcome of one repeat of a workload. */
struct PassResult
{
    /** Bit-exact digest of every simulated output of the repeat (the
     *  real-kernel workload digests only its deterministic books). */
    uint64_t digest = 0;

    uint64_t attempted = 0;   ///< operations the repeat ran
    uint64_t failed = 0;      ///< operations whose checks failed
    std::vector<std::string> failures;

    /** Host seconds of each part of the repeat, in a fixed order: a
     *  model's three tunings, a search, a fixed-rate run, a day, a
     *  serve. wall_s sums each part's fastest time over the repeats. */
    std::vector<double> partSeconds;

    /** Host seconds of the cluster runs of the repeat, and the
     *  simulated events they ran (0 on the other workloads). */
    double eventSeconds = 0;
    double events = 0;

    void
    check(bool ok, const std::string& what)
    {
        if (!ok) {
            failed++;
            failures.push_back(what);
        }
    }
};

/** Result of re-running operating points on a longer trace. */
struct BacklogReport
{
    uint64_t points = 0;
    uint64_t flagged = 0;
    std::vector<std::string> lines;   ///< one per point, printed
    PassResult checks;                ///< failures at fixed-rate points
};

/**
 * One workload. setup() builds every input a repeat needs (configs,
 * placement, drawn traces, model weights) and is what setup_s times;
 * pass() is one repeat of the measured work.
 */
class Workload
{
  public:
    virtual ~Workload() = default;

    virtual void setup(SpanRecorder* rec) = 0;

    /** One repeat. @p traced attaches an attribution-only RunObserver
     *  to the cluster drivers (simulated books must not change). */
    virtual PassResult pass(SpanRecorder* rec, bool traced) = 0;

    /** Checks made once after the measured repeats: the backlog
     *  re-runs and, for the real engine, the CTR range. */
    virtual BacklogReport postChecks(SpanRecorder* rec) = 0;

    /** Simulated answers and books of the last untraced repeat (and
     *  the stage split of the last traced one), by metric name. */
    virtual void answers(Metrics& out) const = 0;

    /** Host-time replays of this workload's own layers (routing over
     *  its queries, its cluster driver); sharedLayerReplays() does
     *  the rest. */
    virtual void layerReplays(Metrics& out, SpanRecorder* rec) = 0;

    /** The workload's query stream spec (loadgen replay input). */
    virtual LoadSpec load() const = 0;
};

/** Build a workload by name (nullptr for an unknown name). */
std::unique_ptr<Workload> makeWorkload(const std::string& name,
                                       uint64_t seed);

/** The query stream of a seed: arrival and size seeds derived from it. */
LoadSpec seededLoad(uint64_t seed, double qps);

/**
 * The sharded tier of the sharded_fanout workload: 16 DLRM-RMC2
 * machines of 1.5 GB embedding budget, greedy-by-size placement,
 * 8 tables per query, TwoStage join, 150 us hops.
 */
ClusterConfig shardedTier16(SpanRecorder* rec);

/** Per-layer replays shared by every workload (layers.cc). */
void sharedLayerReplays(const LoadSpec& load, uint64_t seed, Metrics& out,
                        SpanRecorder* rec);

/**
 * Host ns per routeParts call when @p spec's policy routes @p trace
 * over @p cluster, against a view the benchmark keeps: each machine's
 * in-flight count is its parts among the last 32 routed queries.
 */
double routingNsPerRoute(const ClusterConfig& cluster,
                         const RoutingSpec& spec, const QueryTrace& trace,
                         SpanRecorder* rec);

/** Simulated events of a cluster run: CPU requests, parts, TwoStage
 *  join phases and query completions — the driver's heap pops. */
double clusterEvents(const ClusterResult& r);

} // namespace perfbench

#endif // PERFBENCH_WORKLOADS_HH
