#include "admission.hh"

#include <algorithm>
#include <cmath>
#include <limits>

#include "base/logging.hh"
#include "cluster/routing_policy.hh"

namespace deeprecsys {

const char*
admissionKindName(AdmissionKind kind)
{
    switch (kind) {
      case AdmissionKind::None:
        return "none";
      case AdmissionKind::QueueDepth:
        return "queue-depth";
      case AdmissionKind::Deadline:
        return "deadline";
    }
    drs_panic("unknown admission kind");
}

const std::vector<AdmissionKind>&
allAdmissionKinds()
{
    static const std::vector<AdmissionKind> kinds = {
        AdmissionKind::None,
        AdmissionKind::QueueDepth,
        AdmissionKind::Deadline,
    };
    return kinds;
}

AdmissionController::AdmissionController(
    const OverloadConfig& config, const std::vector<SimConfig>& machines,
    double embeddingShare, const NetworkConfig& network, JoinModel join)
    : cfg(config), machines_(machines), embShare(embeddingShare),
      net(network), joinModel(join)
{
    drs_assert(!machines.empty(), "admission needs at least one machine");
    drs_assert(embShare > 0.0 && embShare <= 1.0,
               "embedding share must be in (0, 1]");
    if (cfg.admission == AdmissionKind::QueueDepth)
        drs_assert(cfg.queueDepthCap >= 1, "queue-depth cap must be >= 1");
    // The deadline is the pressure scale of both the deadline policy
    // and the degrade shrink, so either one requires it.
    if (cfg.admission == AdmissionKind::Deadline || cfg.degrade)
        drs_assert(cfg.deadlineSeconds > 0.0,
                   "deadline admission/degrade needs deadlineSeconds > 0");
    if (cfg.priorityClasses > 1) {
        drs_assert(cfg.priorityMargin >= 0.0,
                   "priorityMargin cannot be negative");
        drs_assert(cfg.priorityMargin *
                           static_cast<double>(cfg.priorityClasses - 1) <
                       1.0,
                   "priorityMargin * (priorityClasses - 1) must stay"
                   " below 1 or the lowest class can never admit");
    }
    if (cfg.maxRetries > 0) {
        drs_assert(cfg.retryBackoffSeconds > 0.0,
                   "retries need a positive base backoff");
        drs_assert(cfg.retryBackoffFactor >= 1.0,
                   "retry backoff factor must be >= 1");
        drs_assert(cfg.retryJitterFraction >= 0.0,
                   "retry jitter fraction cannot be negative");
        drs_assert(cfg.retryStormPressure > 0.0,
                   "retry-storm pressure must be positive");
    }
    if (cfg.degrade) {
        drs_assert(cfg.degradeStartPressure >= 0.0 &&
                       cfg.degradeStartPressure < 1.0,
                   "degradeStartPressure must be in [0, 1)");
        drs_assert(cfg.minSizeFraction > 0.0 && cfg.minSizeFraction <= 1.0,
                   "minSizeFraction must be in (0, 1]");
        drs_assert(cfg.minSize >= 1, "minSize must be >= 1");
        drs_assert(cfg.qualityExponent > 0.0,
                   "qualityExponent must be positive");
    }
}

double
AdmissionController::requestSecondsAt(size_t m, size_t req_batch,
                                      double emb_fraction,
                                      bool include_dense,
                                      uint32_t model) const
{
    // Each binding keeps its own cost model: the efficiency curves
    // are saturating (per-sample cost falls with batch), so no linear
    // fit prices a mid-size request honestly. Estimates are priced
    // under full core contention — the steady state an overloaded
    // machine actually runs in, which is when the estimate matters.
    const CpuCostModel& c = machines_[m].binding(model).cpu;
    const size_t pool = c.platform().cores;
    const double seconds =
        emb_fraction < 1.0 || !include_dense
            ? c.partialRequestSeconds(req_batch, pool, emb_fraction,
                                      include_dense)
            : c.requestSeconds(req_batch, pool);
    return seconds * machines_[m].slowdown;
}

double
AdmissionController::backlogSeconds(size_t m, const ClusterView& view) const
{
    drs_assert(m < machines_.size(), "backlog of unknown machine");
    // Live views expose the engine's own running queue-cost sum —
    // each queued request priced through the machine's cost model
    // with its true batch, shard fraction, and leader flag — which no
    // outside-in estimate can reconstruct from counts alone (a
    // sharded tier's queue mixes covering-set sizes and leader /
    // follower parts). Drain it across the whole core pool: the wait
    // a new arrival sees is total queued work over pool throughput.
    // The second-order term is the dense join phases this machine
    // already owes for in-flight fan-outs it leads but has not queued
    // yet — work a new arrival waits behind just the same.
    return (view.queuedCostSeconds(m) + view.pendingJoinCostSeconds(m)) /
        static_cast<double>(machines_[m].cpu.platform().cores);
}

double
AdmissionController::meanBacklogSeconds(const ClusterView& view) const
{
    double sum = 0.0;
    size_t accepting = 0;
    const size_t n = view.numMachines();
    for (size_t m = 0; m < n; ++m) {
        if (!view.accepting(m))
            continue;
        sum += backlogSeconds(m, view);
        accepting++;
    }
    // At least one machine always accepts (ClusterView contract).
    drs_assert(accepting > 0, "no accepting machine to estimate against");
    return sum / static_cast<double>(accepting);
}

double
AdmissionController::worstBacklogSeconds(const ClusterView& view) const
{
    double worst = 0.0;
    const size_t n = view.numMachines();
    for (size_t m = 0; m < n; ++m) {
        if (view.accepting(m))
            worst = std::max(worst, backlogSeconds(m, view));
    }
    return worst;
}

double
AdmissionController::queueWaitSeconds(const ClusterView& view) const
{
    if (embShare >= 1.0)
        return meanBacklogSeconds(view);
    const double worst = worstBacklogSeconds(view);
    // TwoStage: the query queues twice — the fan-out embedding parts
    // now, and the leader's dense phase when the pooled embeddings
    // join. The second visit is projected at the *current* worst
    // backlog, not zero: where admission binds, admitted arrivals
    // refill exactly what drains (the controller holds the queue at
    // equilibrium), so the backlog the join phase meets is the one
    // visible now. At light load both terms are ~0 and nothing is
    // shed. Assuming an idle leader instead is the historical bug:
    // the tier then settles where ONE wait fits the deadline and the
    // measured two-visit latency lands near twice it.
    return joinModel == JoinModel::TwoStage ? worst + worst : worst;
}

double
AdmissionController::partServiceSeconds(size_t m, uint32_t size,
                                        double emb_fraction,
                                        bool include_dense,
                                        uint32_t model) const
{
    drs_assert(m < machines_.size(), "service on unknown machine");
    // The query splits into ceil(size / batch) requests that run on
    // up to `cores` cores at once: critical path is total work over
    // the achievable parallelism. Single-request queries (the common
    // case) are priced exactly.
    const size_t batch = std::max<size_t>(
        1, machines_[m].binding(model).policy.perRequestBatch);
    const double requests = std::ceil(static_cast<double>(size) /
                                      static_cast<double>(batch));
    const double parallelism = std::min(
        static_cast<double>(machines_[m].cpu.platform().cores), requests);
    const size_t req_batch = std::min<size_t>(size, batch);
    const double work = requests *
        requestSecondsAt(m, std::max<size_t>(1, req_batch), emb_fraction,
                         include_dense, model);
    return work / parallelism;
}

double
AdmissionController::bestServiceSeconds(const ClusterView& view,
                                        uint32_t size, double emb_fraction,
                                        bool include_dense,
                                        uint32_t model) const
{
    // Only machines that carry a binding for the query's model are
    // admission candidates — a colocated tier may be partially
    // heterogeneous, and a machine without the binding cannot price
    // the query at all.
    double best = std::numeric_limits<double>::infinity();
    const size_t n = view.numMachines();
    for (size_t m = 0; m < n; ++m) {
        if (view.accepting(m) && view.servesModel(m, model))
            best = std::min(best, partServiceSeconds(m, size, emb_fraction,
                                                     include_dense, model));
    }
    return best;
}

double
AdmissionController::serviceAndHopSeconds(uint32_t size,
                                          const ClusterView& view,
                                          uint32_t model) const
{
    const double samples = static_cast<double>(size);
    const double fwd =
        net.oneWaySeconds(samples * net.requestBytesPerSample);
    const double ret =
        net.oneWaySeconds(samples * net.responseBytesPerSample);
    if (embShare >= 1.0) {
        // Unsharded: one round trip around one whole-query service.
        return fwd + bestServiceSeconds(view, size, embShare, true, model) +
            ret;
    }
    if (joinModel == JoinModel::TwoStage) {
        // Sharded two-stage: embedding-only parts, the pooled-
        // embedding hop to the leader, then the dense phase (its
        // queue wait is in queueWaitSeconds).
        const double embHop =
            net.oneWaySeconds(samples * net.embeddingBytesPerSample);
        return fwd +
            bestServiceSeconds(view, size, embShare, false, model) +
            embHop + bestServiceSeconds(view, size, 0.0, true, model) + ret;
    }
    // Optimistic join: the leader part (local embedding share plus
    // dense, the longest per-machine path) bounds the join.
    return fwd + bestServiceSeconds(view, size, embShare, true, model) +
        ret;
}

AdmissionDecision
AdmissionController::decide(const Query& query,
                            const ClusterView& view) const
{
    AdmissionDecision d;
    d.servedSize = query.size;

    // Effective priority class and its severity offset: class 0 sees
    // the configured budget; each step down both tightens the
    // admission budget and raises the degrade pressure, so lower
    // classes are always shed and degraded first (pointwise monotone
    // — same query and view, lower class dropped implies higher class
    // index dropped).
    const uint32_t cls = cfg.effectiveClass(query);
    const double margin = cfg.priorityMargin * static_cast<double>(cls);

    // The projected queue wait of the critical path is shared by both
    // mechanisms; compute it once. See queueWaitSeconds for the
    // mean-vs-max choice and the two-stage second-visit term.
    const bool needWait =
        cfg.degrade || cfg.admission == AdmissionKind::Deadline;
    const double wait = needWait ? queueWaitSeconds(view) : 0.0;

    // Degrade first: shrinking may turn a would-be drop into an
    // admissible (smaller) query, which is the whole point — a
    // degraded answer beats no answer.
    if (cfg.degrade) {
        const double pressure = wait / cfg.deadlineSeconds + margin;
        if (pressure > cfg.degradeStartPressure) {
            const double t =
                std::min(1.0, (pressure - cfg.degradeStartPressure) /
                                  (1.0 - cfg.degradeStartPressure));
            const double frac =
                1.0 - (1.0 - cfg.minSizeFraction) * t;
            const uint32_t floorSize = std::min(query.size, cfg.minSize);
            const auto shrunk = static_cast<uint32_t>(
                frac * static_cast<double>(query.size));
            d.servedSize = std::max(floorSize, shrunk);
            if (d.servedSize < query.size)
                d.quality = std::pow(
                    static_cast<double>(d.servedSize) /
                        static_cast<double>(query.size),
                    cfg.qualityExponent);
        }
    }

    switch (cfg.admission) {
      case AdmissionKind::None:
        break;
      case AdmissionKind::QueueDepth: {
        size_t best = std::numeric_limits<size_t>::max();
        size_t bestMachine = 0;
        const size_t n = view.numMachines();
        for (size_t m = 0; m < n; ++m) {
            if (view.accepting(m) && view.queuedWork(m) < best) {
                best = view.queuedWork(m);
                bestMachine = m;
            }
        }
        d.admit = best <= cfg.queueDepthCap;
        if (!d.admit) {
            // Depth over cap stands in for pressure (no deadline to
            // scale by); the hint is the shallowest queue's projected
            // drain back down to the cap.
            const double depthPressure = static_cast<double>(best) /
                static_cast<double>(cfg.queueDepthCap);
            d.retryable = cfg.maxRetries > 0 &&
                depthPressure < cfg.retryStormPressure;
            d.retryAfterSeconds = backlogSeconds(bestMachine, view) *
                (1.0 - 1.0 / depthPressure);
        }
        break;
      }
      case AdmissionKind::Deadline: {
        // Admit iff the estimated end-to-end response — projected
        // queue wait(s) plus per-shape service and network terms —
        // fits the class budget. Queries estimated dead on arrival
        // are shed at the door.
        // Service terms priced through the query's own model binding;
        // the queue-wait term stays a total — queues are shared, so
        // an arrival drains behind every model's queued work.
        const double est =
            wait + serviceAndHopSeconds(d.servedSize, view, query.model);
        const double budget = cfg.deadlineSeconds * (1.0 - margin);
        d.admit = est <= budget;
        if (!d.admit) {
            // Retry-After hint: the estimate's excess over the budget
            // is exactly the queue drain needed before the verdict
            // can flip for this query.
            d.retryAfterSeconds = est - budget;
            const double pressure = wait / cfg.deadlineSeconds;
            d.retryable = cfg.maxRetries > 0 &&
                pressure < cfg.retryStormPressure;
        }
        break;
      }
    }

    if (!d.admit) {
        d.servedSize = 0;
        d.quality = 0.0;
    }
    return d;
}

} // namespace deeprecsys
