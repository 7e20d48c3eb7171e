#include "deeprecsched.hh"

#include <algorithm>
#include <cmath>

#include "base/logging.hh"
#include "loadgen/distributions.hh"

namespace deeprecsys {

namespace {

/** Where a hill climb peaked. */
struct ClimbPeak
{
    size_t knob = 0;             ///< knob value at the peak
    double qps = -1.0;           ///< its achievable QPS (< 0: none)
    QpsSearchResult atBest;      ///< the search result there
};

/**
 * Hill climbing per Section IV-C: visit knob values first,
 * next(first), ... while <= last, appending each (knob, QPS) to
 * @p curve. The peak moves while the achievable QPS improves by more
 * than the slack margin; a second strike confirms the peak, so a
 * single noisy plateau step does not end the climb early.
 */
template <typename Evaluate, typename Next>
ClimbPeak
hillClimb(size_t first, size_t last, Next next, Evaluate evaluate,
          std::vector<TuningPoint>& curve)
{
    ClimbPeak peak;
    size_t strikes = 0;
    for (size_t knob = first; knob <= last; knob = next(knob)) {
        const QpsSearchResult r = evaluate(knob);
        curve.push_back({static_cast<double>(knob), r.maxQps});
        if (r.maxQps > peak.qps * (1.0 + DeepRecSched::climbSlack) ||
            peak.qps < 0.0) {
            peak = {knob, r.maxQps, r};
            strikes = 0;
        } else if (++strikes >= 2) {
            break;  // past the peak
        }
    }
    return peak;
}

} // namespace

size_t
DeepRecSched::staticBaselineBatch(uint32_t max_query_size, size_t cores)
{
    drs_assert(cores >= 1, "baseline needs cores");
    return std::max<size_t>(
        1, (max_query_size + cores - 1) / cores);
}

TuningResult
DeepRecSched::baseline(const DeepRecInfra& infra, double sla_ms)
{
    TuningResult result;
    result.policy.perRequestBatch = staticBaselineBatch(
        QuerySizeDistribution::maxSize, infra.config().platform.cores);
    result.policy.gpuEnabled = false;
    result.atBest = infra.maxQps(result.policy, sla_ms);
    return result;
}

TuningResult
DeepRecSched::tuneCpu(const DeepRecInfra& infra, double sla_ms)
{
    TuningResult result;
    result.policy.gpuEnabled = false;
    const ClimbPeak peak = hillClimb(
        1, maxBatch, [](size_t batch) { return batch * 2; },
        [&](size_t batch) {
            result.policy.perRequestBatch = batch;
            return infra.maxQps(result.policy, sla_ms);
        },
        result.batchCurve);
    result.policy.perRequestBatch = peak.knob;
    result.atBest = peak.atBest;
    return result;
}

TuningResult
DeepRecSched::tuneGpu(const DeepRecInfra& infra, double sla_ms)
{
    drs_assert(infra.gpuModel() != nullptr,
               "tuneGpu needs an attached accelerator");

    // Stage 1: batch size for the CPU-resident share of the work.
    TuningResult cpu = tuneCpu(infra, sla_ms);

    // Stage 2: climb the offload threshold from "everything on the
    // accelerator" upward. Thresholds walk the query-size range
    // geometrically; 1 offloads all queries, maxSize+1 would be none.
    TuningResult result;
    result.batchCurve = cpu.batchCurve;

    SchedulerPolicy policy = cpu.policy;
    policy.gpuEnabled = true;

    const ClimbPeak peak = hillClimb(
        1, QuerySizeDistribution::maxSize,
        [](size_t threshold) {
            // Geometric walk with a floor step of 16 sizes.
            return std::max<size_t>(
                threshold + 16,
                static_cast<size_t>(std::lround(threshold * 1.5)));
        },
        [&](size_t threshold) {
            policy.gpuQueryThreshold = static_cast<uint32_t>(threshold);
            return infra.maxQps(policy, sla_ms);
        },
        result.thresholdCurve);

    // The CPU-only configuration remains a candidate: if keeping all
    // queries on cores beats every offload split, use it.
    if (cpu.qps() > peak.qps) {
        result.policy = cpu.policy;
        result.atBest = cpu.atBest;
    } else {
        result.policy = policy;
        result.policy.gpuQueryThreshold = static_cast<uint32_t>(peak.knob);
        result.atBest = peak.atBest;
    }
    return result;
}

} // namespace deeprecsys
