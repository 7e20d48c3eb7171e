#include "autoscaler.hh"

#include <algorithm>
#include <cmath>

#include "base/logging.hh"

namespace deeprecsys {

const char*
scalingPolicyName(ScalingPolicyKind kind)
{
    switch (kind) {
      case ScalingPolicyKind::Static:     return "static";
      case ScalingPolicyKind::Reactive:   return "reactive";
      case ScalingPolicyKind::Predictive: return "predictive";
    }
    return "unknown";
}

const std::vector<ScalingPolicyKind>&
allScalingPolicyKinds()
{
    static const std::vector<ScalingPolicyKind> kinds = {
        ScalingPolicyKind::Static,
        ScalingPolicyKind::Reactive,
        ScalingPolicyKind::Predictive,
    };
    return kinds;
}

namespace {

/** Clamp a policy's ask to what the tier can actually field. */
size_t
clampTarget(size_t desired, size_t min_machines, size_t max_machines)
{
    return std::clamp(desired, std::max<size_t>(1, min_machines),
                      max_machines);
}

/** The static peak plan as a policy: the comparison baseline. */
class StaticPolicy final : public ScalingPolicy
{
  public:
    explicit StaticPolicy(const ScalingPolicySpec& spec) : spec_(spec) {}

    size_t
    targetMachines(const ScalingSignals& signals) override
    {
        const size_t fixed = spec_.staticMachines > 0
            ? spec_.staticMachines
            : signals.maxMachines;
        return clampTarget(fixed, spec_.minMachines, signals.maxMachines);
    }

    ScalingPolicyKind kind() const override
    {
        return ScalingPolicyKind::Static;
    }

  private:
    ScalingPolicySpec spec_;
};

/**
 * Measurement-driven feedback: steer the accepting-capacity
 * utilization into [downUtilization, upUtilization], sizing jumps so
 * utilization lands near targetUtilization, with windowed tail
 * latency as an override in both directions — a hot tail scales up
 * even when utilization looks fine (the queueing knee precedes core
 * saturation), and an elevated tail blocks scale-down even when
 * utilization looks low (near the knee, utilization is violently
 * nonlinear in offered rate, so it alone cannot be trusted). A
 * second shed gate ratchets on the measured capacity high-water mark
 * (ScalingPolicySpec::shedRateHeadroom). Tail-driven scale-up jumps
 * proportionally (emergency); utilization-driven growth steps by
 * maxStepUp, and scale-down sheds at most maxStepDown per tick so a
 * measurement dip cannot collapse the tier.
 */
class ReactivePolicy final : public ScalingPolicy
{
  public:
    ReactivePolicy(const ScalingPolicySpec& spec, double sla_ms)
        : spec_(spec), slaMs(sla_ms)
    {
        drs_assert(spec_.targetUtilization > 0.0 &&
                       spec_.targetUtilization < 1.0,
                   "target utilization must be in (0, 1)");
        drs_assert(spec_.downUtilization <= spec_.targetUtilization &&
                       spec_.targetUtilization <= spec_.upUtilization,
                   "utilization band must bracket the target");
    }

    size_t
    targetMachines(const ScalingSignals& signals) override
    {
        const size_t serving =
            signals.acceptingMachines + signals.warmingMachines;
        const double util = signals.windowUtilization;
        // Shed queries are an emergency on par with a hot tail: the
        // router is refusing work right now, so jump proportionally
        // instead of stepping. Zero whenever overload control is off,
        // so the historical policy is untouched.
        const bool shedding = signals.windowDrops > 0;
        const bool hot_tail = shedding ||
            (signals.windowTailMs >= 0.0 &&
             signals.windowTailMs > spec_.slaHeadroomFraction * slaMs);

        const bool calm_tail = !shedding &&
            (signals.windowTailMs < 0.0 ||
             signals.windowTailMs <
                 spec_.downLatencyFraction * slaMs);

        // Ratchet the measured capacity high-water mark: the highest
        // per-accepting-machine rate served with a comfortable tail.
        // A shedding window never ratchets — its arrival rate was not
        // actually served, only offered.
        if (!shedding && signals.acceptingMachines > 0 &&
            signals.windowTailMs >= 0.0 &&
            signals.windowTailMs < 0.5 * slaMs) {
            highWaterQps = std::max(
                highWaterQps,
                signals.arrivalQps /
                    static_cast<double>(signals.acceptingMachines));
        }

        size_t desired = serving;
        if (util > spec_.upUtilization || hot_tail) {
            // Size the jump so utilization lands on target; always
            // grow by at least one machine when hot. Growth on
            // utilization alone is stepped (tracking a ramp), only a
            // hot tail may jump proportionally (emergency).
            desired = static_cast<size_t>(std::ceil(
                static_cast<double>(serving) * util /
                spec_.targetUtilization));
            desired = std::max(desired, serving + 1);
            if (!hot_tail)
                desired = std::min(desired, serving + spec_.maxStepUp);
        } else if (util < spec_.downUtilization && calm_tail &&
                   serving > 1) {
            const size_t step =
                std::min(spec_.maxStepDown, serving - 1);
            // Two shed gates. Projected utilization must stay under
            // the scale-up threshold, or the shed would immediately
            // bounce back; and the projected per-machine rate must
            // stay within the measured capacity high-water mark —
            // near the knee, utilization and tail both look calm one
            // machine above the melt-down point, so only the served-
            // rate history bounds how far down is safe.
            const double shrunk = static_cast<double>(serving - step);
            const double projected_util =
                util * static_cast<double>(serving) / shrunk;
            const bool rate_safe = highWaterQps <= 0.0 ||
                signals.arrivalQps / shrunk <=
                    highWaterQps * spec_.shedRateHeadroom;
            if (projected_util < spec_.upUtilization && rate_safe) {
                const size_t want = static_cast<size_t>(std::ceil(
                    static_cast<double>(serving) * util /
                    spec_.targetUtilization));
                desired = std::max(want, serving - step);
            }
        }
        return clampTarget(desired, spec_.minMachines,
                           signals.maxMachines);
    }

    ScalingPolicyKind kind() const override
    {
        return ScalingPolicyKind::Reactive;
    }

  private:
    ScalingPolicySpec spec_;
    double slaMs;

    /** Highest per-accepting-machine rate served with a calm tail. */
    double highWaterQps = 0.0;
};

/**
 * Profile-aware feed-forward: provision machines proportional to the
 * rate the diurnal profile predicts one look-ahead out, anchored to
 * the static plan (machinesAtPeak machines carry the peak rate), plus
 * a safety margin for the stochastic arrival/size draws around the
 * profile's mean.
 */
class PredictivePolicy final : public ScalingPolicy
{
  public:
    PredictivePolicy(const ScalingPolicySpec& spec,
                     const AutoscaleSpec& run)
        : spec_(spec), profile(run.profile), meanQps(run.meanQps),
          machinesAtPeak(run.machinesAtPeak)
    {
        drs_assert(meanQps > 0.0,
                   "predictive scaling needs AutoscaleSpec::meanQps");
        drs_assert(machinesAtPeak > 0,
                   "predictive scaling needs AutoscaleSpec::machinesAtPeak");
        peakQps = meanQps * (1.0 + profile.swingAmplitude());
        lead = spec_.leadSeconds > 0.0
            ? spec_.leadSeconds
            : run.warmupDelaySeconds + run.controlIntervalSeconds;
    }

    size_t
    targetMachines(const ScalingSignals& signals) override
    {
        const double predicted =
            meanQps * profile.multiplier(signals.timeSeconds + lead);
        const size_t desired = static_cast<size_t>(std::ceil(
            static_cast<double>(machinesAtPeak) * (predicted / peakQps) *
            (1.0 + spec_.safetyMargin)));
        return clampTarget(desired, spec_.minMachines,
                           signals.maxMachines);
    }

    ScalingPolicyKind kind() const override
    {
        return ScalingPolicyKind::Predictive;
    }

  private:
    ScalingPolicySpec spec_;
    DiurnalProfile profile;
    double meanQps;
    double peakQps = 0.0;
    double lead = 0.0;
    size_t machinesAtPeak;
};

} // namespace

std::unique_ptr<ScalingPolicy>
makeScalingPolicy(const ScalingPolicySpec& policy,
                  const AutoscaleSpec& spec)
{
    switch (policy.kind) {
      case ScalingPolicyKind::Static:
        return std::make_unique<StaticPolicy>(policy);
      case ScalingPolicyKind::Reactive:
        return std::make_unique<ReactivePolicy>(policy, spec.slaMs);
      case ScalingPolicyKind::Predictive:
        return std::make_unique<PredictivePolicy>(policy, spec);
    }
    drs_panic("unknown scaling policy kind");
}

} // namespace deeprecsys
