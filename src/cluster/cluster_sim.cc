#include "cluster_sim.hh"

#include <algorithm>
#include <initializer_list>

#include "base/logging.hh"
#include "cluster/autoscaler.hh"
#include "loadgen/query_stream.hh"
#include "obs/observer.hh"

namespace deeprecsys {

std::vector<uint64_t>
machineMemoryBudgets(const std::vector<SimConfig>& machines)
{
    std::vector<uint64_t> budgets;
    budgets.reserve(machines.size());
    for (const SimConfig& machine : machines)
        budgets.push_back(machine.memoryBytes);
    return budgets;
}

namespace {

/** Fatal checks of a tier configuration, shared by both front ends. */
void
validateTier(const ClusterConfig& cfg)
{
    drs_assert(!cfg.machines.empty(), "cluster needs machines");
    for (const SimConfig& machine : cfg.machines)
        MachineEngine::validate(machine);
    // Fraction rules are the trace splitter's (non-negative, sum to
    // 1); every mix model needs a binding somewhere or no routing
    // policy could legally place its queries. An empty mix is the
    // one-entry mix and passes both.
    (void)splitCountByFraction(mixFractions(cfg.modelMix), 0);
    size_t max_served = 0;
    for (const SimConfig& machine : cfg.machines)
        max_served = std::max(max_served, machine.numModels());
    drs_assert(max_served >= cfg.modelMix.size(),
               "no machine serves the mix's last model");
    if (cfg.modelMix.size() > 1 && cfg.sharding.has_value())
        drs_assert(cfg.sharding->models.size() == cfg.modelMix.size(),
                   "a multi-model sharded tier needs one table "
                   "namespace per mix model");
    // Every run keeps one overload book per class, overload on or off.
    drs_assert(cfg.overload.priorityClasses >= 1,
               "at least one priority class is required");
    if (cfg.sharding.has_value()) {
        const ShardPlacement& placement = cfg.sharding->placement;
        drs_assert(placement.feasible(),
                   "cluster sharding needs a feasible placement");
        drs_assert(placement.numMachines() == cfg.machines.size(),
                   "placement machine count mismatch");
        drs_assert(cfg.sharding->tableSet.numTables ==
                       placement.numTables(),
                   "table-set model must match the placed tables");
        for (size_t m = 0; m < cfg.machines.size(); m++) {
            const uint64_t budget = cfg.machines[m].memoryBytes;
            drs_assert(budget == 0 ||
                           placement.bytesOnMachine(m) <= budget,
                       "placement exceeds a machine memory budget");
        }
    }
    if (cfg.faults.enabled()) {
        validateFaultPlan(cfg.faults);
        // Crashing a machine destroys its shard replicas for the
        // outage; refuse placements that cannot survive the plan's
        // declared tolerance (ShardPlacement availability validator).
        if (cfg.sharding.has_value() && cfg.faults.faultTolerance > 0)
            drs_assert(cfg.sharding->placement.replicatedFor(
                           cfg.faults.faultTolerance),
                       "placement replication below the declared "
                       "fault tolerance");
    }
    if (cfg.hedge.enabled()) {
        drs_assert(cfg.sharding.has_value(),
                   "hedged requests need a sharded tier (only fan-out "
                   "parts hedge)");
        drs_assert(cfg.hedge.delayFor(cfg.overload.deadlineSeconds) > 0.0,
                   "hedge delay must resolve positive (set delaySeconds "
                   "or a deadline for delayFraction)");
    }
}

/**
 * Machine lifecycle state. Without a lifecycle layer a machine is
 * Accepting, or Off while crashed; the elastic layer adds warm-up and
 * connection draining.
 */
enum class MState : uint8_t
{
    Off,        ///< powered down or crashed; serves nothing
    Warming,    ///< powered, not yet accepting (warm-up delay)
    Accepting,  ///< in the routing set
    Draining,   ///< out of the routing set, finishing in-flight work
};

/** Per-machine live state the core and the lifecycle layer share. */
struct TierState
{
    std::vector<MachineEngine> machines;
    std::vector<MState> state;
    size_t acceptingCount = 0;        ///< machines in state Accepting
    std::vector<uint64_t> inFlight;   ///< parts dispatched, not finished

    /**
     * Fanned-out TwoStage queries led here whose dense join phase has
     * not been queued yet. Between the leader's own embedding part
     * finishing and the last remote part landing, the leader holds no
     * engine work and inFlight can read 0, yet it still owes the join
     * phase — a draining leader must not power off across that gap.
     * Kept only under a lifecycle layer.
     */
    std::vector<uint32_t> pendingJoins;

    /** Crash depth per machine (> 0: crashed, awaiting repair). */
    std::vector<int> downDepth;

    EventQueue events;
};

/** One machine's share of one in-flight query, as the driver sees it. */
struct PartRec
{
    uint64_t queryIdx = 0;
    double embFraction = 1.0;  ///< local share of the embedding work
    double start = 0;          ///< machine admission time (observer only)
    uint32_t machine = 0;

    /** Dispatch generation of the owning query this part belongs to;
     *  a mismatch against QueryState::gen marks the part stale (its
     *  dispatch was killed and the query re-presented). */
    uint32_t gen = 0;

    /** Whole (single-part dispatch, full replica path), FanEmb
     *  (fan-out embedding phase, local lookups only), or FanDense
     *  (TwoStage second phase: the leader's dense stacks). */
    obs::PartStage kind = obs::PartStage::Whole;

    bool leader = true;        ///< this part's machine leads the query
};

/** Book-keeping for one in-flight query. */
struct QueryState
{
    double arrival = 0;
    double joinTime = 0;      ///< latest part completion + return hop
    double leaderReady = 0;   ///< TwoStage: last pooled part at leader
    double quality = 1.0;     ///< answer quality (< 1 when degraded)
    uint32_t size = 0;
    uint32_t partsLeft = 0;
    uint32_t machine = 0;     ///< leader machine
    uint32_t cls = 0;         ///< effective priority class
    uint32_t attempt = 0;     ///< retries scheduled so far
    uint32_t model = 0;       ///< mix model (0 on single-model tiers)

    // --- fault bookkeeping (untouched on the fault-free path) ---
    uint32_t gen = 0;         ///< dispatch generation (bumped each present)
    uint32_t failovers = 0;   ///< failure-driven re-presentations so far
    uint32_t leaderEpoch = 0; ///< leader engine epoch at dispatch
    bool measured = true;
    bool dead = false;        ///< killed by a failure (awaiting failover)
    /** The dispatch holds a committed TwoStage join-phase cost that
     *  must be released exactly once (JoinPhase admission or kill). */
    bool joinCommitted = false;
    /** The dispatch holds a TierState::pendingJoins count to release. */
    bool joinLeadership = false;
};

/**
 * Hedge-only part state, kept parallel to the part records only when
 * hedging is on so unhedged runs keep the small records.
 */
struct HedgePart
{
    /** partner value of an unhedged part. */
    static constexpr uint64_t kNoPartner = UINT64_MAX;

    /** The hedge twin racing for the same logical share, if any. */
    uint64_t partner = kNoPartner;

    bool done = false;       ///< finished all local work
    bool cancelled = false;  ///< destroyed by a crash or staleness
    bool hedged = false;     ///< this part IS the hedge duplicate

    /** Tables this part covers; hedging uses it to find another
     *  replica able to serve the share. */
    std::vector<uint32_t> tables;
};

/** A query's current dispatch as a range of part records (hedging). */
struct HedgeDispatch
{
    uint64_t firstPart = 0;
    uint32_t numParts = 0;
};

/**
 * The elastic tier's machine-lifecycle layer over the driver core:
 * warm-up, connection draining and power-off, the control loop with
 * its window signals, and the powered-seconds books. The core runs
 * every query and calls this layer where machines power on and off;
 * this layer only moves machines between states.
 */
class ElasticLifecycle
{
  public:
    ElasticLifecycle(const AutoscaleSpec& spec, ScalingPolicy& policy,
                     AutoscaleResult& result, obs::RunObserver* obs)
        : spec_(spec), n(spec.cluster.machines.size()), policy(policy),
          result(result), obs_(obs), poweredSince(n, 0.0),
          acceptingSince(n, 0.0), upEpoch(n, 0), windowBusyStart(n, 0.0)
    {
    }

    /** Set the initial machine states and schedule the first control
     *  tick (after the fault schedule, before any traffic). */
    void
    start(TierState& tier_state, double start_time)
    {
        tier = &tier_state;
        t0 = start_time;
        const size_t initial =
            spec_.initialMachines == 0 ? n : spec_.initialMachines;
        for (size_t m = 0; m < n; m++) {
            if (m < initial) {
                poweredSince[m] = t0;
                acceptingSince[m] = t0;
            } else {
                tier->state[m] = MState::Off;
            }
        }
        tier->acceptingCount = initial;
        result.minServingMachines = initial;
        result.maxServingMachines = initial;
        windowStart = t0;
        tier->events.push(t0 + spec_.controlIntervalSeconds,
                          SimEvent::Kind::Control, 0, 0);
    }

    /** A query completed (warm-up included): a window signal. */
    void onCompletion(double latency) { windowLat.add(latency); }

    /** Machine @p m finished or dropped a part, or released a join: a
     *  draining machine with no remaining work powers off now. */
    void
    release(uint32_t m, double now)
    {
        if (tier->state[m] == MState::Draining && tier->inFlight[m] == 0 &&
            tier->pendingJoins[m] == 0 && tier->machines[m].idle())
            powerOff(m, now);
    }

    /** A control tick; @p traffic_left says whether arrivals remain. */
    void tick(double now, bool traffic_left);

    /** The warm-up of machine @p m scheduled under @p epoch is done. */
    void
    machineUp(uint32_t m, uint64_t epoch, double now)
    {
        // Stale warm-ups (cancelled, possibly re-ordered) carry an old
        // epoch and are ignored.
        if (tier->state[m] == MState::Warming && epoch == upEpoch[m]) {
            tier->state[m] = MState::Accepting;
            acceptingSince[m] = now;
            tier->acceptingCount++;
        }
    }

    /** The last traffic event happened at @p end: bill every machine
     *  still powered and close the machine-time books. */
    void
    finish(double end)
    {
        for (size_t m = 0; m < n; m++) {
            if (tier->state[m] != MState::Off)
                powerOff(m, end);
            result.machineSeconds += result.poweredSecondsPerMachine[m];
        }
        result.spanSeconds = end - t0;
        result.staticMachineSeconds =
            static_cast<double>(n) * result.spanSeconds;
    }

    /** Seconds machine @p m was powered (final after finish()). */
    double
    poweredSeconds(uint32_t m) const
    {
        return result.poweredSecondsPerMachine[m];
    }

    /** Power machine @p m off: drained, warm-up cancelled, or crashed. */
    void
    powerOff(size_t m, double now)
    {
        result.poweredSecondsPerMachine[m] += now - poweredSince[m];
        tier->state[m] = MState::Off;
    }

  private:
    size_t
    count(MState s) const
    {
        return static_cast<size_t>(
            std::count(tier->state.begin(), tier->state.end(), s));
    }

    bool canDrain(size_t m) const;
    size_t applyTarget(size_t target, double now);

    const AutoscaleSpec& spec_;
    const size_t n;
    ScalingPolicy& policy;
    AutoscaleResult& result;
    obs::RunObserver* const obs_;
    TierState* tier = nullptr;
    double t0 = 0;                ///< first arrival

    std::vector<double> poweredSince;
    std::vector<double> acceptingSince;
    std::vector<uint64_t> upEpoch;

    // Window signals: latencies of the window's completions, and the
    // books' offered/dropped counts and busy integrals at its start.
    SampleStats windowLat;
    double windowStart = 0;
    uint64_t windowOffered = 0;
    uint64_t windowDropped = 0;
    std::vector<double> windowBusyStart;
};

/**
 * Shard re-validation for removal: machine @p m may only leave the
 * accepting set if every table it holds keeps a replica on another
 * machine that is still accepting — otherwise a query touching that
 * table could no longer be routed.
 */
bool
ElasticLifecycle::canDrain(size_t m) const
{
    if (!spec_.cluster.sharding.has_value())
        return true;
    const ShardPlacement& placement = spec_.cluster.sharding->placement;
    for (uint32_t t = 0; t < static_cast<uint32_t>(placement.numTables());
         t++) {
        if (!placement.holds(m, t))
            continue;
        bool covered = false;
        for (size_t other = 0; other < n && !covered; other++) {
            covered = other != m &&
                tier->state[other] == MState::Accepting &&
                placement.holds(other, t);
        }
        if (!covered)
            return false;
    }
    return true;
}

/**
 * Move the tier toward @p target serving machines (accepting +
 * warming). Growth cancels drains first (those machines are still
 * warm), then powers on cold machines through the warm-up delay;
 * shrink cancels warm-ups first (they hold no work), then drains
 * accepting machines newest-first, skipping any the placement
 * re-validation refuses. Returns the serving count achieved.
 */
size_t
ElasticLifecycle::applyTarget(size_t target, double now)
{
    std::vector<MState>& state = tier->state;
    size_t accepting = count(MState::Accepting);
    size_t serving = accepting + count(MState::Warming);
    if (target > serving) {
        size_t need = target - serving;
        for (size_t m = n; m-- > 0 && need > 0;) {
            if (state[m] == MState::Draining) {
                state[m] = MState::Accepting;
                acceptingSince[m] = now;
                tier->acceptingCount++;
                need--;
                serving++;
                accepting++;
            }
        }
        for (size_t m = 0; m < n && need > 0; m++) {
            // A crashed machine is Off but unavailable until its
            // scheduled repair.
            if (state[m] != MState::Off || tier->downDepth[m] > 0)
                continue;
            poweredSince[m] = now;
            need--;
            serving++;
            if (spec_.warmupDelaySeconds > 0.0) {
                state[m] = MState::Warming;
                upEpoch[m]++;
                tier->events.push(now + spec_.warmupDelaySeconds,
                                  SimEvent::Kind::MachineUp,
                                  static_cast<uint32_t>(m), upEpoch[m]);
            } else {
                state[m] = MState::Accepting;
                acceptingSince[m] = now;
                tier->acceptingCount++;
                accepting++;
            }
        }
    } else if (target < serving) {
        size_t excess = serving - target;
        for (size_t m = n; m-- > 0 && excess > 0;) {
            if (state[m] == MState::Warming) {
                powerOff(m, now);    // accepted nothing yet
                excess--;
                serving--;
            }
        }
        for (size_t m = n; m-- > 0 && excess > 0;) {
            if (state[m] != MState::Accepting || accepting <= 1)
                continue;
            if (!canDrain(m))
                continue;    // would orphan a shard: refused
            state[m] = MState::Draining;
            tier->acceptingCount--;
            accepting--;
            serving--;
            excess--;
            release(static_cast<uint32_t>(m), now);
        }
    }
    return serving;
}

void
ElasticLifecycle::tick(double now, bool traffic_left)
{
    std::vector<MachineEngine>& machines = tier->machines;
    for (size_t m = 0; m < n; m++)
        machines[m].advanceTo(now);

    // Utilization over *accepting* capacity only: draining and warming
    // machines would dilute the signal right after a scale event
    // (ScalingSignals::windowUtilization).
    double busy = 0.0;
    double capacity = 0.0;
    for (size_t m = 0; m < n; m++) {
        const double delta =
            machines[m].busyCoreSeconds() - windowBusyStart[m];
        windowBusyStart[m] = machines[m].busyCoreSeconds();
        if (tier->state[m] == MState::Accepting) {
            busy += delta;
            capacity += (now - std::max(acceptingSince[m], windowStart)) *
                static_cast<double>(
                    spec_.cluster.machines[m].cpu.platform().cores);
        }
    }

    const uint64_t window_drops = result.overload.dropped - windowDropped;
    ScalingSignals sig;
    sig.timeSeconds = now;
    sig.windowSeconds = now - windowStart;
    sig.windowTailMs = windowLat.count() > 0
        ? windowLat.percentile(spec_.percentile) * 1e3
        : -1.0;
    sig.windowUtilization =
        capacity > 0.0 ? std::min(busy / capacity, 1.0) : 0.0;
    sig.arrivalQps = sig.windowSeconds > 0.0
        ? static_cast<double>(result.overload.offered - windowOffered) /
              sig.windowSeconds
        : 0.0;
    sig.windowDrops = window_drops;
    drs_assert(count(MState::Accepting) == tier->acceptingCount,
               "accepting counter drifted from machine states");
    sig.acceptingMachines = tier->acceptingCount;
    sig.warmingMachines = count(MState::Warming);
    sig.drainingMachines = count(MState::Draining);
    sig.maxMachines = n;

    // A window is violating when its observed tail exceeds the SLA —
    // or when nothing completed at all while queries were outstanding:
    // a stalled tier must score as the worst window, not a perfect
    // one. Dispatches a failure killed (every failover or loss that
    // was not an unroutable presentation) are no longer outstanding.
    const FaultStats& faults = result.faults;
    const uint64_t ended =
        faults.failovers + faults.lost - faults.unroutable;
    const uint64_t outstanding =
        result.numDispatched - result.numCompleted - ended;
    const bool violation =
        (windowLat.count() > 0 && sig.windowTailMs > spec_.slaMs) ||
        (windowLat.count() == 0 && outstanding > 0);
    if (violation)
        result.slaViolationSeconds += sig.windowSeconds;

    const size_t serving_before =
        sig.acceptingMachines + sig.warmingMachines;
    const size_t target = std::clamp<size_t>(policy.targetMachines(sig), 1, n);
    const size_t serving = applyTarget(target, now);
    if (target != serving_before || serving != serving_before) {
        result.scaleEvents.push_back({now, serving_before, target, serving});
        if (obs_)
            obs_->onScaleEvent(now, serving_before, target, serving);
    }
    result.minServingMachines = std::min(result.minServingMachines, serving);
    result.maxServingMachines = std::max(result.maxServingMachines, serving);

    AutoscaleWindow row;
    row.endSeconds = now;
    row.tailMs = sig.windowTailMs;
    row.utilization = sig.windowUtilization;
    row.arrivalQps = sig.arrivalQps;
    row.servingMachines = serving;
    row.poweredMachines = serving + count(MState::Draining);
    row.drops = window_drops;
    row.slaViolation = violation;
    result.timeline.push_back(row);

    if (obs_ && obs_->metricsOn()) {
        obs::MetricRegistry& reg = obs_->metrics();
        reg.gauge("machines").set(static_cast<double>(row.servingMachines));
        reg.gauge("accepting_machines").set(
            static_cast<double>(tier->acceptingCount));
        reg.gauge("warming_machines").set(
            static_cast<double>(count(MState::Warming)));
        reg.gauge("draining_machines").set(
            static_cast<double>(count(MState::Draining)));
        reg.gauge("powered_machines").set(
            static_cast<double>(row.poweredMachines));
        reg.gauge("utilization").set(row.utilization);
        reg.gauge("window_p99_ms").set(row.tailMs);
        reg.gauge("arrival_qps").set(row.arrivalQps);
        reg.gauge("window_drops").set(static_cast<double>(window_drops));
        size_t queued_total = 0;
        size_t queued_max = 0;
        for (size_t m = 0; m < n; m++) {
            const size_t queued = machines[m].queuedWork();
            queued_total += queued;
            queued_max = std::max(queued_max, queued);
        }
        reg.gauge("queue_depth_total").set(
            static_cast<double>(queued_total));
        reg.gauge("queue_depth_max").set(static_cast<double>(queued_max));
        obs::Counter& violations = reg.counter("sla_violation_windows");
        if (violation)
            violations.add();
    }
    if (obs_)
        obs_->snapshot(now);

    windowLat = SampleStats{};
    windowOffered = result.overload.offered;
    windowDropped = result.overload.dropped;
    windowStart = now;
    // Stop ticking once the trace is exhausted: the remaining events
    // only drain in-flight work.
    if (traffic_left)
        tier->events.push(now + spec_.controlIntervalSeconds,
                          SimEvent::Kind::Control, 0, 0);
}

/**
 * The driver core: one run's state, its handlers, and the event loop.
 * It routes a global trace over the machines' engines (routing and
 * admission against the live view, fan-out/join with network hops,
 * fault injection with failover, hedged fan-out parts) and fills one
 * set of TierBooks for both front ends. It is also the live
 * ClusterView the router and the admission controller observe.
 *
 * Without a lifecycle layer (ClusterSimulator) every machine accepts
 * from the first arrival and leaves the routing set only while
 * crashed, with no control ticks and no power books. The Autoscaler
 * plugs an ElasticLifecycle in; each call into it costs a static run
 * one pointer test.
 */
class TierCore final : public TierState, public ClusterView
{
  public:
    TierCore(const ClusterConfig& config, const QueryTrace& trace,
             RoutingPolicy& router, obs::RunObserver* obs,
             TierBooks& books, ClusterResult* placements,
             ElasticLifecycle* life)
        : cfg(config), trace(trace), router(router), obs_(obs),
          books(books), placements(placements), life(life),
          numMix(std::max<size_t>(1, config.modelMix.size())),
          faultsOn(config.faults.enabled()),
          hedgeOn(config.hedge.enabled()),
          hedgeDelay(config.hedge.delayFor(config.overload.deadlineSeconds)),
          trackJoinCost(config.overload.enabled() &&
                        config.join == JoinModel::TwoStage)
    {
    }

    /** Run the trace to completion; returns the measured span. */
    MeasuredSpan run();

    // ------------------------------------------------- ClusterView
    size_t numMachines() const override { return machines.size(); }

    size_t
    inFlightQueries(size_t m) const override
    {
        return inFlight[m];
    }

    size_t
    queuedWork(size_t m) const override
    {
        return machines[m].queuedWork();
    }

    double
    queuedCostSeconds(size_t m) const override
    {
        return machines[m].queuedCostSeconds();
    }

    double
    pendingJoinCostSeconds(size_t m) const override
    {
        return pendingJoinCost[m];
    }

    bool
    hasGpu(size_t m) const override
    {
        return cfg.machines[m].policy.gpuEnabled &&
               cfg.machines[m].gpu.has_value();
    }

    double
    speedFactor(size_t m) const override
    {
        return 1.0 / cfg.machines[m].slowdown;
    }

    bool
    accepting(size_t m) const override
    {
        return state[m] == MState::Accepting;
    }

    bool
    allAccepting() const override
    {
        return acceptingCount == machines.size();
    }

    // Per-model signals (a single-model tier is the one-entry mix,
    // whose flight book equals the totals).
    bool
    servesModel(size_t m, uint32_t model) const override
    {
        return cfg.machines[m].servesModel(model);
    }

    size_t
    inFlightQueriesOfModel(size_t m, uint32_t model) const override
    {
        return inFlightByModel[m * numMix + model];
    }

  private:
    void
    flightAdd(uint32_t m, uint32_t model)
    {
        inFlight[m]++;
        inFlightByModel[m * numMix + model]++;
    }

    void
    flightSub(uint32_t m, uint32_t model, const char* what)
    {
        drs_assert(inFlight[m] > 0, what);
        inFlight[m]--;
        drs_assert(inFlightByModel[m * numMix + model] > 0, what);
        inFlightByModel[m * numMix + model]--;
    }

    /** The part belongs to a dispatch a failure already killed (the
     *  query failed over or was lost since). */
    bool
    stale(uint64_t part_idx) const
    {
        const PartRec& part = parts[part_idx];
        const QueryState& q = queries[part.queryIdx];
        return part.gen != q.gen || q.dead;
    }

    /** Record a new part of query @p query_idx on machine @p m, in
     *  flight from now on; returns its index. */
    uint64_t
    addPart(uint64_t query_idx, uint32_t m, double emb_fraction,
            bool leader, obs::PartStage kind)
    {
        const QueryState& q = queries[query_idx];
        const uint64_t part_idx = parts.size();
        parts.push_back(
            {query_idx, emb_fraction, 0.0, m, q.gen, kind, leader});
        if (hedgeOn)
            hedgeParts.emplace_back();
        flightAdd(m, q.model);
        return part_idx;
    }

    // A part reaches its machine (after the forward hop, if any).
    void
    startPart(uint64_t part_idx, double now)
    {
        if (obs_)
            parts[part_idx].start = now;
        const PartRec& part = parts[part_idx];
        const QueryState& q = queries[part.queryIdx];
        PartSpec spec;
        spec.partIdx = part_idx;
        spec.samples = q.size;
        spec.model = q.model;
        switch (part.kind) {
          case obs::PartStage::Whole:
            break;    // full-model path, offload-eligible
          case obs::PartStage::FanEmb:
            // Local embedding share only. Under the optimistic join
            // the leader also runs its dense stacks concurrently here;
            // under TwoStage the dense work waits for the join.
            spec.embFraction = part.embFraction;
            spec.leader =
                cfg.join == JoinModel::Optimistic && part.leader;
            spec.whole = false;
            break;
          case obs::PartStage::FanDense:
            spec.embFraction = 0.0;
            spec.leader = true;
            spec.whole = false;
            break;
        }
        const uint32_t m = part.machine;
        scheduled.clear();
        machines[m].admit(spec, now, scheduled);
        events.pushAll(scheduled, m, engineEpoch[m]);
    }

    void
    completeQuery(uint64_t query_idx)
    {
        QueryState& q = queries[query_idx];
        books.numCompleted++;
        books.perMachine[q.machine].queriesCompleted++;
        books.perModel[q.model].completed++;
        const double latency = q.joinTime - q.arrival;
        if (life)
            life->onCompletion(latency);
        if (q.measured) {
            books.fleetLatencySeconds.add(latency);
            books.perMachine[q.machine].latencySeconds.add(latency);
            books.perModel[q.model].latencySeconds.add(latency);
            span.onCompletion(q.joinTime);
            if (cfg.overload.deadlineSeconds > 0.0) {
                ClassOverloadStats& cs = classStats(q.cls);
                books.overload.measuredCompleted++;
                cs.measuredCompleted++;
                if (latency <= cfg.overload.deadlineSeconds) {
                    books.overload.completedWithinDeadline++;
                    books.overload.qualityWeight += q.quality;
                    cs.completedWithinDeadline++;
                    cs.qualityWeight += q.quality;
                }
            }
        }
        lastEventTime = std::max(lastEventTime, q.joinTime);
        if (obs_) {
            const double back = cfg.network.oneWaySeconds(
                static_cast<double>(q.size) *
                cfg.network.responseBytesPerSample);
            obs_->onQueryComplete(query_idx, q.joinTime, back);
        }
    }

    // A part finished all of its local work; its machine may drain.
    void
    finishPart(uint64_t part_idx, double now, bool gpu)
    {
        const uint32_t m = parts[part_idx].machine;
        settlePart(part_idx, now, gpu);
        if (life)
            life->release(m, now);
    }

    void
    settlePart(uint64_t part_idx, double now, bool gpu)
    {
        const PartRec& part = parts[part_idx];
        if (obs_) {
            obs_->onPartDone(
                part.queryIdx, part.machine, part.kind, part.leader, gpu,
                part.start,
                machines[part.machine].lastFinishedFirstServiceStart(),
                now);
        }
        QueryState& q = queries[part.queryIdx];
        flightSub(part.machine, q.model,
                  "completion with nothing in flight");

        if (faultsOn || hedgeOn) {
            if (hedgeOn)
                hedgeParts[part_idx].done = true;
            // A completion of a killed dispatch is a ghost: the query
            // already failed over (or was lost) and this part's share
            // was accounted at the kill.
            if (stale(part_idx))
                return;
            if (hedgeOn &&
                hedgeParts[part_idx].partner != HedgePart::kNoPartner) {
                if (hedgeParts[hedgeParts[part_idx].partner].done) {
                    // The twin got here first; this copy's answer is
                    // discarded (tied-request loser).
                    books.faults.hedgeWasted++;
                    return;
                }
                if (hedgeParts[part_idx].hedged)
                    books.faults.hedgeWins++;
            }
        }

        if (part.kind == obs::PartStage::FanEmb &&
            cfg.join == JoinModel::TwoStage) {
            // Pooled embeddings travel to the leader; the dense phase
            // starts once the last part (the leader's own hop-free)
            // lands. A degraded NIC on either end stretches the hop.
            const double to_leader = part.leader
                ? 0.0
                : cfg.network.oneWaySeconds(
                      static_cast<double>(q.size) *
                      cfg.network.embeddingBytesPerSample) *
                      std::max(netFactor[part.machine],
                               netFactor[q.machine]);
            q.leaderReady = std::max(q.leaderReady, now + to_leader);
            drs_assert(q.partsLeft > 0, "query with no pending parts");
            if (--q.partsLeft > 0)
                return;
            q.partsLeft = 1;    // the dense phase itself
            if (q.joinLeadership) {
                // The leader may already be draining; its join phase is
                // in-flight work and still runs there.
                drs_assert(pendingJoins[q.machine] > 0,
                           "join phase with no pending leadership");
                pendingJoins[q.machine]--;
                q.joinLeadership = false;
            }
            // addPart may reallocate the part records; `part` dangles
            // beyond it.
            const uint64_t dense_idx =
                addPart(part.queryIdx, q.machine, 0.0, true,
                        obs::PartStage::FanDense);
            books.perMachine[q.machine].joinPhases++;
            events.push(q.leaderReady, SimEvent::Kind::JoinPhase,
                        q.machine, dense_idx);
            return;
        }

        // Whole parts, optimistic fan-out parts, and dense phases all
        // return scores to the router and join there.
        const double back = cfg.network.oneWaySeconds(
            static_cast<double>(q.size) *
            cfg.network.responseBytesPerSample) *
            netFactor[part.machine];
        q.joinTime = std::max(q.joinTime, now + back);
        drs_assert(q.partsLeft > 0, "query with no pending parts");
        if (--q.partsLeft == 0)
            completeQuery(part.queryIdx);
    }

    // A part of a killed dispatch is cancelled before it runs (the
    // client gave up on the RPC, or the join it fed died).
    void
    dropPart(uint64_t part_idx, double now)
    {
        const PartRec& part = parts[part_idx];
        if (hedgeOn)
            hedgeParts[part_idx].cancelled = true;
        flightSub(part.machine, queries[part.queryIdx].model,
                  "cancel with nothing in flight");
        if (life)
            life->release(part.machine, now);
    }

    // The committed TwoStage join phase of @p q is queued or dead: release
    // it from the estimator's second-order backlog (the subtraction
    // mirrors the addition at dispatch exactly).
    void
    releaseJoinCost(QueryState& q)
    {
        pendingJoinCost[q.machine] -=
            machines[q.machine].joinPhaseCostSeconds(q.size, q.model);
        q.joinCommitted = false;
    }

    // A failure destroyed query @p idx's current dispatch. Release its
    // committed join books, then either fail over (schedule a re-present
    // with exponential client backoff) or record the final loss. Callers
    // guarantee the query is live (not dead, current generation).
    void
    failQuery(uint64_t idx, double now)
    {
        QueryState& q = queries[idx];
        q.dead = true;
        if (q.joinCommitted)
            releaseJoinCost(q);
        if (q.joinLeadership) {
            drs_assert(pendingJoins[q.machine] > 0,
                       "join leadership with no pending join");
            pendingJoins[q.machine]--;
            q.joinLeadership = false;
            life->release(q.machine, now);
        }
        if (q.failovers < cfg.faults.maxFailovers) {
            q.failovers++;
            books.faults.failovers++;
            const double delay = cfg.faults.failoverDelaySeconds *
                static_cast<double>(
                    1u << std::min<uint32_t>(q.failovers - 1, 16));
            events.push(now + delay, SimEvent::Kind::Retry, 0, idx);
            if (obs_)
                obs_->onQueryFailover(idx, now, q.failovers, delay);
        } else {
            books.faults.lost++;
            books.faults.lostQueries.push_back(idx);
            books.perModel[q.model].lost++;
            if (placements)
                placements->machineOfQuery[idx] = ClusterResult::lostMachine;
            if (obs_)
                obs_->onQueryLost(idx, now);
        }
    }

    // A live part was destroyed (its machine crashed, or its forwarded RPC
    // landed on a machine that is down). Decide the owning query's fate.
    void
    losePart(uint64_t part_idx, double now)
    {
        const PartRec& part = parts[part_idx];
        if (hedgeOn)
            hedgeParts[part_idx].cancelled = true;
        flightSub(part.machine, queries[part.queryIdx].model,
                  "lost part with nothing in flight");
        books.faults.partsLost++;
        if (stale(part_idx))
            return;    // that dispatch already died
        if (hedgeOn && hedgeParts[part_idx].partner != HedgePart::kNoPartner) {
            const HedgePart& twin = hedgeParts[hedgeParts[part_idx].partner];
            if (twin.done)
                return;    // the share already completed via the twin
            if (!twin.cancelled) {
                // The twin is still running and carries the share — the
                // hedge just saved this query from the crash.
                books.faults.hedgeSaves++;
                return;
            }
        }
        failQuery(part.queryIdx, now);
    }

    // Fail-stop crash of machine @p m: a forced, instant power-off.
    // Epoch-fence its pending engine completions, destroy queued and
    // in-flight work, take it out of the routing set. It stays Off until
    // its scheduled repair. Depth-counted so overlapping windows (random +
    // correlated) stay idempotent. The machine is Off and billed before
    // its lost parts settle: a lost part may fail a query the machine
    // leads, and the released leadership must not power a draining
    // machine off (and bill it) a second time.
    void
    crash(uint32_t m, double now)
    {
        if (downDepth[m]++ > 0)
            return;
        books.faults.crashes++;
        engineEpoch[m]++;
        if (obs_)
            obs_->onMachineDown(m, now);
        if (state[m] == MState::Off)
            return;    // nothing powered to kill
        if (state[m] == MState::Accepting)
            acceptingCount--;
        const bool held_work = state[m] != MState::Warming;
        state[m] = MState::Off;
        if (life)
            life->powerOff(m, now);
        if (held_work) {
            lastFaultAdvance = std::max(lastFaultAdvance, now);
            lostBuf.clear();
            machines[m].crash(now, lostBuf);
            for (uint64_t lost_part : lostBuf)
                losePart(lost_part, now);
        }
    }

    void
    recover(uint32_t m, double now)
    {
        drs_assert(downDepth[m] > 0, "recovery of a machine never down");
        if (--downDepth[m] > 0)
            return;
        books.faults.recoveries++;
        // An elastic machine stays Off; its scaling policy re-powers it
        // through the normal warm-up lifecycle when capacity is short.
        if (!life) {
            state[m] = MState::Accepting;
            acceptingCount++;
        }
        if (obs_)
            obs_->onMachineUp(m, now);
    }

    void
    applyFault(const FaultEvent& fe, double now)
    {
        switch (fe.kind) {
          case FaultEvent::Kind::Crash:
            crash(fe.machine, now);
            break;
          case FaultEvent::Kind::Recover:
            recover(fe.machine, now);
            break;
          case FaultEvent::Kind::GrayStart:
            // Depth-counted: overlapping windows extend, the first open
            // sets the factor, the last close clears it.
            if (grayDepth[fe.machine]++ == 0) {
                machines[fe.machine].setServiceFactor(fe.factor);
                books.faults.grayWindows++;
            }
            break;
          case FaultEvent::Kind::GrayEnd:
            if (--grayDepth[fe.machine] == 0)
                machines[fe.machine].setServiceFactor(1.0);
            break;
          case FaultEvent::Kind::NetDegradeStart:
            if (netDepth[fe.machine]++ == 0) {
                netFactor[fe.machine] = fe.factor;
                books.faults.netDegradeWindows++;
            }
            break;
          case FaultEvent::Kind::NetDegradeEnd:
            if (--netDepth[fe.machine] == 0)
                netFactor[fe.machine] = 1.0;
            break;
        }
    }

    // Tail-at-scale hedging: the query is still missing fan-out parts
    // hedgeDelay after dispatch. Duplicate each unfinished, unhedged,
    // non-leader embedding part onto the least-loaded accepting replica
    // of its tables and let the copies race.
    void
    hedgeQuery(uint64_t idx, double now)
    {
        const QueryState& q = queries[idx];
        const HedgeDispatch dispatch = hedgeDispatch[idx];
        const ShardPlacement& placement = cfg.sharding->placement;
        for (uint32_t i = 0; i < dispatch.numParts; i++) {
            const uint64_t pi = dispatch.firstPart + i;
            if (hedgeParts[pi].done || hedgeParts[pi].cancelled ||
                parts[pi].leader ||
                hedgeParts[pi].partner != HedgePart::kNoPartner ||
                parts[pi].kind != obs::PartStage::FanEmb)
                continue;
            const uint32_t src = parts[pi].machine;
            size_t best = machines.size();
            double best_load = 0.0;
            for (size_t m = 0; m < machines.size(); m++) {
                if (m == src || state[m] != MState::Accepting)
                    continue;
                if (!placement.holdsAll(m, hedgeParts[pi].tables))
                    continue;
                // The router's load signal (outstanding work scaled by
                // machine speed), lowest index winning ties.
                const double load =
                    static_cast<double>(inFlight[m] +
                                        machines[m].queuedWork()) *
                    cfg.machines[m].slowdown;
                if (best == machines.size() || load < best_load) {
                    best = m;
                    best_load = load;
                }
            }
            if (best == machines.size())
                continue;    // no surviving replica to hedge onto
            const uint32_t to = static_cast<uint32_t>(best);
            const uint64_t dup_idx = addPart(idx, to, parts[pi].embFraction,
                                             false, obs::PartStage::FanEmb);
            hedgeParts[dup_idx].partner = pi;
            hedgeParts[dup_idx].hedged = true;
            hedgeParts[dup_idx].tables = hedgeParts[pi].tables;
            hedgeParts[pi].partner = dup_idx;
            books.perMachine[to].remoteParts++;
            books.numParts++;
            if (placements)
                placements->partMachinesOfQuery[idx].push_back(to);
            books.faults.hedged++;
            if (obs_)
                obs_->onPartHedged(idx, now, src, to);
            const double forward = cfg.network.oneWaySeconds(
                static_cast<double>(q.size) *
                cfg.network.requestBytesPerSample) * netFactor[to];
            if (forward > 0.0) {
                events.push(now + forward, SimEvent::Kind::PartArrival, to,
                            dup_idx);
            } else {
                machines[to].advanceTo(now);
                startPart(dup_idx, now);
            }
        }
    }

    // Present query @p idx to the router at @p now — its trace arrival, or
    // a client retry of an earlier shed or failover. The router's overload
    // verdict either drops it (final, or with a retry scheduled), degrades
    // it (shrinks the size dispatched downstream), or passes it through.
    // Latency always counts from the original trace arrival, so a retried
    // completion pays its backoff — retries buy availability, not goodput.
    void
    present(uint64_t idx, double now)
    {
        const Query& in = trace[idx];
        QueryState& q = queries[idx];
        drs_assert(in.model < numMix,
                   "query's model is outside the tier's mix");
        // Every presentation is traffic, served or not: measured drops
        // and failures open the span too, so goodput is charged
        // against real offered time.
        lastEventTime = std::max(lastEventTime, now);
        q.measured = idx >= warmup;
        if (q.measured)
            span.onArrival(in.arrivalSeconds);
        q.model = in.model;
        q.cls = cfg.overload.effectiveClass(in);
        ClassOverloadStats& cs = classStats(q.cls);
        if (q.attempt == 0 && q.failovers == 0)
            cs.offered++;

        Query served = in;
        double quality = 1.0;
        if (admission) {
            const AdmissionDecision verdict = admission->decide(in, *this);
            if (!verdict.admit) {
                // Shed at the router: nothing reaches a machine.
                books.overload.dropped++;
                cs.dropped++;
                if (verdict.retryable && q.attempt < cfg.overload.maxRetries) {
                    const double delay = retryDelaySeconds(
                        cfg.overload.retryBackoffSeconds,
                        cfg.overload.retryBackoffFactor,
                        cfg.overload.retryJitterFraction,
                        verdict.retryAfterSeconds, in.id, q.attempt);
                    q.attempt++;
                    books.overload.retried++;
                    cs.retried++;
                    events.push(now + delay, SimEvent::Kind::Retry, 0, idx);
                    if (obs_)
                        obs_->onQueryRetry(idx, now, q.attempt, delay);
                } else {
                    books.overload.droppedFinal++;
                    cs.droppedFinal++;
                    books.perModel[in.model].droppedFinal++;
                    if (placements)
                        placements->machineOfQuery[idx] =
                            ClusterResult::droppedMachine;
                    books.overload.droppedQueries.push_back(idx);
                    if (obs_)
                        obs_->onQueryDrop(idx, now, in.size);
                }
                return;
            }
            if (verdict.servedSize < in.size)
                served.size = verdict.servedSize;
            quality = verdict.quality;
        }

        // Route before committing the admission books: under fault
        // injection the query may be unservable (no accepting replica set
        // covers its tables), which is neither an admission nor a drop —
        // admission never saw a servable query.
        std::vector<ShardTarget> plan;
        if (!faultsOn || acceptingCount > 0)
            plan = router.routeParts(served, *this);
        if (plan.empty()) {
            drs_assert(faultsOn, "policy returned no targets");
            books.faults.unroutable++;
            failQuery(idx, now);
            return;
        }
        if (admission && served.size < in.size) {
            books.overload.degraded++;
            cs.degraded++;
            books.overload.degradedQueries.push_back(
                {idx, in.size, served.size});
            if (obs_)
                obs_->onQueryDegrade(idx, now, in.size, served.size);
        }
        books.overload.admitted++;
        cs.admitted++;

        q.arrival = in.arrivalSeconds;
        q.size = served.size;
        q.partsLeft = static_cast<uint32_t>(plan.size());
        q.joinTime = now;
        q.leaderReady = now;
        q.quality = quality;
        q.gen++;
        q.dead = false;
        q.joinCommitted = false;
        if (hedgeOn)
            hedgeDispatch[idx] = {parts.size(),
                                  static_cast<uint32_t>(plan.size())};

        books.numDispatched++;
        books.perModel[q.model].dispatched++;
        const double forward = cfg.network.oneWaySeconds(
            static_cast<double>(served.size) *
            cfg.network.requestBytesPerSample);
        if (obs_)
            obs_->onQueryDispatch(idx, now, served.size, plan.size(), forward,
                                  q.measured);

        size_t leaders = 0;
        for (ShardTarget& target : plan) {
            drs_assert(target.machine < machines.size(),
                       "policy routed out of range");
            const uint32_t m = target.machine;
            drs_assert(state[m] == MState::Accepting,
                       "policy routed to a non-accepting machine");
            machines[m].advanceTo(now);
            if (target.leader) {
                leaders++;
                q.machine = m;
                q.leaderEpoch = engineEpoch[m];
                if (placements)
                    placements->machineOfQuery[idx] = m;
                books.perMachine[m].queriesDispatched++;
            } else {
                books.perMachine[m].remoteParts++;
            }
            if (placements)
                placements->partMachinesOfQuery[idx].push_back(m);

            const uint64_t part_idx = addPart(
                idx, m, target.embFraction, target.leader,
                plan.size() == 1 ? obs::PartStage::Whole
                                 : obs::PartStage::FanEmb);
            if (hedgeOn)
                hedgeParts[part_idx].tables = std::move(target.tables);
            books.numParts++;
            if (forward > 0.0) {
                events.push(now + forward * netFactor[m],
                            SimEvent::Kind::PartArrival, m, part_idx);
            } else {
                startPart(part_idx, now);
            }
        }
        drs_assert(leaders == 1, "plan needs exactly one leader");
        if (plan.size() == 1)
            return;
        if (life && cfg.join == JoinModel::TwoStage) {
            pendingJoins[q.machine]++;
            q.joinLeadership = true;
        }
        // Commit the leader's future dense phase to the estimator's
        // second-order backlog (released exactly once, at the JoinPhase
        // event or when a failure kills the dispatch).
        if (trackJoinCost) {
            pendingJoinCost[q.machine] +=
                machines[q.machine].joinPhaseCostSeconds(served.size, q.model);
            q.joinCommitted = true;
        }
        // Arm the tail-at-scale hedge; the check goes stale if the query
        // completes or fails first.
        if (hedgeOn)
            events.push(now + hedgeDelay, SimEvent::Kind::HedgeCheck, 0, idx,
                        q.gen);
    }

    ClassOverloadStats&
    classStats(uint32_t cls)
    {
        return books.overload.perClass[cls];
    }

    const ClusterConfig& cfg;
    const QueryTrace& trace;
    RoutingPolicy& router;
    obs::RunObserver* const obs_;
    TierBooks& books;
    ClusterResult* const placements;
    ElasticLifecycle* const life;

    /** Mix entries (1 on a single-model tier: the one-entry mix). */
    const size_t numMix;

    /** Fault injection and hedging: when disabled, every vector below
     *  stays at its identity value and no fault branch is taken. */
    const bool faultsOn;
    const bool hedgeOn;
    const double hedgeDelay;

    size_t warmup = 0;
    std::vector<QueryState> queries;
    std::vector<PartRec> parts;
    std::vector<HedgePart> hedgeParts;          ///< parallel to parts
    std::vector<HedgeDispatch> hedgeDispatch;   ///< parallel to queries

    /** Per-(machine, model) flight book, flattened
     *  [m * numMix + model]. */
    std::vector<uint64_t> inFlightByModel;

    /**
     * Committed-but-unqueued TwoStage join-phase cost per machine:
     * engine-exact (MachineEngine::joinPhaseCostSeconds added at
     * fan-out dispatch, the identical value subtracted when the phase
     * is admitted), maintained only when the admission estimator
     * consumes it.
     */
    std::vector<double> pendingJoinCost;
    const bool trackJoinCost;

    std::vector<int> grayDepth;
    std::vector<int> netDepth;
    std::vector<double> netFactor;
    std::vector<uint32_t> engineEpoch;
    std::vector<uint64_t> lostBuf;
    std::vector<FaultEvent> faultSchedule;
    std::vector<EngineEvent> scheduled;

    /** Overload control: only constructed when enabled. */
    std::optional<AdmissionController> admission;

    MeasuredSpan span;
    double lastEventTime = 0;

    /** Engines advanced by a crash may run ahead of lastEventTime; the
     *  final utilization advance must not move their clocks back. */
    double lastFaultAdvance = 0;
};

MeasuredSpan
TierCore::run()
{
    const size_t n = cfg.machines.size();
    books.perMachine.resize(n);
    books.perModel.resize(numMix);
    books.overload.perClass.resize(cfg.overload.priorityClasses);
    if (cfg.sharding.has_value()) {
        for (size_t m = 0; m < n; m++)
            books.perMachine[m].embBytesStored =
                cfg.sharding->placement.bytesOnMachine(m);
    }
    if (trace.empty())
        return {};

    const double t0 = trace.front().arrivalSeconds;
    warmup = warmupCount(cfg.warmupFraction, trace.size());
    books.fleetLatencySeconds.reserve(trace.size() - warmup);
    queries.resize(trace.size());
    parts.reserve(trace.size());
    if (hedgeOn) {
        hedgeParts.reserve(trace.size());
        hedgeDispatch.resize(trace.size());
    }
    if (placements) {
        placements->machineOfQuery.resize(trace.size());
        placements->partMachinesOfQuery.resize(trace.size());
    }

    machines.reserve(n);
    for (const SimConfig& machine : cfg.machines)
        machines.emplace_back(&machine, t0);
    state.assign(n, MState::Accepting);
    acceptingCount = n;
    inFlight.assign(n, 0);
    pendingJoins.assign(n, 0);
    downDepth.assign(n, 0);
    inFlightByModel.assign(n * numMix, 0);
    pendingJoinCost.assign(n, 0.0);
    grayDepth.assign(n, 0);
    netDepth.assign(n, 0);
    netFactor.assign(n, 1.0);
    engineEpoch.assign(n, 0);
    lastEventTime = t0;
    lastFaultAdvance = t0;

    // Pre-size the heap: per machine at most one completion per busy
    // core plus one offload, plus forwarded parts in flight.
    size_t total_cores = 0;
    for (const SimConfig& machine : cfg.machines)
        total_cores += machine.cpu.platform().cores;
    events.reserve(std::min(trace.size(), total_cores + 256));
    scheduled.reserve(256);
    if (faultsOn) {
        faultSchedule = buildFaultSchedule(
            cfg.faults, static_cast<uint32_t>(n), t0,
            trace.back().arrivalSeconds);
        for (size_t i = 0; i < faultSchedule.size(); i++)
            events.push(faultSchedule[i].time, SimEvent::Kind::Fault,
                        faultSchedule[i].machine, i);
    }

    if (cfg.overload.enabled()) {
        // A sharded tier serves roughly 1/N of a query's embedding
        // work per machine; tell the estimator so heavy queries are
        // not priced as if one machine ran the whole model.
        const double share =
            cfg.sharding ? 1.0 / static_cast<double>(n) : 1.0;
        admission.emplace(cfg.overload, cfg.machines, share, cfg.network,
                          cfg.join);
    }

    if (obs_) {
        obs_->onRunStart(t0, trace.size());
        router.attachObserver(obs_);
    }
    if (life)
        life->start(*this, t0);

    size_t nextArrival = 0;
    while (nextArrival < trace.size() || !events.empty()) {
        if (nextArrival < trace.size() &&
            (events.empty() ||
             trace[nextArrival].arrivalSeconds <= events.top().time)) {
            const Query& in = trace[nextArrival];
            drs_assert(nextArrival == 0 ||
                           in.arrivalSeconds >=
                               trace[nextArrival - 1].arrivalSeconds,
                       "trace must be sorted by arrival");
            books.overload.offered++;
            present(nextArrival, in.arrivalSeconds);    // checks the model
            books.perModel[in.model].offered++;
            nextArrival++;
            continue;
        }

        const SimEvent ev = events.pop();

        // Fault transitions and hedge checks are environment, not
        // traffic: they are handled before the generic advance so they
        // never stretch the measured span or utilization window.
        if (ev.kind == SimEvent::Kind::Fault) {
            applyFault(faultSchedule[ev.partIdx], ev.time);
            continue;
        }
        if (ev.kind == SimEvent::Kind::HedgeCheck) {
            const QueryState& hq = queries[ev.partIdx];
            if (ev.slot == hq.gen && !hq.dead && hq.partsLeft > 0)
                hedgeQuery(ev.partIdx, ev.time);
            continue;
        }
        // A completion stamped by a dead engine incarnation is a
        // ghost: the crash already accounted for its part.
        if (faultsOn && ev.epoch != engineEpoch[ev.machine] &&
            (ev.kind == SimEvent::Kind::CpuRequest ||
             ev.kind == SimEvent::Kind::GpuQuery))
            continue;

        machines[ev.machine].advanceTo(ev.time);
        lastEventTime = std::max(lastEventTime, ev.time);

        switch (ev.kind) {
          case SimEvent::Kind::PartArrival:
            if (faultsOn && stale(ev.partIdx)) {
                // The dispatch died while this RPC was in flight; the
                // client cancelled it.
                dropPart(ev.partIdx, ev.time);
            } else if (faultsOn && (state[ev.machine] == MState::Off ||
                                    state[ev.machine] == MState::Warming)) {
                // Forwarded onto a machine that crashed (or was
                // powered off) en route.
                losePart(ev.partIdx, ev.time);
            } else {
                startPart(ev.partIdx, ev.time);
            }
            break;

          case SimEvent::Kind::JoinPhase: {
            const PartRec& part = parts[ev.partIdx];
            QueryState& q = queries[part.queryIdx];
            if (faultsOn && stale(ev.partIdx)) {
                // Stale join of a killed dispatch — its committed cost
                // was already released at the kill.
                dropPart(ev.partIdx, ev.time);
                break;
            }
            // The committed phase becomes real queued work here.
            if (q.joinCommitted)
                releaseJoinCost(q);
            if (faultsOn && engineEpoch[q.machine] != q.leaderEpoch) {
                // The leader restarted since dispatch: the pooled
                // embeddings of this query died with it.
                dropPart(ev.partIdx, ev.time);
                failQuery(part.queryIdx, ev.time);
                break;
            }
            startPart(ev.partIdx, ev.time);
            break;
          }

          case SimEvent::Kind::CpuRequest:
            scheduled.clear();
            if (machines[ev.machine].cpuRequestDone(ev.slot, ev.partIdx,
                                                    ev.time, scheduled))
                finishPart(ev.partIdx, ev.time, false);
            events.pushAll(scheduled, ev.machine, engineEpoch[ev.machine]);
            break;

          case SimEvent::Kind::GpuQuery:
            scheduled.clear();
            machines[ev.machine].gpuQueryDone(ev.slot, ev.partIdx, ev.time,
                                              scheduled);
            finishPart(ev.partIdx, ev.time, true);
            events.pushAll(scheduled, ev.machine, engineEpoch[ev.machine]);
            break;

          case SimEvent::Kind::Retry:
            // A client re-presents a shed or failed-over query after
            // its backoff.
            present(ev.partIdx, ev.time);
            break;

          case SimEvent::Kind::Control:
            life->tick(ev.time, nextArrival < trace.size());
            break;

          case SimEvent::Kind::MachineUp:
            life->machineUp(ev.machine, ev.partIdx, ev.time);
            break;

          case SimEvent::Kind::Fault:
          case SimEvent::Kind::HedgeCheck:
            drs_panic("fault events are handled before the switch");
        }
    }

    if (life)
        life->finish(lastEventTime);
    books.numQueries = books.fleetLatencySeconds.count();
    books.offeredQps = traceOfferedQps(trace);
    if (cfg.overload.deadlineSeconds > 0.0 && span.seconds() > 0.0) {
        books.overload.goodputQps =
            books.overload.qualityWeight / span.seconds();
        for (ClassOverloadStats& cs : books.overload.perClass)
            cs.goodputQps = cs.qualityWeight / span.seconds();
    }

    // A crash may have advanced an engine past the last traffic event;
    // the final advance must never move a clock backwards. Busy time
    // cannot accrue on an idle machine, so the integrals are unchanged.
    // Utilization is over the seconds a machine was up: the whole event
    // span on a static tier, its powered time on an elastic one.
    const double finalAdvance = std::max(lastEventTime, lastFaultAdvance);
    const double full_span = lastEventTime - t0;
    for (size_t m = 0; m < n; m++) {
        machines[m].advanceTo(finalAdvance);
        MachineStats& stats = books.perMachine[m];
        stats.requestsDispatched = machines[m].requestsDispatched();
        stats.busyCoreSeconds = machines[m].busyCoreSeconds();
        stats.gpuBusySeconds = machines[m].gpuBusySeconds();
        const double up = life ? life->poweredSeconds(m) : full_span;
        if (up > 0.0) {
            const double cores = static_cast<double>(
                cfg.machines[m].cpu.platform().cores);
            stats.cpuUtilization = stats.busyCoreSeconds / (up * cores);
            stats.gpuUtilization = stats.gpuBusySeconds / up;
        }
    }

    // The three-way conservation algebra holds exactly on every run —
    // chaos or not — at any thread count.
    assertFaultConservation(books.overload, books.faults,
                            books.numDispatched, books.numCompleted,
                            trace.size());
    // The same algebra per model, plus the cross-slice sum checks:
    // every query is exactly one model's and one class's, so both
    // slice families must tile the fleet totals with nothing left over.
    uint64_t sum_offered = 0;
    uint64_t sum_completed = 0;
    for (const ModelStats& ms : books.perModel) {
        drs_assert(ms.offered == ms.completed + ms.droppedFinal + ms.lost,
                   "per-model conservation violated");
        sum_offered += ms.offered;
        sum_completed += ms.completed;
    }
    drs_assert(sum_offered == books.overload.offered,
               "per-model offered books do not tile the fleet total");
    drs_assert(sum_completed == books.numCompleted,
               "per-model completion books do not tile the fleet total");
    using C = ClassOverloadStats;
    for (uint64_t C::*field :
         {&C::offered, &C::admitted, &C::dropped, &C::droppedFinal,
          &C::retried, &C::degraded, &C::measuredCompleted,
          &C::completedWithinDeadline}) {
        uint64_t sum = 0;
        for (const ClassOverloadStats& cs : books.overload.perClass)
            sum += cs.*field;
        drs_assert(sum == books.overload.*field,
                   "per-class books do not tile the fleet total");
    }
    return span;
}

} // namespace

ClusterSimulator::ClusterSimulator(ClusterConfig config)
    : cfg(std::move(config))
{
    validateTier(cfg);
}

ClusterResult
ClusterSimulator::run(const QueryTrace& trace, RoutingPolicy& policy) const
{
    ClusterResult result;
    const MeasuredSpan span =
        TierCore(cfg, trace, policy, obs_, result, &result, nullptr).run();
    if (trace.empty())
        return result;

    result.meanFanout = result.numDispatched > 0
        ? static_cast<double>(result.numParts) /
              static_cast<double>(result.numDispatched)
        : 0.0;
    result.spanSeconds = span.seconds();
    result.achievedQps = span.achievedQps(result.numQueries);

    double util_sum = 0.0;
    for (const MachineStats& stats : result.perMachine)
        util_sum += stats.cpuUtilization;
    result.meanCpuUtilization =
        util_sum / static_cast<double>(cfg.machines.size());
    return result;
}

ClusterResult
ClusterSimulator::run(const QueryTrace& trace, const RoutingSpec& spec) const
{
    const std::unique_ptr<RoutingPolicy> policy = makeRoutingPolicy(
        spec, cfg.sharding.has_value() ? &*cfg.sharding : nullptr);
    return run(trace, *policy);
}

Autoscaler::Autoscaler(AutoscaleSpec spec) : spec_(std::move(spec))
{
    const ClusterConfig& cfg = spec_.cluster;
    validateTier(cfg);
    drs_assert(spec_.controlIntervalSeconds > 0.0,
               "control interval must be positive");
    drs_assert(spec_.warmupDelaySeconds >= 0.0,
               "warm-up delay cannot be negative");
    drs_assert(spec_.initialMachines <= cfg.machines.size(),
               "initial machines exceed the tier");
    // Machines power on and off, so every machine must serve the
    // whole mix or a scale-down could strand a model unservable.
    for (const SimConfig& machine : cfg.machines)
        drs_assert(machine.numModels() >= cfg.modelMix.size(),
                   "every elastic machine needs a binding per mix entry");
    if (cfg.sharding.has_value()) {
        // The machines accepting at trace start must already cover
        // every table — the mirror of the drain re-validation: a query
        // cannot be routed to a replica that is powered off.
        const ShardPlacement& placement = cfg.sharding->placement;
        const size_t initial = spec_.initialMachines == 0
            ? cfg.machines.size()
            : spec_.initialMachines;
        for (uint32_t t = 0;
             t < static_cast<uint32_t>(placement.numTables()); t++) {
            bool covered = false;
            for (size_t m = 0; m < initial && !covered; m++)
                covered = placement.holds(m, t);
            drs_assert(covered,
                       "initial accepting set leaves a table with no"
                       " replica; raise initialMachines");
        }
    }
}

AutoscaleResult
Autoscaler::run(const QueryTrace& trace, ScalingPolicy& policy) const
{
    const ClusterConfig& cfg = spec_.cluster;
    AutoscaleResult result;
    result.poweredSecondsPerMachine.assign(cfg.machines.size(), 0.0);
    const std::unique_ptr<RoutingPolicy> router = makeRoutingPolicy(
        spec_.routing, cfg.sharding.has_value() ? &*cfg.sharding : nullptr);
    ElasticLifecycle life(spec_, policy, result, obs_);
    TierCore(cfg, trace, *router, obs_, result, nullptr, &life).run();
    return result;
}

AutoscaleResult
Autoscaler::run(const QueryTrace& trace,
                const ScalingPolicySpec& policy_spec) const
{
    const std::unique_ptr<ScalingPolicy> policy =
        makeScalingPolicy(policy_spec, spec_);
    return run(trace, *policy);
}

} // namespace deeprecsys
