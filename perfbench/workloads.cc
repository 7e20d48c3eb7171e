#include "workloads.hh"

#include <algorithm>
#include <array>
#include <sstream>

#include "cluster/autoscaler.hh"
#include "cluster/cluster_qps_search.hh"
#include "core/deeprecsched.hh"
#include "models/rec_model.hh"
#include "obs/observer.hh"
#include "serving/engine.hh"

namespace perfbench {

using namespace deeprecsys;

namespace {

constexpr double kClusterSlaMs = 100.0;

/** Re-runs on a trace this many times longer look for a backlog. */
constexpr size_t kBacklogStretch = 4;

/** A backlog shows as an achieved rate this far below the offered
 *  one, or as a second-half tail this many times the first half's. */
constexpr double kBacklogRateShortfall = 0.03;
constexpr double kBacklogTailGrowth = 1.5;

std::string
fmt(double v, int precision = 4)
{
    std::ostringstream os;
    os.precision(precision);
    os << v;
    return os.str();
}

/** Tail at @p pct of one half of latencies in completion order. */
double
halfTailMs(const std::vector<double>& raw, bool second, double pct)
{
    const size_t mid = raw.size() / 2;
    SampleStats half;
    for (size_t i = second ? mid : 0; i < (second ? raw.size() : mid); i++)
        half.add(raw[i]);
    return half.percentile(pct) * 1e3;
}

/**
 * Judge one operating point re-run on a stretched trace. @p fixed
 * points are the benchmark's chosen rates, whose latencies are only
 * meaningful without a backlog, so a flag there fails the run; a flag
 * at a searched maximum is reported (the short-trace knee) but is a
 * property of the search, not an operation that failed.
 */
void
judgeBacklog(BacklogReport& rep, const std::string& label, bool fixed,
             double offered, double achieved,
             const std::vector<double>& raw, double pct)
{
    const double first = halfTailMs(raw, false, pct);
    const double second = halfTailMs(raw, true, pct);
    const bool rate_short = achieved < offered * (1.0 - kBacklogRateShortfall);
    const bool tail_runs = second > first * kBacklogTailGrowth;
    const bool flagged = rate_short || tail_runs;
    rep.points++;
    rep.checks.attempted++;
    if (flagged)
        rep.flagged++;
    rep.lines.push_back(
        label + ": offered " + fmt(offered, 6) + " achieved " +
        fmt(achieved, 6) + " QPS, p" + fmt(pct, 3) + " first half " +
        fmt(first) + " sim ms, second half " + fmt(second) +
        " sim ms over " + std::to_string(raw.size()) + " queries" +
        (flagged ? " -> GROWING BACKLOG" : " -> steady"));
    if (fixed)
        rep.checks.check(!flagged, "growing backlog at " + label);
}

/** Exact books of one cluster or elastic run (fatal library check
 *  plus the benchmark's own tiling checks, which are counted). */
template <typename Result>
void
checkBooks(PassResult& out, const Result& r, size_t trace_size,
           const std::string& label)
{
    assertFaultConservation(r.overload, r.faults, r.numDispatched,
                            r.numCompleted, trace_size);
    out.check(r.numCompleted + r.overload.droppedFinal + r.faults.lost ==
                  trace_size,
              label + ": offered != completed + dropped + lost");
    uint64_t completed = 0;
    size_t samples = 0;
    for (const MachineStats& m : r.perMachine) {
        completed += m.queriesCompleted;
        samples += m.latencySeconds.count();
    }
    out.check(completed == r.numCompleted &&
                  samples == r.fleetLatencySeconds.count(),
              label + ": per-machine books do not tile the fleet");
}

void
digestCluster(Digest& d, const ClusterResult& r)
{
    d.add(r.fleetLatencySeconds.raw());
    d.add(r.numCompleted);
    d.add(r.numParts);
    d.add(r.meanFanout);
    d.add(r.achievedQps);
    for (const MachineStats& m : r.perMachine) {
        d.add(m.queriesCompleted);
        d.add(m.busyCoreSeconds);
    }
}

/** Fraction of @p offered queries answered within @p sla_s; drops
 *  and losses never appear among the latencies, so they miss. */
double
goodputFrac(const SampleStats& latencies, uint64_t dropped, uint64_t lost,
            double sla_s)
{
    const std::vector<double>& raw = latencies.raw();
    const double within = static_cast<double>(
        std::count_if(raw.begin(), raw.end(),
                      [sla_s](double v) { return v <= sla_s; }));
    const double offered =
        static_cast<double>(raw.size() + dropped + lost);
    return offered > 0 ? within / offered : 0.0;
}

/** The attribution stage split as mean simulated ms per query. */
void
putStageSplit(Metrics& out, const obs::StageSplit& split)
{
    out["cluster.driver.queue_ms"] = split.meanMs(split.queueSeconds);
    out["cluster.driver.service_ms"] = split.meanMs(split.serviceSeconds);
    out["cluster.driver.network_ms"] = split.meanMs(split.networkSeconds);
    out["cluster.driver.join_wait_ms"] = split.meanMs(split.joinWaitSeconds);
}

/** Mean and busiest machine's CPU utilization of one run. */
void
putUtilization(Metrics& out, const std::vector<MachineStats>& machines)
{
    double sum = 0, peak = 0;
    for (const MachineStats& m : machines) {
        sum += m.cpuUtilization;
        peak = std::max(peak, m.cpuUtilization);
    }
    out["cluster.driver.util_mean"] =
        sum / static_cast<double>(machines.size());
    out["cluster.driver.util_max"] = peak;
}

// ------------------------------------------------------------ zoo_sched

/**
 * The paper's headline experiment: every Table-1 model at its Medium
 * SLA, tuned three ways on the single-machine simulator.
 */
class ZooSched : public Workload
{
  public:
    explicit ZooSched(uint64_t seed) : seed_(seed) {}

    void
    setup(SpanRecorder* rec) override
    {
        models_.clear();
        ScopedSpan span(rec, "core.infra_build");
        for (ModelId id : allModelIds()) {
            InfraConfig cfg;
            cfg.model = id;
            cfg.seed = seed_;
            cfg.numQueries = kQueries;
            Model m;
            m.cpu = std::make_unique<DeepRecInfra>(cfg);
            cfg.attachGpu = true;
            m.gpu = std::make_unique<DeepRecInfra>(cfg);
            m.slaMs = m.cpu->slaMs(SlaTier::Medium);
            models_.push_back(std::move(m));
        }
    }

    PassResult
    pass(SpanRecorder* rec, bool) override
    {
        PassResult out;
        Digest d;
        rows_.clear();
        for (const Model& m : models_) {
            const auto start = Clock::now();
            Row row;
            {
                ScopedSpan span(rec, "core.baseline");
                row.base = DeepRecSched::baseline(*m.cpu, m.slaMs);
            }
            {
                ScopedSpan span(rec, "core.tune_cpu");
                row.cpu = DeepRecSched::tuneCpu(*m.cpu, m.slaMs);
            }
            {
                ScopedSpan span(rec, "core.tune_gpu");
                row.gpu = DeepRecSched::tuneGpu(*m.gpu, m.slaMs);
            }
            out.partSeconds.push_back(secondsBetween(start, Clock::now()));
            const std::string model = modelName(m.cpu->config().model);
            for (const TuningResult* t : {&row.base, &row.cpu, &row.gpu}) {
                out.attempted++;
                out.check(t->qps() > 0.0, model + ": SLA unachievable");
                d.add(t->qps());
                d.add(static_cast<uint64_t>(t->policy.perRequestBatch));
                d.add(static_cast<uint64_t>(t->policy.gpuEnabled));
                d.add(static_cast<uint64_t>(t->policy.gpuQueryThreshold));
                d.add(static_cast<uint64_t>(t->atBest.evaluations));
                d.add(t->atBest.atMax.queryLatencySeconds.raw());
            }
            rows_.push_back(std::move(row));
        }
        out.digest = d.value();
        return out;
    }

    BacklogReport
    postChecks(SpanRecorder* rec) override
    {
        // Each model's tuned rate (the rates sim_max_qps averages)
        // re-run on a trace kBacklogStretch times longer.
        BacklogReport rep;
        for (size_t i = 0; i < models_.size(); i++) {
            const Model& m = models_[i];
            const TuningResult& t = rows_[i].cpu;
            const SimConfig cfg = m.cpu->simConfig(t.policy);
            const LoadSpec load = infraLoad(*m.cpu);
            SimResult r;
            {
                ScopedSpan span(rec, "sim.backlog_run");
                r = evaluateAtQps(cfg, load, t.qps(),
                                  kQueries * kBacklogStretch);
            }
            judgeBacklog(rep, modelName(m.cpu->config().model) +
                             " tuned max", false, t.qps(), r.achievedQps,
                         r.queryLatencySeconds.raw(),
                         m.cpu->config().percentile);
        }
        return rep;
    }

    void
    answers(Metrics& out) const override
    {
        std::vector<double> tuned, speedup, gpu_gain, cpu_util, gpu_frac;
        double events = 0, searches = 0;
        for (const Row& row : rows_) {
            tuned.push_back(row.cpu.qps());
            speedup.push_back(row.cpu.qps() / row.base.qps());
            gpu_gain.push_back(row.gpu.qps() / row.cpu.qps());
            cpu_util.push_back(row.cpu.atBest.atMax.cpuUtilization);
            gpu_frac.push_back(row.gpu.atBest.atMax.gpuWorkFraction);
            for (const TuningResult* t : {&row.base, &row.cpu, &row.gpu}) {
                events += static_cast<double>(t->atBest.atMax.numRequests +
                                              t->atBest.atMax.numQueries);
            }
            searches += 1.0 + static_cast<double>(
                row.cpu.batchCurve.size() + row.gpu.batchCurve.size() +
                row.gpu.thresholdCurve.size());
        }
        out["sim_max_qps"] = geomean(tuned);
        out["sched_speedup"] = geomean(speedup);
        out["core.gpu_speedup"] = geomean(gpu_gain);
        out["core.evaluations"] = searches;
        out["sim.events"] = events;
        out["sim.cpu_util"] = median(cpu_util);
        out["sim.gpu_work_frac"] = median(gpu_frac);
    }

    void
    layerReplays(Metrics& out, SpanRecorder* rec) override
    {
        // The simulator at the operating points the tunings chose:
        // each model's tuned policy at its tuned rate.
        double seconds = 0, events = 0;
        for (size_t i = 0; i < models_.size(); i++) {
            const TuningResult& t = rows_[i].cpu;
            LoadSpec load = infraLoad(*models_[i].cpu);
            load.qps = t.qps();
            const QueryTrace trace = QueryStream(load).generate(kQueries);
            ServingSimulator sim(models_[i].cpu->simConfig(t.policy));
            const auto start = Clock::now();
            SimResult r;
            {
                ScopedSpan span(rec, "sim.replay");
                r = sim.run(trace);
            }
            seconds += secondsBetween(start, Clock::now());
            events += static_cast<double>(r.numRequests + r.numQueries);
        }
        out["sim.ns_per_event"] = seconds * 1e9 / events;
        out["sim_events_per_s"] = events / seconds;
    }

    LoadSpec load() const override { return infraLoad(*models_[0].cpu); }

  private:
    /** Trace length per search evaluation: a third of the figure
     *  reproductions' 1500, so a repeat takes a few seconds and each
     *  model's tunings are timed five to seven times in a 20 s run
     *  (with 1500 only twice, and the run-to-run spread of wall_s
     *  reached 0.45).
     *  Shorter traces overestimate every tuned rate: at seed 1
     *  sched_speedup reads 2.10x at 1500, 2.13x at 1000 and 2.48x at
     *  500 queries; the backlog check reports the knee. */
    static constexpr size_t kQueries = 500;

    struct Model
    {
        std::unique_ptr<DeepRecInfra> cpu;
        std::unique_ptr<DeepRecInfra> gpu;
        double slaMs = 0;
    };
    struct Row
    {
        TuningResult base, cpu, gpu;
    };

    /** The stream DeepRecInfra searches over (its seed convention). */
    static LoadSpec
    infraLoad(const DeepRecInfra& infra)
    {
        LoadSpec load;
        load.arrival = infra.config().arrival;
        load.sizes = infra.config().sizeDist;
        load.arrivalSeed = infra.config().seed;
        load.sizeSeed = infra.config().seed + 1;
        return load;
    }

    uint64_t seed_;
    std::vector<Model> models_;
    std::vector<Row> rows_;
};

// ------------------------------------------------------- sharded_fanout

/**
 * Capacity questions about a sharded tier: the max rate under a p99
 * SLA plus two fixed rates, all through shard-aware fan-out.
 */
class ShardedFanout : public Workload
{
  public:
    explicit ShardedFanout(uint64_t seed) : seed_(seed) {}

    void
    setup(SpanRecorder* rec) override
    {
        sim_.reset();
        tmpl_.reset();
        cluster_ = shardedTier16(rec);
        {
            ScopedSpan span(rec, "cluster.sim_build");
            sim_ = std::make_unique<ClusterSimulator>(cluster_);
        }
        ScopedSpan span(rec, "loadgen.template");
        tmpl_ = std::make_unique<TraceTemplate>(load());
        tmpl_->ensure(kFixedQueries);
    }

    PassResult
    pass(SpanRecorder* rec, bool traced) override
    {
        PassResult out;
        Digest d;
        const auto start = Clock::now();
        {
            ScopedSpan span(rec, "cluster.find_max_qps");
            max_ = findClusterMaxQps(cluster_, searchSpec());
        }
        out.partSeconds.push_back(secondsBetween(start, Clock::now()));
        out.attempted++;
        out.check(max_.maxQps > 0.0, "sharded tier: SLA unachievable");
        checkBooks(out, max_.atMax,
                   clusterTraceLength(cluster_, searchSpec()),
                   "search point");
        d.add(max_.maxQps);
        d.add(static_cast<uint64_t>(max_.evaluations));
        digestCluster(d, max_.atMax);

        for (size_t i = 0; i < kRates.size(); i++) {
            const auto part_start = Clock::now();
            QueryTrace trace;
            {
                ScopedSpan span(rec, "loadgen.materialize");
                trace = tmpl_->materialize(kRates[i], kFixedQueries);
            }
            fixed_[i] = runAt(trace, rec, traced, out, i);
            out.partSeconds.push_back(
                secondsBetween(part_start, Clock::now()));
            d.add(fixed_[i].p99Ms());
            digestCluster(d, fixed_[i]);
        }
        out.digest = d.value();
        return out;
    }

    BacklogReport
    postChecks(SpanRecorder* rec) override
    {
        BacklogReport rep;
        const size_t long_fixed = kFixedQueries * kBacklogStretch;
        tmpl_->ensure(long_fixed);
        for (double qps : kRates) {
            ClusterResult r;
            {
                ScopedSpan span(rec, "cluster.backlog_run");
                auto policy = makePolicy();
                r = sim_->run(tmpl_->materialize(qps, long_fixed), *policy);
            }
            checkBooks(rep.checks, r, long_fixed, "backlog run");
            judgeBacklog(rep, "fixed " + fmt(qps) + " QPS", true, qps,
                         r.achievedQps, r.fleetLatencySeconds.raw(), 99);
        }
        ClusterQpsSpec spec = searchSpec();
        spec.numQueries = clusterTraceLength(cluster_, spec) * kBacklogStretch;
        ClusterResult r;
        {
            ScopedSpan span(rec, "cluster.backlog_run");
            r = evaluateClusterAtQps(cluster_, spec, max_.maxQps);
        }
        checkBooks(rep.checks, r, spec.numQueries, "backlog run");
        judgeBacklog(rep, "found max", false, max_.maxQps, r.achievedQps,
                     r.fleetLatencySeconds.raw(), 99);
        return rep;
    }

    void
    answers(Metrics& out) const override
    {
        const ClusterResult& lo = fixed_[0];
        const ClusterResult& hi = fixed_[1];
        out["sim_max_qps"] = max_.maxQps;
        out["sim_p50_ms.q1800"] = lo.tailMs(50);
        out["sim_p99_ms.q1800"] = lo.p99Ms();
        out["sim_p50_ms.q2900"] = hi.tailMs(50);
        out["sim_p99_ms.q2900"] = hi.p99Ms();
        out["goodput_frac"] = goodputFrac(hi.fleetLatencySeconds,
                                          hi.overload.droppedFinal,
                                          hi.faults.lost,
                                          kClusterSlaMs * 1e-3);
        out["failed_frac"] =
            static_cast<double>(hi.overload.droppedFinal + hi.faults.lost) /
            static_cast<double>(kFixedQueries);
        out["cluster.routing.mean_fanout"] = hi.meanFanout;
        out["cluster.routing.parts"] = static_cast<double>(hi.numParts);
        putStageSplit(out, split_);
    }

    void
    layerReplays(Metrics& out, SpanRecorder* rec) override
    {
        out["cluster.routing.ns_per_route"] = routingNsPerRoute(
            cluster_, searchSpec().routing,
            tmpl_->materialize(kRates[1], kFixedQueries), rec);
        // Machine utilization just below the knee: how unevenly the
        // placement loads the tier when it is nearly full.
        auto policy = makePolicy();
        ClusterResult r;
        {
            ScopedSpan span(rec, "cluster.run_at_95pct_max");
            r = sim_->run(tmpl_->materialize(0.95 * max_.maxQps,
                                             kFixedQueries),
                          *policy);
        }
        putUtilization(out, r.perMachine);
    }

    LoadSpec load() const override { return seededLoad(seed_, kRates[0]); }

  private:
    /** Fixed rates: about 50% and 80% of the tier's max rate. */
    static constexpr std::array<double, 2> kRates = {1800.0, 2900.0};

    /** Queries per fixed-rate run. */
    static constexpr size_t kFixedQueries = 20000;

    ClusterQpsSpec
    searchSpec() const
    {
        ClusterQpsSpec spec;
        spec.slaMs = kClusterSlaMs;
        spec.percentile = 99.0;
        spec.load = load();
        spec.routing.kind = RoutingKind::ShardAware;
        spec.routing.seed = seed_ ^ 0x5eedULL;
        return spec;
    }

    std::unique_ptr<RoutingPolicy>
    makePolicy() const
    {
        return makeRoutingPolicy(searchSpec().routing, &*cluster_.sharding);
    }

    ClusterResult
    runAt(const QueryTrace& trace, SpanRecorder* rec, bool traced,
          PassResult& out, size_t i)
    {
        std::unique_ptr<obs::RunObserver> observer;
        if (traced) {
            obs::ObsConfig cfg;
            cfg.attribution = true;
            observer = std::make_unique<obs::RunObserver>(
                cfg, cluster_.machines.size());
        }
        sim_->setObserver(observer.get());
        auto policy = makePolicy();
        const auto start = Clock::now();
        ClusterResult r;
        {
            ScopedSpan span(rec, "cluster.run");
            r = sim_->run(trace, *policy);
        }
        out.eventSeconds += secondsBetween(start, Clock::now());
        out.events += clusterEvents(r);
        sim_->setObserver(nullptr);
        if (observer && i + 1 == kRates.size())
            split_ = observer->stageSplit();
        out.attempted++;
        checkBooks(out, r, trace.size(), "fixed-rate run");
        return r;
    }

    uint64_t seed_;
    ClusterConfig cluster_;
    std::unique_ptr<ClusterSimulator> sim_;
    std::unique_ptr<TraceTemplate> tmpl_;
    ClusterQpsResult max_;
    std::array<ClusterResult, 2> fixed_;
    obs::StageSplit split_;
};

// ---------------------------------------------------------- elastic_day

/**
 * A compressed diurnal day on an elastic, unsharded tier with
 * deadline admission and seeded crashes and gray failures.
 */
class ElasticDay : public Workload
{
  public:
    explicit ElasticDay(uint64_t seed) : seed_(seed) {}

    void
    setup(SpanRecorder* rec) override
    {
        trace_.clear();
        scaler_.reset();
        const DiurnalProfile profile(kPeakToTrough, kDaySeconds);
        const double mean_qps = kPeakQps / (1.0 + profile.swingAmplitude());
        AutoscaleSpec spec;
        {
            ScopedSpan span(rec, "cluster.config_build");
            const ModelProfile model =
                ModelProfile::forModel(ModelId::DlrmRmc1);
            SchedulerPolicy policy;
            policy.perRequestBatch = 256;
            for (size_t m = 0; m < kMachines; m++) {
                spec.cluster.machines.push_back(
                    SimConfig{CpuCostModel(model, CpuPlatform::skylake()),
                              std::nullopt, policy, 0.05, 1.0});
            }
            spec.cluster.overload.admission = AdmissionKind::Deadline;
            spec.cluster.overload.deadlineSeconds = kClusterSlaMs * 1e-3;
            FaultPlan& faults = spec.cluster.faults;
            faults.seed = seed_;
            faults.crashesPerHour = 40.0;
            faults.repairSeconds = 5.0;
            faults.grayPerHour = 40.0;
            faults.maxFailovers = 2;
            spec.routing.kind = RoutingKind::PowerOfTwoChoices;
            spec.routing.seed = seed_ ^ 0x5eedULL;
            spec.slaMs = kClusterSlaMs;
            spec.controlIntervalSeconds = 0.75;
            spec.warmupDelaySeconds = 0.5;
            spec.profile = profile;
            spec.meanQps = mean_qps;
            spec.machinesAtPeak = kMachines;
            scaler_ = std::make_unique<Autoscaler>(spec);
        }
        ScopedSpan span(rec, "loadgen.diurnal_trace");
        TraceTemplate tmpl(seededLoad(seed_, mean_qps));
        const size_t count = static_cast<size_t>(mean_qps * kDaySeconds);
        tmpl.ensure(count);
        trace_ = tmpl.materializeDiurnal(mean_qps, profile, count);
    }

    PassResult
    pass(SpanRecorder* rec, bool traced) override
    {
        PassResult out;
        std::unique_ptr<obs::RunObserver> observer;
        if (traced) {
            obs::ObsConfig cfg;
            cfg.attribution = true;
            observer =
                std::make_unique<obs::RunObserver>(cfg, kMachines);
        }
        scaler_->setObserver(observer.get());
        const auto start = Clock::now();
        {
            ScopedSpan span(rec, "cluster.autoscaler_run");
            day_ = scaler_->run(trace_, policySpec());
        }
        out.eventSeconds = secondsBetween(start, Clock::now());
        out.partSeconds.push_back(out.eventSeconds);
        scaler_->setObserver(nullptr);
        if (observer)
            split_ = observer->stageSplit();
        out.events = elasticEvents(day_);
        out.attempted++;
        checkBooks(out, day_, trace_.size(), "elastic day");

        Digest d;
        d.add(day_.fleetLatencySeconds.raw());
        d.add(day_.numCompleted);
        d.add(day_.machineSeconds);
        d.add(day_.slaViolationSeconds);
        d.add(day_.overload.droppedFinal);
        d.add(day_.faults.lost);
        d.add(day_.faults.failovers);
        d.add(static_cast<uint64_t>(day_.scaleEvents.size()));
        out.digest = d.value();
        return out;
    }

    BacklogReport
    postChecks(SpanRecorder*) override
    {
        // The day is already the long trace; it has no fixed-rate
        // point to stretch.
        return {};
    }

    void
    answers(Metrics& out) const override
    {
        const double offered = static_cast<double>(trace_.size());
        out["sim_p50_ms.day"] = day_.tailMs(50);
        out["sim_p99_ms.day"] = day_.p99Ms();
        out["goodput_frac"] = goodputFrac(
            day_.fleetLatencySeconds, day_.overload.droppedFinal,
            day_.faults.lost, kClusterSlaMs * 1e-3);
        out["failed_frac"] = static_cast<double>(
            day_.overload.droppedFinal + day_.faults.lost) / offered;
        out["machine_hours_frac"] =
            day_.machineSeconds / day_.staticMachineSeconds;
        out["cluster.routing.mean_fanout"] =
            static_cast<double>(day_.numParts) /
            static_cast<double>(day_.numDispatched);
        out["cluster.routing.parts"] = static_cast<double>(day_.numParts);
        putStageSplit(out, split_);
        putUtilization(out, day_.perMachine);
        out["cluster.admission.dropped"] =
            static_cast<double>(day_.overload.dropped);
        out["cluster.admission.degraded"] =
            static_cast<double>(day_.overload.degraded);
        out["cluster.admission.retried"] =
            static_cast<double>(day_.overload.retried);
        out["cluster.faults.crashes"] =
            static_cast<double>(day_.faults.crashes);
        out["cluster.faults.failovers"] =
            static_cast<double>(day_.faults.failovers);
        out["cluster.faults.lost"] = static_cast<double>(day_.faults.lost);
        out["cluster.autoscaler.scale_events"] =
            static_cast<double>(day_.scaleEvents.size());
        out["cluster.autoscaler.sla_violation_s"] = day_.slaViolationSeconds;
        out["cluster.autoscaler.min_serving"] =
            static_cast<double>(day_.minServingMachines);
        out["cluster.autoscaler.max_serving"] =
            static_cast<double>(day_.maxServingMachines);
    }

    void
    layerReplays(Metrics& out, SpanRecorder* rec) override
    {
        out["cluster.routing.ns_per_route"] =
            routingNsPerRoute(scaler_->spec().cluster,
                              scaler_->spec().routing, trace_, rec);
    }

    LoadSpec load() const override { return seededLoad(seed_, kPeakQps); }

  private:
    static constexpr size_t kMachines = 12;
    static constexpr double kPeakQps = 16000.0;
    static constexpr double kPeakToTrough = 2.0;
    static constexpr double kDaySeconds = 40.0;

    static ScalingPolicySpec
    policySpec()
    {
        ScalingPolicySpec policy;
        policy.kind = ScalingPolicyKind::Reactive;
        policy.minMachines = 2;
        policy.downUtilization = 0.55;
        policy.upUtilization = 0.72;
        policy.downLatencyFraction = 0.35;
        return policy;
    }

    static double
    elasticEvents(const AutoscaleResult& r)
    {
        uint64_t requests = 0;
        for (const MachineStats& m : r.perMachine)
            requests += m.requestsDispatched;
        return static_cast<double>(requests + r.numParts + r.numCompleted);
    }

    uint64_t seed_;
    std::unique_ptr<Autoscaler> scaler_;
    QueryTrace trace_;
    AutoscaleResult day_;
    obs::StageSplit split_;
};

// --------------------------------------------------------- real_serving

/**
 * The real-kernel engine: one worker serves a production-size
 * DLRM-RMC2 trace closed loop. The trace is cut at exactly kSamples
 * candidates, so every seed asks for the same kernel work.
 */
class RealServing : public Workload
{
  public:
    explicit RealServing(uint64_t seed) : seed_(seed) {}

    void
    setup(SpanRecorder* rec) override
    {
        model_.reset();
        {
            ScopedSpan span(rec, "models.build");
            model_ = std::make_unique<RecModel>(
                buildModel(ModelId::DlrmRmc2, seed_));
        }
        ScopedSpan span(rec, "loadgen.generate");
        QueryStream stream(load());
        const QueryTrace drawn = stream.generate(kDrawQueries);
        trace_.clear();
        expectedRequests_ = 0;
        uint32_t left = kSamples;
        for (Query q : drawn) {
            if (left == 0)
                break;
            q.size = std::min(q.size, left);   // the last query is cut
            left -= q.size;
            trace_.push_back(q);
            expectedRequests_ += (q.size + kBatch - 1) / kBatch;
        }
    }

    PassResult
    pass(SpanRecorder* rec, bool traced) override
    {
        PassResult out;
        EngineConfig cfg;
        cfg.numWorkers = 1;
        cfg.perRequestBatch = kBatch;
        cfg.inputSeed = seed_;
        const auto start = Clock::now();
        {
            ScopedSpan span(rec, "serving.serve_all");
            ServingEngine engine(*model_, cfg);
            last_ = engine.serveAll(trace_);
        }
        out.partSeconds.push_back(secondsBetween(start, Clock::now()));
        if (!traced)
            walls_.push_back(last_.wallSeconds);
        const uint64_t n = trace_.size();
        out.attempted = n;
        const uint64_t answered = std::min<uint64_t>(
            last_.queryLatencySeconds.count(), n);
        out.failed += n - answered;
        if (answered < n)
            out.failures.push_back(std::to_string(n - answered) +
                                   " queries incomplete");
        out.check(last_.numQueries == n, "engine reports a short trace");
        out.check(last_.numRequests == expectedRequests_,
                  "engine issued " + std::to_string(last_.numRequests) +
                      " requests, expected " +
                      std::to_string(expectedRequests_));
        Digest d;
        d.add(last_.numQueries);
        d.add(last_.numRequests);
        out.digest = d.value();
        return out;
    }

    BacklogReport
    postChecks(SpanRecorder* rec) override
    {
        // The engine drops its scores, so the CTR range is checked by
        // scoring the trace's own request batches through the model.
        BacklogReport rep;
        ScopedSpan span(rec, "models.forward_check");
        Rng rng(seed_);
        for (size_t i = 0; i < std::min<size_t>(trace_.size(), 8); i++) {
            const uint32_t batch =
                std::min<uint32_t>(trace_[i].size, kBatch);
            const Tensor ctr = model_->forward(model_->makeBatch(batch, rng));
            bool in_range = ctr.numel() > 0;
            for (size_t k = 0; k < ctr.numel(); k++)
                in_range = in_range && ctr.data()[k] > 0.0f &&
                           ctr.data()[k] < 1.0f;
            rep.checks.attempted++;
            rep.checks.check(in_range, "CTR outside (0, 1)");
        }
        return rep;
    }

    void
    answers(Metrics& out) const override
    {
        const double n = static_cast<double>(last_.numQueries);
        out["real_qps"] =
            n / *std::min_element(walls_.begin(), walls_.end());
        out["serving.requests"] = static_cast<double>(last_.numRequests);
        out["serving.fc_ms_per_query"] =
            last_.operatorBreakdown.seconds(OpClass::Fc) * 1e3 / n;
        out["serving.emb_ms_per_query"] =
            last_.operatorBreakdown.seconds(OpClass::Embedding) * 1e3 / n;
    }

    void layerReplays(Metrics&, SpanRecorder*) override {}

    LoadSpec load() const override { return seededLoad(seed_, 50.0); }

  private:
    static constexpr uint32_t kBatch = 64;
    static constexpr size_t kDrawQueries = 4000;
    /** Candidates per repeat (about 25 production-size queries). */
    static constexpr uint32_t kSamples = 4000;

    uint64_t seed_;
    std::unique_ptr<RecModel> model_;
    QueryTrace trace_;
    uint64_t expectedRequests_ = 0;
    EngineResult last_;
    std::vector<double> walls_;   ///< engine wall of untraced repeats
};

} // namespace

std::unique_ptr<Workload>
makeWorkload(const std::string& name, uint64_t seed)
{
    if (name == "zoo_sched")
        return std::make_unique<ZooSched>(seed);
    if (name == "sharded_fanout")
        return std::make_unique<ShardedFanout>(seed);
    if (name == "elastic_day")
        return std::make_unique<ElasticDay>(seed);
    if (name == "real_serving")
        return std::make_unique<RealServing>(seed);
    return nullptr;
}

LoadSpec
seededLoad(uint64_t seed, double qps)
{
    LoadSpec load;
    load.qps = qps;
    load.arrivalSeed = 2 * seed + 1;
    load.sizeSeed = 2 * seed + 2;
    return load;
}

ClusterConfig
shardedTier16(SpanRecorder* rec)
{
    ClusterConfig cluster;
    const ModelProfile profile = ModelProfile::forModel(ModelId::DlrmRmc2);
    SchedulerPolicy policy;
    policy.perRequestBatch = 256;
    for (size_t m = 0; m < 16; m++) {
        SimConfig machine{CpuCostModel(profile, CpuPlatform::skylake()),
                          std::nullopt, policy, 0.05, 1.0};
        machine.memoryBytes = 1'500'000'000ULL;
        cluster.machines.push_back(machine);
    }
    cluster.network.hopSeconds = 150e-6;
    cluster.network.gigabytesPerSecond = 12.5;
    cluster.join = JoinModel::TwoStage;
    const std::vector<EmbeddingTableInfo> tables =
        embeddingTables(modelConfig(ModelId::DlrmRmc2));
    ShardPlacement placement;
    {
        ScopedSpan span(rec, "cluster.shard.build");
        placement = ShardPlacement::build(
            tables, machineMemoryBudgets(cluster.machines), PlacementSpec{});
    }
    TableSetSpec table_set;
    table_set.numTables = static_cast<uint32_t>(tables.size());
    table_set.tablesPerQuery = 8;
    cluster.sharding = ShardingConfig{placement, table_set};
    return cluster;
}

double
clusterEvents(const ClusterResult& r)
{
    uint64_t requests = 0;
    uint64_t joins = 0;
    for (const MachineStats& m : r.perMachine) {
        requests += m.requestsDispatched;
        joins += m.joinPhases;
    }
    return static_cast<double>(requests + r.numParts + joins +
                               r.numCompleted);
}

} // namespace perfbench
