#include "capacity_planner.hh"

#include <algorithm>
#include <utility>

#include "base/logging.hh"
#include "sim/rate_search.hh"

namespace deeprecsys {

namespace {

/** Build the cluster of @p units copies of the deployable unit. */
ClusterConfig
clusterOfUnits(const CapacityPlanSpec& spec, size_t units)
{
    ClusterConfig cluster;
    cluster.machines.reserve(units * spec.unitMachines.size());
    for (size_t u = 0; u < units; u++) {
        for (const SimConfig& machine : spec.unitMachines)
            cluster.machines.push_back(machine);
    }
    return cluster;
}

} // namespace

CapacityPlan
planCapacity(const CapacityPlanSpec& spec)
{
    drs_assert(!spec.unitMachines.empty(), "plan needs a machine mix");
    drs_assert(spec.targetQps > 0.0, "target rate must be positive");
    drs_assert(spec.slaMs > 0.0, "SLA target must be positive");
    drs_assert(spec.maxUnits >= 1, "plan needs a unit budget");
    const bool sharded = !spec.tables.empty();
    if (sharded)
        drs_assert(spec.tableSet.numTables == spec.tables.size(),
                   "table-set model must match the table list");
    if (!spec.modelMix.empty()) {
        drs_assert(!sharded,
                   "multi-model plans must be unsharded — a colocated "
                   "placement depends on the fixed tier size "
                   "(colocatedSharding); drive ClusterSimulator directly");
        for (const SimConfig& m : spec.unitMachines)
            drs_assert(m.numModels() >= spec.modelMix.size(),
                       "every unit machine needs a binding per mix entry");
    }

    CapacityPlan plan;

    // Placement for a candidate tier size; nullopt when the tables do
    // not fit the tier's total memory (that count is infeasible
    // before any simulation). Budgets tile from the unit mix directly
    // — no need to materialize the cluster's cost models here.
    const std::vector<uint64_t> unit_budgets =
        machineMemoryBudgets(spec.unitMachines);
    auto placement_for = [&](size_t units) -> std::optional<ShardPlacement> {
        std::vector<uint64_t> budgets;
        budgets.reserve(units * unit_budgets.size());
        for (size_t u = 0; u < units; u++)
            budgets.insert(budgets.end(), unit_budgets.begin(),
                           unit_budgets.end());
        ShardPlacement placement = ShardPlacement::build(
            spec.tables, budgets, spec.placement);
        if (!placement.feasible())
            return std::nullopt;
        return placement;
    };

    // The query population is drawn once and re-timed per candidate
    // (bit-identical to regenerating); larger tiers consume a longer
    // prefix. ensure() only ever runs on this thread, between
    // generations — materialize() is what the workers share. The
    // trace is the plan's mix (per-model substreams merged by arrival;
    // a single-model plan is the one-entry mix).
    LoadSpec load = spec.load;
    load.qps = spec.targetQps;
    MixedTraceTemplate mixed_template(load, mixFractions(spec.modelMix));
    auto trace_length = [&](size_t units) {
        return std::max(spec.minQueries,
                        spec.queriesPerMachine * units *
                            spec.unitMachines.size());
    };

    // Evaluate one candidate unit count end-to-end. Thread-safe: pure
    // function of (spec, units) given a pre-drawn template.
    auto evaluate = [&](size_t units)
        -> std::pair<ClusterResult, bool> {
        ClusterConfig cluster = clusterOfUnits(spec, units);
        cluster.network = spec.network;
        cluster.modelMix = spec.modelMix;
        if (sharded) {
            std::optional<ShardPlacement> placement = placement_for(units);
            if (!placement.has_value())
                return {ClusterResult{}, false};  // memory infeasible
            cluster.sharding =
                ShardingConfig{std::move(*placement), spec.tableSet};
        }
        ClusterResult r = ClusterSimulator(cluster).run(
            mixed_template.materialize(spec.targetQps, trace_length(units)),
            spec.routing);
        const bool meets = r.tailMs(spec.percentile) <= spec.slaMs &&
            meetsPerModelSla(r, spec.modelMix, spec.percentile);
        return {std::move(r), meets};
    };

    // Consume a generation of candidate counts ascending (the shared
    // speculative primitive of sim/rate_search.hh): infeasible counts
    // raise lo, the first feasible count becomes hi and stops the
    // generation. Deterministic at any thread count.
    size_t lo = 0;           // largest count proven infeasible
    size_t hi = 0;           // smallest count proven feasible
    ClusterResult atHi;
    bool found = false;
    auto consume = [&](const std::vector<size_t>& counts) {
        mixed_template.ensure(trace_length(counts.back()));
        consumeGeneration(
            counts, evaluate,
            [&](size_t i, std::pair<ClusterResult, bool>& point) {
                plan.evaluations++;
                if (!point.second) {
                    lo = counts[i];
                    return false;
                }
                hi = counts[i];
                atHi = std::move(point.first);
                found = true;
                return true;   // smallest feasible count this round
            });
    };

    // Memory floor first: the smallest unit count whose placement is
    // feasible (placement builds are cheap — no simulation). Total
    // memory grows with the unit count, so feasibility is monotone
    // and the floor bisects.
    size_t memory_floor = 1;
    if (sharded) {
        size_t mem_lo = 0;    // largest count proven memory-infeasible
        size_t mem_hi = 1;
        while (!placement_for(mem_hi).has_value()) {
            if (mem_hi >= spec.maxUnits)
                return plan;    // tables never fit within the budget
            mem_lo = mem_hi;
            mem_hi = std::min(2 * mem_hi, spec.maxUnits);
        }
        while (mem_hi - mem_lo > 1) {
            const size_t mid = mem_lo + (mem_hi - mem_lo) / 2;
            if (placement_for(mid).has_value())
                mem_hi = mid;
            else
                mem_lo = mid;
        }
        memory_floor = mem_hi;
        plan.minUnitsForMemory = memory_floor;
    }

    // Geometric probe for the first feasible unit count, speculating
    // up to three rungs per generation.
    constexpr size_t width = 3;
    lo = memory_floor - 1;
    size_t rung = memory_floor;
    while (!found) {
        std::vector<size_t> rungs;
        for (size_t j = 0; j < width; j++) {
            rungs.push_back(rung);
            if (rung >= spec.maxUnits)
                break;
            rung = std::min(2 * rung, spec.maxUnits);
        }
        consume(rungs);
        if (!found && rungs.back() >= spec.maxUnits)
            return plan;    // infeasible within the unit budget
    }

    // Bisect (lo infeasible, hi feasible] for the minimal count with
    // a speculative midpoint frontier.
    while (hi - lo > 1) {
        std::vector<size_t> mids;
        for (size_t j = 1; j <= width; j++) {
            const size_t mid = lo + (hi - lo) * j / (width + 1);
            if (mid > lo && mid < hi &&
                (mids.empty() || mid > mids.back()))
                mids.push_back(mid);
        }
        drs_assert(!mids.empty(), "empty bisection generation");
        consume(mids);   // every consumed midpoint moves lo or hi
    }

    plan.feasible = true;
    plan.units = hi;
    plan.machines = hi * spec.unitMachines.size();
    plan.atPlan = std::move(atHi);
    return plan;
}

} // namespace deeprecsys
