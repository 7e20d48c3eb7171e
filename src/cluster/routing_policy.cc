#include "routing_policy.hh"

#include <algorithm>
#include <bit>

#include "base/logging.hh"
#include "base/random.hh"
#include "obs/observer.hh"

namespace deeprecsys {

const char*
routingKindName(RoutingKind kind)
{
    switch (kind) {
      case RoutingKind::RoundRobin:        return "round-robin";
      case RoutingKind::UniformRandom:     return "uniform-random";
      case RoutingKind::JoinShortestQueue: return "join-shortest-queue";
      case RoutingKind::PowerOfTwoChoices: return "power-of-two";
      case RoutingKind::SizeAware:         return "size-aware";
      case RoutingKind::ShardAware:        return "shard-aware";
      case RoutingKind::ModelAwareJsq:     return "model-aware-jsq";
      case RoutingKind::ModelAwarePo2c:    return "model-aware-po2c";
    }
    return "unknown";
}

const std::vector<RoutingKind>&
allRoutingKinds()
{
    // ShardAware is deliberately absent: it is the one policy that
    // cannot be built from a bare RoutingSpec (it needs a
    // ShardingConfig), so generic sweeps over this list stay valid.
    // The model-aware kinds are absent too — they only differ from
    // the classic policies against a multi-model view, and keeping
    // them out keeps existing single-model sweeps byte-identical.
    static const std::vector<RoutingKind> kinds = {
        RoutingKind::RoundRobin,
        RoutingKind::UniformRandom,
        RoutingKind::JoinShortestQueue,
        RoutingKind::PowerOfTwoChoices,
        RoutingKind::SizeAware,
    };
    return kinds;
}

namespace {

/**
 * Load signal shared by the queue-aware policies: outstanding work
 * normalized by machine speed, so a 2x-slower machine at equal depth
 * looks twice as loaded (shortest-expected-delay routing).
 */
double
loadSignal(const ClusterView& view, size_t m)
{
    const double outstanding = static_cast<double>(
        view.inFlightQueries(m) + view.queuedWork(m));
    return outstanding / view.speedFactor(m);
}

/** loadSignal bound to @p view, as the load argument of the pickers. */
auto
queueLoad(const ClusterView& view)
{
    return [&view](size_t m) { return loadSignal(view, m); };
}

/**
 * The machines a policy picks among: [0, size) when @c list is null —
 * the static-tier fast path, which builds no candidate list — else
 * the ascending machine indices in @c *list.
 */
struct MachineSet
{
    size_t count = 0;
    const std::vector<size_t>* list = nullptr;

    size_t size() const { return count; }
    size_t operator[](size_t i) const { return list ? (*list)[i] : i; }
};

/** An explicit candidate list as a MachineSet (borrowed). */
MachineSet
listed(const std::vector<size_t>& candidates)
{
    return {candidates.size(), &candidates};
}

/**
 * The machines currently accepting queries, ascending. Under a static
 * tier this is every machine, so policies drawing over it consume
 * their random streams exactly as they did before the elastic tier
 * existed.
 */
void
acceptingMachines(const ClusterView& view, std::vector<size_t>& out)
{
    out.clear();
    for (size_t m = 0; m < view.numMachines(); m++) {
        if (view.accepting(m))
            out.push_back(m);
    }
    drs_assert(!out.empty(), "no machine is accepting queries");
}

/** The accepting machines: every machine, with no list built, when
 *  the view reports allAccepting(); else listed in @p scratch. */
MachineSet
routable(const ClusterView& view, std::vector<size_t>& scratch)
{
    if (view.allAccepting())
        return {view.numMachines(), nullptr};
    acceptingMachines(view, scratch);
    return listed(scratch);
}

/** The machine of @p set with the lowest @p load (ties to the lowest
 *  index); each machine's load is read once. */
template <typename Load>
size_t
leastLoaded(const MachineSet& set, const Load& load)
{
    drs_assert(set.size() > 0, "no routing candidates");
    size_t best = set[0];
    double best_load = load(best);
    for (size_t i = 1; i < set.size(); i++) {
        const size_t m = set[i];
        const double l = load(m);
        if (l < best_load) {
            best = m;
            best_load = l;
        }
    }
    return best;
}

/** Power of two choices: draw two distinct machines of @p set from
 *  @p rng and keep the one with the lower @p load (the first drawn on
 *  a tie). A one-machine set draws nothing. */
template <typename Load>
size_t
twoChoices(Rng& rng, const MachineSet& set, const Load& load)
{
    const int64_t n = static_cast<int64_t>(set.size());
    if (n == 1)
        return set[0];
    const size_t a = static_cast<size_t>(rng.uniformInt(0, n - 1));
    size_t b = static_cast<size_t>(rng.uniformInt(0, n - 2));
    if (b >= a)
        b++;    // sample without replacement
    return load(set[b]) < load(set[a]) ? set[b] : set[a];
}

class RoundRobinPolicy final : public RoutingPolicy
{
  public:
    size_t
    route(const Query&, const ClusterView& view) override
    {
        // Advance the cursor past non-accepting machines so the
        // rotation stays even over whichever set is live.
        for (size_t tried = 0; tried < view.numMachines(); tried++) {
            const size_t m = next++ % view.numMachines();
            if (view.accepting(m))
                return m;
        }
        drs_panic("no machine is accepting queries");
    }

    RoutingKind kind() const override { return RoutingKind::RoundRobin; }

  private:
    size_t next = 0;
};

class UniformRandomPolicy final : public RoutingPolicy
{
  public:
    explicit UniformRandomPolicy(uint64_t seed) : rng(seed) {}

    size_t
    route(const Query&, const ClusterView& view) override
    {
        const MachineSet set = routable(view, candidates);
        return set[static_cast<size_t>(
            rng.uniformInt(0, static_cast<int64_t>(set.size()) - 1))];
    }

    RoutingKind kind() const override { return RoutingKind::UniformRandom; }

  private:
    Rng rng;
    std::vector<size_t> candidates;    ///< scratch, reused per call
};

class JoinShortestQueuePolicy final : public RoutingPolicy
{
  public:
    size_t
    route(const Query&, const ClusterView& view) override
    {
        return leastLoaded(routable(view, candidates), queueLoad(view));
    }

    RoutingKind
    kind() const override
    {
        return RoutingKind::JoinShortestQueue;
    }

  private:
    std::vector<size_t> candidates;    ///< scratch, reused per call
};

class PowerOfTwoChoicesPolicy final : public RoutingPolicy
{
  public:
    explicit PowerOfTwoChoicesPolicy(uint64_t seed) : rng(seed) {}

    size_t
    route(const Query&, const ClusterView& view) override
    {
        return twoChoices(rng, routable(view, candidates), queueLoad(view));
    }

    RoutingKind
    kind() const override
    {
        return RoutingKind::PowerOfTwoChoices;
    }

  private:
    Rng rng;
    std::vector<size_t> candidates;    ///< scratch, reused per call
};

/**
 * Large queries (the work-heavy tail of Figure 5) go to
 * accelerator-equipped machines, where batch-level parallelism pays;
 * small queries stay on CPU-only machines so accelerators are kept
 * free for the work that needs them. Within the eligible set the
 * least-loaded machine wins. Falls back to the whole cluster when a
 * class of machine is absent.
 */
class SizeAwarePolicy final : public RoutingPolicy
{
  public:
    explicit SizeAwarePolicy(uint32_t size_threshold)
        : threshold(size_threshold)
    {
    }

    size_t
    route(const Query& query, const ClusterView& view) override
    {
        const bool wants_gpu = query.size >= threshold;
        candidates.clear();
        for (size_t m = 0; m < view.numMachines(); m++) {
            if (view.accepting(m) && view.hasGpu(m) == wants_gpu)
                candidates.push_back(m);
        }
        if (candidates.empty())
            acceptingMachines(view, candidates);
        return leastLoaded(listed(candidates), queueLoad(view));
    }

    RoutingKind kind() const override { return RoutingKind::SizeAware; }

  private:
    uint32_t threshold;
    std::vector<size_t> candidates;    ///< scratch, reused per call
};

/**
 * Per-model load signal of the model-aware policies: the query's own
 * model's in-flight count (which includes its queued parts — the
 * driver counts a query in flight from dispatch to completion),
 * normalized by machine speed. Cross-model pressure is deliberately
 * excluded: the point of model-aware balancing is to keep one model's
 * burst from scrambling another model's placement decisions.
 */
auto
modelLoad(const ClusterView& view, uint32_t model)
{
    return [&view, model](size_t m) {
        return static_cast<double>(view.inFlightQueriesOfModel(m, model)) /
               view.speedFactor(m);
    };
}

/**
 * Machines accepting queries *and* holding a binding for @p model,
 * ascending. Fatal when empty: a mix model with no live replica set
 * is a configuration error, not a routable state.
 */
void
modelReplicaSet(const ClusterView& view, uint32_t model,
                std::vector<size_t>& out)
{
    out.clear();
    for (size_t m = 0; m < view.numMachines(); m++) {
        if (view.accepting(m) && view.servesModel(m, model))
            out.push_back(m);
    }
    drs_assert(!out.empty(), "no accepting machine serves this model");
}

/** JSQ within the query's own model's replica set, on that model's
 *  own in-flight signal (ties to the lowest index). */
class ModelAwareJsqPolicy final : public RoutingPolicy
{
  public:
    size_t
    route(const Query& query, const ClusterView& view) override
    {
        modelReplicaSet(view, query.model, candidates);
        return leastLoaded(listed(candidates), modelLoad(view, query.model));
    }

    RoutingKind kind() const override { return RoutingKind::ModelAwareJsq; }

  private:
    std::vector<size_t> candidates;    ///< scratch, reused per call
};

/** Power-of-two-choices within the query's own model's replica set,
 *  compared on that model's own in-flight signal. */
class ModelAwarePo2cPolicy final : public RoutingPolicy
{
  public:
    explicit ModelAwarePo2cPolicy(uint64_t seed) : rng(seed) {}

    size_t
    route(const Query& query, const ClusterView& view) override
    {
        modelReplicaSet(view, query.model, candidates);
        return twoChoices(rng, listed(candidates),
                          modelLoad(view, query.model));
    }

    RoutingKind kind() const override { return RoutingKind::ModelAwarePo2c; }

  private:
    Rng rng;
    std::vector<size_t> candidates;    ///< scratch, reused per call
};

/**
 * Routes each query to machines holding (a replica of) its embedding
 * tables. When some machine holds the whole working set the query
 * stays single-hop on the least-loaded such machine; otherwise the
 * policy fans out over a greedy set cover — repeatedly the machine
 * holding the most still-uncovered tables (ties to the less loaded,
 * then the lower index) — and the query joins across the parts. The
 * leader (the first, largest-coverage part) runs the dense stacks;
 * every part runs the lookups for its local share of the tables.
 *
 * Each route builds one coverage mask per accepting machine holding
 * any of the query's tables (bit i: the machine holds the query's
 * i-th table) from the placement's replica lists, reads each such
 * machine's load once, and runs the cover rounds as popcounts over
 * the masks. The per-route work grows with the tables touched and
 * their replicas, never with the tier size.
 */
class ShardAwarePolicy final : public RoutingPolicy
{
  public:
    explicit ShardAwarePolicy(const ShardingConfig& sharding_in)
        : sharding(sharding_in), spaces(sharding_in.models)
    {
        drs_assert(sharding.placement.feasible(),
                   "shard-aware routing needs a feasible placement");
        // A single-model tier is the one-entry namespace: the whole
        // table set at base 0.
        if (spaces.empty())
            spaces.push_back({sharding.tableSet, 0});
        // Cache each namespace's popularity weights (drawn in its
        // local table space) once.
        popularity.reserve(spaces.size());
        for (const ModelTableSpace& space : spaces) {
            drs_assert(static_cast<size_t>(space.base) + space.set.numTables
                           <= sharding.tableSet.numTables,
                       "model table namespace exceeds the combined space");
            popularity.push_back(
                tablePopularity(space.set.numTables, space.set.zipfS));
        }
    }

    size_t
    route(const Query& query, const ClusterView& view) override
    {
        const std::vector<ShardTarget> parts = routeParts(query, view);
        drs_assert(!parts.empty(),
                   "uncovered table with no accepting replica");
        return parts.front().machine;
    }

    std::vector<ShardTarget>
    routeParts(const Query& query, const ClusterView& view) override
    {
        drs_assert(sharding.placement.numMachines() == view.numMachines(),
                   "placement machine count mismatch");
        // Draw in the query's own model's local table space, then
        // shift into the combined id space.
        drs_assert(query.model < spaces.size(),
                   "query's model has no table namespace");
        const ModelTableSpace& space = spaces[query.model];
        tablesOfQuery(query.id, space.set, popularity[query.model], tables);
        for (uint32_t& t : tables)
            t += space.base;
        if (obs_)
            obs_->onTablesTouched(tables);
        buildMasks(view);

        // Single-hop when some accepting machine holds every table
        // the query touches (always true under full replication). The
        // working set is never empty (tablesOfQuery draws >= 1 table).
        candidates.clear();
        for (size_t k = 0; k < holders.size(); k++) {
            if (held[k] == tables.size())
                candidates.push_back(holders[k]);
        }
        if (!candidates.empty()) {
            ShardTarget whole;
            whole.machine = static_cast<uint32_t>(
                leastLoaded(listed(candidates), queueLoad(view)));
            whole.embFraction = 1.0;
            whole.leader = true;
            return {whole};
        }

        // Greedy set cover over the holders; the first pick covers the
        // most tables and leads. A picked machine's mask has no
        // uncovered bit left, so it never covers again.
        loads.resize(holders.size());
        for (size_t k = 0; k < holders.size(); k++)
            loads[k] = loadSignal(view, holders[k]);
        uncovered.assign(words, 0);
        for (size_t i = 0; i < tables.size(); i++)
            uncovered[i / 64] |= uint64_t{1} << (i % 64);
        std::vector<ShardTarget> parts;
        size_t left = tables.size();
        while (left > 0) {
            size_t best = holders.size();
            size_t best_cover = 0;
            for (size_t k = 0; k < holders.size(); k++) {
                const uint64_t* mask = &masks[k * words];
                size_t cover = 0;
                for (size_t w = 0; w < words; w++)
                    cover += static_cast<size_t>(
                        std::popcount(mask[w] & uncovered[w]));
                if (cover == 0)
                    continue;
                if (best == holders.size() || cover > best_cover ||
                    (cover == best_cover && loads[k] < loads[best])) {
                    best = k;
                    best_cover = cover;
                }
            }
            // With machines down, a table can lose its last accepting
            // replica mid-run; report the query unservable (empty
            // plan) and let the fault-aware driver fail it over.
            // Fault-free runs never reach this: feasible placements
            // cover every table and static tiers accept everywhere.
            if (best == holders.size())
                return {};
            ShardTarget part;
            part.machine = holders[best];
            part.leader = parts.empty();
            part.tables.reserve(best_cover);
            const uint64_t* mask = &masks[best * words];
            for (size_t w = 0; w < words; w++) {
                uint64_t taken = mask[w] & uncovered[w];
                uncovered[w] &= ~taken;
                for (; taken != 0; taken &= taken - 1) {
                    part.tables.push_back(
                        tables[w * 64 + static_cast<size_t>(
                                            std::countr_zero(taken))]);
                }
            }
            left -= best_cover;
            part.embFraction = static_cast<double>(best_cover) /
                               static_cast<double>(tables.size());
            parts.push_back(std::move(part));
        }
        return parts;
    }

    RoutingKind kind() const override { return RoutingKind::ShardAware; }

    void
    attachObserver(obs::RunObserver* observer) override
    {
        obs_ = observer;
    }

  private:
    /**
     * Fill holders (the accepting machines holding any of the query's
     * tables, ascending), their coverage masks and their held counts
     * from the replica lists of the query's tables.
     */
    void
    buildMasks(const ClusterView& view)
    {
        const ShardPlacement& placement = sharding.placement;
        if (slot.empty())
            slot.assign(placement.numMachines(), 0);
        words = (tables.size() + 63) / 64;

        // Every machine holding a replica, once; slot marks it seen.
        holders.clear();
        for (uint32_t t : tables) {
            if (t >= placement.numTables())
                continue;    // no replica anywhere: never covered
            for (uint32_t m : placement.machinesOfTable(t)) {
                if (slot[m] == 0) {
                    slot[m] = 1;
                    holders.push_back(m);
                }
            }
        }
        std::sort(holders.begin(), holders.end());
        size_t kept = 0;
        for (uint32_t m : holders) {
            if (view.accepting(m)) {
                holders[kept++] = m;
                slot[m] = static_cast<uint32_t>(kept);    // index + 1
            } else {
                slot[m] = 0;
            }
        }
        holders.resize(kept);

        masks.assign(holders.size() * words, 0);
        held.assign(holders.size(), 0);
        for (size_t i = 0; i < tables.size(); i++) {
            if (tables[i] >= placement.numTables())
                continue;
            for (uint32_t m : placement.machinesOfTable(tables[i])) {
                if (slot[m] == 0)
                    continue;
                masks[(slot[m] - 1) * words + i / 64] |=
                    uint64_t{1} << (i % 64);
                held[slot[m] - 1]++;
            }
        }
        for (uint32_t m : holders)
            slot[m] = 0;
    }

    const ShardingConfig& sharding;
    /** Per-model table namespaces (one entry on a single-model tier). */
    std::vector<ModelTableSpace> spaces;
    /** Per-namespace Zipf weights over its local table space. */
    std::vector<std::vector<double>> popularity;
    obs::RunObserver* obs_ = nullptr;  ///< per-table load reporting

    // Per-route scratch, reused across calls.
    std::vector<uint32_t> tables;      ///< the query's working set
    std::vector<uint32_t> holders;     ///< accepting replica holders
    std::vector<size_t> candidates;    ///< holders of the whole set
    size_t words = 0;                  ///< mask words per holder
    std::vector<uint64_t> masks;       ///< [holder][word] coverage
    std::vector<size_t> held;          ///< query tables per holder
    std::vector<uint64_t> uncovered;   ///< working-set bits left
    std::vector<double> loads;         ///< loadSignal per holder
    /** Per machine: holder index + 1 while masks are built, else 0. */
    std::vector<uint32_t> slot;
};

/** View for open-loop splitting: dispatch counts, no live queues. */
class SplitView final : public ClusterView
{
  public:
    explicit SplitView(const std::vector<BackendAttrs>& attrs_in)
        : attrs(attrs_in), dispatched(attrs_in.size(), 0)
    {
    }

    size_t numMachines() const override { return attrs.size(); }

    size_t
    inFlightQueries(size_t m) const override
    {
        return dispatched[m];
    }

    size_t queuedWork(size_t) const override { return 0; }

    bool hasGpu(size_t m) const override { return attrs[m].hasGpu; }

    double
    speedFactor(size_t m) const override
    {
        return attrs[m].speedFactor;
    }

    void record(size_t m) { dispatched[m]++; }

  private:
    const std::vector<BackendAttrs>& attrs;
    std::vector<size_t> dispatched;
};

} // namespace

std::unique_ptr<RoutingPolicy>
makeRoutingPolicy(const RoutingSpec& spec)
{
    return makeRoutingPolicy(spec, nullptr);
}

std::unique_ptr<RoutingPolicy>
makeRoutingPolicy(const RoutingSpec& spec, const ShardingConfig* sharding)
{
    switch (spec.kind) {
      case RoutingKind::RoundRobin:
        return std::make_unique<RoundRobinPolicy>();
      case RoutingKind::UniformRandom:
        return std::make_unique<UniformRandomPolicy>(spec.seed);
      case RoutingKind::JoinShortestQueue:
        return std::make_unique<JoinShortestQueuePolicy>();
      case RoutingKind::PowerOfTwoChoices:
        return std::make_unique<PowerOfTwoChoicesPolicy>(spec.seed);
      case RoutingKind::SizeAware:
        return std::make_unique<SizeAwarePolicy>(spec.sizeThreshold);
      case RoutingKind::ShardAware:
        drs_assert(sharding != nullptr,
                   "shard-aware routing needs a ShardingConfig");
        return std::make_unique<ShardAwarePolicy>(*sharding);
      case RoutingKind::ModelAwareJsq:
        return std::make_unique<ModelAwareJsqPolicy>();
      case RoutingKind::ModelAwarePo2c:
        return std::make_unique<ModelAwarePo2cPolicy>(spec.seed);
    }
    drs_assert(false, "unknown routing kind");
    return nullptr;
}

std::vector<QueryTrace>
splitTrace(const QueryTrace& global,
           const std::vector<BackendAttrs>& machines, RoutingPolicy& policy)
{
    drs_assert(!machines.empty(), "splitTrace needs machines");
    std::vector<QueryTrace> slices(machines.size());
    SplitView view(machines);
    for (const Query& q : global) {
        const size_t m = policy.route(q, view);
        drs_assert(m < machines.size(), "policy routed out of range");
        slices[m].push_back(q);
        view.record(m);
    }
    return slices;
}

std::vector<QueryTrace>
splitTrace(const QueryTrace& global, size_t num_machines,
           RoutingPolicy& policy)
{
    return splitTrace(global, std::vector<BackendAttrs>(num_machines),
                      policy);
}

} // namespace deeprecsys
