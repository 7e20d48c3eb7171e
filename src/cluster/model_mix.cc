#include "model_mix.hh"

#include "base/logging.hh"
#include "loadgen/query_stream.hh"

namespace deeprecsys {

std::vector<double>
mixFractions(const std::vector<ModelMixEntry>& mix)
{
    if (mix.empty())
        return {1.0};    // a single-model tier is the one-entry mix
    std::vector<double> fractions;
    fractions.reserve(mix.size());
    for (const ModelMixEntry& entry : mix)
        fractions.push_back(entry.trafficFraction);
    return fractions;
}

ModelMixEntry
makeMixEntry(ModelId id, double traffic_fraction, SlaTier tier)
{
    ModelMixEntry entry;
    entry.id = id;
    entry.trafficFraction = traffic_fraction;
    entry.slaMs = slaTargetMs(modelConfig(id), tier);
    return entry;
}

SimConfig
colocatedMachine(const std::vector<ModelMixEntry>& mix,
                 const CpuPlatform& platform, uint64_t memory_bytes)
{
    drs_assert(!mix.empty(), "a colocated machine needs a mix");
    const auto bindingOf = [&platform](const ModelMixEntry& entry) {
        ModelService b{
            CpuCostModel(ModelProfile::forModel(entry.id), platform),
            std::nullopt, entry.policy};
        if (entry.policy.gpuEnabled)
            b.gpu = GpuCostModel(ModelProfile::forModel(entry.id),
                                 GpuPlatform::gtx1080Ti());
        return b;
    };
    SimConfig machine{bindingOf(mix.front())};
    machine.memoryBytes = memory_bytes;
    for (size_t k = 1; k < mix.size(); k++)
        machine.coModels.push_back(bindingOf(mix[k]));
    return machine;
}

ShardingConfig
colocatedSharding(const std::vector<ModelMixEntry>& mix,
                  const std::vector<uint64_t>& budget_bytes,
                  const PlacementSpec& placement,
                  uint32_t tables_per_query, double zipf_s)
{
    drs_assert(!mix.empty(), "a colocated table space needs a mix");
    ShardingConfig sharding;
    std::vector<EmbeddingTableInfo> combined;
    double weight_sum = 0.0;
    for (uint32_t k = 0; k < mix.size(); k++) {
        const ModelConfig cfg = modelConfig(mix[k].id);
        const std::vector<EmbeddingTableInfo> tables =
            embeddingTables(cfg, zipf_s);

        ModelTableSpace space;
        space.base = static_cast<uint32_t>(combined.size());
        space.set.numTables = static_cast<uint32_t>(tables.size());
        space.set.tablesPerQuery = tables_per_query;
        space.set.zipfS = zipf_s;
        // Per-model substream off the historical salt: model 0 keeps
        // it verbatim (single-model degeneration), and two colocated
        // models never share a working-set hash stream.
        space.set.seed =
            modelSubstreamSeed(TableSetSpec{}.seed, k);
        sharding.models.push_back(space);

        // Global ids and mix-weighted popularity (renormalized below
        // so the combined weights still sum to 1).
        for (const EmbeddingTableInfo& t : tables) {
            EmbeddingTableInfo global = t;
            global.id += space.base;
            global.popularity *= mix[k].trafficFraction;
            weight_sum += global.popularity;
            combined.push_back(global);
        }
    }
    drs_assert(weight_sum > 0.0, "mix has no table popularity mass");
    for (EmbeddingTableInfo& t : combined)
        t.popularity /= weight_sum;

    sharding.tableSet.numTables = static_cast<uint32_t>(combined.size());
    sharding.tableSet.tablesPerQuery = tables_per_query;
    sharding.tableSet.zipfS = zipf_s;
    sharding.placement =
        ShardPlacement::build(combined, budget_bytes, placement);
    return sharding;
}

} // namespace deeprecsys
