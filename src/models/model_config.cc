#include "model_config.hh"

#include "base/logging.hh"

namespace deeprecsys {

const std::vector<ModelId>&
allModelIds()
{
    static const std::vector<ModelId> ids = {
        ModelId::Ncf,        ModelId::WideAndDeep, ModelId::MtWideAndDeep,
        ModelId::DlrmRmc1,   ModelId::DlrmRmc2,    ModelId::DlrmRmc3,
        ModelId::Din,        ModelId::Dien,
    };
    return ids;
}

ModelConfig
modelConfig(ModelId id)
{
    ModelConfig c;
    c.id = id;
    switch (id) {
      case ModelId::Ncf:
        // Table I: no Dense-FC, Predict-FC 256-256-128, 4 tables
        // (user/item x MF/MLP), 1 lookup, concat pooling. GMF pairs
        // the MF embeddings via elementwise product.
        c.name = "NCF";
        c.company = "-";
        c.domain = "Movies";
        c.numTables = 4;
        c.tableRows = 200'000;
        c.embeddingDim = 64;
        c.lookupsPerTable = 1;
        c.pooling = Pooling::Concat;
        c.interaction = InteractionKind::GmfConcat;
        c.predictFcDims = {256, 256, 128};
        c.slaMediumMs = 5.0;
        c.expectedBottleneck = OpClass::Fc;
        break;

      case ModelId::WideAndDeep:
        // Table I: Predict-FC 1024-512-256, tens of one-hot tables.
        // Dense features (~1000 wide) bypass the Dense-FC stack and
        // concatenate directly with embedding outputs.
        c.name = "WnD";
        c.company = "Google";
        c.domain = "Play Store";
        c.denseInputDim = 1000;
        c.numTables = 20;
        c.tableRows = 100'000;
        c.embeddingDim = 32;
        c.lookupsPerTable = 1;
        c.pooling = Pooling::Concat;
        c.predictFcDims = {1024, 512, 256};
        c.slaMediumMs = 25.0;
        c.expectedBottleneck = OpClass::Fc;
        break;

      case ModelId::MtWideAndDeep:
        // WnD with N parallel Predict-FC stacks for multiple
        // objectives (CTR, comment rate, likes, ratings, shares).
        c = modelConfig(ModelId::WideAndDeep);
        c.id = ModelId::MtWideAndDeep;
        c.name = "MT-WnD";
        c.company = "Google";
        c.domain = "YouTube";
        c.numTasks = 5;
        c.slaMediumMs = 25.0;
        break;

      case ModelId::DlrmRmc1:
        // Table I: Dense-FC 256-128-32, Predict-FC 256-64-1,
        // <=10 tables, ~80 lookups, sum pooling. Embedding dominated.
        c.name = "DLRM-RMC1";
        c.company = "Facebook";
        c.domain = "Social Media";
        c.denseInputDim = 256;
        c.denseFcDims = {256, 128, 32};
        c.numTables = 8;
        c.tableRows = 5'000'000;
        c.embeddingDim = 32;
        c.lookupsPerTable = 80;
        c.pooling = Pooling::Sum;
        c.predictFcDims = {256, 64};
        c.slaMediumMs = 100.0;
        c.expectedBottleneck = OpClass::Embedding;
        break;

      case ModelId::DlrmRmc2:
        // Table I: Dense-FC 256-128-32, Predict-FC 512-128-1,
        // <=40 tables, ~80 lookups, sum pooling. Embedding dominated.
        c.name = "DLRM-RMC2";
        c.company = "Facebook";
        c.domain = "Social Media";
        c.denseInputDim = 256;
        c.denseFcDims = {256, 128, 32};
        c.numTables = 32;
        c.tableRows = 2'000'000;
        c.embeddingDim = 32;
        c.lookupsPerTable = 80;
        c.pooling = Pooling::Sum;
        c.predictFcDims = {512, 128};
        c.slaMediumMs = 400.0;
        c.expectedBottleneck = OpClass::Embedding;
        break;

      case ModelId::DlrmRmc3:
        // Table I: Dense-FC 2560-512-32, Predict-FC 512-128-1,
        // <=10 tables, ~20 lookups, sum pooling. MLP dominated.
        c.name = "DLRM-RMC3";
        c.company = "Facebook";
        c.domain = "Social Media";
        c.denseInputDim = 512;
        c.denseFcDims = {2560, 512, 32};
        c.numTables = 8;
        c.tableRows = 1'000'000;
        c.embeddingDim = 32;
        c.lookupsPerTable = 20;
        c.pooling = Pooling::Sum;
        c.predictFcDims = {512, 128};
        c.slaMediumMs = 100.0;
        c.expectedBottleneck = OpClass::Fc;
        break;

      case ModelId::Din:
        // Table I: Predict-FC 200-80-2, tens of tables, hundreds of
        // behavior lookups pooled by attention. Small one-hot tables
        // for user/item features plus a large multi-hot behavior
        // table (up to 1e9 logical rows).
        c.name = "DIN";
        c.company = "Alibaba";
        c.domain = "E-commerce";
        c.numTables = 14;
        c.tableRows = 100'000;
        c.embeddingDim = 64;
        c.lookupsPerTable = 1;
        c.pooling = Pooling::Concat;
        c.useAttention = true;
        c.behaviorTableRows = 100'000'000;
        c.seqLen = 128;
        c.attentionHidden = 36;
        c.predictFcDims = {200, 80};
        c.slaMediumMs = 100.0;
        c.expectedBottleneck = OpClass::Attention;
        break;

      case ModelId::Dien:
        // Table I: Predict-FC 200-80-2, tens of tables, tens of
        // lookups; attention-gated GRUs over the behavior sequence.
        c.name = "DIEN";
        c.company = "Alibaba";
        c.domain = "E-commerce";
        c.numTables = 14;
        c.tableRows = 100'000;
        c.embeddingDim = 64;
        c.lookupsPerTable = 1;
        c.pooling = Pooling::Concat;
        c.useAttention = true;
        c.useRecurrent = true;
        c.behaviorTableRows = 1'000'000;
        c.seqLen = 32;
        c.attentionHidden = 36;
        c.gruHidden = 64;
        c.predictFcDims = {200, 80};
        c.slaMediumMs = 35.0;
        c.expectedBottleneck = OpClass::Recurrent;
        break;

      default:
        drs_panic("unknown model id");
    }
    return c;
}

std::string
modelName(ModelId id)
{
    return modelConfig(id).name;
}

ModelId
modelFromName(const std::string& name)
{
    for (ModelId id : allModelIds()) {
        if (modelName(id) == name)
            return id;
    }
    drs_fatal("unknown model name: ", name);
}

const char*
slaTierName(SlaTier tier)
{
    switch (tier) {
      case SlaTier::Low: return "low";
      case SlaTier::Medium: return "medium";
      case SlaTier::High: return "high";
      default: return "unknown";
    }
}

double
slaTargetMs(const ModelConfig& cfg, SlaTier tier)
{
    switch (tier) {
      case SlaTier::Low: return cfg.slaMediumMs * 0.5;
      case SlaTier::Medium: return cfg.slaMediumMs;
      case SlaTier::High: return cfg.slaMediumMs * 1.5;
      default: drs_panic("unknown SLA tier");
    }
}

std::vector<std::string>
allModelNames()
{
    std::vector<std::string> names;
    for (ModelId id : allModelIds())
        names.push_back(modelName(id));
    return names;
}

} // namespace deeprecsys
