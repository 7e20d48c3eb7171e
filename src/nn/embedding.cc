#include "embedding.hh"

#include <algorithm>

namespace deeprecsys {

namespace {

/** SplitMix64-style index hash; spreads logical rows over physical. */
uint64_t
hashIndex(uint64_t x)
{
    x += 0x9e3779b97f4a7c15ULL;
    x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9ULL;
    x = (x ^ (x >> 27)) * 0x94d049bb133111ebULL;
    return x ^ (x >> 31);
}

/**
 * Lookups between the prefetch of a row and its pooling read: far
 * enough ahead to cover a DRAM miss at a few ns per pooled row.
 */
constexpr size_t kPrefetchDistance = 16;

/**
 * Prefetch every 64-byte line (two for a 32-float row) of the row
 * kPrefetchDistance lookups past @p j, if there is one.
 */
void
prefetchAhead(const std::vector<const float*>& rows, size_t j, size_t dim)
{
    if (j + kPrefetchDistance >= rows.size())
        return;
    const float* row = rows[j + kPrefetchDistance];
    for (size_t d = 0; d < dim; d += 64 / sizeof(float))
        __builtin_prefetch(row + d);
}

/** Copy the rows end to end into @p dst, prefetching ahead. */
void
copyRows(const std::vector<const float*>& rows, size_t dim, float* dst)
{
    for (size_t j = 0; j < rows.size(); j++) {
        prefetchAhead(rows, j, dim);
        dst = std::copy(rows[j], rows[j] + dim, dst);
    }
}

} // namespace

SparseBatch
SparseBatch::uniform(size_t batch, size_t lookups_per_sample,
                     uint64_t num_rows, Rng& rng)
{
    SparseBatch out;
    out.offsets.reserve(batch + 1);
    out.indices.reserve(batch * lookups_per_sample);
    out.offsets.push_back(0);
    for (size_t i = 0; i < batch; i++) {
        for (size_t j = 0; j < lookups_per_sample; j++)
            out.indices.push_back(rng() % num_rows);
        out.offsets.push_back(out.indices.size());
    }
    return out;
}

EmbeddingTable::EmbeddingTable(uint64_t logical_rows, size_t dim, Rng& rng,
                               uint64_t max_physical_rows)
    : logicalRows_(logical_rows),
      physicalRows_(std::min(logical_rows, max_physical_rows)),
      pow2Rows_((physicalRows_ & (physicalRows_ - 1)) == 0), dim_(dim)
{
    drs_assert(logical_rows > 0, "embedding table needs rows");
    drs_assert(dim > 0, "embedding dim must be positive");
    storage.resize(physicalRows_ * dim_);
    // Small-magnitude init, as trained embeddings typically are.
    for (auto& v : storage)
        v = static_cast<float>(rng.uniform(-0.05, 0.05));
}

const float*
EmbeddingTable::rowFor(uint64_t logical_index) const
{
    drs_assert(logical_index < logicalRows_,
               "embedding index ", logical_index, " out of range ",
               logicalRows_);
    uint64_t physical = logical_index;
    if (physicalRows_ != logicalRows_) {
        const uint64_t hash = hashIndex(logical_index);
        physical = pow2Rows_ ? hash & (physicalRows_ - 1)
                             : hash % physicalRows_;
    }
    return storage.data() + physical * dim_;
}

std::vector<const float*>
EmbeddingTable::resolveRows(const SparseBatch& batch) const
{
    std::vector<const float*> rows(batch.offsets.back());
    for (size_t j = 0; j < rows.size(); j++)
        rows[j] = rowFor(batch.indices[j]);
    return rows;
}

Tensor
EmbeddingTable::bagForward(const SparseBatch& batch, Pooling pooling,
                           OperatorStats* stats) const
{
    ScopedOpTimer timer(stats, OpClass::Embedding);
    const size_t bs = batch.batchSize();
    drs_assert(bs > 0, "empty sparse batch");

    if (pooling == Pooling::Concat) {
        const size_t lookups = batch.lookups(0);
        for (size_t i = 0; i < bs; i++)
            drs_assert(batch.lookups(i) == lookups,
                       "concat pooling needs a uniform lookup count");
        Tensor out = Tensor::mat(bs, lookups * dim_);
        copyRows(resolveRows(batch), dim_, out.data());
        return out;
    }

    const std::vector<const float*> rows = resolveRows(batch);
    Tensor out = Tensor::mat(bs, dim_);
    for (size_t i = 0; i < bs; i++) {
        float* dst = out.row(i);
        const size_t begin = batch.offsets[i];
        const size_t end = batch.offsets[i + 1];
        for (size_t j = begin; j < end; j++) {
            prefetchAhead(rows, j, dim_);
            const float* src = rows[j];
            for (size_t d = 0; d < dim_; d++)
                dst[d] += src[d];
        }
        if (pooling == Pooling::Mean && end > begin) {
            const float inv = 1.0f / static_cast<float>(end - begin);
            for (size_t d = 0; d < dim_; d++)
                dst[d] *= inv;
        }
    }
    return out;
}

Tensor
EmbeddingTable::gatherSequence(const SparseBatch& batch,
                               OperatorStats* stats) const
{
    ScopedOpTimer timer(stats, OpClass::Embedding);
    const size_t bs = batch.batchSize();
    drs_assert(bs > 0, "empty sparse batch");
    const size_t seq = batch.lookups(0);
    for (size_t i = 0; i < bs; i++)
        drs_assert(batch.lookups(i) == seq,
                   "gatherSequence needs a uniform lookup count");
    Tensor out({bs, seq, dim_});
    copyRows(resolveRows(batch), dim_, out.data());
    return out;
}

EmbeddingGroup::EmbeddingGroup(size_t num_tables, uint64_t logical_rows,
                               size_t dim, size_t lookups_per_table,
                               Pooling pooling, Rng& rng,
                               uint64_t max_physical_rows)
    : lookupsPerTable_(lookups_per_table), pooling_(pooling)
{
    drs_assert(num_tables > 0, "embedding group needs tables");
    drs_assert(lookups_per_table > 0, "lookups per table must be positive");
    tables.reserve(num_tables);
    for (size_t i = 0; i < num_tables; i++)
        tables.emplace_back(logical_rows, dim, rng, max_physical_rows);
}

std::vector<Tensor>
EmbeddingGroup::forward(const std::vector<SparseBatch>& batches,
                        OperatorStats* stats) const
{
    drs_assert(batches.size() == tables.size(),
               "need one sparse batch per table");
    std::vector<Tensor> outs;
    outs.reserve(tables.size());
    for (size_t t = 0; t < tables.size(); t++)
        outs.push_back(tables[t].bagForward(batches[t], pooling_, stats));
    return outs;
}

std::vector<SparseBatch>
EmbeddingGroup::randomBatches(size_t batch, Rng& rng) const
{
    std::vector<SparseBatch> out;
    out.reserve(tables.size());
    for (const auto& table : tables) {
        out.push_back(SparseBatch::uniform(batch, lookupsPerTable_,
                                           table.logicalRows(), rng));
    }
    return out;
}

size_t
EmbeddingGroup::pooledWidth() const
{
    const size_t per_table = pooling_ == Pooling::Concat
        ? lookupsPerTable_ * dim() : dim();
    return per_table * tables.size();
}

uint64_t
EmbeddingGroup::bytesPerSample() const
{
    return static_cast<uint64_t>(tables.size()) * lookupsPerTable_ *
           dim() * sizeof(float);
}

uint64_t
EmbeddingGroup::logicalBytes() const
{
    uint64_t bytes = 0;
    for (const auto& table : tables)
        bytes += table.logicalBytes();
    return bytes;
}

} // namespace deeprecsys
