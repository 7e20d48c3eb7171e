/**
 * @file
 * Unit tests for embedding tables, pooled lookups, and groups.
 */

#include <cstring>
#include <gtest/gtest.h>
#include <memory>
#include <tuple>
#include <vector>

#include "nn/embedding.hh"

namespace deeprecsys {
namespace {

TEST(SparseBatch, UniformShape)
{
    Rng rng(1);
    const SparseBatch b = SparseBatch::uniform(4, 3, 100, rng);
    EXPECT_EQ(b.batchSize(), 4u);
    EXPECT_EQ(b.indices.size(), 12u);
    for (size_t i = 0; i < 4; i++)
        EXPECT_EQ(b.lookups(i), 3u);
    for (uint64_t idx : b.indices)
        EXPECT_LT(idx, 100u);
}

TEST(SparseBatch, EmptyHasZeroBatch)
{
    SparseBatch b;
    EXPECT_EQ(b.batchSize(), 0u);
}

TEST(EmbeddingTable, PhysicalRowsCapped)
{
    Rng rng(2);
    EmbeddingTable t(1'000'000, 8, rng, /*max_physical_rows=*/256);
    EXPECT_EQ(t.logicalRows(), 1'000'000u);
    EXPECT_EQ(t.physicalRows(), 256u);
    EXPECT_EQ(t.logicalBytes(), 1'000'000ull * 8 * sizeof(float));
}

TEST(EmbeddingTable, SmallTableUncapped)
{
    Rng rng(3);
    EmbeddingTable t(100, 8, rng, 256);
    EXPECT_EQ(t.physicalRows(), 100u);
}

TEST(EmbeddingTable, RowForIsDeterministic)
{
    Rng rng(4);
    EmbeddingTable t(1'000'000, 16, rng, 512);
    const float* a = t.rowFor(123456);
    const float* b = t.rowFor(123456);
    EXPECT_EQ(a, b);
}

TEST(EmbeddingTable, DistinctLogicalRowsSpread)
{
    Rng rng(5);
    EmbeddingTable t(1'000'000, 4, rng, 1024);
    // Hashing should map distinct indices to many distinct rows.
    std::set<const float*> rows;
    for (uint64_t i = 0; i < 200; i++)
        rows.insert(t.rowFor((i * 9973) % t.logicalRows()));
    EXPECT_GT(rows.size(), 150u);
}

TEST(EmbeddingTable, SumPoolingMatchesManual)
{
    Rng rng(6);
    EmbeddingTable t(50, 4, rng);
    SparseBatch b;
    b.indices = {3, 7, 7};
    b.offsets = {0, 3};
    const Tensor out = t.bagForward(b, Pooling::Sum);
    const float* r3 = t.rowFor(3);
    const float* r7 = t.rowFor(7);
    for (size_t d = 0; d < 4; d++)
        EXPECT_FLOAT_EQ(out.at(0, d), r3[d] + 2 * r7[d]);
}

TEST(EmbeddingTable, MeanPoolingDividesByCount)
{
    Rng rng(7);
    EmbeddingTable t(50, 4, rng);
    SparseBatch b;
    b.indices = {1, 2};
    b.offsets = {0, 2};
    const Tensor sum = t.bagForward(b, Pooling::Sum);
    const Tensor mean = t.bagForward(b, Pooling::Mean);
    for (size_t d = 0; d < 4; d++)
        EXPECT_NEAR(mean.at(0, d), sum.at(0, d) / 2.0f, 1e-6);
}

TEST(EmbeddingTable, ConcatPoolingWidth)
{
    Rng rng(8);
    EmbeddingTable t(50, 4, rng);
    const SparseBatch b = SparseBatch::uniform(3, 5, 50, rng);
    const Tensor out = t.bagForward(b, Pooling::Concat);
    EXPECT_EQ(out.dim(0), 3u);
    EXPECT_EQ(out.dim(1), 20u);
}

TEST(EmbeddingTable, ConcatPreservesOrder)
{
    Rng rng(9);
    EmbeddingTable t(50, 2, rng);
    SparseBatch b;
    b.indices = {4, 9};
    b.offsets = {0, 2};
    const Tensor out = t.bagForward(b, Pooling::Concat);
    const float* r4 = t.rowFor(4);
    const float* r9 = t.rowFor(9);
    EXPECT_FLOAT_EQ(out.at(0, 0), r4[0]);
    EXPECT_FLOAT_EQ(out.at(0, 1), r4[1]);
    EXPECT_FLOAT_EQ(out.at(0, 2), r9[0]);
    EXPECT_FLOAT_EQ(out.at(0, 3), r9[1]);
}

TEST(EmbeddingTable, GatherSequenceShapeAndContent)
{
    Rng rng(10);
    EmbeddingTable t(50, 3, rng);
    SparseBatch b;
    b.indices = {1, 2, 3, 4};
    b.offsets = {0, 2, 4};
    const Tensor seq = t.gatherSequence(b);
    EXPECT_EQ(seq.rank(), 3u);
    EXPECT_EQ(seq.dim(0), 2u);
    EXPECT_EQ(seq.dim(1), 2u);
    EXPECT_EQ(seq.dim(2), 3u);
    const float* r3 = t.rowFor(3);
    EXPECT_FLOAT_EQ(seq.data()[1 * 2 * 3 + 0 * 3 + 0], r3[0]);
}

TEST(EmbeddingTable, ChargesEmbeddingTime)
{
    Rng rng(11);
    EmbeddingTable t(1000, 16, rng);
    const SparseBatch b = SparseBatch::uniform(32, 8, 1000, rng);
    OperatorStats stats;
    t.bagForward(b, Pooling::Sum, &stats);
    EXPECT_GT(stats.seconds(OpClass::Embedding), 0.0);
    EXPECT_DOUBLE_EQ(stats.seconds(OpClass::Fc), 0.0);
}

TEST(EmbeddingGroup, TableCountAndWidth)
{
    Rng rng(12);
    EmbeddingGroup g(4, 1000, 8, 2, Pooling::Sum, rng);
    EXPECT_EQ(g.numTables(), 4u);
    EXPECT_EQ(g.dim(), 8u);
    EXPECT_EQ(g.pooledWidth(), 32u);    // 4 tables x dim 8 (sum)
}

TEST(EmbeddingGroup, ConcatPooledWidthIncludesLookups)
{
    Rng rng(13);
    EmbeddingGroup g(3, 1000, 8, 5, Pooling::Concat, rng);
    EXPECT_EQ(g.pooledWidth(), 3u * 5u * 8u);
}

TEST(EmbeddingGroup, ForwardProducesOneOutputPerTable)
{
    Rng rng(14);
    EmbeddingGroup g(3, 500, 4, 2, Pooling::Sum, rng);
    const auto batches = g.randomBatches(6, rng);
    EXPECT_EQ(batches.size(), 3u);
    const auto outs = g.forward(batches);
    EXPECT_EQ(outs.size(), 3u);
    for (const Tensor& t : outs) {
        EXPECT_EQ(t.dim(0), 6u);
        EXPECT_EQ(t.dim(1), 4u);
    }
}

TEST(EmbeddingGroup, BytesPerSampleAccounting)
{
    Rng rng(15);
    EmbeddingGroup g(8, 1000, 32, 80, Pooling::Sum, rng);
    // 8 tables x 80 lookups x 32 floats = 81920 bytes (DLRM-RMC1).
    EXPECT_EQ(g.bytesPerSample(), 8ull * 80 * 32 * sizeof(float));
}

TEST(EmbeddingGroup, LogicalBytesSumsTables)
{
    Rng rng(16);
    EmbeddingGroup g(2, 1'000'000, 16, 1, Pooling::Sum, rng, 128);
    EXPECT_EQ(g.logicalBytes(), 2ull * 1'000'000 * 16 * sizeof(float));
}

/**
 * The two-pass gather against a test-local copy of the per-row loop it
 * replaced: one row at a time, the physical row by SplitMix64 hash and
 * '%', pooled in index order. Outputs must be bitwise equal, which
 * also pins the power-of-two mask to the '%' it stands in for.
 */
class GatherOracle : public ::testing::TestWithParam<
                         std::tuple<uint64_t, uint64_t, size_t>>
{
  protected:
    void
    SetUp() override
    {
        const auto [logical, max_physical, dim] = GetParam();
        Rng rng(31);
        table = std::make_unique<EmbeddingTable>(logical, dim, rng,
                                                 max_physical);
        // Storage base: row 0's address less its reference offset.
        base = table->rowFor(0) - referencePhysical(0) * dim;
        // Ragged samples, an empty one included, and more lookups
        // than the prefetch distance.
        ragged.offsets.push_back(0);
        for (size_t i = 0; i < 24; i++) {
            const size_t lookups = (i * 7) % 31;
            for (size_t j = 0; j < lookups; j++)
                ragged.indices.push_back(rng() % logical);
            ragged.offsets.push_back(ragged.indices.size());
        }
        uniform = SparseBatch::uniform(19, 9, logical, rng);
    }

    uint64_t
    referencePhysical(uint64_t index) const
    {
        if (table->physicalRows() == table->logicalRows())
            return index;
        uint64_t x = index + 0x9e3779b97f4a7c15ULL;
        x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9ULL;
        x = (x ^ (x >> 27)) * 0x94d049bb133111ebULL;
        return (x ^ (x >> 31)) % table->physicalRows();
    }

    const float*
    referenceRow(uint64_t index) const
    {
        return base + referencePhysical(index) * table->dim();
    }

    /** The per-row Sum/Mean loop. */
    Tensor
    referencePool(const SparseBatch& batch, Pooling pooling) const
    {
        const size_t dim = table->dim();
        Tensor out = Tensor::mat(batch.batchSize(), dim);
        for (size_t i = 0; i < batch.batchSize(); i++) {
            float* dst = out.row(i);
            const size_t begin = batch.offsets[i];
            const size_t end = batch.offsets[i + 1];
            for (size_t j = begin; j < end; j++) {
                const float* src = referenceRow(batch.indices[j]);
                for (size_t d = 0; d < dim; d++)
                    dst[d] += src[d];
            }
            if (pooling == Pooling::Mean && end > begin) {
                const float inv = 1.0f / static_cast<float>(end - begin);
                for (size_t d = 0; d < dim; d++)
                    dst[d] *= inv;
            }
        }
        return out;
    }

    /** The per-row Concat / gatherSequence loop (same flat layout). */
    std::vector<float>
    referenceConcat(const SparseBatch& batch) const
    {
        std::vector<float> out;
        for (uint64_t index : batch.indices) {
            const float* src = referenceRow(index);
            out.insert(out.end(), src, src + table->dim());
        }
        return out;
    }

    static bool
    bitwiseEqual(const float* a, const float* b, size_t n)
    {
        return std::memcmp(a, b, n * sizeof(float)) == 0;
    }

    std::unique_ptr<EmbeddingTable> table;
    const float* base = nullptr;
    SparseBatch ragged;
    SparseBatch uniform;
};

TEST_P(GatherOracle, SumAndMeanMatchPerRowLoop)
{
    for (Pooling pooling : {Pooling::Sum, Pooling::Mean}) {
        for (const SparseBatch* batch : {&ragged, &uniform}) {
            const Tensor got = table->bagForward(*batch, pooling);
            const Tensor want = referencePool(*batch, pooling);
            ASSERT_EQ(got.shape(), want.shape());
            EXPECT_TRUE(bitwiseEqual(got.data(), want.data(), got.numel()));
        }
    }
}

TEST_P(GatherOracle, ConcatAndSequenceMatchPerRowLoop)
{
    const std::vector<float> want = referenceConcat(uniform);
    const Tensor concat = table->bagForward(uniform, Pooling::Concat);
    EXPECT_EQ(concat.shape(),
              (std::vector<size_t>{19, 9 * table->dim()}));
    ASSERT_EQ(concat.numel(), want.size());
    EXPECT_TRUE(bitwiseEqual(concat.data(), want.data(), want.size()));
    const Tensor seq = table->gatherSequence(uniform);
    EXPECT_EQ(seq.shape(), (std::vector<size_t>{19, 9, table->dim()}));
    ASSERT_EQ(seq.numel(), want.size());
    EXPECT_TRUE(bitwiseEqual(seq.data(), want.data(), want.size()));
}

INSTANTIATE_TEST_SUITE_P(
    PhysicalRows, GatherOracle,
    ::testing::Values(
        // Capped at a power of two: the mask path.
        std::make_tuple(uint64_t{1'000'000}, uint64_t{1024}, size_t{32}),
        // Capped at a non-power of two: the '%' path.
        std::make_tuple(uint64_t{1'000'000}, uint64_t{1000}, size_t{32}),
        // Uncapped: logical index is the physical row.
        std::make_tuple(uint64_t{700}, uint64_t{1} << 20, size_t{12})));

TEST(EmbeddingTableDeath, IndexPastLogicalRowsDies)
{
    Rng rng(32);
    const EmbeddingTable t(1000, 8, rng, 256);
    SparseBatch b;
    b.indices = {3, 999, 1000};
    b.offsets = {0, 2, 3};
    EXPECT_DEATH(t.bagForward(b, Pooling::Sum), "out of range");
    EXPECT_DEATH(t.gatherSequence(SparseBatch{{1000}, {0, 1}}),
                 "out of range");
}

/** Pooling output stays finite across lookup-count sweeps. */
class EmbeddingLookupSweep : public ::testing::TestWithParam<int>
{
};

TEST_P(EmbeddingLookupSweep, FiniteSumPooling)
{
    Rng rng(17);
    EmbeddingTable t(10'000, 16, rng, 1024);
    const size_t lookups = static_cast<size_t>(GetParam());
    const SparseBatch b = SparseBatch::uniform(8, lookups, 10'000, rng);
    const Tensor out = t.bagForward(b, Pooling::Sum);
    for (size_t i = 0; i < out.numel(); i++)
        EXPECT_TRUE(std::isfinite(out.at(i)));
}

INSTANTIATE_TEST_SUITE_P(Lookups, EmbeddingLookupSweep,
                         ::testing::Values(1, 4, 20, 80, 200));

} // namespace
} // namespace deeprecsys
