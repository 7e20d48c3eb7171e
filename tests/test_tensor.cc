/**
 * @file
 * Unit tests for the dense tensor type and its kernels.
 */

#include <cmath>
#include <cstring>
#include <gtest/gtest.h>
#include <tuple>

#include "tensor/tensor.hh"

namespace deeprecsys {
namespace {

TEST(Tensor, DefaultIsEmpty)
{
    Tensor t;
    EXPECT_TRUE(t.empty());
    EXPECT_EQ(t.numel(), 0u);
    EXPECT_EQ(t.rank(), 0u);
}

TEST(Tensor, ZeroInitialized)
{
    Tensor t({3, 4});
    EXPECT_EQ(t.numel(), 12u);
    for (size_t i = 0; i < t.numel(); i++)
        EXPECT_FLOAT_EQ(t.at(i), 0.0f);
}

TEST(Tensor, ShapeAccessors)
{
    Tensor t({2, 3, 5});
    EXPECT_EQ(t.rank(), 3u);
    EXPECT_EQ(t.dim(0), 2u);
    EXPECT_EQ(t.dim(1), 3u);
    EXPECT_EQ(t.dim(2), 5u);
    EXPECT_EQ(t.rowSize(), 15u);
}

TEST(Tensor, MatrixIndexing)
{
    Tensor t = Tensor::mat(2, 3);
    t.at(1, 2) = 7.0f;
    EXPECT_FLOAT_EQ(t.at(1 * 3 + 2), 7.0f);
    EXPECT_FLOAT_EQ(t.row(1)[2], 7.0f);
}

TEST(Tensor, DataConstructorValidatesSize)
{
    Tensor t({2, 2}, {1, 2, 3, 4});
    EXPECT_FLOAT_EQ(t.at(1, 1), 4.0f);
}

TEST(Tensor, FillSetsAll)
{
    Tensor t({5});
    t.fill(2.5f);
    for (size_t i = 0; i < 5; i++)
        EXPECT_FLOAT_EQ(t.at(i), 2.5f);
}

TEST(Tensor, ReshapeKeepsData)
{
    Tensor t({2, 3}, {1, 2, 3, 4, 5, 6});
    t.reshape({3, 2});
    EXPECT_EQ(t.dim(0), 3u);
    EXPECT_FLOAT_EQ(t.at(0, 1), 2.0f);
    EXPECT_FLOAT_EQ(t.at(2, 1), 6.0f);
}

/** Pack a row-major [n, k] weight matrix (one output per row). */
PackedWeights
packRows(const Tensor& rows)
{
    PackedWeights w(rows.dim(0), rows.dim(1));
    for (size_t j = 0; j < rows.dim(0); j++)
        for (size_t p = 0; p < rows.dim(1); p++)
            w.at(j, p) = rows.at(j, p);
    return w;
}

TEST(MatmulBiasPacked, KnownValues)
{
    // a = [1 2; 3 4], b (stored row-per-output) = [1 1; 2 0],
    // bias = [10, 20].
    Tensor a({2, 2}, {1, 2, 3, 4});
    Tensor b({2, 2}, {1, 1, 2, 0});
    Tensor bias({2}, {10, 20});
    Tensor out;
    matmulBiasPacked(a, packRows(b), bias, out);
    // Row 0: [1+2+10, 2+0+20] = [13, 22]
    // Row 1: [3+4+10, 6+0+20] = [17, 26]
    EXPECT_FLOAT_EQ(out.at(0, 0), 13.0f);
    EXPECT_FLOAT_EQ(out.at(0, 1), 22.0f);
    EXPECT_FLOAT_EQ(out.at(1, 0), 17.0f);
    EXPECT_FLOAT_EQ(out.at(1, 1), 26.0f);
}

TEST(MatmulBiasPacked, IdentityPassThrough)
{
    Tensor a({1, 3}, {2, -1, 5});
    Tensor identity({3, 3}, {1, 0, 0, 0, 1, 0, 0, 0, 1});
    Tensor bias({3}, {0, 0, 0});
    Tensor out;
    matmulBiasPacked(a, packRows(identity), bias, out);
    EXPECT_FLOAT_EQ(out.at(0, 0), 2.0f);
    EXPECT_FLOAT_EQ(out.at(0, 1), -1.0f);
    EXPECT_FLOAT_EQ(out.at(0, 2), 5.0f);
}

TEST(MatmulBiasPacked, ReusesOutputBuffer)
{
    Tensor a({4, 8});
    const PackedWeights b(3, 8);
    Tensor bias({3});
    Tensor out;
    matmulBiasPacked(a, b, bias, out);
    const float* ptr = out.data();
    matmulBiasPacked(a, b, bias, out);
    EXPECT_EQ(out.data(), ptr);   // no reallocation on same shape
}

TEST(PackedWeights, PanelLayoutAndZeroPaddedTail)
{
    // 17 outputs over 3 inputs: a full panel and a tail panel with
    // one live column.
    PackedWeights w(17, 3);
    EXPECT_EQ(w.numPanels(), 2u);
    EXPECT_EQ(w.numel(), 17u * 3u);
    for (size_t j = 0; j < 17; j++)
        for (size_t p = 0; p < 3; p++)
            w.at(j, p) = static_cast<float>(100 * j + p + 1);
    // Panel q holds [k][16]: input p's weights for outputs 16q.. are
    // one contiguous row.
    EXPECT_EQ(w.panel(0)[2 * 16 + 5], w.at(5, 2));
    EXPECT_EQ(w.panel(1)[1 * 16 + 0], w.at(16, 1));
    for (size_t p = 0; p < 3; p++)
        for (size_t c = 1; c < 16; c++)
            EXPECT_EQ(w.panel(1)[p * 16 + c], 0.0f);
}

/** Deterministic values in [-1, 1) that are not small integers. */
float
oracleValue(size_t i, size_t salt)
{
    const uint64_t x = (i + 1) * 0x9e3779b97f4a7c15ULL ^ (salt << 32);
    return static_cast<float>(static_cast<double>(x >> 40) /
                              static_cast<double>(1ull << 23) - 1.0);
}

/** The kernel against a double-precision naive oracle. */
class PackedOracle
    : public ::testing::TestWithParam<std::tuple<size_t, size_t, size_t>>
{
  protected:
    void
    SetUp() override
    {
        std::tie(m, n, k) = GetParam();
        a = Tensor::mat(m, k);
        w = PackedWeights(n, k);
        bias = Tensor::vec(n);
        for (size_t i = 0; i < a.numel(); i++)
            a.at(i) = oracleValue(i, 1);
        for (size_t j = 0; j < n; j++)
            for (size_t p = 0; p < k; p++)
                w.at(j, p) = oracleValue(j * k + p, 2);
        for (size_t j = 0; j < n; j++)
            bias.at(j) = oracleValue(j, 3);
    }

    size_t m = 0;
    size_t n = 0;
    size_t k = 0;
    Tensor a;
    PackedWeights w;
    Tensor bias;
};

TEST_P(PackedOracle, AgreesWithDoubleReference)
{
    Tensor out;
    matmulBiasPacked(a, w, bias, out);
    ASSERT_EQ(out.dim(0), m);
    ASSERT_EQ(out.dim(1), n);
    for (size_t i = 0; i < m; i++) {
        for (size_t j = 0; j < n; j++) {
            double ref = bias.at(j);
            double mag = std::fabs(ref);
            for (size_t p = 0; p < k; p++) {
                const double term = static_cast<double>(a.at(i, p)) *
                    static_cast<double>(w.at(j, p));
                ref += term;
                mag += std::fabs(term);
            }
            // k rounded products summed in order in float32 err by at
            // most about (k + 2) * 2^-24 times the sum of magnitudes.
            EXPECT_NEAR(out.at(i, j), ref, 1.2e-7 * (k + 2) * mag)
                << i << "," << j;
        }
    }
}

TEST_P(PackedOracle, WidthsAreBitwiseEqual)
{
    if (!hostHasAvx2())
        GTEST_SKIP() << "host has no AVX2";
    Tensor narrow;
    Tensor wide;
    matmulBiasPacked16(a, w, bias, narrow);
    matmulBiasPacked32(a, w, bias, wide);
    ASSERT_EQ(narrow.numel(), wide.numel());
    EXPECT_EQ(std::memcmp(narrow.data(), wide.data(),
                          narrow.numel() * sizeof(float)),
              0);
}

INSTANTIATE_TEST_SUITE_P(
    Shapes, PackedOracle,
    ::testing::Combine(::testing::Values<size_t>(1, 2, 3, 4, 5, 17, 64),
                       ::testing::Values<size_t>(1, 15, 16, 17, 512),
                       ::testing::Values<size_t>(1, 7, 1056)));

TEST(Activations, ReluClampsNegatives)
{
    Tensor t({4}, {-1.0f, 0.0f, 2.0f, -3.5f});
    reluInPlace(t);
    EXPECT_FLOAT_EQ(t.at(0), 0.0f);
    EXPECT_FLOAT_EQ(t.at(1), 0.0f);
    EXPECT_FLOAT_EQ(t.at(2), 2.0f);
    EXPECT_FLOAT_EQ(t.at(3), 0.0f);
}

TEST(Activations, SigmoidRangeAndCenter)
{
    Tensor t({3}, {0.0f, 100.0f, -100.0f});
    sigmoidInPlace(t);
    EXPECT_FLOAT_EQ(t.at(0), 0.5f);
    EXPECT_NEAR(t.at(1), 1.0f, 1e-6);
    EXPECT_NEAR(t.at(2), 0.0f, 1e-6);
}

TEST(Activations, TanhOddSymmetry)
{
    Tensor t({2}, {1.5f, -1.5f});
    tanhInPlace(t);
    EXPECT_NEAR(t.at(0), -t.at(1), 1e-6);
    EXPECT_NEAR(t.at(0), std::tanh(1.5), 1e-6);
}

TEST(Softmax, RowsSumToOne)
{
    Tensor t({2, 4}, {1, 2, 3, 4, -1, 0, 1, 2});
    softmaxRows(t);
    for (size_t r = 0; r < 2; r++) {
        float sum = 0.0f;
        for (size_t c = 0; c < 4; c++) {
            EXPECT_GT(t.at(r, c), 0.0f);
            sum += t.at(r, c);
        }
        EXPECT_NEAR(sum, 1.0f, 1e-5);
    }
}

TEST(Softmax, LargeValuesAreStable)
{
    Tensor t({1, 3}, {1000.0f, 1000.0f, 1000.0f});
    softmaxRows(t);
    for (size_t c = 0; c < 3; c++)
        EXPECT_NEAR(t.at(0, c), 1.0f / 3.0f, 1e-5);
}

TEST(ConcatCols, JoinsWidths)
{
    Tensor a({2, 2}, {1, 2, 3, 4});
    Tensor b({2, 1}, {9, 8});
    const Tensor out = concatCols({&a, &b});
    EXPECT_EQ(out.dim(0), 2u);
    EXPECT_EQ(out.dim(1), 3u);
    EXPECT_FLOAT_EQ(out.at(0, 2), 9.0f);
    EXPECT_FLOAT_EQ(out.at(1, 0), 3.0f);
}

TEST(ConcatCols, SingleInputCopies)
{
    Tensor a({1, 3}, {1, 2, 3});
    const Tensor out = concatCols({&a});
    EXPECT_EQ(out.dim(1), 3u);
    EXPECT_FLOAT_EQ(out.at(0, 1), 2.0f);
}

TEST(ElementwiseSum, AddsAll)
{
    Tensor a({2, 2}, {1, 2, 3, 4});
    Tensor b({2, 2}, {10, 20, 30, 40});
    Tensor c({2, 2}, {100, 200, 300, 400});
    const Tensor out = elementwiseSum({&a, &b, &c});
    EXPECT_FLOAT_EQ(out.at(0, 0), 111.0f);
    EXPECT_FLOAT_EQ(out.at(1, 1), 444.0f);
}

TEST(ElementwiseMul, Hadamard)
{
    Tensor a({1, 3}, {2, 3, 4});
    Tensor b({1, 3}, {5, 6, 7});
    Tensor out;
    elementwiseMul(a, b, out);
    EXPECT_FLOAT_EQ(out.at(0, 0), 10.0f);
    EXPECT_FLOAT_EQ(out.at(0, 1), 18.0f);
    EXPECT_FLOAT_EQ(out.at(0, 2), 28.0f);
}

TEST(RowwiseDot, PerRowInnerProduct)
{
    Tensor a({2, 3}, {1, 2, 3, 4, 5, 6});
    Tensor b({2, 3}, {1, 1, 1, 2, 2, 2});
    const Tensor out = rowwiseDot(a, b);
    EXPECT_EQ(out.dim(0), 2u);
    EXPECT_EQ(out.dim(1), 1u);
    EXPECT_FLOAT_EQ(out.at(0, 0), 6.0f);
    EXPECT_FLOAT_EQ(out.at(1, 0), 30.0f);
}

/** Matmul agrees with a naive reference over random shapes. */
class MatmulShapes
    : public ::testing::TestWithParam<std::tuple<int, int, int>>
{
};

TEST_P(MatmulShapes, AgreesWithReference)
{
    const auto [m, k, n] = GetParam();
    Tensor a({static_cast<size_t>(m), static_cast<size_t>(k)});
    Tensor b({static_cast<size_t>(n), static_cast<size_t>(k)});
    Tensor bias({static_cast<size_t>(n)});
    for (size_t i = 0; i < a.numel(); i++)
        a.at(i) = static_cast<float>(static_cast<int>(i % 7) - 3);
    for (size_t i = 0; i < b.numel(); i++)
        b.at(i) = static_cast<float>(static_cast<int>(i % 5) - 2);
    for (size_t i = 0; i < bias.numel(); i++)
        bias.at(i) = static_cast<float>(i);

    Tensor out;
    matmulBiasPacked(a, packRows(b), bias, out);

    for (int i = 0; i < m; i++) {
        for (int j = 0; j < n; j++) {
            float ref = bias.at(j);
            for (int p = 0; p < k; p++)
                ref += a.at(i, p) * b.at(j, p);
            EXPECT_NEAR(out.at(i, j), ref, 1e-3) << i << "," << j;
        }
    }
}

INSTANTIATE_TEST_SUITE_P(
    Shapes, MatmulShapes,
    ::testing::Values(std::make_tuple(1, 1, 1), std::make_tuple(1, 8, 4),
                      std::make_tuple(3, 5, 7), std::make_tuple(16, 32, 8),
                      std::make_tuple(2, 64, 2),
                      std::make_tuple(33, 17, 9)));

} // namespace
} // namespace deeprecsys
