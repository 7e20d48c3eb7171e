/**
 * @file
 * Unit tests for fully-connected layers and MLP stacks.
 */

#include <cmath>
#include <gtest/gtest.h>
#include <tuple>
#include <vector>

#include "nn/mlp.hh"

namespace deeprecsys {
namespace {

TEST(FcLayer, ForwardShape)
{
    Rng rng(1);
    FcLayer layer(8, 4, Activation::Relu, rng);
    Tensor x = Tensor::mat(3, 8);
    Tensor out;
    layer.forward(x, out);
    EXPECT_EQ(out.dim(0), 3u);
    EXPECT_EQ(out.dim(1), 4u);
}

TEST(FcLayer, FlopsAndParamBytes)
{
    Rng rng(1);
    FcLayer layer(10, 20, Activation::None, rng);
    EXPECT_EQ(layer.flopsPerSample(), 2ull * 10 * 20);
    EXPECT_EQ(layer.paramBytes(), (10 * 20 + 20) * sizeof(float));
}

TEST(FcLayer, PaddedPanelsKeepLogicalSizes)
{
    // 17 outputs take two 16-wide panels; the padding is not counted.
    Rng rng(1);
    FcLayer layer(33, 17, Activation::None, rng);
    EXPECT_EQ(layer.inDim(), 33u);
    EXPECT_EQ(layer.outDim(), 17u);
    EXPECT_EQ(layer.flopsPerSample(), 2ull * 33 * 17);
    EXPECT_EQ(layer.paramBytes(), (33 * 17 + 17) * sizeof(float));
}

/**
 * The layer against a row-major reference drawn from the same seed in
 * the same order (Xavier-uniform, zero bias), summed in input order.
 * The kernel multiplies and adds separately in that same order, so the
 * outputs are bitwise equal, not just close.
 */
class FcLayerReference
    : public ::testing::TestWithParam<std::tuple<size_t, size_t, Activation>>
{
};

TEST_P(FcLayerReference, MatchesRowMajorReference)
{
    const auto [in, outs, act] = GetParam();
    Rng layer_rng(21);
    const FcLayer layer(in, outs, act, layer_rng);
    Rng ref_rng(21);
    const double bound = std::sqrt(6.0 / static_cast<double>(in + outs));
    std::vector<float> w(outs * in);
    for (float& v : w)
        v = static_cast<float>(ref_rng.uniform(-bound, bound));

    constexpr size_t batch = 6;
    Rng x_rng(22);
    Tensor x = Tensor::mat(batch, in);
    for (size_t i = 0; i < x.numel(); i++)
        x.at(i) = static_cast<float>(x_rng.uniform(-1.0, 1.0));
    Tensor out;
    layer.forward(x, out);
    ASSERT_EQ(out.dim(0), batch);
    ASSERT_EQ(out.dim(1), outs);
    for (size_t i = 0; i < batch; i++) {
        for (size_t j = 0; j < outs; j++) {
            float ref = 0.0f;
            for (size_t p = 0; p < in; p++)
                ref += x.at(i, p) * w[j * in + p];
            if (act == Activation::Relu)
                ref = ref > 0.0f ? ref : 0.0f;
            EXPECT_EQ(out.at(i, j), ref) << i << "," << j;
        }
    }
}

INSTANTIATE_TEST_SUITE_P(
    Shapes, FcLayerReference,
    ::testing::Values(std::make_tuple(1, 1, Activation::None),
                      std::make_tuple(8, 4, Activation::Relu),
                      std::make_tuple(33, 17, Activation::None),
                      std::make_tuple(64, 32, Activation::Relu),
                      std::make_tuple(100, 50, Activation::None)));

TEST(FcLayer, ReluOutputNonNegative)
{
    Rng rng(2);
    FcLayer layer(16, 16, Activation::Relu, rng);
    Tensor x = Tensor::mat(4, 16);
    for (size_t i = 0; i < x.numel(); i++)
        x.at(i) = static_cast<float>(rng.normal());
    Tensor out;
    layer.forward(x, out);
    for (size_t i = 0; i < out.numel(); i++)
        EXPECT_GE(out.at(i), 0.0f);
}

TEST(FcLayer, SigmoidOutputInUnitInterval)
{
    Rng rng(3);
    FcLayer layer(16, 1, Activation::Sigmoid, rng);
    Tensor x = Tensor::mat(8, 16);
    for (size_t i = 0; i < x.numel(); i++)
        x.at(i) = static_cast<float>(rng.normal(0.0, 3.0));
    Tensor out;
    layer.forward(x, out);
    for (size_t i = 0; i < out.numel(); i++) {
        EXPECT_GT(out.at(i), 0.0f);
        EXPECT_LT(out.at(i), 1.0f);
    }
}

TEST(Mlp, EmptyByDefault)
{
    Mlp mlp;
    EXPECT_TRUE(mlp.empty());
}

TEST(Mlp, LayerCountFollowsDims)
{
    Rng rng(4);
    Mlp mlp({256, 128, 32}, rng);
    EXPECT_EQ(mlp.numLayers(), 2u);
    EXPECT_EQ(mlp.inDim(), 256u);
    EXPECT_EQ(mlp.outDim(), 32u);
}

TEST(Mlp, ForwardShape)
{
    Rng rng(5);
    Mlp mlp({12, 8, 4}, rng);
    Tensor x = Tensor::mat(5, 12);
    const Tensor out = mlp.forward(x);
    EXPECT_EQ(out.dim(0), 5u);
    EXPECT_EQ(out.dim(1), 4u);
}

TEST(Mlp, DeterministicGivenSeed)
{
    Rng rng_a(6);
    Rng rng_b(6);
    Mlp a({8, 8, 2}, rng_a);
    Mlp b({8, 8, 2}, rng_b);
    Tensor x = Tensor::mat(2, 8);
    x.fill(0.3f);
    const Tensor out_a = a.forward(x);
    const Tensor out_b = b.forward(x);
    for (size_t i = 0; i < out_a.numel(); i++)
        EXPECT_FLOAT_EQ(out_a.at(i), out_b.at(i));
}

TEST(Mlp, DifferentSeedsDifferentWeights)
{
    Rng rng_a(7);
    Rng rng_b(8);
    Mlp a({8, 4}, rng_a);
    Mlp b({8, 4}, rng_b);
    Tensor x = Tensor::mat(1, 8);
    x.fill(1.0f);
    const Tensor out_a = a.forward(x);
    const Tensor out_b = b.forward(x);
    bool any_diff = false;
    for (size_t i = 0; i < out_a.numel(); i++)
        any_diff |= (out_a.at(i) != out_b.at(i));
    EXPECT_TRUE(any_diff);
}

TEST(Mlp, FlopsSumAcrossLayers)
{
    Rng rng(9);
    Mlp mlp({100, 50, 10}, rng);
    EXPECT_EQ(mlp.flopsPerSample(), 2ull * (100 * 50 + 50 * 10));
}

TEST(Mlp, ParamBytesSumAcrossLayers)
{
    Rng rng(10);
    Mlp mlp({100, 50, 10}, rng);
    const uint64_t expected =
        (100 * 50 + 50) * sizeof(float) + (50 * 10 + 10) * sizeof(float);
    EXPECT_EQ(mlp.paramBytes(), expected);
}

TEST(Mlp, ChargesTimeToFcClass)
{
    Rng rng(11);
    Mlp mlp({64, 64, 64}, rng);
    Tensor x = Tensor::mat(16, 64);
    OperatorStats stats;
    mlp.forward(x, &stats);
    EXPECT_GT(stats.seconds(OpClass::Fc), 0.0);
    EXPECT_DOUBLE_EQ(stats.seconds(OpClass::Embedding), 0.0);
}

TEST(Mlp, SigmoidFinalActivationBounded)
{
    Rng rng(12);
    Mlp mlp({16, 8, 1}, rng, Activation::Sigmoid);
    Tensor x = Tensor::mat(32, 16);
    for (size_t i = 0; i < x.numel(); i++)
        x.at(i) = static_cast<float>(rng.normal(0.0, 2.0));
    const Tensor out = mlp.forward(x);
    for (size_t i = 0; i < out.numel(); i++) {
        EXPECT_GT(out.at(i), 0.0f);
        EXPECT_LT(out.at(i), 1.0f);
    }
}

/** Forward pass works across a sweep of batch sizes. */
class MlpBatchSweep : public ::testing::TestWithParam<int>
{
};

TEST_P(MlpBatchSweep, ShapeAndFiniteness)
{
    Rng rng(13);
    Mlp mlp({32, 16, 4}, rng);
    const size_t batch = static_cast<size_t>(GetParam());
    Tensor x = Tensor::mat(batch, 32);
    for (size_t i = 0; i < x.numel(); i++)
        x.at(i) = static_cast<float>(rng.uniform(-1.0, 1.0));
    const Tensor out = mlp.forward(x);
    EXPECT_EQ(out.dim(0), batch);
    for (size_t i = 0; i < out.numel(); i++)
        EXPECT_TRUE(std::isfinite(out.at(i)));
}

INSTANTIATE_TEST_SUITE_P(Batches, MlpBatchSweep,
                         ::testing::Values(1, 2, 7, 16, 64, 256));

} // namespace
} // namespace deeprecsys
