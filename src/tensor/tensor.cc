#include "tensor.hh"

#include <algorithm>
#include <cmath>
#include <cstring>
#include <numeric>

namespace deeprecsys {

namespace {

size_t
shapeNumel(const std::vector<size_t>& shape)
{
    size_t n = 1;
    for (size_t d : shape)
        n *= d;
    return shape.empty() ? 0 : n;
}

} // namespace

Tensor::Tensor(std::vector<size_t> shape)
    : shape_(std::move(shape)), data_(shapeNumel(shape_), 0.0f)
{
    drs_assert(shape_.size() >= 1 && shape_.size() <= 3,
               "tensor rank must be 1..3, got ", shape_.size());
}

Tensor::Tensor(std::vector<size_t> shape, std::vector<float> data)
    : shape_(std::move(shape)), data_(std::move(data))
{
    drs_assert(shape_.size() >= 1 && shape_.size() <= 3,
               "tensor rank must be 1..3, got ", shape_.size());
    drs_assert(data_.size() == shapeNumel(shape_),
               "data size ", data_.size(), " does not match shape numel ",
               shapeNumel(shape_));
}

float&
Tensor::at(size_t i)
{
    drs_assert(i < data_.size(), "flat index out of range");
    return data_[i];
}

float
Tensor::at(size_t i) const
{
    drs_assert(i < data_.size(), "flat index out of range");
    return data_[i];
}

float&
Tensor::at(size_t r, size_t c)
{
    drs_assert(rank() == 2, "2-index access on non-matrix");
    drs_assert(r < shape_[0] && c < shape_[1], "matrix index out of range");
    return data_[r * shape_[1] + c];
}

float
Tensor::at(size_t r, size_t c) const
{
    drs_assert(rank() == 2, "2-index access on non-matrix");
    drs_assert(r < shape_[0] && c < shape_[1], "matrix index out of range");
    return data_[r * shape_[1] + c];
}

float*
Tensor::row(size_t r)
{
    drs_assert(rank() >= 2, "row access on rank-1 tensor");
    drs_assert(r < shape_[0], "row index out of range");
    return data_.data() + r * rowSize();
}

const float*
Tensor::row(size_t r) const
{
    drs_assert(rank() >= 2, "row access on rank-1 tensor");
    drs_assert(r < shape_[0], "row index out of range");
    return data_.data() + r * rowSize();
}

size_t
Tensor::rowSize() const
{
    drs_assert(rank() >= 2, "rowSize on rank-1 tensor");
    size_t n = 1;
    for (size_t d = 1; d < shape_.size(); d++)
        n *= shape_[d];
    return n;
}

void
Tensor::fill(float value)
{
    std::fill(data_.begin(), data_.end(), value);
}

void
Tensor::reshape(std::vector<size_t> new_shape)
{
    drs_assert(shapeNumel(new_shape) == data_.size(),
               "reshape changes element count");
    shape_ = std::move(new_shape);
}

PackedWeights::PackedWeights(size_t n, size_t k)
    : n_(n), k_(k), data_(numPanels() * k * kPanelWidth, 0.0f)
{
}

float&
PackedWeights::at(size_t j, size_t p)
{
    return data_[index(j, p)];
}

float
PackedWeights::at(size_t j, size_t p) const
{
    return data_[index(j, p)];
}

size_t
PackedWeights::index(size_t j, size_t p) const
{
    drs_assert(j < n_ && p < k_, "weight index out of range");
    return (j / kPanelWidth * k_ + p) * kPanelWidth + j % kPanelWidth;
}

const float*
PackedWeights::panel(size_t q) const
{
    drs_assert(q < numPanels(), "panel index out of range");
    return data_.data() + q * k_ * kPanelWidth;
}

namespace {

constexpr size_t kPanel = PackedWeights::kPanelWidth;

/**
 * One block of R rows of A against one panel: R x 16 sums held in
 * vectors of V, started at the bias and accumulated over p. Values
 * move between memory and vectors one vector per memcpy, which
 * compiles to an unaligned vector load or store and leaves the sums
 * in registers (a memcpy of a whole array would pin it to the stack).
 */
template <typename V, size_t R>
[[gnu::always_inline]] inline void
panelBlock(const float* a, size_t k, const float* panel,
           const float* bias, float* out, size_t n, size_t cols)
{
    constexpr size_t per_panel = sizeof(float) * kPanel / sizeof(V);
    constexpr size_t lanes = sizeof(V) / sizeof(float);
    V acc[R][per_panel];
    for (size_t r = 0; r < R; r++)
        for (size_t v = 0; v < per_panel; v++)
            std::memcpy(&acc[r][v], bias + v * lanes, sizeof(V));
    for (size_t p = 0; p < k; p++) {
        V w[per_panel];
        for (size_t v = 0; v < per_panel; v++)
            std::memcpy(&w[v], panel + p * kPanel + v * lanes, sizeof(V));
        for (size_t r = 0; r < R; r++) {
            const float x = a[r * k + p];
            for (size_t v = 0; v < per_panel; v++)
                acc[r][v] += w[v] * x;
        }
    }
    for (size_t r = 0; r < R; r++) {
        if (cols == kPanel) {
            for (size_t v = 0; v < per_panel; v++)
                std::memcpy(out + r * n + v * lanes, &acc[r][v], sizeof(V));
        } else {
            float row[kPanel];
            for (size_t v = 0; v < per_panel; v++)
                std::memcpy(row + v * lanes, &acc[r][v], sizeof(V));
            std::copy(row, row + cols, out + r * n);
        }
    }
}

/** The kernel over vectors of V; both instantiations inline it. */
template <typename V>
[[gnu::always_inline]] inline void
packedKernel(const Tensor& a, const PackedWeights& w, const Tensor& bias,
             Tensor& out)
{
    drs_assert(a.rank() == 2, "matmul needs a matrix input");
    const size_t m = a.dim(0);
    const size_t k = a.dim(1);
    const size_t n = w.outDim();
    drs_assert(w.inDim() == k, "inner dimensions mismatch: ", k, " vs ",
               w.inDim());
    drs_assert(bias.numel() == n, "bias size mismatch");
    if (out.rank() != 2 || out.dim(0) != m || out.dim(1) != n)
        out = Tensor::mat(m, n);

    const float* a_data = a.data();
    float* out_data = out.data();
    for (size_t q = 0; q < w.numPanels(); q++) {
        const size_t j0 = q * kPanel;
        const size_t cols = std::min(kPanel, n - j0);
        float panel_bias[kPanel] = {};
        std::copy(bias.data() + j0, bias.data() + j0 + cols, panel_bias);
        const float* panel = w.panel(q);
        float* out_col = out_data + j0;
        size_t i = 0;
        for (; i + 4 <= m; i += 4)
            panelBlock<V, 4>(a_data + i * k, k, panel, panel_bias,
                             out_col + i * n, n, cols);
        switch (m - i) {
          case 3:
            panelBlock<V, 3>(a_data + i * k, k, panel, panel_bias,
                             out_col + i * n, n, cols);
            break;
          case 2:
            panelBlock<V, 2>(a_data + i * k, k, panel, panel_bias,
                             out_col + i * n, n, cols);
            break;
          case 1:
            panelBlock<V, 1>(a_data + i * k, k, panel, panel_bias,
                             out_col + i * n, n, cols);
            break;
        }
    }
}

typedef float Float16B __attribute__((vector_size(16)));
typedef float Float32B __attribute__((vector_size(32)));

} // namespace

void
matmulBiasPacked16(const Tensor& a, const PackedWeights& w,
                   const Tensor& bias, Tensor& out)
{
    packedKernel<Float16B>(a, w, bias, out);
}

#if defined(__x86_64__) || defined(__i386__)

[[gnu::target("avx2")]] void
matmulBiasPacked32(const Tensor& a, const PackedWeights& w,
                   const Tensor& bias, Tensor& out)
{
    packedKernel<Float32B>(a, w, bias, out);
}

bool
hostHasAvx2()
{
    return __builtin_cpu_supports("avx2");
}

#else

void
matmulBiasPacked32(const Tensor&, const PackedWeights&, const Tensor&,
                   Tensor&)
{
    drs_panic("the AVX2 kernel needs an x86 build");
}

bool
hostHasAvx2()
{
    return false;
}

#endif

void
matmulBiasPacked(const Tensor& a, const PackedWeights& w, const Tensor& bias,
                 Tensor& out)
{
    static const bool avx2 = hostHasAvx2();
    if (avx2)
        matmulBiasPacked32(a, w, bias, out);
    else
        matmulBiasPacked16(a, w, bias, out);
}

void
reluInPlace(Tensor& t)
{
    float* d = t.data();
    for (size_t i = 0; i < t.numel(); i++)
        d[i] = d[i] > 0.0f ? d[i] : 0.0f;
}

void
sigmoidInPlace(Tensor& t)
{
    float* d = t.data();
    for (size_t i = 0; i < t.numel(); i++)
        d[i] = 1.0f / (1.0f + std::exp(-d[i]));
}

void
tanhInPlace(Tensor& t)
{
    float* d = t.data();
    for (size_t i = 0; i < t.numel(); i++)
        d[i] = std::tanh(d[i]);
}

void
softmaxRows(Tensor& t)
{
    drs_assert(t.rank() == 2, "softmaxRows needs a matrix");
    const size_t rows = t.dim(0);
    const size_t cols = t.dim(1);
    for (size_t r = 0; r < rows; r++) {
        float* row = t.row(r);
        float mx = row[0];
        for (size_t c = 1; c < cols; c++)
            mx = std::max(mx, row[c]);
        float sum = 0.0f;
        for (size_t c = 0; c < cols; c++) {
            row[c] = std::exp(row[c] - mx);
            sum += row[c];
        }
        for (size_t c = 0; c < cols; c++)
            row[c] /= sum;
    }
}

Tensor
concatCols(const std::vector<const Tensor*>& parts)
{
    drs_assert(!parts.empty(), "concat of zero tensors");
    const size_t rows = parts.front()->dim(0);
    size_t cols = 0;
    for (const Tensor* p : parts) {
        drs_assert(p->rank() == 2, "concatCols needs matrices");
        drs_assert(p->dim(0) == rows, "concatCols row count mismatch");
        cols += p->dim(1);
    }
    Tensor out = Tensor::mat(rows, cols);
    for (size_t r = 0; r < rows; r++) {
        float* dst = out.row(r);
        for (const Tensor* p : parts) {
            const float* src = p->row(r);
            dst = std::copy(src, src + p->dim(1), dst);
        }
    }
    return out;
}

Tensor
elementwiseSum(const std::vector<const Tensor*>& parts)
{
    drs_assert(!parts.empty(), "sum of zero tensors");
    Tensor out = *parts.front();
    for (size_t i = 1; i < parts.size(); i++) {
        const Tensor* p = parts[i];
        drs_assert(p->numel() == out.numel(), "elementwiseSum shape mismatch");
        float* dst = out.data();
        const float* src = p->data();
        for (size_t j = 0; j < out.numel(); j++)
            dst[j] += src[j];
    }
    return out;
}

void
elementwiseMul(const Tensor& a, const Tensor& b, Tensor& out)
{
    drs_assert(a.numel() == b.numel(), "elementwiseMul shape mismatch");
    if (out.numel() != a.numel())
        out = a;
    const float* pa = a.data();
    const float* pb = b.data();
    float* po = out.data();
    for (size_t i = 0; i < a.numel(); i++)
        po[i] = pa[i] * pb[i];
}

Tensor
rowwiseDot(const Tensor& a, const Tensor& b)
{
    drs_assert(a.rank() == 2 && b.rank() == 2, "rowwiseDot needs matrices");
    drs_assert(a.dim(0) == b.dim(0) && a.dim(1) == b.dim(1),
               "rowwiseDot shape mismatch");
    Tensor out = Tensor::mat(a.dim(0), 1);
    for (size_t r = 0; r < a.dim(0); r++) {
        const float* pa = a.row(r);
        const float* pb = b.row(r);
        float acc = 0.0f;
        for (size_t c = 0; c < a.dim(1); c++)
            acc += pa[c] * pb[c];
        out.at(r, 0) = acc;
    }
    return out;
}

} // namespace deeprecsys
