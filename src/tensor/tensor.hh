/**
 * @file
 * Minimal dense float32 tensor used by the NN substrate.
 *
 * Recommendation inference needs only rank-1/2/3 dense tensors; this
 * keeps the type simple: contiguous row-major storage, value semantics,
 * and explicit shape checks that panic on misuse (internal invariants).
 * Fully-connected weights are the one exception to row-major: they
 * live as PackedWeights, the panel layout the FC kernel
 * matmulBiasPacked streams.
 */

#ifndef DRS_TENSOR_TENSOR_HH
#define DRS_TENSOR_TENSOR_HH

#include <cstddef>
#include <initializer_list>
#include <vector>

#include "base/logging.hh"

namespace deeprecsys {

/** Dense row-major float32 tensor of rank 1..3. */
class Tensor
{
  public:
    /** Empty (rank-0, zero elements) tensor. */
    Tensor() = default;

    /** Zero-filled tensor with the given shape. */
    explicit Tensor(std::vector<size_t> shape);

    /** Tensor with the given shape and flat data (size must match). */
    Tensor(std::vector<size_t> shape, std::vector<float> data);

    /** Convenience rank-1 constructor. */
    static Tensor vec(size_t n) { return Tensor({n}); }

    /** Convenience rank-2 constructor. */
    static Tensor mat(size_t rows, size_t cols)
    {
        return Tensor({rows, cols});
    }

    /** Number of dimensions. */
    size_t rank() const { return shape_.size(); }

    /** Size along the given dimension. */
    size_t
    dim(size_t d) const
    {
        drs_assert(d < shape_.size(), "dim index out of range");
        return shape_[d];
    }

    /** Full shape vector. */
    const std::vector<size_t>& shape() const { return shape_; }

    /** Total number of elements. */
    size_t numel() const { return data_.size(); }

    /** True when the tensor holds no elements. */
    bool empty() const { return data_.empty(); }

    /** Flat element access. */
    float& at(size_t i);
    float at(size_t i) const;

    /** Rank-2 element access (row, col). */
    float& at(size_t r, size_t c);
    float at(size_t r, size_t c) const;

    /** Raw pointer to contiguous storage. */
    float* data() { return data_.data(); }
    const float* data() const { return data_.data(); }

    /** Pointer to the start of row r (rank >= 2). */
    float* row(size_t r);
    const float* row(size_t r) const;

    /** Elements per row for rank >= 2 tensors. */
    size_t rowSize() const;

    /** Fill every element with the given value. */
    void fill(float value);

    /**
     * Reinterpret the flat data with a new shape of identical numel.
     */
    void reshape(std::vector<size_t> new_shape);

  private:
    std::vector<size_t> shape_;
    std::vector<float> data_;
};

/**
 * The weights of a fully-connected layer with n outputs and k inputs,
 * stored only as column panels. Panel q holds outputs
 * [16q, 16q + 16) as [k][16], so the 16 weights one input feeds are
 * one contiguous 64-byte row and a whole panel is read front to back
 * once per block of batch rows. The tail panel is zero-padded.
 */
class PackedWeights
{
  public:
    /** Outputs per panel. */
    static constexpr size_t kPanelWidth = 16;

    /** No weights. */
    PackedWeights() = default;

    /** Zero-filled weights for @p n outputs over @p k inputs. */
    PackedWeights(size_t n, size_t k);

    /** Number of outputs (rows of the logical [n, k] matrix). */
    size_t outDim() const { return n_; }

    /** Number of inputs (columns of the logical [n, k] matrix). */
    size_t inDim() const { return k_; }

    /** Number of panels, ceil(n / 16). */
    size_t numPanels() const { return (n_ + kPanelWidth - 1) / kPanelWidth; }

    /** Logical elements n * k (the padding is not counted). */
    size_t numel() const { return n_ * k_; }

    /** Weight from input @p p to output @p j. */
    float& at(size_t j, size_t p);
    float at(size_t j, size_t p) const;

    /** Start of panel @p q: k rows of kPanelWidth floats. */
    const float* panel(size_t q) const;

  private:
    /** Offset of weight (j, p) in data_, range-checked. */
    size_t index(size_t j, size_t p) const;

    size_t n_ = 0;
    size_t k_ = 0;
    std::vector<float> data_;   ///< numPanels() x k x kPanelWidth
};

/**
 * C = A * W^T + bias, the fully-connected primitive.
 *
 * A is [m, k] (a batch of activations), W is [n, k] packed into
 * panels, bias is [n] and broadcast over rows; out becomes [m, n]
 * and keeps its buffer when it already has that shape. The kernel
 * walks panels in the outer loop and blocks of 4 rows of A in the
 * inner loop, keeping each 4 x 16 block of sums in vector registers.
 * Every output is bias + sum_p a[i][p] * w[j][p], added in order of
 * p with a separate multiply and add (no FMA), so the result does
 * not depend on the vector width that computed it.
 */
void matmulBiasPacked(const Tensor& a, const PackedWeights& w,
                      const Tensor& bias, Tensor& out);

/**
 * The two instantiations matmulBiasPacked picks from: 16-byte
 * vectors (every build) and 32-byte AVX2 vectors (x86 hosts that
 * have AVX2; call matmulBiasPacked32 only when hostHasAvx2()). Their
 * outputs are bitwise equal. Exposed so a test can compare them.
 */
void matmulBiasPacked16(const Tensor& a, const PackedWeights& w,
                        const Tensor& bias, Tensor& out);
void matmulBiasPacked32(const Tensor& a, const PackedWeights& w,
                        const Tensor& bias, Tensor& out);

/** True on an x86 host whose CPU runs AVX2. */
bool hostHasAvx2();

/** In-place ReLU. */
void reluInPlace(Tensor& t);

/** In-place logistic sigmoid. */
void sigmoidInPlace(Tensor& t);

/** In-place tanh. */
void tanhInPlace(Tensor& t);

/** Row-wise softmax over a rank-2 tensor. */
void softmaxRows(Tensor& t);

/**
 * Concatenate rank-2 tensors along columns. All inputs must share the
 * same row count.
 */
Tensor concatCols(const std::vector<const Tensor*>& parts);

/** Elementwise sum of equally-shaped tensors. */
Tensor elementwiseSum(const std::vector<const Tensor*>& parts);

/** Elementwise product of two equally-shaped tensors into out. */
void elementwiseMul(const Tensor& a, const Tensor& b, Tensor& out);

/** Row-wise dot product of two [m, k] tensors producing [m, 1]. */
Tensor rowwiseDot(const Tensor& a, const Tensor& b);

} // namespace deeprecsys

#endif // DRS_TENSOR_TENSOR_HH
