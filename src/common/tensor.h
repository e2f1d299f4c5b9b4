// Dense row-major float tensor.
//
// This is the functional-simulation data type: the VSA library, the workload
// reference implementations, and the AdArray functional model all move data
// through `Tensor`. It is intentionally a plain value type (Core Guidelines
// C.10): shape + contiguous storage, no views, no autograd.
#pragma once

#include <atomic>
#include <cstdint>
#include <numeric>
#include <vector>

#include "common/error.h"

namespace nsflow {

class Tensor {
 public:
  using Shape = std::vector<std::int64_t>;

  Tensor() = default;

  /// Zero-initialized tensor of the given shape.
  explicit Tensor(Shape shape);

  /// Tensor with explicit contents; `data.size()` must equal the element count.
  Tensor(Shape shape, std::vector<float> data);

  // Copies count as buffer materializations (see allocation_count());
  // moves transfer storage and count nothing.
  Tensor(const Tensor& other);
  Tensor& operator=(const Tensor& other);
  Tensor(Tensor&&) noexcept = default;
  Tensor& operator=(Tensor&&) noexcept = default;
  ~Tensor() = default;

  static Tensor Full(Shape shape, float value);

  /// Process-wide count of tensor-buffer materializations (shape/data
  /// constructions and copies; moves and default constructions excluded).
  /// The fast-path contract test (tests/fastpath_test.cpp) samples this to
  /// prove the timing-only estimator never allocates tensor data.
  static std::int64_t allocation_count() {
    return allocations_.load(std::memory_order_relaxed);
  }

  const Shape& shape() const { return shape_; }
  std::int64_t rank() const { return static_cast<std::int64_t>(shape_.size()); }
  std::int64_t dim(std::int64_t axis) const;
  std::int64_t numel() const { return numel_; }
  std::size_t byte_size() const { return data_.size() * sizeof(float); }

  float* data() { return data_.data(); }
  const float* data() const { return data_.data(); }
  std::vector<float>& storage() { return data_; }
  const std::vector<float>& storage() const { return data_; }

  /// Flat element access with bounds checking in debug builds.
  float& at(std::int64_t flat_index) {
    NSF_DCHECK(flat_index >= 0 && flat_index < numel_);
    return data_[static_cast<std::size_t>(flat_index)];
  }
  float at(std::int64_t flat_index) const {
    NSF_DCHECK(flat_index >= 0 && flat_index < numel_);
    return data_[static_cast<std::size_t>(flat_index)];
  }

  /// 2-D access (rank must be 2).
  float& at2(std::int64_t row, std::int64_t col);
  float at2(std::int64_t row, std::int64_t col) const;

  /// Raw row pointer (rank must be 2): hot loops walk rows directly instead
  /// of paying per-element index arithmetic through at2().
  float* row(std::int64_t r) {
    NSF_DCHECK(rank() == 2 && r >= 0 && r < shape_[0]);
    return data_.data() + static_cast<std::size_t>(r * shape_[1]);
  }
  const float* row(std::int64_t r) const {
    NSF_DCHECK(rank() == 2 && r >= 0 && r < shape_[0]);
    return data_.data() + static_cast<std::size_t>(r * shape_[1]);
  }

  /// Returns a reshaped tensor; element count must match. The lvalue
  /// overload copies the storage; the rvalue overload moves it (no buffer
  /// copy), so workload builders can chain `Tensor{...}.Reshaped(...)` for
  /// free.
  Tensor Reshaped(Shape new_shape) const&;
  Tensor Reshaped(Shape new_shape) &&;

  /// Elementwise helpers used across the reasoning stack.
  Tensor& operator+=(const Tensor& other);
  Tensor& operator*=(float scalar);
  float Dot(const Tensor& other) const;
  float Norm() const;
  float MaxAbs() const;

  friend bool operator==(const Tensor& a, const Tensor& b) {
    return a.shape_ == b.shape_ && a.data_ == b.data_;
  }

 private:
  inline static std::atomic<std::int64_t> allocations_{0};

  Shape shape_;
  std::int64_t numel_ = 0;
  std::vector<float> data_;
};

/// Reference dense GEMM: C[m,k] = A[m,n] * B[n,k]. The golden model that the
/// AdArray functional simulation is tested against.
Tensor MatMul(const Tensor& a, const Tensor& b);

}  // namespace nsflow
