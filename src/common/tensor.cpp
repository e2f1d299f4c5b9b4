#include "common/tensor.h"

#include <cmath>

namespace nsflow {
namespace {

std::int64_t ComputeNumel(const Tensor::Shape& shape) {
  std::int64_t numel = 1;
  for (const auto d : shape) {
    NSF_CHECK_MSG(d >= 0, "tensor dimensions must be non-negative");
    numel *= d;
  }
  return numel;
}

}  // namespace

Tensor::Tensor(Shape shape)
    : shape_(std::move(shape)),
      numel_(ComputeNumel(shape_)),
      data_(static_cast<std::size_t>(numel_), 0.0f) {
  allocations_.fetch_add(1, std::memory_order_relaxed);
}

Tensor::Tensor(Shape shape, std::vector<float> data)
    : shape_(std::move(shape)), numel_(ComputeNumel(shape_)),
      data_(std::move(data)) {
  NSF_CHECK_MSG(static_cast<std::int64_t>(data_.size()) == numel_,
                "data size does not match shape");
  allocations_.fetch_add(1, std::memory_order_relaxed);
}

Tensor::Tensor(const Tensor& other)
    : shape_(other.shape_), numel_(other.numel_), data_(other.data_) {
  allocations_.fetch_add(1, std::memory_order_relaxed);
}

Tensor& Tensor::operator=(const Tensor& other) {
  if (this != &other) {
    shape_ = other.shape_;
    numel_ = other.numel_;
    data_ = other.data_;
    allocations_.fetch_add(1, std::memory_order_relaxed);
  }
  return *this;
}

Tensor Tensor::Full(Shape shape, float value) {
  Tensor t(std::move(shape));
  std::fill(t.data_.begin(), t.data_.end(), value);
  return t;
}

std::int64_t Tensor::dim(std::int64_t axis) const {
  NSF_CHECK(axis >= 0 && axis < rank());
  return shape_[static_cast<std::size_t>(axis)];
}

float& Tensor::at2(std::int64_t row, std::int64_t col) {
  NSF_DCHECK(rank() == 2);
  NSF_DCHECK(row >= 0 && row < shape_[0] && col >= 0 && col < shape_[1]);
  return data_[static_cast<std::size_t>(row * shape_[1] + col)];
}

float Tensor::at2(std::int64_t row, std::int64_t col) const {
  NSF_DCHECK(rank() == 2);
  NSF_DCHECK(row >= 0 && row < shape_[0] && col >= 0 && col < shape_[1]);
  return data_[static_cast<std::size_t>(row * shape_[1] + col)];
}

Tensor Tensor::Reshaped(Shape new_shape) const& {
  NSF_CHECK_MSG(ComputeNumel(new_shape) == numel_,
                "reshape must preserve element count");
  return Tensor(std::move(new_shape), data_);
}

Tensor Tensor::Reshaped(Shape new_shape) && {
  NSF_CHECK_MSG(ComputeNumel(new_shape) == numel_,
                "reshape must preserve element count");
  return Tensor(std::move(new_shape), std::move(data_));
}

Tensor& Tensor::operator+=(const Tensor& other) {
  NSF_CHECK_MSG(shape_ == other.shape_, "shape mismatch in Tensor::operator+=");
  for (std::size_t i = 0; i < data_.size(); ++i) {
    data_[i] += other.data_[i];
  }
  return *this;
}

Tensor& Tensor::operator*=(float scalar) {
  for (auto& v : data_) {
    v *= scalar;
  }
  return *this;
}

float Tensor::Dot(const Tensor& other) const {
  NSF_CHECK_MSG(numel_ == other.numel_, "element count mismatch in Dot");
  double acc = 0.0;
  for (std::size_t i = 0; i < data_.size(); ++i) {
    acc += static_cast<double>(data_[i]) * static_cast<double>(other.data_[i]);
  }
  return static_cast<float>(acc);
}

float Tensor::Norm() const {
  double acc = 0.0;
  for (const auto v : data_) {
    acc += static_cast<double>(v) * static_cast<double>(v);
  }
  return static_cast<float>(std::sqrt(acc));
}

float Tensor::MaxAbs() const {
  float m = 0.0f;
  for (const auto v : data_) {
    m = std::max(m, std::abs(v));
  }
  return m;
}

Tensor MatMul(const Tensor& a, const Tensor& b) {
  NSF_CHECK_MSG(a.rank() == 2 && b.rank() == 2, "MatMul expects rank-2 inputs");
  const std::int64_t m = a.dim(0);
  const std::int64_t n = a.dim(1);
  NSF_CHECK_MSG(b.dim(0) == n, "inner dimensions must agree");
  const std::int64_t k = b.dim(1);

  Tensor c({m, k});
  for (std::int64_t i = 0; i < m; ++i) {
    const float* a_row = a.row(i);
    float* c_row = c.row(i);
    for (std::int64_t j = 0; j < n; ++j) {
      const float aij = a_row[j];
      if (aij == 0.0f) {
        continue;  // Sparse activations skip whole B rows.
      }
      const float* b_row = b.row(j);
      for (std::int64_t l = 0; l < k; ++l) {
        c_row[l] += aij * b_row[l];
      }
    }
  }
  return c;
}

}  // namespace nsflow
