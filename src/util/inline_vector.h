#ifndef IPDB_UTIL_INLINE_VECTOR_H_
#define IPDB_UTIL_INLINE_VECTOR_H_

#include <array>
#include <cstddef>
#include <iterator>
#include <span>
#include <utility>
#include <vector>

namespace ipdb {

/// A growable array that keeps its first N elements inside the object and
/// moves all of them to the heap once it grows past N. An object that
/// stays small allocates and frees nothing, which is what lets a compiled
/// lifted plan be built, copied and destroyed without touching the heap.
/// Elements are contiguous either way.
template <typename T, size_t N>
class InlineVector {
 public:
  InlineVector() = default;
  /// `n` value-initialized elements.
  explicit InlineVector(size_t n) {
    if (n > N) heap_.resize(n);
    size_ = n;
  }

  size_t size() const { return size_; }
  bool empty() const { return size_ == 0; }

  T* data() { return size_ <= N ? inline_.data() : heap_.data(); }
  const T* data() const { return size_ <= N ? inline_.data() : heap_.data(); }
  T& operator[](size_t i) { return data()[i]; }
  const T& operator[](size_t i) const { return data()[i]; }
  T* begin() { return data(); }
  T* end() { return data() + size_; }
  const T* begin() const { return data(); }
  const T* end() const { return data() + size_; }
  std::span<const T> span() const { return {data(), size_}; }

  void push_back(T value) {
    if (size_ < N) {
      inline_[size_++] = std::move(value);
      return;
    }
    if (size_ == N) {
      heap_.assign(std::make_move_iterator(inline_.begin()),
                   std::make_move_iterator(inline_.end()));
    }
    heap_.push_back(std::move(value));
    ++size_;
  }

 private:
  std::array<T, N> inline_{};
  /// Holds every element once size_ > N; empty before.
  std::vector<T> heap_;
  size_t size_ = 0;
};

}  // namespace ipdb

#endif  // IPDB_UTIL_INLINE_VECTOR_H_
