#pragma once
/// \file buffer.hpp
/// \brief Reference-counted byte buffers.
///
/// Data entries on the blackboard and blocks in VMPI streams are opaque
/// byte payloads. The paper manages blackboard data with a ref-counting
/// scheme where a payload is writable only while its ref-counter equals
/// one (Section III-B); Buffer exposes exactly that rule.
///
/// A Buffer is either *owning* (a byte vector) or a *view*: a window into
/// another buffer that holds the parent alive. Views are how the zero-copy
/// unpacker hands event runs to knowledge sources without copying them out
/// of the stream block — the block's refcount falls only when the last
/// view over it is released (DESIGN.md "Hot path memory model").

#include <cstddef>
#include <cstdint>
#include <cstring>
#include <memory>
#include <span>
#include <stdexcept>
#include <vector>

namespace esp {

class Buffer;
using BufferRef = std::shared_ptr<Buffer>;

/// An owning, shareable blob of bytes — or a borrowed window into one.
///
/// Copying a BufferRef only bumps a reference count; the payload itself is
/// shared. `writable()` is true only for the unique owner, mirroring the
/// paper's "writable iff ref-counter == 1" rule. Views are read-only by
/// convention: their bytes belong to the parent.
class Buffer {
 public:
  Buffer() = default;
  explicit Buffer(std::size_t size) : bytes_(size) {}
  explicit Buffer(std::span<const std::byte> data)
      : bytes_(data.begin(), data.end()) {}

  static std::shared_ptr<Buffer> make(std::size_t size) {
    return std::make_shared<Buffer>(size);
  }
  static std::shared_ptr<Buffer> copy_of(const void* data, std::size_t size) {
    auto b = std::make_shared<Buffer>(size);
    if (size != 0) std::memcpy(b->data(), data, size);
    return b;
  }
  /// A read-only window over `[offset, offset + size)` of `parent`,
  /// holding the parent alive. Throws std::out_of_range on a window that
  /// does not fit.
  static std::shared_ptr<Buffer> view_of(BufferRef parent, std::size_t offset,
                                         std::size_t size) {
    if (!parent || offset + size > parent->size() || offset + size < offset)
      throw std::out_of_range("Buffer::view_of: window outside parent");
    auto b = std::make_shared<Buffer>();
    b->view_data_ = parent->data() + offset;
    b->view_size_ = size;
    b->parent_ = std::move(parent);
    return b;
  }

  std::byte* data() noexcept { return parent_ ? view_data_ : bytes_.data(); }
  const std::byte* data() const noexcept {
    return parent_ ? view_data_ : bytes_.data();
  }
  std::size_t size() const noexcept {
    return parent_ ? view_size_ : bytes_.size();
  }
  bool empty() const noexcept { return size() == 0; }
  bool is_view() const noexcept { return parent_ != nullptr; }

  /// Owning buffers only (a view's size belongs to its parent). Within the
  /// established capacity this never reallocates, so a recycled pool block
  /// (core/pool.hpp) shrinks to a partial block and grows back for free.
  void resize(std::size_t n) {
    if (parent_) throw std::logic_error("Buffer::resize on a view");
    bytes_.resize(n);
  }

  std::span<std::byte> span() noexcept { return {data(), size()}; }
  std::span<const std::byte> span() const noexcept { return {data(), size()}; }

  /// Reinterpret the payload as an array of trivially-copyable T.
  template <typename T>
  std::span<const T> as() const noexcept {
    static_assert(std::is_trivially_copyable_v<T>);
    return {reinterpret_cast<const T*>(data()), size() / sizeof(T)};
  }
  template <typename T>
  std::span<T> as_mutable() noexcept {
    static_assert(std::is_trivially_copyable_v<T>);
    return {reinterpret_cast<T*>(data()), size() / sizeof(T)};
  }

 private:
  std::vector<std::byte> bytes_;
  // View state; engaged iff parent_ is set. The raw pointer stays valid
  // because parent_ keeps the parent (and transitively the root owner)
  // alive, and owning buffers are never resized while shared (the
  // "writable iff unique" rule).
  std::byte* view_data_ = nullptr;
  std::size_t view_size_ = 0;
  BufferRef parent_;
};

/// Paper rule: a shared payload is writable only by its unique owner.
inline bool writable(const BufferRef& b) noexcept { return b && b.use_count() == 1; }

}  // namespace esp
