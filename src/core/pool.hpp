#pragma once
/// \file pool.hpp
/// \brief Fixed-size byte-buffer pool for stream blocks.
///
/// Framed stream blocks, resend-ring copies and the instrument's pack
/// staging are all `block_size`-byte buffers. Minting one zeroes a fresh
/// megabyte, and every stream write takes one while every read drops one.
/// One pool per buffer size keeps those blocks resident across writes,
/// stream reopen and tenant attach/detach cycles (DESIGN.md "Hot path
/// memory model" has the measured cost without it).
///
/// A pooled BufferRef is an ordinary `shared_ptr(ptr, deleter)`; the
/// deleter returns the buffer to its pool from any thread. Blocks move at
/// pack frequency (~1 per 4,095 events), so the free list is a plain
/// mutex-guarded stack. Deleters hold the pool core alive: a block
/// released after its pool handle died (KS quarantine unwinding, late
/// stream teardown) still returns safely.
///
/// An acquire with an empty free list allocates from the heap and counts a
/// miss; the buffer joins the free list on release, so the pool grows to
/// the working set, bounded by the retain cap. Pooling changes no modeled
/// time, no entry order and no payload bytes.

#include <cstddef>
#include <cstdint>
#include <map>
#include <memory>
#include <mutex>
#include <vector>

#include "common/buffer.hpp"

namespace esp::mem {

/// Buffers a pool keeps idle in its free list; returns beyond it are
/// heap-freed so one burst cannot pin memory forever. Sized above the
/// framed blocks a 64-writer → 8-reader fan-in with copying readers has
/// alive at its peak (384: 3 unread deliveries per link plus 3 sends
/// queued behind them per writer), so a rerun of such a stream reuses
/// them instead of zero-filling fresh megabytes.
inline constexpr std::size_t kRetainCap = 512;

struct PoolStats {
  std::uint64_t hits = 0;      ///< Acquires served from the free list.
  std::uint64_t misses = 0;    ///< Acquires that fell back to the heap.
  std::uint64_t released = 0;  ///< Returns accepted into the free list.
  std::uint64_t trimmed = 0;   ///< Returns heap-freed over the retain cap.
  std::uint64_t retained = 0;  ///< Buffers idle in the free list right now.
};

namespace detail {

/// Shared state of one buffer pool. Held via shared_ptr by the pool handle
/// and every outstanding deleter, so it outlives all of them regardless of
/// teardown order.
class PoolCore {
 public:
  PoolCore(std::size_t buffer_size, std::size_t retain_cap)
      : buffer_size_(buffer_size), retain_cap_(retain_cap) {
    free_.reserve(retain_cap);  // push() then never allocates
  }

  PoolCore(const PoolCore&) = delete;
  PoolCore& operator=(const PoolCore&) = delete;

  ~PoolCore() {
    for (Buffer* b : free_) delete b;
  }

  std::size_t buffer_size() const noexcept { return buffer_size_; }

  /// A retained buffer, or a fresh one (counted as a miss).
  Buffer* pop() {
    {
      std::lock_guard lock(mu_);
      if (!free_.empty()) {
        Buffer* b = free_.back();
        free_.pop_back();
        ++stats_.hits;
        return b;
      }
      ++stats_.misses;
    }
    return new Buffer(buffer_size_);
  }

  void push(Buffer* b) noexcept {
    {
      std::lock_guard lock(mu_);
      if (free_.size() < retain_cap_) {
        ++stats_.released;
        free_.push_back(b);
        return;
      }
      ++stats_.trimmed;
    }
    delete b;
  }

  PoolStats stats() const {
    std::lock_guard lock(mu_);
    PoolStats s = stats_;
    s.retained = free_.size();
    return s;
  }

 private:
  const std::size_t buffer_size_;
  const std::size_t retain_cap_;
  mutable std::mutex mu_;
  std::vector<Buffer*> free_;  ///< Guarded by mu_; size <= retain_cap_.
  PoolStats stats_;            ///< Guarded by mu_; `retained` is free_.size().
};

struct PoolDeleter {
  std::shared_ptr<PoolCore> core;
  void operator()(Buffer* b) const noexcept { core->push(b); }
};

}  // namespace detail

/// Pool of fixed-capacity byte buffers. acquire() returns an ordinary
/// BufferRef; the last reference returns the buffer to the pool, from any
/// thread.
class BufferPool {
 public:
  explicit BufferPool(std::size_t buffer_size,
                      std::size_t retain_cap = kRetainCap)
      : core_(std::make_shared<detail::PoolCore>(buffer_size, retain_cap)) {}

  /// A buffer of `size` bytes (default: the pool's buffer size). Sizes up
  /// to the pool's buffer size reuse retained capacity without
  /// reallocating; larger sizes are legal but grow the buffer.
  BufferRef acquire(std::size_t size = 0) {
    BufferRef b(core_->pop(), detail::PoolDeleter{core_});
    b->resize(size != 0 ? size : core_->buffer_size());
    return b;
  }

  PoolStats stats() const { return core_->stats(); }

 private:
  std::shared_ptr<detail::PoolCore> core_;
};

/// Process-global buffer pool for `buffer_size`-byte buffers: streams,
/// instrument staging and the hotpath bench all share one pool per size,
/// so buffers survive stream reopen and tenant attach/detach cycles.
/// Never destroyed, so late releases always find their core.
inline BufferPool& pool_for(std::size_t buffer_size) {
  static std::mutex mu;
  static auto* pools = new std::map<std::size_t, std::unique_ptr<BufferPool>>();
  std::lock_guard lock(mu);
  auto& slot = (*pools)[buffer_size];
  if (!slot) slot = std::make_unique<BufferPool>(buffer_size);
  return *slot;
}

/// A `size`-byte buffer (default `buffer_size`) from the shared pool for
/// `buffer_size`-byte buffers.
inline BufferRef acquire_block(std::size_t buffer_size, std::size_t size = 0) {
  return pool_for(buffer_size).acquire(size);
}

}  // namespace esp::mem
