#pragma once
/// \file free_list.hpp
/// \brief A per-thread free-list allocator for small fixed-size nodes.
///
/// simmpi makes and drops a few small objects per message (request
/// states, mailbox queue nodes). FreeListAllocator recycles their blocks:
/// each thread keeps one free list per block size, so a steady stream of
/// messages allocates nothing, and no list is shared, so nothing is
/// locked. A block is plain operator-new memory and may be freed on any
/// thread; it joins that thread's list. A list keeps at most kFreeListCap
/// blocks and is emptied when its thread exits; frees after that go
/// straight to operator delete.

#include <algorithm>
#include <cstddef>
#include <new>
#include <utility>

namespace esp {

inline constexpr std::size_t kFreeListCap = 4096;

namespace detail {

/// Set once the thread's list of that size was emptied. Trivially
/// destructible, so later thread-exit destructors can still read it.
template <std::size_t Bytes>
bool& free_list_closed() noexcept {
  static thread_local bool closed = false;
  return closed;
}

template <std::size_t Bytes>
struct FreeList {
  struct Block {
    Block* next;
  };
  Block* head = nullptr;
  std::size_t size = 0;

  ~FreeList() {
    while (head != nullptr) ::operator delete(std::exchange(head, head->next));
    free_list_closed<Bytes>() = true;
  }
  /// The calling thread's list, or null once it was emptied at exit.
  static FreeList* mine() noexcept {
    static thread_local FreeList list;
    return free_list_closed<Bytes>() ? nullptr : &list;
  }
};

}  // namespace detail

/// Stateless allocator over the calling thread's free list for blocks of
/// sizeof(T), rounded up to the default new alignment.
template <class T>
struct FreeListAllocator {
  using value_type = T;

  FreeListAllocator() noexcept = default;
  template <class U>
  FreeListAllocator(const FreeListAllocator<U>&) noexcept {}

  T* allocate(std::size_t n) {
    auto* fl = n == 1 ? List::mine() : nullptr;
    if (fl == nullptr || fl->head == nullptr)
      return static_cast<T*>(::operator new(n == 1 ? kBlock : n * sizeof(T)));
    --fl->size;
    return reinterpret_cast<T*>(std::exchange(fl->head, fl->head->next));
  }

  void deallocate(T* p, std::size_t n) noexcept {
    auto* fl = n == 1 ? List::mine() : nullptr;
    if (fl == nullptr || fl->size >= kFreeListCap) {
      ::operator delete(p);
      return;
    }
    fl->head = ::new (static_cast<void*>(p)) typename List::Block{fl->head};
    ++fl->size;
  }

  friend bool operator==(FreeListAllocator, FreeListAllocator) noexcept {
    return true;
  }

 private:
  static constexpr std::size_t kAlign = __STDCPP_DEFAULT_NEW_ALIGNMENT__;
  static_assert(alignof(T) <= kAlign);
  static constexpr std::size_t kBlock =
      (std::max(sizeof(T), sizeof(void*)) + kAlign - 1) / kAlign * kAlign;
  using List = detail::FreeList<kBlock>;
};

}  // namespace esp
