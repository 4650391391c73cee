/// \file test_pool.cpp
/// \brief The stream-block pool: buffer reuse, bounded retention,
/// concurrent accounting, views pinning pooled blocks, pooled blocks
/// surviving KS quarantine, a warm acquire/release cycle costing no block
/// bytes, and steady simmpi messages costing no allocation (the last two
/// under the malloc-interposition probe); the request handle that owns a
/// free-list request state.

#include <gtest/gtest.h>

#include <thread>
#include <utility>
#include <vector>

#include "blackboard/blackboard.hpp"
#include "core/pool.hpp"
#include "obs/alloc_probe.hpp"
#include "simmpi/request.hpp"
#include "simmpi/runtime.hpp"

namespace esp {
namespace {

TEST(PoolTest, AcquireReleaseRoundTripReusesBuffer) {
  mem::BufferPool pool(4096, 8);
  std::byte* first = nullptr;
  {
    BufferRef b = pool.acquire();
    ASSERT_NE(b, nullptr);
    EXPECT_EQ(b->size(), 4096u);
    first = b->data();
    b->data()[0] = std::byte{0x5a};
  }
  const mem::PoolStats after_release = pool.stats();
  EXPECT_EQ(after_release.misses, 1u);  // cold first acquire
  EXPECT_EQ(after_release.released, 1u);
  EXPECT_EQ(after_release.retained, 1u);
  {
    BufferRef b = pool.acquire(128);
    EXPECT_EQ(b->data(), first) << "warm acquire must reuse the node";
    EXPECT_EQ(b->size(), 128u);
  }
  EXPECT_EQ(pool.stats().hits, 1u);
}

TEST(PoolTest, ReserveMakesAcquiresAllHits) {
  // A reserve of released blocks within the retain cap serves the next
  // working set entirely from the free list.
  mem::BufferPool pool(1024, 16);
  std::vector<BufferRef> held;
  for (int i = 0; i < 16; ++i) held.push_back(pool.acquire());
  held.clear();
  EXPECT_EQ(pool.stats().retained, 16u);
  EXPECT_EQ(pool.stats().misses, 16u);
  for (int i = 0; i < 16; ++i) held.push_back(pool.acquire());
  const mem::PoolStats s = pool.stats();
  EXPECT_EQ(s.hits, 16u);
  EXPECT_EQ(s.misses, 16u) << "a warm working set must not miss";
  held.clear();
  EXPECT_EQ(pool.stats().trimmed, 0u);
  EXPECT_EQ(pool.stats().retained, 16u);
}

TEST(PoolTest, ExhaustionFallsBackToHeapCountedNotFatal) {
  mem::BufferPool pool(256, 2);
  std::vector<BufferRef> held;
  for (int i = 0; i < 10; ++i) held.push_back(pool.acquire());
  EXPECT_EQ(pool.stats().misses, 10u);  // all cold: counted, served anyway
  for (auto& b : held) {
    ASSERT_NE(b, nullptr);
    EXPECT_EQ(b->size(), 256u);
  }
  held.clear();
  // Releases beyond the cap are trimmed, the rest adopted.
  const mem::PoolStats s = pool.stats();
  EXPECT_EQ(s.released + s.trimmed, 10u);
  EXPECT_EQ(s.retained, 2u);
}

TEST(PoolTest, ConcurrentAcquireReleaseKeepsAccountsBalanced) {
  mem::BufferPool pool(512, 32);
  constexpr int kThreads = 4;
  constexpr int kIters = 2000;
  std::vector<std::thread> threads;
  threads.reserve(kThreads);
  for (int t = 0; t < kThreads; ++t)
    threads.emplace_back([&pool] {
      std::vector<BufferRef> local;
      for (int i = 0; i < kIters; ++i) {
        local.push_back(pool.acquire());
        if (local.size() >= 8) local.clear();
      }
    });
  for (auto& th : threads) th.join();
  const mem::PoolStats s = pool.stats();
  EXPECT_EQ(s.hits + s.misses,
            static_cast<std::uint64_t>(kThreads) * kIters);
  EXPECT_LE(s.retained, 32u);
}

TEST(PoolTest, ViewAliasesParentAndKeepsItAlive) {
  mem::BufferPool pool(1024, 8);
  BufferRef parent = pool.acquire();
  for (std::size_t i = 0; i < 16; ++i)
    parent->data()[i] = static_cast<std::byte>(i);

  BufferRef v = Buffer::view_of(parent, 4, 8);
  EXPECT_TRUE(v->is_view());
  EXPECT_EQ(v->size(), 8u);
  EXPECT_EQ(v->data(), parent->data() + 4) << "view must alias, not copy";

  // Drop the direct parent handle: the view alone keeps the node alive.
  std::byte* raw = parent->data();
  parent.reset();
  EXPECT_EQ(pool.stats().released, 0u) << "view still pins the buffer";
  EXPECT_EQ(static_cast<std::size_t>(v->data()[3]), 7u);
  EXPECT_EQ(v->data(), raw + 4);

  // Releasing the last view brings the block home.
  v.reset();
  EXPECT_EQ(pool.stats().released, 1u);
  EXPECT_EQ(pool.acquire()->data(), raw) << "the block must be reused";
}

TEST(PoolTest, ViewNodeIsUnboundBeforeRecycling) {
  mem::BufferPool pool(64, 4);
  BufferRef parent = pool.acquire();
  { BufferRef v = Buffer::view_of(parent, 0, 16); }
  // A released view must not pin the parent: dropping our handle is the
  // last reference, so the buffer goes straight back to its pool.
  parent.reset();
  EXPECT_EQ(pool.stats().released, 1u);
}

TEST(PoolTest, ViewBindingValidatesWindow) {
  BufferRef parent = Buffer::make(32);
  EXPECT_THROW((void)Buffer::view_of(parent, 16, 32), std::out_of_range);
  EXPECT_THROW((void)Buffer::view_of(nullptr, 0, 0), std::out_of_range);
  BufferRef v = Buffer::view_of(parent, 8, 8);
  EXPECT_THROW(v->resize(64), std::logic_error);
}

TEST(PoolTest, WarmAcquireReleaseCycleAllocatesNoBlockBytes) {
  ASSERT_TRUE(obs::alloc_probe_active());
  constexpr std::size_t kBlock = 64 * 1024;
  constexpr int kCycles = 1000;
  mem::BufferPool pool(kBlock, 8);
  // Warm: one cold lap mints the blocks.
  {
    std::vector<BufferRef> lap;
    for (int i = 0; i < 4; ++i) lap.push_back(pool.acquire());
  }
  const obs::AllocCounts before = obs::alloc_counts();
  for (int i = 0; i < kCycles; ++i) {
    BufferRef b = pool.acquire(777);
    BufferRef v = Buffer::view_of(b, 16, 256);
    b.reset();  // the view alone keeps the block alive
    ASSERT_EQ(v->size(), 256u);
  }
  const obs::AllocCounts after = obs::alloc_counts();
  // Only the two small control blocks (the block's and the view's) are
  // allocated per cycle; the block itself always comes from the pool.
  EXPECT_EQ(pool.stats().misses, 4u);
  EXPECT_LT((after.bytes - before.bytes) / kCycles, kBlock / 64)
      << "a warm block acquire/release must not allocate block bytes";
}

TEST(PoolTest, QuarantinedKsReleasesPooledViewEntries) {
  mem::BufferPool pool(4096, 8);
  const std::uint64_t released0 = pool.stats().released;

  bb::BlackboardConfig cfg;
  cfg.workers = 2;
  cfg.quarantine_threshold = 3;
  const bb::TypeId type = bb::type_id("poison");
  {
    bb::Blackboard board(cfg);
    board.register_ks({"always_throws",
                       {type},
                       [](bb::Blackboard&, std::span<const bb::DataEntry>) {
                         throw std::runtime_error("poisoned");
                       }});
    // Each entry is a heap view over a pooled block — the exact payload
    // shape the zero-copy unpacker produces. The throwing operation must
    // not leak them through the unwind path.
    for (int i = 0; i < 6; ++i) {
      BufferRef block = pool.acquire();
      bb::DataEntry e(type, Buffer::view_of(block, 0, 64));
      board.submit_batch({&e, 1});
      board.drain();
    }
    EXPECT_EQ(board.stats().ks_quarantined, 1u);
    EXPECT_GE(board.stats().jobs_failed, 3u);
  }
  // Destructor joined the workers; every pooled block came home even
  // though some jobs unwound and some were skipped post-quarantine.
  EXPECT_EQ(pool.stats().released - released0, 6u);
}

TEST(RequestHandle, CopiesAndMovesShareOneState) {
  mpi::Request a = mpi::make_request();
  mpi::RequestState* const state = a.get();
  ASSERT_NE(state, nullptr);
  EXPECT_TRUE(a);
  EXPECT_NE(a, nullptr);

  mpi::Request b = a;  // copy
  EXPECT_EQ(b, a);
  EXPECT_EQ(&*b, state);
  mpi::Request c = std::move(b);  // move leaves the source null
  EXPECT_FALSE(b);
  EXPECT_EQ(b, nullptr);
  EXPECT_EQ(c.get(), state);

  mpi::Request& alias = a;
  a = alias;  // self-assignment keeps the state alive
  EXPECT_EQ(a.get(), state);
  a = std::move(alias);
  EXPECT_EQ(a.get(), state);
  a->finish = 2.5;
  EXPECT_EQ(c->finish, 2.5);

  c.reset();
  EXPECT_EQ(c, nullptr);
  EXPECT_NE(c, a);
  mpi::Request d = nullptr;
  EXPECT_EQ(d, c);
  d = a;  // copy-assign over null
  EXPECT_EQ(d->finish, 2.5);
  a = mpi::Request{};  // move-assign null over a shared state
  EXPECT_EQ(a, nullptr);
  EXPECT_EQ(d.get(), state);
}

TEST(RequestHandle, LastDropDestroysTheStateAndFreesItsBlock) {
  BufferRef payload = Buffer::make(64);
  mpi::Request a = mpi::make_request();
  mpi::RequestState* const block = a.get();
  a->delivered = payload;
  mpi::Request b = a;
  a.reset();
  EXPECT_EQ(payload.use_count(), 2) << "a live handle keeps the state";
  mpi::Request other = mpi::make_request();
  EXPECT_NE(other.get(), block) << "a block still owned was handed out";
  b.reset();  // the last drop
  EXPECT_EQ(payload.use_count(), 1) << "the state was not destroyed";
  // The free list is last-in first-out: the next request reuses the block.
  mpi::Request again = mpi::make_request();
  EXPECT_EQ(again.get(), block);
  EXPECT_EQ(again->delivered, nullptr) << "a reused block starts fresh";
  EXPECT_FALSE(again->is_done());
}

TEST(RequestPool, SteadySizeOnlyMessagesAllocateNothing) {
  // Two ranks exchange size-only isend/irecv pairs, eager and rendezvous
  // sizes alternating. After a warm-up, request states and mailbox queue
  // nodes come from the carrier's free lists, so the message path makes
  // no global allocation (before those lists it made at least 4 per
  // message: two request states and two queue items).
  ASSERT_TRUE(obs::alloc_probe_active());
  constexpr int kWarmup = 256;
  constexpr int kMessages = 10000;
  obs::AllocCounts before, after;
  mpi::Request kept;
  std::vector<mpi::ProgramSpec> progs;
  progs.push_back({"pair", 2, [&](mpi::ProcEnv& env) {
                     auto exchange = [&](int i) {
                       const std::uint64_t bytes = i % 2 ? 64 : 64 << 10;
                       mpi::Request r =
                           env.world_rank == 0
                               ? env.world.isend(nullptr, bytes, 1, 3)
                               : env.world.irecv(nullptr, bytes, 0, 3);
                       mpi::wait(r);
                       kept = r;
                     };
                     for (int i = 0; i < kWarmup; ++i) exchange(i);
                     if (env.world_rank == 0) before = obs::alloc_counts();
                     for (int i = 0; i < kMessages; ++i) exchange(i);
                     if (env.world_rank == 0) after = obs::alloc_counts();
                   }});
  {
    mpi::Runtime rt(mpi::RuntimeConfig{}, std::move(progs));
    rt.run();
  }
  // A request outlives its runtime and is dropped on another thread: its
  // block joins that thread's free list, emptied when the thread exits.
  std::thread([r = std::move(kept)]() mutable {
    EXPECT_TRUE(r->is_done());
    r.reset();
  }).join();
  const double per_message =
      static_cast<double>(after.allocs - before.allocs) / kMessages;
  EXPECT_LT(per_message, 1.0) << (after.allocs - before.allocs)
                              << " allocations over " << kMessages
                              << " messages";
}

}  // namespace
}  // namespace esp
