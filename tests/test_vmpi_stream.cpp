/// \file test_vmpi_stream.cpp
/// \brief VMPI_Stream: data integrity, EOF, EAGAIN, backpressure, policies.

#include <gtest/gtest.h>

#include <atomic>
#include <cstring>
#include <mutex>
#include <ostream>
#include <vector>

#include "common/hash.hpp"
#include "common/helpers.hpp"
#include "core/pool.hpp"
#include "obs/metrics.hpp"
#include "obs/obs.hpp"
#include "simmpi/fiber.hpp"
#include "vmpi/stream.hpp"

namespace esp::vmpi {
namespace {

using mpi::ProcEnv;
using mpi::ProgramSpec;
using mpi::Runtime;
using mpi::RuntimeConfig;

/// Fill a block with a sequence derived from (writer, index) so the reader
/// can verify provenance and integrity.
void fill_block(std::vector<std::byte>& block, int writer, int index) {
  auto* p = reinterpret_cast<std::uint64_t*>(block.data());
  const std::size_t n = block.size() / sizeof(std::uint64_t);
  p[0] = static_cast<std::uint64_t>(writer);
  p[1] = static_cast<std::uint64_t>(index);
  for (std::size_t i = 2; i < n; ++i)
    p[i] = esp::mix64((static_cast<std::uint64_t>(writer) << 32) ^
                      (static_cast<std::uint64_t>(index) << 16) ^ i);
}

bool check_block(const std::vector<std::byte>& block) {
  const auto* p = reinterpret_cast<const std::uint64_t*>(block.data());
  const std::size_t n = block.size() / sizeof(std::uint64_t);
  const auto writer = p[0];
  const auto index = p[1];
  for (std::size_t i = 2; i < n; ++i)
    if (p[i] != esp::mix64((writer << 32) ^ (index << 16) ^ i)) return false;
  return true;
}

struct CouplingResult {
  std::atomic<std::uint64_t> blocks_received{0};
  std::atomic<std::uint64_t> corrupt{0};
};

/// The coupling codes of paper Figs. 11 and 12: writers stream
/// `blocks_per_writer` blocks through a round-robin map to readers.
/// `copy_cap` is the runtime's skeleton-payload copy cap, which stream
/// data must ignore.
void run_coupling(int n_writers, int n_readers, int blocks_per_writer,
                  std::uint64_t block_size, BalancePolicy policy,
                  CouplingResult& res, std::uint64_t copy_cap = ~0ull) {
  std::vector<ProgramSpec> progs;
  progs.push_back(
      {"app", n_writers, [=](ProcEnv& env) {
         Map map;
         map.map_partitions(env, env.runtime->partition_by_name("Analyzer")->id,
                            MapPolicy::RoundRobin);
         Stream st({block_size, 3, policy});
         st.open_map(env, map, "w");
         std::vector<std::byte> block(block_size);
         for (int b = 0; b < blocks_per_writer; ++b) {
           fill_block(block, env.universe_rank, b);
           st.write(block.data(), 1);
         }
         st.close();
       }});
  progs.push_back(
      {"Analyzer", n_readers, [=, &res](ProcEnv& env) {
         Map map;
         map.map_partitions(env, env.runtime->partition_by_name("app")->id,
                            MapPolicy::RoundRobin);
         Stream st({block_size, 3, policy});
         st.open_map(env, map, "r");
         std::vector<std::byte> block(block_size);
         int ret;
         do {
           ret = st.read(block.data(), 1, kNonblock);
           if (ret == kEagain) continue;
           if (ret > 0) {
             res.blocks_received.fetch_add(1);
             if (!check_block(block)) res.corrupt.fetch_add(1);
           }
         } while (ret != 0);
       }});
  RuntimeConfig cfg;
  cfg.payload_copy_cap = copy_cap;
  Runtime rt(cfg, std::move(progs));
  rt.run();
}

TEST(VmpiStream, SingleWriterSingleReaderIntegrity) {
  CouplingResult res;
  run_coupling(1, 1, 32, 64 * 1024, BalancePolicy::RoundRobin, res);
  EXPECT_EQ(res.blocks_received.load(), 32u);
  EXPECT_EQ(res.corrupt.load(), 0u);
}

TEST(VmpiStream, ManyWritersOneReader) {
  CouplingResult res;
  run_coupling(6, 1, 10, 32 * 1024, BalancePolicy::RoundRobin, res);
  EXPECT_EQ(res.blocks_received.load(), 60u);
  EXPECT_EQ(res.corrupt.load(), 0u);
}

TEST(VmpiStream, ManyWritersManyReaders) {
  CouplingResult res;
  run_coupling(8, 3, 8, 16 * 1024, BalancePolicy::RoundRobin, res);
  EXPECT_EQ(res.blocks_received.load(), 64u);
  EXPECT_EQ(res.corrupt.load(), 0u);
}

class StreamPolicyP : public ::testing::TestWithParam<BalancePolicy> {};

TEST_P(StreamPolicyP, AllBlocksArriveUncorrupted) {
  CouplingResult res;
  run_coupling(5, 2, 12, 8 * 1024, GetParam(), res);
  EXPECT_EQ(res.blocks_received.load(), 60u);
  EXPECT_EQ(res.corrupt.load(), 0u);
}

INSTANTIATE_TEST_SUITE_P(Policies, StreamPolicyP,
                         ::testing::Values(BalancePolicy::None,
                                           BalancePolicy::Random,
                                           BalancePolicy::RoundRobin));

struct BlockGeometry {
  std::uint64_t block_size;
  std::uint64_t copy_cap = ~0ull;  ///< Skeleton-payload copy cap.
};

void PrintTo(const BlockGeometry& g, std::ostream* os) {
  *os << g.block_size;
  if (g.copy_cap != ~0ull) *os << "_cap" << g.copy_cap;
}

class StreamBlockSizeP : public ::testing::TestWithParam<BlockGeometry> {};

TEST_P(StreamBlockSizeP, IntegrityAcrossBlockSizes) {
  CouplingResult res;
  run_coupling(2, 1, 6, GetParam().block_size, BalancePolicy::RoundRobin, res,
               GetParam().copy_cap);
  EXPECT_EQ(res.blocks_received.load(), 12u);
  EXPECT_EQ(res.corrupt.load(), 0u);
}

// The last case caps skeleton copies far below the block size, as the
// paper-figure benches do: every stream byte must still arrive.
INSTANTIATE_TEST_SUITE_P(
    Sizes, StreamBlockSizeP,
    ::testing::Values(BlockGeometry{256}, BlockGeometry{4 * 1024},
                      BlockGeometry{64 * 1024}, BlockGeometry{1u << 20},
                      BlockGeometry{64 * 1024, 4 * 1024}));

TEST(VmpiStream, BlockingReadDrainsEverything) {
  std::atomic<int> got{0};
  std::vector<ProgramSpec> progs;
  progs.push_back({"w", 2, [](ProcEnv& env) {
                     Map m;
                     m.map_partitions(
                         env, env.runtime->partition_by_name("r")->id,
                         MapPolicy::RoundRobin);
                     Stream st({4096, 2, BalancePolicy::None});
                     st.open_map(env, m, "w");
                     std::vector<std::byte> block(4096);
                     for (int b = 0; b < 7; ++b) {
                       fill_block(block, env.universe_rank, b);
                       st.write(block.data(), 1);
                     }
                     st.close();
                   }});
  progs.push_back({"r", 1, [&](ProcEnv& env) {
                     Map m;
                     m.map_partitions(
                         env, env.runtime->partition_by_name("w")->id,
                         MapPolicy::RoundRobin);
                     Stream st({4096, 2, BalancePolicy::RoundRobin});
                     st.open_map(env, m, "r");
                     std::vector<std::byte> block(4096);
                     while (st.read(block.data(), 1) == 1) {
                       EXPECT_TRUE(check_block(block));
                       got.fetch_add(1);
                     }
                   }});
  Runtime rt(RuntimeConfig{}, std::move(progs));
  rt.run();
  EXPECT_EQ(got.load(), 14);
}

/// Tag of the test-level handshakes below: ranks sequence themselves
/// through messages, which park the waiting rank until its peer sends.
constexpr int kSyncTag = 7;

void send_token(ProcEnv& env, int universe_rank) {
  int token = 1;
  env.universe.send(&token, sizeof token, universe_rank, kSyncTag);
}

void recv_token(ProcEnv& env, int universe_rank) {
  int token = 0;
  env.universe.recv(&token, sizeof token, universe_rank, kSyncTag);
}

TEST(VmpiStream, NonblockingReadReturnsEagainBeforeData) {
  // Reader opens and immediately polls; the writer holds back until the
  // reader has observed at least one EAGAIN.
  std::vector<ProgramSpec> progs;
  progs.push_back({"w", 1, [&](ProcEnv& env) {
                     Stream st({1024, 2, BalancePolicy::None});
                     st.open_peer(env, 1, "w");
                     recv_token(env, 1);
                     std::vector<std::byte> block(1024);
                     fill_block(block, 0, 0);
                     st.write(block.data(), 1);
                     st.close();
                   }});
  progs.push_back({"r", 1, [&](ProcEnv& env) {
                     Stream st({1024, 2, BalancePolicy::None});
                     st.open_peer(env, 0, "r");
                     std::vector<std::byte> block(1024);
                     int ret = st.read(block.data(), 1, kNonblock);
                     EXPECT_EQ(ret, kEagain);
                     send_token(env, 0);
                     do {
                       ret = st.read(block.data(), 1, kNonblock);
                     } while (ret == kEagain);
                     EXPECT_EQ(ret, 1);
                     EXPECT_TRUE(check_block(block));
                     EXPECT_EQ(st.read(block.data(), 1), 0);
                   }});
  Runtime rt(RuntimeConfig{}, std::move(progs));
  rt.run();
}

TEST(VmpiStream, IprobePollingReaderLetsABusyWriterRun) {
  // The writer goes busy flushing its block (the CRC copy runs off the
  // scheduler) while the reader spins on iprobe() for the writer's next
  // message: the miss must let the busy writer rejoin and send it.
  std::vector<ProgramSpec> progs;
  progs.push_back({"w", 1, [&](ProcEnv& env) {
                     Stream st({1024, 2, BalancePolicy::None});
                     st.open_peer(env, 1, "w");
                     std::vector<std::byte> block(1024);
                     fill_block(block, 0, 0);
                     st.write(block.data(), 1);
                     send_token(env, 1);
                     st.close();
                   }});
  progs.push_back({"r", 1, [&](ProcEnv& env) {
                     Stream st({1024, 2, BalancePolicy::None});
                     st.open_peer(env, 0, "r");
                     mpi::Status status;
                     while (!env.universe.iprobe(0, kSyncTag, &status)) {
                     }
                     recv_token(env, 0);
                     std::vector<std::byte> block(1024);
                     ASSERT_EQ(st.read(block.data(), 1), 1);
                     EXPECT_TRUE(check_block(block));
                     EXPECT_EQ(st.read(block.data(), 1), 0);
                   }});
  Runtime rt(RuntimeConfig{}, std::move(progs));
  rt.run();
}

TEST(VmpiStream, ReaderPostsTheWritersSlotDepth) {
  // The writer announces n_async = 1 in its open handshake; the reader,
  // configured with 3, posts exactly one receive on the link.
  std::vector<ProgramSpec> progs;
  progs.push_back({"w", 1, [&](ProcEnv& env) {
                     Stream st({1024, 1, BalancePolicy::None});
                     st.open_peer(env, 1, "w");
                     recv_token(env, 1);
                     std::vector<std::byte> block(1024);
                     for (int b = 0; b < 3; ++b) {
                       fill_block(block, 0, b);
                       st.write(block.data(), 1);
                     }
                     st.close();
                   }});
  progs.push_back({"r", 1, [&](ProcEnv& env) {
                     Stream st({1024, 3, BalancePolicy::None});
                     st.open_peer(env, 0, "r");
                     EXPECT_EQ(env.runtime->mailbox(env.universe_rank)
                                   .pending_recvs(),
                               1u);
                     send_token(env, 0);
                     std::vector<std::byte> block(1024);
                     for (int b = 0; b < 3; ++b) {
                       ASSERT_EQ(st.read(block.data(), 1), 1);
                       EXPECT_TRUE(check_block(block));
                     }
                     EXPECT_EQ(st.read(block.data(), 1), 0);
                   }});
  Runtime rt(RuntimeConfig{}, std::move(progs));
  rt.run();
}

TEST(VmpiStream, BackpressureBoundsWriterProgress) {
  // With a slow reader and N_A=2 output buffers, a writer of B blocks can
  // be at most N_A blocks ahead of what the reader consumed. We check the
  // virtual clocks: the writer's finish time must reflect waiting on the
  // reader's consumption rate (reader computes 10 ms per block).
  std::vector<ProgramSpec> progs;
  progs.push_back({"w", 1, [](ProcEnv& env) {
                     Stream st({1u << 20, 2, BalancePolicy::None});
                     st.open_peer(env, 1, "w");
                     std::vector<std::byte> block(1u << 20);
                     for (int b = 0; b < 10; ++b) st.write(block.data(), 1);
                     st.close();
                   }});
  progs.push_back({"r", 1, [](ProcEnv& env) {
                     Stream st({1u << 20, 2, BalancePolicy::None});
                     st.open_peer(env, 0, "r");
                     std::vector<std::byte> block(1u << 20);
                     while (st.read(block.data(), 1) == 1)
                       mpi::compute(10e-3);  // slow consumer
                   }});
  Runtime rt(RuntimeConfig{}, std::move(progs));
  rt.run();
  // 10 blocks x 10 ms of consumption dominate; the writer cannot finish in
  // less than ~(10-N_A) consumption periods.
  EXPECT_GT(rt.final_clock(0), 60e-3);
}

TEST(VmpiStream, WriterWithoutEndpointThrows) {
  std::vector<ProgramSpec> progs;
  progs.push_back({"w", 1, [](ProcEnv& env) {
                     Stream st;
                     Map empty;
                     EXPECT_THROW(st.open_map(env, empty, "w"),
                                  std::invalid_argument);
                   }});
  Runtime rt(RuntimeConfig{}, std::move(progs));
  rt.run();
}

TEST(VmpiStream, NegativeLeaseIsRejected) {
  // A lease below zero would declare a reader dead before it dies, so a
  // rank declared dead could be picked again as its own successor.
  EXPECT_THROW(Stream(StreamConfig{.hb_lease = -1e-3}), std::invalid_argument);
  EXPECT_NO_THROW(Stream(StreamConfig{.hb_lease = 0.0}));
}

TEST(VmpiStream, NeverOpenedStreamFailsCleanly) {
  Stream st;
  std::byte b{};
  EXPECT_THROW(st.read(&b, 1), std::logic_error);
  EXPECT_THROW(st.write(&b, 1), std::logic_error);
  EXPECT_FALSE(st.is_open());
  st.close();  // close on a never-opened stream is a no-op, not an error
  st.close();
}

TEST(VmpiStream, CloseIsIdempotentAndClosedAccessThrows) {
  std::vector<ProgramSpec> progs;
  progs.push_back({"w", 1, [](ProcEnv& env) {
                     Stream st({1024, 2, BalancePolicy::None});
                     st.open_peer(env, 1, "w");
                     std::vector<std::byte> block(1024);
                     fill_block(block, 0, 0);
                     st.write(block.data(), 1);
                     st.close();
                     st.close();  // second close must be a no-op
                     st.close();
                     EXPECT_THROW(st.write(block.data(), 1),
                                  std::logic_error);
                   }});
  progs.push_back({"r", 1, [](ProcEnv& env) {
                     Stream st({1024, 2, BalancePolicy::None});
                     st.open_peer(env, 0, "r");
                     std::vector<std::byte> block(1024);
                     EXPECT_EQ(st.read(block.data(), 1), 1);
                     EXPECT_EQ(st.read(block.data(), 1), 0);
                     st.close();
                     st.close();
                     EXPECT_THROW(st.read(block.data(), 1),
                                  std::logic_error);
                   }});
  Runtime rt(RuntimeConfig{}, std::move(progs));
  rt.run();
}

TEST(VmpiStream, OutOfOrderWriterClosesWithNonblockReads) {
  // EOS contract: a reader sees 0 only after EVERY writer closed, no
  // matter the close order; meanwhile kNonblock reads return kEagain and
  // blocks from still-open writers keep flowing. Writer closes are forced
  // into a fixed out-of-order sequence: w2 (no data), then w0, then w1,
  // each handing the turn on by message.
  std::atomic<int> got{0};
  std::atomic<bool> saw_zero_early{false};
  std::vector<ProgramSpec> progs;
  progs.push_back({"w", 3, [&](ProcEnv& env) {
                     Map m;
                     m.map_partitions(
                         env, env.runtime->partition_by_name("r")->id,
                         MapPolicy::RoundRobin);
                     Stream st({1024, 2, BalancePolicy::None});
                     st.open_map(env, m, "w");
                     std::vector<std::byte> block(1024);
                     const int r = env.world_rank;
                     if (r == 2) {
                       st.close();  // closes first, wrote nothing
                       send_token(env, 0);
                     } else if (r == 0) {
                       recv_token(env, 2);
                       for (int b = 0; b < 2; ++b) {
                         fill_block(block, env.universe_rank, b);
                         st.write(block.data(), 1);
                       }
                       st.close();
                       send_token(env, 1);
                     } else {
                       recv_token(env, 0);
                       fill_block(block, env.universe_rank, 0);
                       st.write(block.data(), 1);
                       st.close();
                     }
                   }});
  progs.push_back({"r", 1, [&](ProcEnv& env) {
                     Map m;
                     m.map_partitions(
                         env, env.runtime->partition_by_name("w")->id,
                         MapPolicy::RoundRobin);
                     Stream st({1024, 2, BalancePolicy::None});
                     st.open_map(env, m, "r");
                     std::vector<std::byte> block(1024);
                     int ret;
                     do {
                       ret = st.read(block.data(), 1, kNonblock);
                       if (ret == 1) {
                         EXPECT_TRUE(check_block(block));
                         got.fetch_add(1);
                       } else if (ret == 0 && got.load() != 3) {
                         saw_zero_early.store(true);
                       }
                     } while (ret != 0);
                   }});
  Runtime rt(RuntimeConfig{}, std::move(progs));
  rt.run();
  EXPECT_EQ(got.load(), 3) << "all blocks from late closers must arrive";
  EXPECT_FALSE(saw_zero_early.load())
      << "EOS must not be reported while writers are still open";
}

TEST(VmpiStream, EosAfterDrainWhenFirstWriterClosesImmediately) {
  // A writer that closes before the reader even opens must not starve the
  // other link: the reader still drains everything the live writer sends.
  std::atomic<int> got{0};
  std::vector<ProgramSpec> progs;
  progs.push_back({"w", 2, [](ProcEnv& env) {
                     Stream st({2048, 3, BalancePolicy::None});
                     st.open_peer(env, 2, "w");
                     if (env.world_rank == 0) {
                       st.close();
                       return;
                     }
                     std::vector<std::byte> block(2048);
                     for (int b = 0; b < 5; ++b) {
                       fill_block(block, env.universe_rank, b);
                       st.write(block.data(), 1);
                     }
                     st.close();
                   }});
  progs.push_back({"r", 1, [&](ProcEnv& env) {
                     Map m;
                     m.map_partitions(
                         env, env.runtime->partition_by_name("w")->id,
                         MapPolicy::RoundRobin);
                     Stream st({2048, 3, BalancePolicy::None});
                     st.open_map(env, m, "r");
                     std::vector<std::byte> block(2048);
                     int ret;
                     do {
                       ret = st.read(block.data(), 1, kNonblock);
                       if (ret == 1) {
                         EXPECT_TRUE(check_block(block));
                         got.fetch_add(1);
                       }
                     } while (ret != 0);
                     EXPECT_EQ(st.stats().blocks_read, 5u);
                   }});
  Runtime rt(RuntimeConfig{}, std::move(progs));
  rt.run();
  EXPECT_EQ(got.load(), 5);
}

TEST(VmpiStreamReadSome, NonPositiveBudgetThrows) {
  // A non-positive budget used to return 0, indistinguishable from clean
  // end-of-stream — callers would silently end analysis early.
  std::vector<ProgramSpec> progs;
  progs.push_back({"w", 1, [](ProcEnv& env) {
                     Stream st({1024, 2, BalancePolicy::None});
                     st.open_peer(env, 1, "w");
                     std::vector<std::byte> block(1024);
                     fill_block(block, 0, 0);
                     st.write(block.data(), 1);
                     st.close();
                   }});
  progs.push_back({"r", 1, [](ProcEnv& env) {
                     Stream st({1024, 2, BalancePolicy::None});
                     st.open_peer(env, 0, "r");
                     std::vector<BufferRef> out;
                     EXPECT_THROW(st.read_some(out, 0), std::logic_error);
                     EXPECT_THROW(st.read_some(out, -3), std::logic_error);
                     EXPECT_TRUE(out.empty());
                     // The stream is still usable after the rejected calls.
                     EXPECT_EQ(st.read_some(out, 4), 1);
                     ASSERT_EQ(out.size(), 1u);
                     EXPECT_EQ(st.read_some(out, 4), 0);
                   }});
  Runtime rt(RuntimeConfig{}, std::move(progs));
  rt.run();
}

TEST(VmpiStreamReadSome, PositiveCountWinsOverTerminalCodes) {
  // A call that drained blocks reports the count even when the stream hit
  // end-of-stream in the same call; the terminal 0 recurs on the NEXT
  // call — appended blocks are never swallowed behind a terminal code.
  std::vector<ProgramSpec> progs;
  progs.push_back({"w", 1, [](ProcEnv& env) {
                     Stream st({1024, 4, BalancePolicy::None});
                     st.open_peer(env, 1, "w");
                     std::vector<std::byte> block(1024);
                     for (int b = 0; b < 3; ++b) {
                       fill_block(block, 0, b);
                       st.write(block.data(), 1);
                     }
                     st.close();
                   }});
  progs.push_back({"r", 1, [](ProcEnv& env) {
                     Stream st({1024, 4, BalancePolicy::None});
                     st.open_peer(env, 0, "r");
                     std::vector<BufferRef> out;
                     int total = 0;
                     int r;
                     while ((r = st.read_some(out, 16)) > 0) total += r;
                     EXPECT_EQ(r, 0);
                     EXPECT_EQ(total, 3);
                     EXPECT_EQ(out.size(), 3u);
                     for (const auto& buf : out) {
                       std::vector<std::byte> blk(buf->data(),
                                                  buf->data() + buf->size());
                       EXPECT_TRUE(check_block(blk));
                     }
                     // Terminal code is sticky once everything drained.
                     EXPECT_EQ(st.read_some(out, 16), 0);
                   }});
  Runtime rt(RuntimeConfig{}, std::move(progs));
  rt.run();
}

TEST(VmpiStreamReadSome, EagainOnlyWhenNothingAppended) {
  std::vector<ProgramSpec> progs;
  progs.push_back({"w", 1, [&](ProcEnv& env) {
                     Stream st({1024, 2, BalancePolicy::None});
                     st.open_peer(env, 1, "w");
                     recv_token(env, 1);
                     std::vector<std::byte> block(1024);
                     fill_block(block, 0, 0);
                     st.write(block.data(), 1);
                     st.close();
                   }});
  progs.push_back({"r", 1, [&](ProcEnv& env) {
                     Stream st({1024, 2, BalancePolicy::None});
                     st.open_peer(env, 0, "r");
                     std::vector<BufferRef> out;
                     EXPECT_EQ(st.read_some(out, 8, kNonblock), kEagain);
                     EXPECT_TRUE(out.empty());
                     EXPECT_GE(st.stats().eagain_returns, 1u);
                     send_token(env, 0);
                     int r;
                     do {
                       r = st.read_some(out, 8, kNonblock);
                     } while (r == kEagain);
                     EXPECT_EQ(r, 1);
                     EXPECT_EQ(out.size(), 1u);
                   }});
  Runtime rt(RuntimeConfig{}, std::move(progs));
  rt.run();
}

TEST(VmpiStreamReadSome, DrainsTightWriterBurstIntact) {
  // A burst of blocks written back-to-back overruns the writer's three
  // send buffers; read_some must still drain it with every block
  // delivered intact and the terminal 0 never swallowed behind a
  // positive count.
  std::atomic<int> total{0};
  std::atomic<int> bad{0};
  std::atomic<bool> terminal_sticky{false};
  constexpr int kBlocks = 12;
  constexpr std::uint64_t kBlock = 8192;
  std::vector<ProgramSpec> progs;
  progs.push_back({"w", 1, [](ProcEnv& env) {
                     Map m;
                     m.map_partitions(
                         env, env.runtime->partition_by_name("r")->id,
                         MapPolicy::RoundRobin);
                     Stream st({kBlock, 3, BalancePolicy::None});
                     st.open_map(env, m, "w");
                     std::vector<std::byte> block(kBlock);
                     for (int b = 0; b < kBlocks; ++b) {
                       fill_block(block, env.universe_rank, b);
                       st.write(block.data(), 1);  // tight burst, no pacing
                     }
                     st.close();
                   }});
  progs.push_back({"r", 1, [&](ProcEnv& env) {
                     Map m;
                     m.map_partitions(
                         env, env.runtime->partition_by_name("w")->id,
                         MapPolicy::RoundRobin);
                     Stream st({kBlock, 3, BalancePolicy::None});
                     st.open_map(env, m, "r");
                     std::vector<BufferRef> out;
                     int r;
                     do {
                       r = st.read_some(out, 4, kNonblock);
                       if (r > 0) total.fetch_add(r);
                     } while (r > 0 || r == kEagain);
                     EXPECT_EQ(r, 0);
                     for (const auto& buf : out) {
                       std::vector<std::byte> blk(buf->data(),
                                                  buf->data() + buf->size());
                       if (!check_block(blk)) bad.fetch_add(1);
                     }
                     terminal_sticky.store(st.read_some(out, 4) == 0);
                   }});
  Runtime rt(RuntimeConfig{}, std::move(progs));
  rt.run();
  EXPECT_EQ(total.load(), kBlocks);
  EXPECT_EQ(bad.load(), 0);
  EXPECT_TRUE(terminal_sticky.load());
}

TEST(VmpiStream, ByteCountersTrackPayload) {
  std::vector<ProgramSpec> progs;
  progs.push_back({"w", 1, [](ProcEnv& env) {
                     Stream st({4096, 2, BalancePolicy::None});
                     st.open_peer(env, 1, "w");
                     std::vector<std::byte> block(4096);
                     fill_block(block, 0, 0);
                     st.write(block.data(), 1);
                     st.write_partial(block.data(), 100);  // short tail
                     const auto s = st.stats();
                     EXPECT_EQ(s.blocks_written, 2u);
                     EXPECT_EQ(s.bytes_written, 4096u + 100u);
                     st.close();
                   }});
  progs.push_back({"r", 1, [](ProcEnv& env) {
                     Stream st({4096, 2, BalancePolicy::None});
                     st.open_peer(env, 0, "r");
                     std::vector<std::byte> sent(4096);
                     fill_block(sent, 0, 0);
                     // The full block, then the 100-byte short one: its
                     // length is not a multiple of 16, so it also crosses
                     // the CRC copy's split between bulk and tail.
                     for (const std::size_t n : {std::size_t{4096},
                                                 std::size_t{100}}) {
                       std::vector<std::byte> block(4096);
                       ASSERT_EQ(st.read(block.data(), 1), 1);
                       EXPECT_EQ(std::memcmp(block.data(), sent.data(), n), 0)
                           << n << "-byte block";
                     }
                     std::vector<std::byte> block(4096);
                     EXPECT_EQ(st.read(block.data(), 1), 0);
                     const auto s = st.stats();
                     EXPECT_EQ(s.blocks_read, 2u);
                     EXPECT_EQ(s.bytes_read, 4096u + 100u);
                     const auto peers = st.peer_stats();
                     ASSERT_EQ(peers.size(), 1u);
                     EXPECT_EQ(peers[0].bytes_delivered, 4096u + 100u);
                   }});
  Runtime rt(RuntimeConfig{}, std::move(progs));
  rt.run();
}

TEST(VmpiStream, FullBlocksChangeHandsWithoutACopy) {
  // Rendezvous-size blocks: the writer sends each framed block by
  // reference, and the reader's posted block receive takes that very
  // block. Only the control messages are copied: the open handshake and
  // the end-of-stream header, 24 bytes each.
  constexpr std::uint64_t kBlock = 32 * 1024;
  constexpr int kBlocks = 6;
  constexpr std::uint64_t kControlBytes = 2 * 24;
  auto& handoffs = obs::counter("simmpi.payload_handoffs");
  auto& copied = obs::counter("simmpi.payload_bytes_copied");
  const std::uint64_t h0 = handoffs.value();
  const std::uint64_t c0 = copied.value();
  obs::set_enabled(true, false);
  std::vector<ProgramSpec> progs;
  progs.push_back({"w", 1, [](ProcEnv& env) {
                     Stream st({kBlock, 2, BalancePolicy::None});
                     st.open_peer(env, 1, "w");
                     std::vector<std::byte> block(kBlock);
                     for (int b = 0; b < kBlocks; ++b) {
                       fill_block(block, 0, b);
                       st.write(block.data(), 1);
                     }
                     st.close();
                   }});
  progs.push_back({"r", 1, [](ProcEnv& env) {
                     Stream st({kBlock, 2, BalancePolicy::None});
                     st.open_peer(env, 0, "r");
                     std::vector<std::byte> block(kBlock);
                     std::vector<std::byte> sent(kBlock);
                     for (int b = 0; b < kBlocks; ++b) {
                       ASSERT_EQ(st.read(block.data(), 1), 1);
                       fill_block(sent, 0, b);
                       EXPECT_EQ(block, sent) << "block " << b;
                     }
                     EXPECT_EQ(st.read(block.data(), 1), 0);
                   }});
  Runtime rt(RuntimeConfig{}, std::move(progs));
  rt.run();
  obs::set_enabled(false, false);
  EXPECT_EQ(handoffs.value() - h0, static_cast<std::uint64_t>(kBlocks));
  EXPECT_EQ(copied.value() - c0, kControlBytes);
}

TEST(VmpiStream, CorruptionOfAHandedOffBlockIsCaught) {
  // The injected bit flip must land in the block the reader was handed;
  // flipping anywhere else would let every corrupt block pass as clean.
  constexpr std::uint64_t kBlock = 32 * 1024;
  constexpr int kBlocks = 4;  // under the 8-retry quarantine threshold
  RuntimeConfig cfg;
  cfg.faults.links.push_back({.corrupt_probability = 1.0});
  std::vector<ProgramSpec> progs;
  progs.push_back({"w", 1, [](ProcEnv& env) {
                     Stream st({kBlock, 2, BalancePolicy::None});
                     st.open_peer(env, 1, "w");
                     std::vector<std::byte> block(kBlock);
                     for (int b = 0; b < kBlocks; ++b) {
                       fill_block(block, 0, b);
                       st.write(block.data(), 1);
                     }
                     st.close();
                   }});
  progs.push_back({"r", 1, [](ProcEnv& env) {
                     Stream st({kBlock, 2, BalancePolicy::None});
                     st.open_peer(env, 0, "r");
                     std::vector<std::byte> block(kBlock);
                     // Drain whatever passes, so the writer never waits
                     // on a departed reader. The end-of-stream header is
                     // corrupted too, so the link ends as a dead writer.
                     int r = 0;
                     while ((r = st.read(block.data(), 1)) == 1) {
                     }
                     EXPECT_EQ(r, kEpipe);
                     const auto s = st.stats();
                     EXPECT_EQ(s.blocks_read, 0u);
                     EXPECT_GE(s.blocks_corrupted,
                               static_cast<std::uint64_t>(kBlocks));
                   }});
  Runtime rt(std::move(cfg), std::move(progs));
  rt.run();
}

TEST(VmpiStream, OpenMintsNoBlockAndSlotsHoldNoStorage) {
  // Output buffers and reader slots are credits: opening 4 writers -> 1
  // reader mints no pool block (pre-minted credits would be writers x
  // n_async + links x n_async = 16), and a reader that keeps up bounds the
  // blocks ever minted by those in flight at once. A block handed over by
  // read_some returns to its pool when its last view drops.
  static constexpr std::uint64_t kBlock = 40 * 1024 + 8;  // rendezvous
  static constexpr int kWriters = 4;
  static constexpr int kAsync = 2;
  static constexpr int kBlocks = 12;
  static constexpr int kGoTag = 11;
  mem::BufferPool& pool = mem::pool_for(kBlock + 24);
  const std::uint64_t m0 = pool.stats().misses;
  std::uint64_t minted_at_open = ~0ull;
  int blocks_read = 0;
  std::vector<ProgramSpec> progs;
  progs.push_back({"w", kWriters, [](ProcEnv& env) {
                     Stream st({kBlock, kAsync, BalancePolicy::None});
                     st.open_peer(env, kWriters, "w");
                     send_token(env, kWriters);
                     int go = 0;
                     env.universe.recv(&go, sizeof go, kWriters, kGoTag);
                     std::vector<std::byte> block(kBlock);
                     for (int b = 0; b < kBlocks; ++b) {
                       fill_block(block, env.universe_rank, b);
                       st.write(block.data(), 1);
                     }
                     st.close();
                   }});
  progs.push_back({"r", 1, [&](ProcEnv& env) {
                     Map map;
                     for (int w = 0; w < kWriters; ++w) map.append_peer(w);
                     Stream st({kBlock, kAsync, BalancePolicy::RoundRobin});
                     st.open_map(env, map, "r");
                     for (int w = 0; w < kWriters; ++w) recv_token(env, w);
                     minted_at_open = pool.stats().misses - m0;
                     for (int w = 0; w < kWriters; ++w) {
                       int go = 1;
                       env.universe.send(&go, sizeof go, w, kGoTag);
                     }
                     std::vector<BufferRef> out;
                     int r = 0;
                     while ((r = st.read_some(out, 4)) > 0) {
                       blocks_read += r;
                       for (const auto& v : out)
                         EXPECT_TRUE(check_block(std::vector<std::byte>(
                             v->data(), v->data() + kBlock)));
                       // Each handed-over block returns to its pool
                       // when its last view drops.
                       const std::uint64_t released = pool.stats().released;
                       out.clear();
                       EXPECT_EQ(pool.stats().released,
                                 released + static_cast<std::uint64_t>(r));
                     }
                     EXPECT_EQ(r, 0);
                   }});
  Runtime rt(RuntimeConfig{}, std::move(progs));
  rt.run();
  EXPECT_EQ(minted_at_open, 0u);
  EXPECT_EQ(blocks_read, kWriters * kBlocks);
  // The reader keeps up and holds no block past its read_some, so no
  // writer ever has more blocks alive than its kAsync credits.
  EXPECT_LE(pool.stats().misses - m0,
            static_cast<std::uint64_t>(kWriters * kAsync));
}

TEST(VmpiStreamReadSome, HandsOverExactlyThePayloadAndRepostsTheSlot) {
  static constexpr std::uint64_t kBlock = 4096;
  static constexpr std::uint64_t kShort = 300;
  std::vector<ProgramSpec> progs;
  progs.push_back({"w", 1, [](ProcEnv& env) {
                     Stream st({kBlock, 2, BalancePolicy::None});
                     st.open_peer(env, 1, "w");
                     std::vector<std::byte> block(kBlock);
                     fill_block(block, 0, 0);
                     st.write_partial(block.data(), kShort);
                     fill_block(block, 0, 1);
                     st.write(block.data(), 1);
                     send_token(env, 1);  // both blocks sit in their slots
                     recv_token(env, 1);
                     st.close();
                   }});
  progs.push_back({"r", 1, [](ProcEnv& env) {
                     Stream st({kBlock, 2, BalancePolicy::None});
                     st.open_peer(env, 0, "r");
                     recv_token(env, 0);
                     std::vector<BufferRef> out;
                     ASSERT_EQ(st.read_some(out, 8, kNonblock), 2);
                     // A view of exactly the payload: the short block is
                     // 300 bytes, not a block_size buffer with a tail.
                     ASSERT_EQ(out.size(), 2u);
                     EXPECT_TRUE(out[0]->is_view());
                     ASSERT_EQ(out[0]->size(), kShort);
                     std::vector<std::byte> sent(kBlock);
                     fill_block(sent, 0, 0);
                     EXPECT_EQ(std::memcmp(out[0]->data(), sent.data(), kShort),
                               0);
                     ASSERT_EQ(out[1]->size(), kBlock);
                     EXPECT_TRUE(check_block(std::vector<std::byte>(
                         out[1]->data(), out[1]->data() + kBlock)));
                     // Both slots' receives were reposted.
                     EXPECT_EQ(env.runtime->mailbox(env.universe_rank)
                                   .pending_recvs(),
                               2u);
                     EXPECT_EQ(st.stats().bytes_read, kShort + kBlock);
                     send_token(env, 0);
                     EXPECT_EQ(st.read_some(out, 8), 0);
                     // The handed-over blocks outlive the stream's slots.
                     EXPECT_TRUE(check_block(std::vector<std::byte>(
                         out[1]->data(), out[1]->data() + kBlock)));
                   }});
  Runtime rt(RuntimeConfig{}, std::move(progs));
  rt.run();
}

TEST(VmpiStreamReadSome, CorruptBlockIsCountedAndNeverHandedOver) {
  constexpr int kBlocks = 3;
  RuntimeConfig cfg;
  cfg.faults.links.push_back({.corrupt_probability = 1.0});
  std::vector<ProgramSpec> progs;
  progs.push_back({"w", 1, [](ProcEnv& env) {
                     Stream st({4096, 2, BalancePolicy::None});
                     st.open_peer(env, 1, "w");
                     std::vector<std::byte> block(4096);
                     for (int b = 0; b < kBlocks; ++b) {
                       fill_block(block, 0, b);
                       st.write(block.data(), 1);
                     }
                     st.close();
                   }});
  progs.push_back({"r", 1, [](ProcEnv& env) {
                     Stream st({4096, 2, BalancePolicy::None});
                     st.open_peer(env, 0, "r");
                     std::vector<BufferRef> out;
                     int r = 0;
                     while ((r = st.read_some(out, 8)) > 0) {
                     }
                     // The end-of-stream header is corrupted too, so the
                     // link ends as a dead writer.
                     EXPECT_EQ(r, kEpipe);
                     EXPECT_TRUE(out.empty());
                     const auto s = st.stats();
                     EXPECT_EQ(s.blocks_read, 0u);
                     EXPECT_EQ(s.blocks_corrupted,
                               static_cast<std::uint64_t>(kBlocks + 1));
                   }});
  Runtime rt(std::move(cfg), std::move(progs));
  rt.run();
}

/// What a same-seed stream run must reproduce: both partitions' virtual
/// walltimes (bits) and the order in which every reader took its blocks.
struct StreamPrint {
  std::vector<std::uint64_t> walltime_bits;
  std::vector<std::vector<std::uint64_t>> arrivals;
  bool operator==(const StreamPrint&) const = default;
};

StreamPrint run_stream_job() {
  constexpr int kWriters = 8;
  constexpr int kReaders = 2;
  constexpr int kBlocks = 6;
  constexpr std::uint64_t kBlock = 64 * 1024;
  StreamPrint p;
  p.arrivals.resize(kReaders);
  std::vector<ProgramSpec> progs;
  progs.push_back({"w", kWriters, [](ProcEnv& env) {
                     Map m;
                     m.map_partitions(
                         env, env.runtime->partition_by_name("r")->id,
                         MapPolicy::RoundRobin);
                     Stream st({kBlock, 3, BalancePolicy::RoundRobin});
                     st.open_map(env, m, "w");
                     std::vector<std::byte> block(kBlock);
                     for (int b = 0; b < kBlocks; ++b) {
                       fill_block(block, env.universe_rank, b);
                       st.write(block.data(), 1);
                       mpi::compute(1e-5 * (env.world_rank % 3));
                     }
                     st.close();
                   }});
  progs.push_back(
      {"r", kReaders, [&p](ProcEnv& env) {
         Map m;
         m.map_partitions(env, env.runtime->partition_by_name("w")->id,
                          MapPolicy::RoundRobin);
         Stream st({kBlock, 3, BalancePolicy::RoundRobin});
         st.open_map(env, m, "r");
         auto& order = p.arrivals[static_cast<std::size_t>(env.world_rank)];
         auto note = [&](const std::byte* data) {
           std::uint64_t id[2];
           std::memcpy(id, data, sizeof id);
           order.push_back(id[0] << 32 | id[1]);
         };
         if (env.world_rank == 0) {  // copying reads
           std::vector<std::byte> block(kBlock);
           while (st.read(block.data(), 1) == 1) note(block.data());
         } else {  // handoff reads
           std::vector<BufferRef> out;
           while (st.read_some(out, 4) > 0) {
             for (const auto& b : out) note(b->data());
             out.clear();
           }
         }
       }});
  Runtime rt(RuntimeConfig{}, std::move(progs));
  rt.run();
  for (int part = 0; part < 2; ++part) {
    const double w = rt.partition_walltime(part);
    std::uint64_t bits = 0;
    std::memcpy(&bits, &w, sizeof bits);
    p.walltime_bits.push_back(bits);
  }
  return p;
}

TEST(VmpiStream, SameSeedRunsAreIdenticalWithHelpersOrInline) {
  const StreamPrint first = run_stream_job();
  EXPECT_EQ(first.arrivals[0].size() + first.arrivals[1].size(), 48u);
  EXPECT_EQ(run_stream_job(), first) << "two same-seed runs differ";
  helpers::set_inline_for_testing(true);
  const StreamPrint inline_run = run_stream_job();
  helpers::set_inline_for_testing(false);
  EXPECT_EQ(inline_run, first) << "inline byte work changed the run";
}

TEST(VmpiStream, WriterWhoseWholeReaderPartitionDiedWritesIntoADeadEnd) {
  // Writers w0, w1 (world 0, 1) map one-to-one onto readers r0, r1
  // (world 2, 3), and both readers crash at 1 ms. Past the lease each
  // writer declares its reader dead and finds no survivor: the endpoint
  // becomes a dead end. Later writes must fail (counted, never blocking),
  // and close() must send no end-of-stream at all — a send to rank -1
  // would throw out of the writer and out of rt.run().
  constexpr int kEarly = 2, kLate = 3;
  std::vector<StreamStats> writer_stats(2);
  std::vector<ProgramSpec> progs;
  progs.push_back({"w", 2, [&](ProcEnv& env) {
                     Map map;
                     map.map_partitions(
                         env, env.runtime->partition_by_name("r")->id,
                         MapPolicy::RoundRobin);
                     StreamConfig sc;
                     sc.block_size = 4096;
                     sc.hb_lease = 5e-4;
                     Stream st(sc);
                     st.open_map(env, map, "w");
                     std::vector<std::byte> block(4096);
                     for (int b = 0; b < kEarly; ++b) st.write(block.data(), 1);
                     mpi::compute(5e-3);  // past both deaths and the lease
                     for (int b = 0; b < kLate; ++b) st.write(block.data(), 1);
                     st.close();
                     writer_stats[static_cast<std::size_t>(env.world_rank)] =
                         st.stats();
                   }});
  progs.push_back({"r", 2, [](ProcEnv& env) {
                     Map map;
                     map.map_partitions(
                         env, env.runtime->partition_by_name("w")->id,
                         MapPolicy::RoundRobin);
                     StreamConfig sc;
                     sc.block_size = 4096;
                     sc.hb_lease = 5e-4;
                     Stream st(sc);
                     st.open_map(env, map, "r");
                     std::vector<std::byte> block(4096);
                     while (st.read(block.data(), 1) > 0) {
                     }
                   }});
  RuntimeConfig cfg;
  for (const int reader : {2, 3}) {
    cfg.faults.crashes.push_back({});
    cfg.faults.crashes.back().world_rank = reader;
    cfg.faults.crashes.back().at_time = 1e-3;
  }
  Runtime rt(cfg, std::move(progs));
  ASSERT_NO_THROW(rt.run());
  EXPECT_TRUE(rt.rank_dead(2));
  EXPECT_TRUE(rt.rank_dead(3));
  for (const StreamStats& s : writer_stats) {
    EXPECT_EQ(s.blocks_written, static_cast<std::uint64_t>(kEarly));
    EXPECT_EQ(s.writes_failed, static_cast<std::uint64_t>(kLate))
        << "every write into the dead end is a counted failure";
    EXPECT_EQ(s.failovers, 1u);
    EXPECT_EQ(s.resent_blocks, 0u) << "nobody to replay to";
  }
}

TEST(VmpiStream, LinkReturningToAReclaimedReaderIsRepostedInFull) {
  // Writers w0, w1 (world 0, 1), elastic readers r0, r1 (world 2, 3).
  // Member 0 leaves at 1 ms and re-joins at 2 ms, so under round-robin
  // routing w0's link goes r0 -> r1 -> r0. r0 reclaims the receives of
  // every closed link between its reads, and w0 waits after its drain
  // until r0 has done so: when the link comes back its previous
  // incarnation has no slot left, and the reopen must post all n_async
  // receives again.
  constexpr int kBlocks = 10;
  constexpr int kDrainWrite = 3;  ///< w0's first write past 1 ms.
  std::vector<std::uint64_t> delivered(2), drain_joins(2), lost(2);
  std::vector<ProgramSpec> progs;
  progs.push_back({"w", 2, [](ProcEnv& env) {
                     Map map;
                     map.map_partitions(
                         env, env.runtime->partition_by_name("r")->id,
                         MapPolicy::RoundRobin);
                     Stream st(StreamConfig{.block_size = 4096});
                     st.open_map(env, map, "w");
                     std::vector<std::byte> block(4096);
                     for (int b = 0; b < kBlocks; ++b) {
                       st.write(block.data(), 1);
                       if (b == kDrainWrite && env.world_rank == 0)
                         recv_token(env, 2);
                       mpi::compute(4e-4);
                     }
                     st.close();
                   }});
  progs.push_back({"r", 2, [&](ProcEnv& env) {
                     Map map;
                     map.map_partitions(
                         env, env.runtime->partition_by_name("w")->id,
                         MapPolicy::RoundRobin);
                     Stream st(StreamConfig{.block_size = 4096});
                     st.open_map(env, map, "r");
                     std::vector<std::byte> block(4096);
                     bool reclaimed = env.world_rank != 0;
                     while (st.read(block.data(), 1, kNonblock) != 0) {
                       st.reclaim_closed_slots();
                       const auto ps = st.peer_stats();
                       if (!reclaimed && !ps.empty() && ps[0].closed) {
                         send_token(env, 0);  // w0's first tenure is over
                         reclaimed = true;
                       }
                     }
                     const auto i = static_cast<std::size_t>(env.world_rank);
                     for (const StreamPeerStats& ps : st.peer_stats()) {
                       delivered[i] += ps.blocks_delivered;
                       lost[i] += ps.blocks_lost;
                     }
                     drain_joins[i] = st.stats().drain_joins;
                   }});
  RuntimeConfig cfg;
  cfg.elastic.events = {{.at_time = 1e-3, .member = 0, .join = false},
                        {.at_time = 2e-3, .member = 0, .join = true}};
  cfg.elastic.first_world = 2;
  cfg.elastic.n_members = 2;
  Runtime rt(cfg, std::move(progs));
  rt.run();
  EXPECT_EQ(drain_joins[0], 1u) << "w0's link must come back to r0";
  EXPECT_EQ(drain_joins[1], 1u);
  EXPECT_GT(delivered[0], 0u);
  EXPECT_EQ(delivered[0] + delivered[1],
            static_cast<std::uint64_t>(2 * kBlocks));
  EXPECT_EQ(lost[0] + lost[1], 0u);
}

TEST(VmpiStream, FailedElasticOpenDestroysCleanly) {
  // One writer over two elastic readers holds two endpoints in the
  // elastic partition, which open_map rejects. The half-opened stream
  // must then be destroyed without closing anything.
  std::vector<ProgramSpec> progs;
  progs.push_back({"w", 1, [](ProcEnv& env) {
                     Map map;
                     map.map_partitions(
                         env, env.runtime->partition_by_name("r")->id,
                         MapPolicy::RoundRobin);
                     Stream st;
                     EXPECT_THROW(st.open_map(env, map, "w"),
                                  std::invalid_argument);
                     EXPECT_FALSE(st.is_open());
                   }});
  progs.push_back({"r", 2, [](ProcEnv&) {}});
  RuntimeConfig cfg;
  cfg.elastic.events = {{.at_time = 1e-3, .member = 1, .join = false}};
  cfg.elastic.first_world = 1;
  cfg.elastic.n_members = 2;
  Runtime rt(cfg, std::move(progs));
  rt.run();
}

}  // namespace
}  // namespace esp::vmpi
