/// \file test_collectives.cpp
/// \brief Correctness of every collective across rank counts and sizes
/// (parameterized property sweeps).

#include <gtest/gtest.h>

#include <numeric>
#include <vector>

#include "simmpi/runtime.hpp"

namespace esp::mpi {
namespace {

void run_spmd(int n, ProgramMain main) {
  std::vector<ProgramSpec> progs;
  progs.push_back({"test", n, std::move(main)});
  Runtime rt(RuntimeConfig{}, std::move(progs));
  rt.run();
}

class CollectivesP : public ::testing::TestWithParam<int> {};

TEST_P(CollectivesP, Barrier) {
  const int n = GetParam();
  std::atomic<int> before{0};
  run_spmd(n, [&](ProcEnv& env) {
    before.fetch_add(1);
    env.world.barrier();
    EXPECT_EQ(before.load(), n) << "barrier released before all arrived";
  });
}

TEST_P(CollectivesP, BcastFromEveryRoot) {
  const int n = GetParam();
  run_spmd(n, [&](ProcEnv& env) {
    for (int root = 0; root < n; ++root) {
      std::vector<int> buf(64, env.world_rank == root ? root + 1000 : -1);
      env.world.bcast(buf.data(), buf.size() * sizeof(int), root);
      for (int v : buf) ASSERT_EQ(v, root + 1000);
    }
  });
}

TEST_P(CollectivesP, ReduceSumToRoot) {
  const int n = GetParam();
  run_spmd(n, [&](ProcEnv& env) {
    std::vector<std::int64_t> in(8);
    for (std::size_t i = 0; i < in.size(); ++i)
      in[i] = env.world_rank + static_cast<int>(i);
    std::vector<std::int64_t> out(8, -1);
    env.world.reduce(in.data(), out.data(), 8, Datatype::Int64, ReduceOp::Sum,
                     0);
    if (env.world_rank == 0) {
      const std::int64_t ranksum = static_cast<std::int64_t>(n) * (n - 1) / 2;
      for (std::size_t i = 0; i < out.size(); ++i)
        EXPECT_EQ(out[i], ranksum + static_cast<std::int64_t>(i) * n);
    }
  });
}

TEST_P(CollectivesP, AllreduceMinMax) {
  const int n = GetParam();
  run_spmd(n, [&](ProcEnv& env) {
    double v = static_cast<double>(env.world_rank);
    double lo = env.world.allreduce_one(v, ReduceOp::Min);
    double hi = env.world.allreduce_one(v, ReduceOp::Max);
    EXPECT_DOUBLE_EQ(lo, 0.0);
    EXPECT_DOUBLE_EQ(hi, static_cast<double>(n - 1));
  });
}

TEST_P(CollectivesP, GatherCollectsInRankOrder) {
  const int n = GetParam();
  run_spmd(n, [&](ProcEnv& env) {
    const int root = n / 2;
    std::int32_t mine = env.world_rank * 3;
    std::vector<std::int32_t> all(static_cast<std::size_t>(n), -1);
    env.world.gather(&mine, sizeof mine, all.data(), root);
    if (env.world_rank == root) {
      for (int i = 0; i < n; ++i)
        EXPECT_EQ(all[static_cast<std::size_t>(i)], i * 3);
    }
  });
}

TEST_P(CollectivesP, AllgatherEveryoneSeesAll) {
  const int n = GetParam();
  run_spmd(n, [&](ProcEnv& env) {
    std::int32_t mine = 7 + env.world_rank;
    std::vector<std::int32_t> all(static_cast<std::size_t>(n), -1);
    env.world.allgather(&mine, sizeof mine, all.data());
    for (int i = 0; i < n; ++i)
      EXPECT_EQ(all[static_cast<std::size_t>(i)], 7 + i);
  });
}

TEST_P(CollectivesP, AlltoallTransposes) {
  const int n = GetParam();
  run_spmd(n, [&](ProcEnv& env) {
    // Element sent to rank j encodes (me, j); after alltoall slot i must
    // encode (i, me).
    std::vector<std::int64_t> out(static_cast<std::size_t>(n));
    std::vector<std::int64_t> in(static_cast<std::size_t>(n));
    for (int j = 0; j < n; ++j)
      out[static_cast<std::size_t>(j)] = env.world_rank * 10000 + j;
    env.world.alltoall(out.data(), sizeof(std::int64_t), in.data());
    for (int i = 0; i < n; ++i)
      EXPECT_EQ(in[static_cast<std::size_t>(i)], i * 10000 + env.world_rank);
  });
}

TEST_P(CollectivesP, ScanPrefixSums) {
  const int n = GetParam();
  run_spmd(n, [&](ProcEnv& env) {
    std::int64_t v = env.world_rank + 1;
    std::int64_t out = 0;
    env.world.scan(&v, &out, 1, Datatype::Int64, ReduceOp::Sum);
    const std::int64_t r = env.world_rank + 1;
    EXPECT_EQ(out, r * (r + 1) / 2);
  });
}

INSTANTIATE_TEST_SUITE_P(RankCounts, CollectivesP,
                         ::testing::Values(1, 2, 3, 4, 5, 8, 13, 16, 32));

TEST(Alltoall, SizeOnlyChargesLikeBuffered) {
  // Null in/out is a size-only alltoall: the same rank clocks as the
  // buffered call, at an eager and a rendezvous block size. One rank per
  // node: ranks sharing a node's copy lanes are granted them in host
  // arrival order (DESIGN "Known approximation"), which moves an eager
  // sender's clock between runs whatever its buffers are.
  constexpr int kRanks = 4;
  RuntimeConfig cfg;
  cfg.machine.cores_per_node = 1;
  auto clocks = [&cfg](std::uint64_t each, bool size_only) {
    std::vector<ProgramSpec> progs;
    progs.push_back({"test", kRanks, [=](ProcEnv& env) {
                       std::vector<std::byte> out(size_only ? 0 : each * kRanks);
                       std::vector<std::byte> in(out.size());
                       env.world.alltoall(size_only ? nullptr : out.data(), each,
                                          size_only ? nullptr : in.data());
                     }});
    Runtime rt(cfg, std::move(progs));
    rt.run();
    std::vector<double> c;
    for (int r = 0; r < kRanks; ++r) c.push_back(rt.final_clock(r));
    return c;
  };
  for (const std::uint64_t each : {1024ull, 64ull * 1024}) {
    SCOPED_TRACE(::testing::Message() << each << " bytes per block");
    EXPECT_EQ(clocks(each, true), clocks(each, false));
  }
}

TEST(CommSplit, SplitsByColorOrderedByKey) {
  run_spmd(8, [](ProcEnv& env) {
    const int color = env.world_rank % 2;
    const int key = -env.world_rank;  // reverse order inside each color
    Comm sub = env.world.split(color, key);
    ASSERT_TRUE(sub.valid());
    EXPECT_EQ(sub.size(), 4);
    // Reverse key: highest world rank gets rank 0.
    const int expected = (6 + color - env.world_rank) / 2;
    EXPECT_EQ(sub.rank(), expected);
    // The sub-communicator is a working message namespace.
    std::int32_t mine = env.world_rank;
    std::vector<std::int32_t> all(4, -1);
    sub.allgather(&mine, sizeof mine, all.data());
    for (int i = 1; i < 4; ++i)
      EXPECT_EQ(all[static_cast<std::size_t>(i)],
                all[static_cast<std::size_t>(i - 1)] - 2);
  });
}

TEST(CommSplit, UndefinedColorYieldsInvalidComm) {
  run_spmd(4, [](ProcEnv& env) {
    Comm sub = env.world.split(env.world_rank == 0 ? -1 : 0, 0);
    if (env.world_rank == 0) {
      EXPECT_FALSE(sub.valid());
    } else {
      ASSERT_TRUE(sub.valid());
      EXPECT_EQ(sub.size(), 3);
      sub.barrier();
    }
  });
}

TEST(CommDup, DupIsIsolatedNamespace) {
  run_spmd(2, [](ProcEnv& env) {
    Comm dup = env.world.dup();
    ASSERT_TRUE(dup.valid());
    ASSERT_NE(dup.context(), env.world.context());
    // A wildcard receive on world must not catch a message sent on dup.
    if (env.world_rank == 0) {
      int a = 1, b = 2;
      dup.send(&a, sizeof a, 1, 0);
      env.world.send(&b, sizeof b, 1, 0);
    } else {
      int v = 0;
      env.world.recv(&v, sizeof v, kAnySource, kAnyTag);
      EXPECT_EQ(v, 2);
      dup.recv(&v, sizeof v, 0, 0);
      EXPECT_EQ(v, 1);
    }
  });
}

}  // namespace
}  // namespace esp::mpi
