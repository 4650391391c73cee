/// \file test_simmpi.cpp
/// \brief Unit tests for the esp::mpi runtime: point-to-point semantics,
/// wildcards, nonblocking completion, virtual-clock behaviour, the tool
/// chain, rank translation on split communicators, the by-reference
/// block handover with its copy fallbacks, and size-only (null-buffer)
/// messages.

#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <bit>
#include <cstddef>
#include <cstring>
#include <deque>
#include <filesystem>
#include <fstream>
#include <iterator>
#include <numeric>
#include <random>
#include <set>
#include <stdexcept>
#include <string>
#include <vector>

#include "common/buffer.hpp"
#include "common/hash.hpp"
#include "common/helpers.hpp"
#include "core/session.hpp"
#include "nas/workloads.hpp"
#include "net/fault.hpp"
#include "obs/metrics.hpp"
#include "obs/obs.hpp"
#include "simmpi/fiber.hpp"
#include "simmpi/runtime.hpp"

namespace esp::mpi {
namespace {

RuntimeConfig small_config() {
  RuntimeConfig cfg;
  cfg.machine = net::MachineConfig::tera100();
  return cfg;
}

/// Run `n` ranks of a single program.
void run_spmd(int n, ProgramMain main, RuntimeConfig cfg = small_config()) {
  std::vector<ProgramSpec> progs;
  progs.push_back({"test", n, std::move(main)});
  Runtime rt(std::move(cfg), std::move(progs));
  rt.run();
}

TEST(SimMpi, WorldRankAndSize) {
  std::atomic<int> visits{0};
  run_spmd(4, [&](ProcEnv& env) {
    EXPECT_EQ(env.world.size(), 4);
    EXPECT_EQ(env.world.rank(), env.world_rank);
    EXPECT_EQ(env.universe.rank(), env.universe_rank);
    visits.fetch_add(1);
  });
  EXPECT_EQ(visits.load(), 4);
}

TEST(SimMpi, BlockingSendRecvDeliversPayload) {
  run_spmd(2, [](ProcEnv& env) {
    if (env.world_rank == 0) {
      std::vector<int> data(256);
      std::iota(data.begin(), data.end(), 7);
      env.world.send(data.data(), data.size() * sizeof(int), 1, 42);
    } else {
      std::vector<int> data(256, 0);
      Status st = env.world.recv(data.data(), data.size() * sizeof(int), 0, 42);
      EXPECT_EQ(st.source, 0);
      EXPECT_EQ(st.tag, 42);
      EXPECT_EQ(st.bytes, 256u * sizeof(int));
      for (int i = 0; i < 256; ++i) EXPECT_EQ(data[static_cast<size_t>(i)], 7 + i);
    }
  });
}

TEST(SimMpi, RendezvousLargeMessage) {
  // Above the eager threshold the sender must still complete and the
  // payload must arrive intact.
  run_spmd(2, [](ProcEnv& env) {
    const std::size_t n = 1 << 20;  // 1 MiB > 16 KiB threshold
    if (env.world_rank == 0) {
      std::vector<std::uint8_t> data(n);
      for (std::size_t i = 0; i < n; ++i)
        data[i] = static_cast<std::uint8_t>(i * 131);
      env.world.send(data.data(), n, 1, 0);
    } else {
      std::vector<std::uint8_t> data(n, 0);
      env.world.recv(data.data(), n, 0, 0);
      for (std::size_t i = 0; i < n; i += 4097)
        ASSERT_EQ(data[i], static_cast<std::uint8_t>(i * 131));
    }
  });
}

TEST(SimMpi, AnySourceAnyTag) {
  run_spmd(3, [](ProcEnv& env) {
    if (env.world_rank != 0) {
      int v = env.world_rank * 100;
      env.world.send(&v, sizeof v, 0, env.world_rank);
    } else {
      int seen[2] = {0, 0};
      for (int i = 0; i < 2; ++i) {
        int v = 0;
        Status st = env.world.recv(&v, sizeof v, kAnySource, kAnyTag);
        EXPECT_EQ(v, st.source * 100);
        EXPECT_EQ(st.tag, st.source);
        seen[st.source - 1]++;
      }
      EXPECT_EQ(seen[0], 1);
      EXPECT_EQ(seen[1], 1);
    }
  });
}

TEST(SimMpi, NonblockingRoundtrip) {
  run_spmd(2, [](ProcEnv& env) {
    int out = env.world_rank + 1;
    int in = -1;
    const int peer = 1 - env.world_rank;
    Request r = env.world.irecv(&in, sizeof in, peer, 5);
    Request s = env.world.isend(&out, sizeof out, peer, 5);
    Status st = wait(r);
    wait(s);
    EXPECT_EQ(in, peer + 1);
    EXPECT_EQ(st.source, peer);
  });
}

TEST(SimMpi, MessageOrderingPerPair) {
  run_spmd(2, [](ProcEnv& env) {
    constexpr int kN = 50;
    if (env.world_rank == 0) {
      for (int i = 0; i < kN; ++i) env.world.send(&i, sizeof i, 1, 9);
    } else {
      for (int i = 0; i < kN; ++i) {
        int v = -1;
        env.world.recv(&v, sizeof v, 0, 9);
        ASSERT_EQ(v, i) << "FIFO order violated";
      }
    }
  });
}

TEST(SimMpi, ClockAdvancesWithTraffic) {
  std::vector<ProgramSpec> progs;
  progs.push_back({"test", 2, [](ProcEnv& env) {
                     std::vector<char> buf(1 << 20);
                     if (env.world_rank == 0) {
                       env.world.send(buf.data(), buf.size(), 1, 0);
                     } else {
                       env.world.recv(buf.data(), buf.size(), 0, 0);
                     }
                   }});
  RuntimeConfig cfg = small_config();
  cfg.machine.cores_per_node = 1;  // force the inter-node (NIC) path
  Runtime rt(cfg, std::move(progs));
  rt.run();
  // 1 MiB across nodes at 1.25 GB/s is ~0.8 ms; clocks must reflect it.
  EXPECT_GT(rt.final_clock(1), 500e-6);
  EXPECT_LT(rt.final_clock(1), 50e-3);
}

TEST(SimMpi, ComputeAdvancesClock) {
  std::vector<ProgramSpec> progs;
  progs.push_back({"test", 1, [](ProcEnv&) { compute(0.25); }});
  Runtime rt(small_config(), std::move(progs));
  rt.run();
  EXPECT_DOUBLE_EQ(rt.final_clock(0), 0.25);
}

TEST(SimMpi, IprobeSeesPendingMessage) {
  run_spmd(2, [](ProcEnv& env) {
    if (env.world_rank == 0) {
      int v = 77;
      env.world.send(&v, sizeof v, 1, 3);
      env.world.barrier();
    } else {
      env.world.barrier();  // after this, the eager message is queued
      Status st;
      // Poll as MPI programs do; a miss is an idle wait.
      while (!env.world.iprobe(0, 3, &st)) {
      }
      EXPECT_EQ(st.source, 0);
      EXPECT_EQ(st.tag, 3);
      EXPECT_EQ(st.bytes, sizeof(int));
      int v = 0;
      env.world.recv(&v, sizeof v, 0, 3);
      EXPECT_EQ(v, 77);
    }
  });
}

TEST(SimMpi, ToolChainSeesCalls) {
  struct Counter : Tool {
    std::atomic<int> sends{0}, recvs{0};
    void on_call(RankContext&, const CallInfo& ci) override {
      if (ci.kind == CallKind::Send) sends.fetch_add(1);
      if (ci.kind == CallKind::Recv) recvs.fetch_add(1);
    }
  };
  auto counter = std::make_shared<Counter>();
  std::vector<ProgramSpec> progs;
  progs.push_back({"test", 2, [](ProcEnv& env) {
                     int v = 1;
                     if (env.world_rank == 0)
                       env.world.send(&v, sizeof v, 1, 0);
                     else
                       env.world.recv(&v, sizeof v, 0, 0);
                   }});
  Runtime rt(small_config(), std::move(progs));
  rt.tools().attach(counter);
  rt.run();
  EXPECT_EQ(counter->sends.load(), 1);
  EXPECT_EQ(counter->recvs.load(), 1);
}

TEST(SimMpi, ToolPartitionFilter) {
  struct Counter : Tool {
    std::atomic<int> calls{0};
    void on_call(RankContext&, const CallInfo&) override { calls.fetch_add(1); }
  };
  auto only_a = std::make_shared<Counter>();
  std::vector<ProgramSpec> progs;
  auto body = [](ProcEnv& env) { env.world.barrier(); };
  progs.push_back({"a", 2, body});
  progs.push_back({"b", 2, body});
  Runtime rt(small_config(), std::move(progs));
  rt.tools().attach(only_a, 0);
  rt.run();
  EXPECT_EQ(only_a->calls.load(), 2);  // one Barrier call per rank of "a"
}

TEST(SimMpi, PartitionDescriptors) {
  std::vector<ProgramSpec> progs;
  progs.push_back({"app", 3, [](ProcEnv& env) {
                     const auto* an =
                         env.runtime->partition_by_name("analyzer");
                     ASSERT_NE(an, nullptr);
                     EXPECT_EQ(an->size, 2);
                     EXPECT_EQ(an->first_world_rank, 3);
                     EXPECT_EQ(env.partition->name, "app");
                   }});
  progs.push_back({"analyzer", 2, [](ProcEnv& env) {
                     EXPECT_EQ(env.world.size(), 2);
                     EXPECT_EQ(env.universe.size(), 5);
                   }});
  Runtime rt(small_config(), std::move(progs));
  rt.run();
}

TEST(SimMpi, UniverseSpansPartitionsAndWorldIsVirtualized) {
  // Cross-partition traffic over the universe communicator; the partition
  // "world" communicators are fully isolated message namespaces.
  std::vector<ProgramSpec> progs;
  progs.push_back({"a", 1, [](ProcEnv& env) {
                     int v = 123;
                     env.universe.send(&v, sizeof v, 1, 0);
                   }});
  progs.push_back({"b", 1, [](ProcEnv& env) {
                     int v = 0;
                     env.universe.recv(&v, sizeof v, 0, 0);
                     EXPECT_EQ(v, 123);
                     EXPECT_EQ(env.world.rank(), 0);  // virtualized world
                     EXPECT_EQ(env.universe.rank(), 1);
                   }});
  Runtime rt(small_config(), std::move(progs));
  rt.run();
}

TEST(SimMpi, SplitCommTranslatesNonContiguousRanks) {
  // Six ranks split by parity, keyed by descending world rank: the odd
  // comm is world {5, 3, 1}, the even one {4, 2, 0}.
  struct WaitRecorder : Tool {
    std::vector<std::pair<int, int>> seen;  ///< (world rank, comm_rank)
    void on_call(RankContext& rc, const CallInfo& ci) override {
      if (ci.kind == CallKind::Wait || ci.kind == CallKind::Waitall)
        seen.emplace_back(rc.world_rank, ci.comm_rank);
    }
  };
  auto rec = std::make_shared<WaitRecorder>();
  auto split_rank = [](int w) { return ((w % 2 == 0 ? 4 : 5) - w) / 2; };
  std::vector<ProgramSpec> progs;
  progs.push_back({"test", 6, [&](ProcEnv& env) {
                     const int w = env.world_rank;
                     Comm sub = env.world.split(w % 2, -w);
                     ASSERT_EQ(sub.size(), 3);
                     const int me = sub.rank();
                     EXPECT_EQ(me, split_rank(w));
                     for (int o = 0; o < 6; ++o)
                       EXPECT_EQ(sub.comm_rank_of_world(o),
                                 o % 2 == w % 2 ? split_rank(o) : -1);
                     EXPECT_EQ(sub.comm_rank_of_world(-1), -1);
                     EXPECT_EQ(sub.comm_rank_of_world(6), -1);
                     EXPECT_EQ(sub.comm_rank_of_world(1000), -1);
                     // A wildcard receive reports the sender's split rank.
                     if (me == 0) {
                       for (int i = 1; i < sub.size(); ++i) {
                         int v = -1;
                         const Status st =
                             sub.recv(&v, sizeof v, kAnySource, 5);
                         EXPECT_EQ(st.source, v);
                       }
                     } else {
                       sub.send(&me, sizeof me, 0, 5);
                     }
                     // A ring through wait/waitall: both report the
                     // caller's split rank to the tools.
                     int got = -1;
                     Request rr = sub.irecv(&got, sizeof got, kAnySource, 9);
                     Request sends[1] = {
                         sub.isend(&me, sizeof me, (me + 1) % 3, 9)};
                     waitall(sends);
                     const Status st = wait(rr);
                     EXPECT_EQ(st.source, (me + 2) % 3);
                     EXPECT_EQ(got, st.source);
                   }});
  Runtime rt(small_config(), std::move(progs));
  rt.tools().attach(rec);
  rt.run();
  ASSERT_EQ(rec->seen.size(), 12u);
  for (auto [w, comm_rank] : rec->seen)
    EXPECT_EQ(comm_rank, split_rank(w)) << "world rank " << w;
}

TEST(SimMpi, EagerSendDoesNotBlockWithoutReceiver) {
  // An eager-size send must complete even though the receive is posted
  // much later (after a barrier among other ranks would deadlock a
  // rendezvous-only implementation).
  run_spmd(2, [](ProcEnv& env) {
    if (env.world_rank == 0) {
      int v = 5;
      env.world.send(&v, sizeof v, 1, 1);  // completes eagerly
      int w = 0;
      env.world.recv(&w, sizeof w, 1, 2);
      EXPECT_EQ(w, 6);
    } else {
      int w = 6;
      env.world.send(&w, sizeof w, 0, 2);
      int v = 0;
      env.world.recv(&v, sizeof v, 0, 1);
      EXPECT_EQ(v, 5);
    }
  });
}

// ---------------------------------------------------------------------------
// By-reference point-to-point: a block receive takes the very buffer of a
// rendezvous send posted by reference and delivered whole; every other
// send reaches it as an exact copy of its physical bytes.
// ---------------------------------------------------------------------------

constexpr std::size_t k64K = 64 * 1024;
constexpr int kDataTag = 7;
constexpr int kGoTag = 8;
/// Where a sent view sits inside its parent buffer.
constexpr std::size_t kViewOffset = 4096;
constexpr std::byte kRecvFill{0xee};

std::byte sent_byte(std::size_t i) {
  return static_cast<std::byte>((i * 131 + 17) & 0xff);
}

/// One rank-0 -> rank-1 message; the send is a raw pointer or a
/// BufferRef, the receive a block receive or a raw buffer. A 1-byte eager
/// "go" message orders the two posts, so either side can be the one that
/// closes the match.
struct RefShape {
  std::size_t send_buf = k64K;    ///< Sender buffer size.
  std::size_t send_bytes = k64K;  ///< Message size.
  std::size_t recv_bytes = k64K;  ///< Posted receive capacity.
  bool send_ref = true;
  bool send_view = false;   ///< Send a view into a larger parent buffer.
  bool recv_block = true;   ///< Comm::pirecv_block; else a raw buffer.
  int tag = kDataTag;
  /// Receive posted first, so the sender closes the match; otherwise the
  /// send is queued first and the receiver closes it.
  bool recv_first = true;
};

struct RefOutcome {
  std::uint64_t handoffs = 0;      ///< simmpi.payload_handoffs delta.
  std::uint64_t bytes_copied = 0;  ///< Data-message payload bytes copied.
  Status status;                   ///< Receiver's completion.
  const Buffer* sent = nullptr;    ///< The Buffer object the sender sent.
  BufferRef delivered;             ///< A block receive's delivered buffer.
  std::vector<std::byte> sender_after;  ///< Sender buffer after completion.
  /// What the receiver holds: the delivered block, or its raw buffer.
  std::vector<std::byte> receiver_after;
};

RefOutcome run_ref_message(const RefShape& sh,
                           RuntimeConfig cfg = small_config()) {
  auto& handoffs = obs::counter("simmpi.payload_handoffs");
  auto& copied = obs::counter("simmpi.payload_bytes_copied");
  const std::uint64_t h0 = handoffs.value();
  const std::uint64_t c0 = copied.value();
  RefOutcome out;
  obs::set_enabled(true, false);
  run_spmd(
      2,
      [&](ProcEnv& env) {
        const Comm& c = env.world;
        char go = 1;
        if (env.world_rank == 0) {
          auto owner =
              Buffer::make(sh.send_buf + (sh.send_view ? kViewOffset : 0));
          BufferRef buf = sh.send_view
                              ? Buffer::view_of(owner, kViewOffset, sh.send_buf)
                              : owner;
          for (std::size_t i = 0; i < buf->size(); ++i)
            buf->data()[i] = sent_byte(i);
          out.sent = buf.get();
          if (sh.recv_first) c.precv(&go, 1, 1, kGoTag);
          Request req = sh.send_ref
                            ? c.pisend(buf, sh.send_bytes, 1, sh.tag)
                            : c.pisend(buf->data(), sh.send_bytes, 1, sh.tag);
          if (!sh.recv_first) c.psend(&go, 1, 1, kGoTag);
          pwait(req);
          out.sender_after.assign(buf->data(), buf->data() + buf->size());
        } else {
          std::vector<std::byte> raw(sh.recv_bytes, kRecvFill);
          if (!sh.recv_first) c.precv(&go, 1, 0, kGoTag);
          Request req =
              sh.recv_block
                  ? c.pirecv_block(sh.recv_bytes, 0, sh.tag)
                  : c.pirecv(raw.data(), sh.recv_bytes, 0, sh.tag);
          if (sh.recv_first) c.psend(&go, 1, 0, kGoTag);
          out.status = pwait(req);
          out.delivered = std::move(req->delivered);
          if (sh.recv_block && out.delivered)
            out.receiver_after.assign(
                out.delivered->data(),
                out.delivered->data() + out.delivered->size());
          else if (!sh.recv_block)
            out.receiver_after = raw;
        }
      },
      std::move(cfg));
  obs::set_enabled(false, false);
  out.handoffs = handoffs.value() - h0;
  out.bytes_copied = copied.value() - c0 - 1;  // minus the 1-byte go message
  return out;
}

/// `n` bytes of the sent pattern starting at `at` in `got`.
void expect_delivered(const std::vector<std::byte>& got, std::size_t at,
                      std::size_t n) {
  ASSERT_GE(got.size(), at + n);
  for (std::size_t i = 0; i < n; ++i)
    ASSERT_EQ(got[at + i], sent_byte(i)) << "byte " << i;
}

/// Bytes [from, to) of `got` still hold the receiver's fill.
void expect_untouched(const std::vector<std::byte>& got, std::size_t from,
                      std::size_t to) {
  for (std::size_t i = from; i < to; ++i)
    ASSERT_EQ(got[i], kRecvFill) << "byte " << i;
}

/// A shape the block receive must take by handover: the sender's very
/// Buffer, no byte copied.
RefOutcome expect_handed_over(const RefShape& sh) {
  RefOutcome o = run_ref_message(sh);
  EXPECT_EQ(o.handoffs, 1u);
  EXPECT_EQ(o.bytes_copied, 0u);
  EXPECT_EQ(o.status.bytes, sh.send_bytes);
  EXPECT_EQ(o.delivered.get(), o.sent);
  return o;
}

TEST(SimMpiHandoff,
     MatchedBlockReceiveTakesTheSendersBufferWhicheverSideCloses) {
  for (const bool recv_first : {true, false}) {
    SCOPED_TRACE(recv_first ? "sender closes the match"
                            : "receiver closes the match");
    RefShape sh;
    sh.recv_first = recv_first;
    const RefOutcome o = expect_handed_over(sh);
    EXPECT_EQ(o.receiver_after.size(), k64K);
    expect_delivered(o.receiver_after, 0, k64K);
  }
}

TEST(SimMpiHandoff, PartialSendOfALargerBufferIsHandedOver) {
  // The block keeps its size; Status.bytes says how much of it is the
  // message.
  RefShape sh;
  sh.send_buf = 2 * k64K;
  sh.recv_bytes = 2 * k64K;
  const RefOutcome o = expect_handed_over(sh);
  EXPECT_EQ(o.receiver_after.size(), 2 * k64K);
  expect_delivered(o.receiver_after, 0, k64K);
}

TEST(SimMpiHandoff, ViewSendIsHandedOverWithItsParent) {
  RefShape sh;
  sh.send_view = true;
  const RefOutcome o = expect_handed_over(sh);
  EXPECT_TRUE(o.delivered->is_view());
  expect_delivered(o.receiver_after, 0, k64K);
}

/// A shape that must fall back to the copy: no handoff, the copied bytes
/// counted, the sender's buffer left as it was, and a block receive given
/// a fresh buffer of exactly the copied bytes.
RefOutcome expect_copied(const RefShape& sh, std::uint64_t copied,
                         RuntimeConfig cfg = small_config()) {
  RefOutcome o = run_ref_message(sh, std::move(cfg));
  EXPECT_EQ(o.handoffs, 0u);
  EXPECT_EQ(o.bytes_copied, copied);
  EXPECT_EQ(o.sender_after.size(), sh.send_buf);
  expect_delivered(o.sender_after, 0, sh.send_buf);
  if (sh.recv_block) {
    EXPECT_NE(o.delivered.get(), o.sent);
    EXPECT_EQ(o.receiver_after.size(), copied);
  }
  return o;
}

TEST(SimMpiHandoff, RawReceiveFromBufferRefSendCopies) {
  for (const bool recv_first : {true, false}) {
    RefShape sh;
    sh.recv_block = false;
    sh.recv_first = recv_first;
    const RefOutcome o = expect_copied(sh, k64K);
    expect_delivered(o.receiver_after, 0, k64K);
  }
}

TEST(SimMpiHandoff, BufferRefReceiveFromRawSendCopies) {
  for (const bool recv_first : {true, false}) {
    RefShape sh;
    sh.send_ref = false;
    sh.recv_first = recv_first;
    const RefOutcome o = expect_copied(sh, k64K);
    expect_delivered(o.receiver_after, 0, k64K);
  }
}

TEST(SimMpiHandoff, TruncatedReceiveCopiesOnlyWhatFits) {
  // The block receive was posted for half the message.
  RefShape sh;
  sh.recv_bytes = k64K / 2;
  const RefOutcome o = expect_copied(sh, k64K / 2);
  EXPECT_EQ(o.status.bytes, k64K / 2);
  expect_delivered(o.receiver_after, 0, k64K / 2);
}

TEST(SimMpiHandoff, EagerBufferRefSendCopies) {
  RefShape sh;
  sh.send_buf = sh.send_bytes = 8 * 1024;  // <= the 16 KB eager threshold
  sh.recv_bytes = 8 * 1024;
  const RefOutcome o = expect_copied(sh, 8 * 1024);
  expect_delivered(o.receiver_after, 0, 8 * 1024);
}

TEST(SimMpiHandoff, CappedSkeletonPayloadCopiesTheCap) {
  // A skeleton payload past payload_copy_cap is not delivered whole, so
  // it cannot change hands.
  RuntimeConfig cfg = small_config();
  cfg.payload_copy_cap = 1024;
  const RefOutcome o = expect_copied(RefShape{}, 1024, std::move(cfg));
  EXPECT_EQ(o.status.bytes, k64K);
  expect_delivered(o.receiver_after, 0, 1024);
}

/// Positions where `got` differs from the sent pattern, as bit indices.
std::vector<std::size_t> flipped_bits(const std::vector<std::byte>& got) {
  std::vector<std::size_t> bits;
  for (std::size_t i = 0; i < got.size(); ++i) {
    const auto diff = static_cast<unsigned>(got[i] ^ sent_byte(i));
    for (unsigned b = 0; b < 8; ++b)
      if (diff & (1u << b)) bits.push_back(i * 8 + b);
  }
  return bits;
}

TEST(SimMpiHandoff, CorruptBitFlipsOnlyInsideTheDeliveredBlock) {
  // Link faults touch stream data only, so the message rides a stream
  // data tag. A handed-over block takes the flip itself; a copy takes it
  // in the receiver's fresh buffer and leaves the sender's intact.
  for (const bool send_ref : {true, false}) {
    SCOPED_TRACE(send_ref ? "handed over" : "copied");
    RuntimeConfig cfg = small_config();
    cfg.faults.links.push_back({.corrupt_probability = 1.0});
    RefShape sh;
    sh.send_ref = send_ref;
    sh.tag = net::kStreamDataTagBase;
    const RefOutcome o = run_ref_message(sh, std::move(cfg));
    EXPECT_EQ(o.handoffs, send_ref ? 1u : 0u);
    ASSERT_TRUE(o.delivered);
    EXPECT_EQ(o.delivered.get() == o.sent, send_ref);
    EXPECT_EQ(flipped_bits(o.receiver_after).size(), 1u);
    if (!send_ref) expect_delivered(o.sender_after, 0, k64K);
  }
}

TEST(SimMpiHandoff, CrashFailsAPostedBlockReceiveWithNoBlock) {
  RuntimeConfig cfg = small_config();
  cfg.faults.crashes.push_back({.world_rank = 0, .at_time = 1e-3});
  Status st;
  bool had_block = true;
  run_spmd(
      2,
      [&](ProcEnv& env) {
        const Comm& c = env.world;
        if (env.world_rank == 0) {
          compute(2e-3);
          Request req = c.pisend(Buffer::make(k64K), k64K, 1, kDataTag);
          pwait(req);  // not reached: the send's entry check crashes rank 0
        } else {
          Request req = c.pirecv_block(k64K, 0, kDataTag);
          st = pwait(req);
          had_block = req->delivered != nullptr;
        }
      },
      std::move(cfg));
  EXPECT_EQ(st.error, kErrPeerDead);
  EXPECT_FALSE(had_block);
}

// ---------------------------------------------------------------------------
// Size-only messages: a null buffer with a non-zero count is charged like a
// real one (clocks, wire, Status) but moves no host bytes.
// ---------------------------------------------------------------------------

constexpr std::size_t k1K = 1024;  // eager (<= the 16 KB threshold)

struct SizeOnlyOutcome {
  Status status;               ///< Receiver's completion.
  std::vector<double> clocks;  ///< Final virtual clock of ranks 0 and 1.
  std::uint64_t bytes_copied = 0;  ///< simmpi.payload_bytes_copied delta.
  /// Receiver buffer after completion (canary-filled before the receive).
  std::vector<std::byte> received;
};

/// One `n`-byte rank-0 -> rank-1 message on a fresh runtime; either end
/// may pass a null buffer. `nonblocking` uses isend/irecv + wait.
SizeOnlyOutcome run_size_only(std::size_t n, bool null_send, bool null_recv,
                              bool nonblocking = false) {
  auto& copied = obs::counter("simmpi.payload_bytes_copied");
  const std::uint64_t c0 = copied.value();
  SizeOnlyOutcome out;
  std::vector<ProgramSpec> progs;
  progs.push_back({"test", 2, [&](ProcEnv& env) {
                     const Comm& c = env.world;
                     if (env.world_rank == 0) {
                       std::vector<std::byte> data(n);
                       for (std::size_t i = 0; i < n; ++i) data[i] = sent_byte(i);
                       const void* buf = null_send ? nullptr : data.data();
                       if (nonblocking) {
                         Request req = c.isend(buf, n, 1, kDataTag);
                         wait(req);
                       } else {
                         c.send(buf, n, 1, kDataTag);
                       }
                     } else {
                       out.received.assign(n, kRecvFill);
                       void* buf = null_recv ? nullptr : out.received.data();
                       if (nonblocking) {
                         Request req = c.irecv(buf, n, 0, kDataTag);
                         out.status = wait(req);
                       } else {
                         out.status = c.recv(buf, n, 0, kDataTag);
                       }
                     }
                   }});
  obs::set_enabled(true, false);
  Runtime rt(small_config(), std::move(progs));
  rt.run();
  obs::set_enabled(false, false);
  out.bytes_copied = copied.value() - c0;
  out.clocks = {rt.final_clock(0), rt.final_clock(1)};
  return out;
}

TEST(SimMpiSizeOnly, NullPairIsChargedLikeABufferedPair) {
  for (const std::size_t n : {k1K, k64K}) {
    for (const bool nonblocking : {false, true}) {
      SCOPED_TRACE(::testing::Message() << n << " bytes, "
                                        << (nonblocking ? "isend/irecv"
                                                        : "send/recv"));
      const SizeOnlyOutcome null_pair = run_size_only(n, true, true, nonblocking);
      const SizeOnlyOutcome real_pair =
          run_size_only(n, false, false, nonblocking);
      EXPECT_EQ(null_pair.status.bytes, n);
      EXPECT_EQ(null_pair.status.source, 0);
      EXPECT_EQ(null_pair.status.tag, kDataTag);
      EXPECT_EQ(null_pair.clocks, real_pair.clocks);
      EXPECT_EQ(null_pair.bytes_copied, 0u);
      EXPECT_EQ(real_pair.bytes_copied, n);
      expect_delivered(real_pair.received, 0, n);
    }
  }
}

TEST(SimMpiSizeOnly, NullSendLeavesTheReceiveBufferUntouched) {
  for (const std::size_t n : {k1K, k64K}) {
    SCOPED_TRACE(::testing::Message() << n << " bytes");
    const SizeOnlyOutcome o = run_size_only(n, true, false);
    EXPECT_EQ(o.status.bytes, n);
    EXPECT_EQ(o.bytes_copied, 0u);
    ASSERT_EQ(o.received.size(), n);
    expect_untouched(o.received, 0, n);
  }
}

TEST(SimMpiSizeOnly, RealSendIntoNullReceiveIsDiscarded) {
  for (const std::size_t n : {k1K, k64K}) {
    SCOPED_TRACE(::testing::Message() << n << " bytes");
    const SizeOnlyOutcome o = run_size_only(n, false, true);
    EXPECT_EQ(o.status.bytes, n);
    EXPECT_EQ(o.bytes_copied, 0u);
    EXPECT_EQ(o.clocks, run_size_only(n, false, false).clocks);
  }
}

// ---------------------------------------------------------------------------
// The deterministic scheduler
// ---------------------------------------------------------------------------

/// What a same-seed run must reproduce exactly: every partition's virtual
/// walltime, bit for bit, and every byte of the report directory.
struct RunPrint {
  std::vector<std::uint64_t> walltime_bits;
  std::string report;
  bool operator==(const RunPrint&) const = default;
};

/// A 16-rank SP.C skeleton under online coupling: its instrumentation
/// streams 8 KB packs to two analyzer ranks, so one run exercises
/// matching, shared-resource booking, stream framing and analysis.
RunPrint run_sp_session(const std::string& dir) {
  namespace fs = std::filesystem;
  fs::remove_all(dir);
  SessionConfig cfg;
  cfg.output_dir = dir;
  cfg.runtime.seed = 13;
  cfg.instrument.block_size = 8 * 1024;
  Session session(cfg);
  session.add_application(
      "sp", 16,
      nas::make_workload({nas::Benchmark::SP, nas::ProblemClass::C, 20}));
  session.run();
  RunPrint p;
  const Runtime& rt = session.runtime();
  for (const auto& part : rt.partitions()) {
    const double w = rt.partition_walltime(part.id);
    std::uint64_t bits = 0;
    std::memcpy(&bits, &w, sizeof bits);
    p.walltime_bits.push_back(bits);
  }
  std::set<fs::path> files;
  for (const auto& e : fs::recursive_directory_iterator(dir))
    if (e.is_regular_file()) files.insert(e.path());
  for (const auto& f : files) {
    std::ifstream in(f, std::ios::binary);
    p.report += f.filename().string() + '\n';
    p.report.append(std::istreambuf_iterator<char>(in), {});
  }
  return p;
}

TEST(Scheduler, SameSeedRunsAreBitIdenticalWithHelpersOrInline) {
  const RunPrint first = run_sp_session("sched_same_seed_a");
  ASSERT_FALSE(first.report.empty());
  ASSERT_EQ(first.walltime_bits.size(), 2u);
  EXPECT_EQ(run_sp_session("sched_same_seed_b"), first)
      << "two same-seed runs differ";
  // The same pure byte work and knowledge-source jobs run inline on the
  // carrier: how fast (or where) they run must not change a single
  // simulation step or report byte.
  helpers::set_inline_for_testing(true);
  const RunPrint inline_run = run_sp_session("sched_same_seed_c");
  helpers::set_inline_for_testing(false);
  EXPECT_EQ(inline_run, first) << "inline byte or KS work changed the run";
  for (const char* d :
       {"sched_same_seed_a", "sched_same_seed_b", "sched_same_seed_c"})
    std::filesystem::remove_all(d);
}

std::uint64_t bits_of(double v) { return std::bit_cast<std::uint64_t>(v); }

TEST(Scheduler, SkeletonVirtualTimeBitsArePinned) {
  // Recorded before the ready heap kept its keys inline and a yield swapped
  // the running rank into the root. A scheduler change that keeps every
  // simulation step in order keeps these bits; one that reorders steps on
  // purpose updates them and says why in CHANGES.md.
  {
    // SP.C on 16 ranks with no tool attached.
    RuntimeConfig cfg = small_config();
    cfg.seed = 13;
    std::vector<ProgramSpec> progs;
    progs.push_back(
        {"sp", 16,
         nas::make_workload({nas::Benchmark::SP, nas::ProblemClass::C, 20})});
    Runtime rt(std::move(cfg), std::move(progs));
    rt.run();
    EXPECT_EQ(bits_of(rt.partition_walltime(0)), 0x3fc17289be67b06cull);
  }
  // The same skeleton coupled online to two analyzer ranks.
  const RunPrint online = run_sp_session("sched_pinned");
  std::filesystem::remove_all("sched_pinned");
  ASSERT_EQ(online.walltime_bits.size(), 2u);
  EXPECT_EQ(online.walltime_bits[0], 0x3fc17e3687ee5395ull);
  EXPECT_EQ(online.walltime_bits[1], 0x3fc17ef65247735dull);
  EXPECT_EQ(fnv1a(online.report), 0xfceedf49e3ee8871ull);
}

/// Carrier-only mirror of the scheduler contract (fiber.hpp), picking the
/// next fiber by a linear scan for the minimum (key, rank).
class LinearScanScheduler {
 public:
  /// `ctx[r]` holds fiber r's clock.
  explicit LinearScanScheduler(const std::vector<RankContext>& ctx)
      : ctx_(ctx),
        state_(ctx.size(), kReady),
        key_(ctx.size(), -1.0),
        unstarted_(static_cast<int>(ctx.size())) {}

  /// The fiber that runs first.
  int first() { return pick(); }
  int yield(int self) {
    if (unstarted_ == 0) {
      const int m = min_ready();
      if (m < 0 || !before(m, clock(self), self)) return self;
    }
    make_ready(self, clock(self));
    return pick();
  }
  int park(int self) {
    state_[idx(self)] = kParked;
    return pick();
  }
  int busy(int self) {
    state_[idx(self)] = kBusy;
    busy_.push_back(self);
    return pick();
  }
  int finish(int self) {
    state_[idx(self)] = kDone;
    return pick();
  }
  void wake(int f, double t) {
    if (state_[idx(f)] == kParked) make_ready(f, std::max(clock(f), t));
  }

 private:
  enum State { kReady, kRunning, kParked, kBusy, kDone };
  static std::size_t idx(int r) { return static_cast<std::size_t>(r); }
  double clock(int r) const { return ctx_[idx(r)].clock; }
  bool before(int a, double key, int rank) const {
    return key_[idx(a)] < key || (key_[idx(a)] == key && a < rank);
  }
  void make_ready(int f, double key) {
    state_[idx(f)] = kReady;
    key_[idx(f)] = key;
  }
  int min_ready() const {
    int m = -1;
    for (int r = 0; r < static_cast<int>(state_.size()); ++r)
      if (state_[idx(r)] == kReady && (m < 0 || before(r, key_[idx(m)], m)))
        m = r;
    return m;
  }
  int pick() {
    int m = min_ready();
    if (m < 0 && !busy_.empty()) {
      for (int f : busy_) make_ready(f, clock(f));
      busy_.clear();
      m = min_ready();
    }
    if (m < 0) return -1;
    if (key_[idx(m)] == -1.0) --unstarted_;
    state_[idx(m)] = kRunning;
    return m;
  }

  const std::vector<RankContext>& ctx_;
  std::vector<State> state_;
  std::vector<double> key_;
  std::vector<int> busy_;
  int unstarted_;
};

TEST(Scheduler, SwitchOrderIsTheLinearScanOrder) {
  // 16 fibers advance their clocks by seeded multiples of a dyadic tick
  // (zero included, so clocks often tie and the rank decides), then yield,
  // run pure work, or exchange a message with a seeded partner: the
  // receiver parks until the sender wakes it, keyed at the send time.
  // Every resume must be the one the linear-scan mirror predicts.
  constexpr int kFibers = 16;
  constexpr int kSteps = 300;
  constexpr double kTick = 1.0 / (1 << 16);
  std::vector<RankContext> ctx(kFibers);
  std::vector<fib::Fiber*> fibers(kFibers, nullptr);
  std::vector<int> waits_on(kFibers, -1);
  // inbox[to * kFibers + from]: send times of messages not yet received.
  std::vector<std::deque<double>> inbox(kFibers * kFibers);
  LinearScanScheduler ref(ctx);
  std::vector<int> want{ref.first()};
  std::vector<int> got;
  std::uint64_t yields = 0, parks = 0, ties = 0;

  auto main = [&](int r) {
    const auto u = static_cast<std::size_t>(r);
    fib::set_current_rank(&ctx[u]);
    fibers[u] = fib::current();
    got.push_back(r);
    for (int step = 0; step < kSteps; ++step) {
      // Every fiber draws the step's operation and pairing from the same
      // stream, so both ends of an exchange agree on it.
      std::mt19937_64 shared(static_cast<std::uint64_t>(step) * 7919 + 1);
      const std::uint64_t op = shared() % 4;
      const int mask = 1 + static_cast<int>(shared() % (kFibers - 1));
      std::mt19937_64 own(static_cast<std::uint64_t>(step * kFibers + r));
      ctx[u].clock += static_cast<double>(own() % 3) * kTick;
      for (int o = 0; o < kFibers; ++o)
        ties += o != r && ctx[static_cast<std::size_t>(o)].clock == ctx[u].clock;
      if (op == 0) {
        fib::PureTask task;
        task.fn = [](void*) {};
        want.push_back(ref.busy(r));
        fib::run_pure(task);
        got.push_back(r);
      } else if (op == 1) {
        ++yields;
        want.push_back(ref.yield(r));
        fib::yield_point();
        got.push_back(r);
      } else {
        const int peer = r ^ mask;
        const auto p = static_cast<std::size_t>(peer);
        inbox[p * kFibers + u].push_back(ctx[u].clock);
        if (waits_on[p] == r) {
          waits_on[p] = -1;
          ref.wake(peer, ctx[u].clock);
          fib::wake(fibers[p], ctx[u].clock);
        }
        auto& box = inbox[u * kFibers + p];
        while (box.empty()) {
          ++parks;
          waits_on[u] = peer;
          want.push_back(ref.park(r));
          fib::park("exchange", peer);
          got.push_back(r);
        }
        ctx[u].clock = std::max(ctx[u].clock, box.front()) + kTick;
        box.pop_front();
      }
    }
    const int next = ref.finish(r);
    if (next >= 0) want.push_back(next);
  };
  fib::run_fibers(kFibers, main, [](const char* why) {
    std::fprintf(stderr, "%s\n", why);
  });
  EXPECT_EQ(got, want);
  EXPECT_GT(yields, 500u);
  EXPECT_GT(parks, 500u);
  EXPECT_GT(ties, 1000u) << "equal clocks barely exercised";
}

TEST(SchedulerDeathTest, DeadlockAbortsWithPerRankDump) {
  ::testing::FLAGS_gtest_death_test_style = "threadsafe";
  // Both ranks receive first: nothing can ever run again.
  auto deadlock = [] {
    run_spmd(2, [](ProcEnv& env) {
      int v = 0;
      env.world.recv(&v, sizeof v, 1 - env.world_rank, 4);
      env.world.send(&v, sizeof v, 1 - env.world_rank, 4);
    });
  };
  EXPECT_DEATH(deadlock(),
               "scheduler deadlock: 2 rank\\(s\\) parked(.|\n)*"
               "rank 0 \\(test/0\\): clock=.* waits on MPI_Irecv peer 1(.|\n)*"
               "rank 1 \\(test/1\\): clock=.* waits on MPI_Irecv peer 0");
}

TEST(SchedulerDeathTest, WedgeDumpNamesTheRankThatThrew) {
  ::testing::FLAGS_gtest_death_test_style = "threadsafe";
  // Rank 1 fails, so rank 0's receive can never match: the dump names the
  // exception, not just a rank that "finished".
  auto wedge = [] {
    run_spmd(2, [](ProcEnv& env) {
      if (env.world_rank == 1) throw std::runtime_error("boom");
      int v = 0;
      env.world.recv(&v, sizeof v, 1, 4);
    });
  };
  EXPECT_DEATH(wedge(),
               "scheduler deadlock: 1 rank\\(s\\) parked(.|\n)*"
               "rank 0 \\(test/0\\): clock=.* waits on MPI_Irecv peer 1(.|\n)*"
               "rank 1 .*failed.*boom");
}

TEST(Scheduler, BoundedPollLoopIsNotAWedge) {
  // Rank 1 waits for rank 0, which first polls a fixed number of times:
  // those idle waves change nothing the scheduler can see, but fewer than
  // kQuietWaves of them must not be taken for a wedge.
  run_spmd(2, [](ProcEnv& env) {
    int v = 0;
    if (env.world_rank == 0) {
      Request q = env.world.irecv(&v, sizeof v, 1, 2);
      for (int i = 0; i < fib::kQuietWaves - 1; ++i)
        EXPECT_FALSE(test(q, nullptr));
      env.world.send(&v, sizeof v, 1, 3);
      wait(q);
      EXPECT_EQ(v, 9);
    } else {
      env.world.recv(&v, sizeof v, 0, 3);
      v = 9;
      env.world.send(&v, sizeof v, 0, 2);
    }
  });
}

TEST(Scheduler, TestPollingLoopLetsThePeerRun) {
  // A rank that polls test() never blocks, so a miss must let the other
  // ranks run, or the one that completes the request never would.
  run_spmd(2, [](ProcEnv& env) {
    int v = 0;
    if (env.world_rank == 0) {
      Request q = env.world.irecv(&v, sizeof v, 1, 2);
      int polls = 0;
      while (!test(q, nullptr)) ++polls;
      EXPECT_GT(polls, 0);
      EXPECT_EQ(v, 42);
    } else {
      compute(1e-3);
      v = 42;
      env.world.send(&v, sizeof v, 0, 2);
    }
  });
}

TEST(Scheduler, IprobePollingLoopLetsAnIdlePeerRun) {
  // Rank 0's test() miss is an idle wait; rank 1 then spins on iprobe()
  // for the message rank 0 sends after that miss.
  run_spmd(2, [](ProcEnv& env) {
    int v = 0;
    if (env.world_rank == 0) {
      Request q = env.world.irecv(&v, sizeof v, 1, 2);
      EXPECT_FALSE(test(q, nullptr));
      int out = 7;
      env.world.send(&out, sizeof out, 1, 3);
      wait(q);
      EXPECT_EQ(v, 8);
    } else {
      Status st;
      while (!env.world.iprobe(0, 3, &st)) {
      }
      env.world.recv(&v, sizeof v, 0, 3);
      ++v;
      env.world.send(&v, sizeof v, 0, 2);
    }
  });
}

TEST(Scheduler, EveryRankStartsBeforeAnyPassesItsFirstCall) {
  // Rank r records how many ranks had entered main when it returned from
  // its first p-layer call, an eager send that never waits: all of them,
  // for every rank.
  constexpr int kRanks = 6;
  std::atomic<int> entered{0};
  std::vector<int> seen(kRanks, -1);
  run_spmd(kRanks, [&](ProcEnv& env) {
    entered.fetch_add(1);
    const int r = env.world_rank;
    int v = r;
    Request q = env.world.isend(&v, sizeof v, (r + 1) % kRanks, 1);
    seen[static_cast<std::size_t>(r)] = entered.load();
    env.world.recv(&v, sizeof v, (r + kRanks - 1) % kRanks, 1);
    wait(q);
  });
  for (int r = 0; r < kRanks; ++r)
    EXPECT_EQ(seen[static_cast<std::size_t>(r)], kRanks) << "rank " << r;
}

}  // namespace
}  // namespace esp::mpi
