/// \file test_net.cpp
/// \brief Machine-model substrate: virtual-time resources (including the
/// idle-credit backfill invariants and the lane heap matching a linear
/// scan bit for bit), fat-tree transfers, and the
/// simulated parallel filesystem.

#include <gtest/gtest.h>

#include <bit>
#include <random>
#include <vector>

#include "net/machine.hpp"
#include "net/resource.hpp"
#include "net/simfs.hpp"

namespace esp::net {
namespace {

TEST(BandwidthResource, ServeQueuesDurationsFifo) {
  BandwidthResource r;  // one lane: a FIFO server of given durations
  EXPECT_DOUBLE_EQ(r.serve(0.0, 1.0), 1.0);
  EXPECT_DOUBLE_EQ(r.serve(0.0, 1.0), 2.0);  // queued behind the first
  EXPECT_DOUBLE_EQ(r.serve(5.0, 1.0), 6.0);  // idle gap, starts at 5
  EXPECT_EQ(r.requests(), 3u);
  EXPECT_DOUBLE_EQ(r.busy_time(), 3.0);
}

TEST(BandwidthResource, RateAndQueue) {
  BandwidthResource r(100.0);  // 100 B/s
  EXPECT_DOUBLE_EQ(r.acquire(0.0, 100), 1.0);
  EXPECT_DOUBLE_EQ(r.acquire(0.0, 100), 2.0);
}

TEST(BandwidthResource, LanesRunConcurrently) {
  BandwidthResource r(100.0, 2);  // 2 lanes of 50 B/s
  const double a = r.acquire(0.0, 50);  // lane 0: 1 s
  const double b = r.acquire(0.0, 50);  // lane 1: 1 s, concurrent
  EXPECT_DOUBLE_EQ(a, 1.0);
  EXPECT_DOUBLE_EQ(b, 1.0);
  const double c = r.acquire(0.0, 50);  // queues on a lane
  EXPECT_DOUBLE_EQ(c, 2.0);
}

TEST(BandwidthResource, BackfillUsesOnlyRealIdleTime) {
  BandwidthResource r(100.0);  // single lane
  // Reserve [10, 11): opens an idle gap [0, 10) worth 10 s of credit.
  EXPECT_DOUBLE_EQ(r.acquire(10.0, 100), 11.0);
  // A late-arriving request with an early virtual start fits in the gap:
  // served "in the past", frontier untouched.
  EXPECT_DOUBLE_EQ(r.acquire(0.0, 100), 1.0);
  EXPECT_DOUBLE_EQ(r.acquire(1.0, 100), 2.0);
  // A request overlapping the frontier is also credit-served at its own
  // start (fluid sharing), so its completion cannot depend on the
  // real-time order it arrived in relative to the [10, 11) reservation.
  EXPECT_DOUBLE_EQ(r.acquire(10.5, 100), 11.5);
}

TEST(BandwidthResource, BackfillCreditIsBounded) {
  BandwidthResource r(100.0);
  EXPECT_DOUBLE_EQ(r.acquire(2.0, 100), 3.0);  // credit: 2 s
  EXPECT_DOUBLE_EQ(r.acquire(0.0, 100), 1.0);  // consumes 1 s credit
  EXPECT_DOUBLE_EQ(r.acquire(0.0, 100), 1.0);  // consumes the last 1 s
  // Credit exhausted: the next early request must queue at the frontier.
  EXPECT_DOUBLE_EQ(r.acquire(0.0, 100), 4.0);
}

TEST(BandwidthResource, CapacityConservation) {
  // Under saturation, N transfers of B bytes cannot finish before N*B/rate.
  BandwidthResource r(1000.0, 4);
  double last = 0;
  for (int i = 0; i < 64; ++i) last = std::max(last, r.acquire(0.0, 250));
  EXPECT_GE(last, 64 * 250 / 1000.0 - 1e-9);
}

/// The lane model BandwidthResource replaced: a linear scan for the
/// earliest frontier (lowest index on a tie), same idle-credit rule.
class LinearScanLanes {
 public:
  LinearScanLanes(double bytes_per_sec, int lanes)
      : lanes_(static_cast<std::size_t>(lanes)), bytes_per_sec_(bytes_per_sec) {}
  double acquire(double start, std::uint64_t bytes) {
    return serve(start, static_cast<double>(bytes) /
                            (bytes_per_sec_ / static_cast<double>(lanes_.size())));
  }
  double serve(double start, double duration) {
    std::size_t best = 0;
    for (std::size_t i = 1; i < lanes_.size(); ++i)
      if (lanes_[i].frontier < lanes_[best].frontier) best = i;
    auto& lane = lanes_[best];
    if (start < lane.frontier && lane.idle_credit >= duration) {
      lane.idle_credit -= duration;
      ++credit_served;
      return start + duration;
    }
    const double begin = start > lane.frontier ? start : lane.frontier;
    lane.idle_credit += begin - lane.frontier;
    lane.frontier = begin + duration;
    return lane.frontier;
  }
  void reset() {
    for (auto& l : lanes_) l = Lane{};
  }
  int credit_served = 0;

 private:
  struct Lane {
    double frontier = 0.0;
    double idle_credit = 0.0;
  };
  std::vector<Lane> lanes_;
  double bytes_per_sec_;
};

TEST(BandwidthResource, LaneHeapPicksTheLinearScanLaneBitForBit) {
  // A 120-lane bisection (150 GB/s over 1.25 GB/s lanes) fed a seeded mix
  // of byte transfers and direct serves. Starts on a coarse grid make many
  // frontiers tie (the lowest index must win), drifting starts revisit
  // the past (the idle-credit path), and a reset mid-sequence must
  // restore the initial lane order.
  constexpr int kLanes = 120;
  constexpr double kTick = 1.0 / (1 << 20);  // dyadic: grid sums stay exact
  BandwidthResource r(150e9, kLanes);
  LinearScanLanes ref(150e9, kLanes);
  std::mt19937_64 rng(20131001);
  double clock = 0.0;
  for (int i = 0; i < 10000; ++i) {
    if (i == 6000) {
      r.reset();
      ref.reset();
      clock = 0.0;
      EXPECT_EQ(r.requests(), 0u);
    }
    clock += static_cast<double>(rng() % 4) * kTick;
    double start = clock;
    switch (rng() % 4) {
      case 0:  // on the grid: ties between lanes
        start = static_cast<double>(rng() % 64) * kTick;
        break;
      case 1:  // late arrival from the past
        start = clock * static_cast<double>(rng() % 1000) / 1000.0;
        break;
      default:
        break;
    }
    double got = 0.0, want = 0.0;
    if (rng() % 2 == 0) {
      const double d = static_cast<double>(1 + rng() % 8) * kTick;
      got = r.serve(start, d);
      want = ref.serve(start, d);
    } else {
      const std::uint64_t bytes = 1 + rng() % (1u << 20);
      got = r.acquire(start, bytes);
      want = ref.acquire(start, bytes);
    }
    ASSERT_EQ(std::bit_cast<std::uint64_t>(got),
              std::bit_cast<std::uint64_t>(want))
        << "request " << i << ": " << got << " vs " << want;
  }
  EXPECT_EQ(r.requests(), 4000u);
  EXPECT_GT(ref.credit_served, 100) << "idle-credit path barely exercised";
}

TEST(Machine, IntraNodeIsFasterThanInterNode) {
  MachineConfig cfg = MachineConfig::tera100();
  Machine m(cfg, 64);  // 2 nodes
  const double intra = m.transfer(0, 1, 1 << 20, 0.0);
  Machine m2(cfg, 64);
  const double inter = m2.transfer(0, 32, 1 << 20, 0.0);
  EXPECT_LT(intra, inter);
}

TEST(Machine, TransferTimeMatchesBandwidth) {
  MachineConfig cfg = MachineConfig::tera100();
  Machine m(cfg, 64);
  const std::uint64_t bytes = 10 << 20;
  const double t = m.transfer(0, 32, bytes, 0.0);
  const double expected = cfg.nic_latency + bytes / cfg.nic_bandwidth;
  EXPECT_NEAR(t, expected, expected * 0.01);
}

TEST(Machine, NicContentionSerializesSameNodeSenders) {
  MachineConfig cfg = MachineConfig::tera100();
  Machine m(cfg, 96);
  // Two senders on node 0 to distinct nodes share the TX NIC.
  const double a = m.transfer(0, 32, 1 << 20, 0.0);
  const double b = m.transfer(1, 64, 1 << 20, 0.0);
  EXPECT_GT(std::max(a, b), (2.0 * (1 << 20)) / cfg.nic_bandwidth * 0.95);
}

TEST(Machine, DisjointNodePairsDoNotSerialize) {
  MachineConfig cfg = MachineConfig::tera100();
  Machine m(cfg, 128);
  const double a = m.transfer(0, 32, 8 << 20, 0.0);    // node 0 -> 1
  const double b = m.transfer(64, 96, 8 << 20, 0.0);   // node 2 -> 3
  const double serial = 2.0 * (8 << 20) / cfg.nic_bandwidth;
  EXPECT_LT(std::max(a, b), serial * 0.75) << "independent pairs serialized";
}

TEST(Machine, ComputeSecondsUsesFlopRate) {
  MachineConfig cfg = MachineConfig::tera100();
  Machine m(cfg, 1);
  EXPECT_NEAR(m.compute_seconds(cfg.flops_per_core), 1.0, 1e-12);
}

TEST(Machine, NodeMapping) {
  MachineConfig cfg = MachineConfig::tera100();
  Machine m(cfg, 100);
  EXPECT_EQ(m.node_of(0), 0);
  EXPECT_EQ(m.node_of(31), 0);
  EXPECT_EQ(m.node_of(32), 1);
  EXPECT_EQ(m.node_count(), 4);  // ceil(100/32)
}

TEST(SimFs, FairShareScalesWithJobSize) {
  MachineConfig cfg = MachineConfig::tera100();
  Machine m(cfg, 2560);
  SimFs fs(m, 2560);
  // Paper: 500 GB/s across 140k cores -> ~9.1 GB/s for 2560 cores.
  EXPECT_NEAR(fs.ost_bandwidth(), 9.14e9, 0.2e9);
}

TEST(SimFs, MetadataOpsSerializeMachineWide) {
  MachineConfig cfg = MachineConfig::tera100();
  Machine m(cfg, 32);
  SimFs fs(m, 32);
  double t = 0;
  for (int i = 0; i < 100; ++i) t = fs.metadata_op(0.0);
  EXPECT_NEAR(t, 100 * cfg.fs_metadata_op_cost, 1e-9);
  EXPECT_EQ(fs.metadata_ops(), 100u);
}

TEST(SimFs, WriteIsBoundedByShareAndNic) {
  MachineConfig cfg = MachineConfig::tera100();
  Machine m(cfg, 32);
  SimFs fs(m, 32);  // tiny share: 500 GB/s * 32/140000 = ~114 MB/s
  const std::uint64_t bytes = 100 << 20;
  const double t = fs.write(0, bytes, 0.0);
  EXPECT_GT(t, bytes / fs.ost_bandwidth() * 0.9);
  EXPECT_EQ(fs.bytes_written(), bytes);
}

TEST(SimFs, CustomShareFraction) {
  MachineConfig cfg = MachineConfig::tera100();
  Machine m(cfg, 32);
  SimFs fs(m, 32, {.share_fraction = 0.5});
  EXPECT_DOUBLE_EQ(fs.ost_bandwidth(), cfg.fs_total_bandwidth * 0.5);
}

TEST(MachinePresets, PaperParameters) {
  const auto t = MachineConfig::tera100();
  EXPECT_EQ(t.cores_per_node, 32);
  EXPECT_EQ(t.total_cores, 140000);
  const auto c = MachineConfig::curie();
  EXPECT_EQ(c.cores_per_node, 16);
  EXPECT_EQ(c.total_cores, 80640);
  EXPECT_GT(c.flops_per_core, t.flops_per_core);  // Sandy Bridge > Nehalem
}

}  // namespace
}  // namespace esp::net
