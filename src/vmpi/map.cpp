#include "vmpi/map.hpp"

#include <stdexcept>

#include "common/hash.hpp"

namespace esp::vmpi {

namespace {
/// Reserved tag block for the mapping protocol, on the universe p-layer.
constexpr int kMapTagRank = 0x6f000001;    // slave -> pivot: my rank
constexpr int kMapTagAssign = 0x6f000002;  // pivot -> slave: your master
constexpr int kMapTagList = 0x6f000003;    // pivot -> master: your slaves

int local_policy_target(MapPolicy policy, int slave_index, int n_slave,
                        int n_master) {
  switch (policy) {
    case MapPolicy::RoundRobin:
      return slave_index % n_master;
    case MapPolicy::Fixed:
      // Block mapping; contiguous groups of slaves share one master.
      return static_cast<int>(static_cast<long long>(slave_index) * n_master /
                              n_slave);
    default:
      throw std::logic_error("not a locally-computable policy");
  }
}
}  // namespace

int Map::failover_target(MapPolicy policy, std::uint64_t seed,
                         int writer_universe_rank, int dead_universe_rank,
                         const std::vector<int>& candidates, int epoch) {
  if (candidates.empty()) return -1;
  const auto n = candidates.size();
  std::size_t idx;
  switch (policy) {
    case MapPolicy::RoundRobin:
    case MapPolicy::Fixed:
      // Writers that shared the dead endpoint fan out over the survivors
      // instead of stampeding onto one of them. The stream's membership
      // epoch shifts the fan-out so a departed-and-rejoined slot never
      // inherits its own previous-epoch links (epoch 0 is the historical
      // fixed-membership choice).
      idx = static_cast<std::size_t>(writer_universe_rank + epoch) % n;
      break;
    default: {
      // Random/User re-map: hashed like the pivot's Random policy so the
      // choice is seed-stable and needs no pivot round-trip mid-failure.
      std::uint64_t h = esp::hash_combine(
          esp::hash_combine(seed,
                            mix64(static_cast<std::uint64_t>(
                                writer_universe_rank + 1))),
          mix64(static_cast<std::uint64_t>(dead_universe_rank + 1)));
      if (epoch != 0)
        h = esp::hash_combine(h, mix64(static_cast<std::uint64_t>(epoch)));
      idx = static_cast<std::size_t>(mix64(h) % n);
      break;
    }
  }
  return candidates[idx];
}

int Map::elastic_route(MapPolicy policy, std::uint64_t seed,
                       int writer_universe_rank, int epoch,
                       const std::vector<int>& active_members) {
  if (active_members.empty()) return -1;
  const auto n = active_members.size();
  switch (policy) {
    case MapPolicy::RoundRobin:
    case MapPolicy::Fixed:
      // Per-epoch rotation of the writer's slot over the active set:
      // every epoch boundary reshuffles deterministically, spreading the
      // re-route churn evenly instead of always moving the same writers.
      return active_members[static_cast<std::size_t>(
                                writer_universe_rank + epoch) %
                            n];
    default: {
      // Rendezvous (highest-random-weight) hashing: each (writer, member)
      // pair gets a seed-stable weight and the writer follows the argmax
      // among the *currently active* members — a join or leave only moves
      // the streams whose argmax changed.
      int best = active_members[0];
      std::uint64_t best_w = 0;
      for (const int m : active_members) {
        const std::uint64_t w = mix64(esp::hash_combine(
            esp::hash_combine(seed, mix64(static_cast<std::uint64_t>(
                                        writer_universe_rank + 1))),
            mix64(static_cast<std::uint64_t>(m + 1))));
        if (w >= best_w) {
          best_w = w;
          best = m;
        }
      }
      return best;
    }
  }
}

void Map::map_partitions(mpi::ProcEnv& env, int remote_partition_id,
                         MapPolicy policy, MapFn fn) {
  auto& rt = *env.runtime;
  const mpi::PartitionDesc& mine = *env.partition;
  const auto& parts = rt.partitions();
  if (remote_partition_id < 0 ||
      remote_partition_id >= static_cast<int>(parts.size()) ||
      remote_partition_id == mine.id) {
    throw std::invalid_argument("bad remote partition id");
  }
  const mpi::PartitionDesc& remote =
      parts[static_cast<std::size_t>(remote_partition_id)];

  // Paper rule: the larger partition is the slave, the smaller the master.
  const bool i_am_master = (mine.size < remote.size) ||
                           (mine.size == remote.size && mine.id < remote.id);
  const mpi::PartitionDesc& master = i_am_master ? mine : remote;
  const mpi::PartitionDesc& slave = i_am_master ? remote : mine;

  if (policy == MapPolicy::RoundRobin || policy == MapPolicy::Fixed) {
    // Locally computable (Fig. 8 a and c): no pivot needed.
    if (!i_am_master) {
      const int idx = env.universe_rank - slave.first_world_rank;
      const int target =
          local_policy_target(policy, idx, slave.size, master.size);
      peers_.push_back(master.first_world_rank + target);
    } else {
      const int me = env.universe_rank - master.first_world_rank;
      for (int i = 0; i < slave.size; ++i) {
        if (local_policy_target(policy, i, slave.size, master.size) == me)
          peers_.push_back(slave.first_world_rank + i);
      }
    }
    return;
  }

  if (policy == MapPolicy::User && !fn)
    throw std::invalid_argument("User policy requires a mapping function");

  // Pivot protocol (Fig. 7). The pivot is the master partition's root.
  const int pivot = master.first_world_rank;
  const mpi::Comm& u = env.universe;

  if (!i_am_master) {
    int my_rank = env.universe_rank;
    u.psend(&my_rank, sizeof my_rank, pivot, kMapTagRank);
    int assigned = -1;
    u.precv(&assigned, sizeof assigned, pivot, kMapTagAssign);
    peers_.push_back(assigned);
    return;
  }

  std::vector<int> my_slaves;
  if (env.universe_rank == pivot) {
    std::vector<std::vector<int>> assignment(
        static_cast<std::size_t>(master.size));
    for (int i = 0; i < slave.size; ++i) {
      int slave_rank = -1;
      // Ranks arrive in any order; each is answered as it arrives, as in
      // the paper's incremental pivot.
      u.precv(&slave_rank, sizeof slave_rank, mpi::kAnySource, kMapTagRank);
      const int slave_index = slave_rank - slave.first_world_rank;
      int target;
      if (policy == MapPolicy::Random) {
        // Hash the slave's identity rather than drawing from a sequential
        // RNG: draws in arrival order would tie the assignment to the
        // (racy) order slaves reach the pivot, breaking seed
        // reproducibility.
        const std::uint64_t h = esp::hash_combine(
            esp::hash_combine(env.runtime->config().seed,
                              (static_cast<std::uint64_t>(master.id) << 32) ^
                                  static_cast<std::uint64_t>(
                                      static_cast<std::uint32_t>(slave.id))),
            static_cast<std::uint64_t>(slave_index));
        target = static_cast<int>(esp::mix64(h) %
                                  static_cast<std::uint64_t>(master.size));
      } else {
        target = fn(slave_index, master.size);
        if (target < 0 || target >= master.size)
          throw std::out_of_range("user mapping function out of range");
      }
      assignment[static_cast<std::size_t>(target)].push_back(slave_rank);
      int master_rank = master.first_world_rank + target;
      u.psend(&master_rank, sizeof master_rank, slave_rank, kMapTagAssign);
    }
    // Distribute per-master slave lists; doubles as the end-of-mapping
    // broadcast of the paper.
    for (int j = 0; j < master.size; ++j) {
      auto& list = assignment[static_cast<std::size_t>(j)];
      if (j == 0) {
        my_slaves = list;
        continue;
      }
      const int count = static_cast<int>(list.size());
      const int dst = master.first_world_rank + j;
      u.psend(&count, sizeof count, dst, kMapTagList);
      if (count > 0)
        u.psend(list.data(), list.size() * sizeof(int), dst, kMapTagList);
    }
  } else {
    int count = 0;
    u.precv(&count, sizeof count, pivot, kMapTagList);
    my_slaves.resize(static_cast<std::size_t>(count));
    if (count > 0)
      u.precv(my_slaves.data(), my_slaves.size() * sizeof(int), pivot,
              kMapTagList);
  }
  peers_.insert(peers_.end(), my_slaves.begin(), my_slaves.end());
}

}  // namespace esp::vmpi
