#pragma once
/// \file map.hpp
/// \brief VMPI_Map: partition-to-partition process mapping (paper §III-A).
///
/// A Map associates each local process with a set of matching processes in
/// a remote partition. Following the paper:
///   - when mapping two partitions, the *larger* becomes the slave and the
///     *smaller* the master (Fig. 7);
///   - locally-computable policies (round-robin, fixed/block) skip the
///     pivot; the random and user-defined policies run the pivot protocol:
///     each slave sends its global rank to the master partition's root,
///     which assigns a master rank per policy and distributes the
///     association both ways, then broadcasts end-of-mapping;
///   - maps are *additive*: successive map_partitions() calls append
///     entries, the feature multi-instrumentation relies on (Fig. 10).

#include <cstdint>
#include <functional>
#include <vector>

#include "simmpi/runtime.hpp"

namespace esp::vmpi {

/// Default mapping topologies of Fig. 8.
enum class MapPolicy {
  RoundRobin,  ///< slave i -> master (i mod m); locally computable.
  Random,      ///< pivot-assigned uniform choice.
  Fixed,       ///< block mapping: slave i -> master floor(i*m/n); local.
  User,        ///< pivot-assigned via a user function.
};

/// User mapping function: (slave index, master partition size) -> master
/// index. Evaluated on the pivot, as in the paper.
using MapFn = std::function<int(int slave_index, int master_size)>;

/// The per-process result of one or more mappings.
class Map {
 public:
  Map() = default;

  /// Forget all entries (VMPI_Map_clear).
  void clear() { peers_.clear(); }

  /// Collectively map the calling process's partition with partition
  /// `remote_partition_id`. Every process of BOTH partitions must call
  /// this. Appends matched *universe* ranks to peers().
  /// `fn` is required for MapPolicy::User, ignored otherwise.
  void map_partitions(mpi::ProcEnv& env, int remote_partition_id,
                      MapPolicy policy, MapFn fn = nullptr);

  /// Manually append one remote universe rank. This is how streams
  /// "between two arbitrary ranks" (paper §III-A) are expressed.
  void append_peer(int universe_rank) { peers_.push_back(universe_rank); }

  /// Universe ranks of the remote processes mapped to this process.
  const std::vector<int>& peers() const noexcept { return peers_; }
  bool empty() const noexcept { return peers_.empty(); }

  /// Failover hook: recompute one mapping entry after the death of
  /// `dead_universe_rank`, choosing among `candidates` (the surviving
  /// ranks of the dead peer's partition, ascending). A pure function of
  /// its arguments — every writer that lost the same peer picks its
  /// replacement without communication, and the same seed reproduces the
  /// same re-routed topology. The policies mirror map_partitions():
  /// RoundRobin/Fixed spread writers over survivors by writer rank;
  /// Random/User hash (seed, writer, dead peer). Returns -1 when
  /// `candidates` is empty (total partition loss).
  ///
  /// `epoch` is the elastic-membership epoch of the *stream*, not of the
  /// clock: a node that left and later re-joined lives in a new epoch, so
  /// mixing the stream's epoch into the choice keeps it from ever being
  /// selected as successor for links it held before leaving (the caller
  /// additionally filters candidates by the active set). Epoch 0 — fixed
  /// membership — reproduces the historical choice bit-exactly.
  static int failover_target(MapPolicy policy, std::uint64_t seed,
                             int writer_universe_rank,
                             int dead_universe_rank,
                             const std::vector<int>& candidates,
                             int epoch = 0);

  /// Elastic-membership route: which active member should carry writer
  /// `writer_universe_rank`'s stream during `epoch`. A pure function of
  /// (policy, seed, writer, epoch, active set) — the deterministic
  /// map-rebalance delta of a membership change: every writer and every
  /// reader evaluate it independently and agree without communication.
  /// RoundRobin/Fixed rotate the writer's slot across the active set per
  /// epoch; Random/User use rendezvous hashing over the members so a
  /// single join/leave only moves the streams it must. Returns -1 when
  /// `active_members` is empty.
  static int elastic_route(MapPolicy policy, std::uint64_t seed,
                           int writer_universe_rank, int epoch,
                           const std::vector<int>& active_members);

 private:
  std::vector<int> peers_;
};

}  // namespace esp::vmpi
