#pragma once
/// \file membership.hpp
/// \brief Elastic analyzer membership: the controller-side pieces of
/// planned grow/shrink (paper's fixed analyzer partition relaxed into a
/// resizable service).
///
/// The mechanism itself lives in the stream layer — a membership change
/// is "failover you scheduled on purpose": writers re-route their
/// endpoints at epoch boundaries via the existing FailoverCtl handshake
/// (drain-flagged, so a clean handoff charges nothing to the loss
/// ledger). The schedule itself is built once by the runtime
/// (mpi::Runtime::elastic()). This header owns what sits above it: the
/// one rule that picks the reduction (and admission) root, and the
/// warm-join announce wire format.

#include <cstdint>
#include <type_traits>

namespace esp::mpi {
class Runtime;
struct PartitionDesc;
}  // namespace esp::mpi

namespace esp::an {

/// Reserved control tag for warm-join announcements (next free slot after
/// the tenant control tags 0x6f100002..4).
inline constexpr int kMembershipTag = 0x6f100005;

/// Warm-join announcement: the joining member introduces itself to the
/// reduction root over the reserved control tag before entering its read
/// loop. The rebalance delta itself needs no payload — it is a pure
/// function of (epoch, active set) both sides compute locally — so the
/// announce only feeds the session's membership accounting.
struct MembershipAnnounce {
  std::int32_t member = -1;  ///< Partition-relative member index.
  std::int32_t epoch = 0;    ///< Epoch the join opened.
};
static_assert(std::is_trivially_copyable_v<MembershipAnnounce>);

/// The reduce root of the `analyzer` partition, which is also the tenant
/// fabric's admission root, as a partition-relative rank. Under an elastic
/// plan it is the lowest member that is active from epoch 0, never leaves,
/// and has no crash in the runtime's fault plan; otherwise (or when every
/// such member has a crash) the lowest analyzer rank with no crash; else
/// 0. A pure function of the runtime's immutable plans, so every rank
/// that asks, analyzer or tenant, gets the same answer without talking.
int reduce_root(const mpi::Runtime& rt, const mpi::PartitionDesc& analyzer);

}  // namespace esp::an
