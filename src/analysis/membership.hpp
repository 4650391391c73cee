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
/// ledger). This header owns what sits above it: the root-eligibility
/// rule the reduction and the session share, and the warm-join announce
/// wire format.

#include <cstdint>
#include <functional>
#include <type_traits>

#include "net/fault.hpp"

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

/// Root-eligibility rule shared by the analyzer reduction and the
/// session's fabric wiring: the root is the lowest member that is active
/// from epoch 0, never leaves, and has no scheduled crash
/// (`has_crash(member)` answers for the *partition-relative* index).
/// Returns -1 when no member qualifies — the schedule's constructor
/// guarantees a never-leaving initial member exists, so -1 only happens
/// when the crash plan kills all of them (the caller falls back to the
/// plain lowest-survivor rule).
int choose_root(const net::ElasticSchedule& schedule,
                const std::function<bool(int)>& has_crash);

}  // namespace esp::an
