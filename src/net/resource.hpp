#pragma once
/// \file resource.hpp
/// \brief Virtual-time contended resources.
///
/// The simulator charges communication and IO costs in *virtual time*.
/// A resource lane is a FIFO server: a request arriving at virtual time
/// `start` with service duration `d` begins at max(start, availability)
/// and completes `d` later. Sharing one resource among many flows caps
/// their aggregate rate at the resource capacity — the behaviour that
/// drives every contention effect reproduced from the paper (NIC
/// serialization, bisection saturation, metadata-server contention).
///
/// Approximation (documented in DESIGN.md): requests are queued in the
/// order the rank scheduler issues them (simmpi/fiber.hpp) — a fixed
/// function of the seed that yields to smaller virtual clocks before a
/// booking but is not strictly virtual-time order; when ranks' virtual
/// clocks drift this can reorder grants, which perturbs per-flow ordering
/// but not aggregate statistics. Every lane carries the same causality tolerance: a
/// request whose service time is covered by recorded *idle credit*
/// (virtual time the server verifiably spent unreserved) is served at
/// `start + duration` without moving the frontier, even when it overlaps
/// the frontier — a fluid approximation of short-term sharing. Capacity
/// conservation stays exact (credit only accrues from real idle gaps and
/// every serve debits its full service time), and completions are a pure
/// function of the request while credit lasts — arrival order can only
/// matter under sustained saturation, when the credit pool is
/// drained and contention is physical rather than a scheduling artifact.

#include <cstdint>
#include <vector>

namespace esp::net {

/// A bandwidth-capacity resource: service time = bytes / per-lane rate,
/// or a duration given directly (serve(); a one-lane resource used that
/// way is a plain FIFO server, e.g. a metadata server). Bookings come only
/// from the rank scheduler's carrier thread (simmpi/fiber.hpp), so it has
/// no lock.
///
/// `lanes` splits the capacity into parallel FIFO channels (a fat tree's
/// bisection is many physical uplinks, not one serial pipe). A transfer
/// takes the lane whose frontier is earliest, the lowest-numbered one on
/// a tie: the top of a min-heap of lanes ordered by (frontier, index), so
/// a booking costs O(log lanes).
///
/// Causality tolerance: requests arrive in scheduler order, which can
/// differ from virtual-time order when rank clocks drift. A request whose
/// virtual start lies before a lane's frontier may be served "in the
/// past" — but only against that lane's recorded *idle credit* (gaps when
/// the lane was genuinely unreserved). Total reserved service time never
/// exceeds elapsed virtual time per lane, so capacity conservation is
/// exact while spurious cross-flow serialization disappears.
class BandwidthResource {
 public:
  explicit BandwidthResource(double bytes_per_sec = 1.0, int lanes = 1)
      : lanes_(static_cast<std::size_t>(lanes < 1 ? 1 : lanes)),
        heap_(lanes_.size()),
        bytes_per_sec_(bytes_per_sec) {
    reset();
  }

  /// Reserve a transfer of `bytes` starting no earlier than `start`;
  /// returns completion time.
  double acquire(double start, std::uint64_t bytes) {
    return serve(start,
                 static_cast<double>(bytes) /
                     (bytes_per_sec_ / static_cast<double>(lanes_.size())));
  }

  /// Reserve a lane for `duration` seconds starting no earlier than
  /// `start`; returns completion time.
  double serve(double start, double duration) {
    auto& lane = lanes_[heap_.front()];
    ++requests_;
    busy_ += duration;
    if (start < lane.frontier && lane.idle_credit >= duration) {
      // Covered by recorded past idle time: serve at the request's own
      // start without moving the frontier (see file comment).
      lane.idle_credit -= duration;
      return start + duration;
    }
    const double begin = start > lane.frontier ? start : lane.frontier;
    lane.idle_credit += begin - lane.frontier;  // a real idle gap opened
    lane.frontier = begin + duration;
    sift_down_top();
    return lane.frontier;
  }

  double rate() const noexcept { return bytes_per_sec_; }
  void set_rate(double bytes_per_sec) noexcept { bytes_per_sec_ = bytes_per_sec; }
  std::uint64_t requests() const noexcept { return requests_; }
  double busy_time() const noexcept { return busy_; }
  void reset() {
    for (std::size_t i = 0; i < lanes_.size(); ++i) {
      lanes_[i] = Lane{};
      heap_[i] = static_cast<std::uint32_t>(i);  // all tied: index order
    }
    requests_ = 0;
    busy_ = 0.0;
  }

 private:
  struct Lane {
    double frontier = 0.0;
    double idle_credit = 0.0;
  };

  bool before(std::uint32_t a, std::uint32_t b) const noexcept {
    const double fa = lanes_[a].frontier, fb = lanes_[b].frontier;
    return fa < fb || (fa == fb && a < b);
  }
  /// Restore the heap after the top lane's frontier grew (it never
  /// shrinks).
  void sift_down_top() noexcept {
    const std::size_t n = heap_.size();
    const std::uint32_t top = heap_[0];
    std::size_t i = 0;
    for (std::size_t c = 1; c < n; c = 2 * i + 1) {
      if (c + 1 < n && before(heap_[c + 1], heap_[c])) ++c;
      if (!before(heap_[c], top)) break;
      heap_[i] = heap_[c];
      i = c;
    }
    heap_[i] = top;
  }

  std::vector<Lane> lanes_;
  std::vector<std::uint32_t> heap_;  ///< Lane indices, min-heap by before().
  double bytes_per_sec_;
  std::uint64_t requests_ = 0;
  double busy_ = 0.0;
};

}  // namespace esp::net
