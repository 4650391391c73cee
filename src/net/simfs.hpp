#pragma once
/// \file simfs.hpp
/// \brief Simulated parallel filesystem (Lustre-class).
///
/// Substitutes for the shared filesystem of Tera 100 / Curie that the
/// paper's trace-based baselines write through. Two contention effects
/// matter for the reproduced Fig. 16:
///   1. a serialized metadata server (create/open/close ops),
///   2. a shared aggregate OST bandwidth, of which a job of N cores only
///      gets its fair share (paper: 500 GB/s whole machine -> 9.1 GB/s for
///      2560 cores).
/// Data written also traverses the writing node's NIC, which SimFs charges
/// through the owning Machine.

#include <cstdint>

#include "net/machine.hpp"
#include "net/resource.hpp"

namespace esp::net {

/// Filesystem-level knobs (Machine supplies bandwidth/metadata costs).
struct SimFsConfig {
  /// Fraction of the machine-wide FS bandwidth available to this job.
  /// The default (-1) means "fair share by core count".
  double share_fraction = -1.0;
  /// Fixed client-side software overhead per write call.
  double write_call_overhead = 5e-6;
};

/// Per-job view of the parallel filesystem, in virtual time.
class SimFs {
 public:
  /// `job_cores` is used to compute the fair-share OST bandwidth.
  SimFs(Machine& machine, int job_cores, SimFsConfig cfg = {});

  /// Metadata operations (create/open/stat/close) — serialized machine-wide.
  double metadata_op(double start);

  /// Write `bytes` from `core` starting at `start`; returns completion.
  /// Charges the node NIC (via Machine) and the shared OST bandwidth.
  double write(int core, std::uint64_t bytes, double start);

  /// Read is symmetric to write for our purposes.
  double read(int core, std::uint64_t bytes, double start);

  double ost_bandwidth() const noexcept { return ost_.rate(); }
  std::uint64_t bytes_written() const noexcept { return bytes_written_; }
  std::uint64_t metadata_ops() const { return mds_.requests(); }
  void reset();

 private:
  Machine& machine_;
  SimFsConfig cfg_;
  BandwidthResource mds_;  ///< One lane: a FIFO metadata server.
  BandwidthResource ost_;
  std::uint64_t bytes_written_ = 0;
};

}  // namespace esp::net
