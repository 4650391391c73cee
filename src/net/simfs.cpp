#include "net/simfs.hpp"

#include <algorithm>

#include "obs/metrics.hpp"
#include "obs/obs.hpp"
#include "obs/trace.hpp"

namespace esp::net {

namespace {

struct FsObs {
  obs::Counter& meta_ops = obs::counter("net.fs_meta_ops");
  obs::Histogram& meta_wait = obs::histogram("net.fs_meta_wait_us");
};

FsObs& fobs() {
  static FsObs o;
  return o;
}

}  // namespace

SimFs::SimFs(Machine& machine, int job_cores, SimFsConfig cfg)
    : machine_(machine), cfg_(cfg), ost_(1.0) {
  const auto& mc = machine.config();
  double share = cfg_.share_fraction;
  if (share < 0.0) {
    share = static_cast<double>(std::max(job_cores, 1)) /
            static_cast<double>(std::max(mc.total_cores, 1));
  }
  share = std::clamp(share, 1e-6, 1.0);
  ost_.set_rate(mc.fs_total_bandwidth * share);
}

double SimFs::metadata_op(double start) {
  const double op_cost = machine_.config().fs_metadata_op_cost;
  const double done = mds_.serve(start, op_cost);
  if (obs::enabled()) {
    auto& o = fobs();
    o.meta_ops.add(1);
    // Queueing delay behind other clients of the serialized MDS.
    const double wait = done - start - op_cost;
    o.meta_wait.observe(
        wait > 0 ? static_cast<std::uint64_t>(wait * 1e6) : 0);
    if (wait > 0) obs::trace_span("net", "net.fs_meta_wait", start, done);
  }
  return done;
}

double SimFs::write(int core, std::uint64_t bytes, double start) {
  start += cfg_.write_call_overhead;
  // The write streams through the node NIC and the OST array concurrently;
  // completion is the slower of the two serialized queues.
  const double t_ost = ost_.acquire(start, bytes);
  const double t_nic = machine_.nic_send(core, bytes, start);
  bytes_written_ += bytes;
  return std::max(t_ost, t_nic);
}

double SimFs::read(int core, std::uint64_t bytes, double start) {
  const double t_ost = ost_.acquire(start + cfg_.write_call_overhead, bytes);
  const double t_nic = machine_.nic_send(core, bytes, start);
  return std::max(t_ost, t_nic);
}

void SimFs::reset() {
  mds_.reset();
  ost_.reset();
  bytes_written_ = 0;
}

}  // namespace esp::net
