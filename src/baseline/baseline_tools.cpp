#include "baseline/baseline_tools.hpp"

#include <cmath>

namespace esp::baseline {

const char* tool_kind_name(ToolKind k) noexcept {
  switch (k) {
    case ToolKind::Reference: return "Reference";
    case ToolKind::ScorepProfile: return "ScoreP profile (MPI)";
    case ToolKind::ScorepTrace: return "ScoreP trace (MPI+SionLib)";
    case ToolKind::Scalasca: return "Scalasca";
    case ToolKind::OnlineCoupling: return "Online Coupling";
  }
  return "?";
}

BaselineTool::BaselineTool(mpi::Runtime& rt, ToolKind kind, BaselineConfig cfg)
    : rt_(rt), kind_(kind), cfg_(cfg) {
  fs_ = std::make_unique<net::SimFs>(rt.machine(), rt.world_size());
  states_.resize(static_cast<std::size_t>(rt.world_size()));
}

void BaselineTool::on_init(mpi::RankContext& rc) {
  auto& st = states_[static_cast<std::size_t>(rc.world_rank)];
  st = RankState{};
  if (kind_ == ToolKind::ScorepTrace) {
    // SionLib: one physical file per node; the node-local leader pays the
    // create, everyone else only registers into the container.
    const int node = rt_.machine().node_of(rt_.core_of(rc.world_rank));
    const int node_leader = node * rt_.machine().config().cores_per_node;
    if (rc.world_rank == node_leader ||
        rc.world_rank == rt_.partition_of_world(rc.world_rank).first_world_rank) {
      rc.clock = std::max(rc.clock, fs_->metadata_op(rc.clock));
    }
    st.opened = true;
  }
}

void BaselineTool::flush_trace(mpi::RankContext& rc, RankState& st) {
  if (st.buffered == 0) return;
  // Synchronous buffer flush through the shared filesystem: the rank
  // blocks (in virtual time) until the metadata server registers the
  // chunk and its slice of OST bandwidth absorbs the buffer — the
  // scaling bottleneck of trace-based tools.
  rc.clock = std::max(rc.clock, fs_->metadata_op(rc.clock));
  rc.clock = std::max(
      rc.clock, fs_->write(rt_.core_of(rc.world_rank), st.buffered, rc.clock));
  total_trace_bytes_ += st.buffered;
  st.buffered = 0;
}

void BaselineTool::on_call(mpi::RankContext& rc, const mpi::CallInfo&) {
  auto& st = states_[static_cast<std::size_t>(rc.world_rank)];
  ++st.events;
  switch (kind_) {
    case ToolKind::ScorepProfile:
      rc.advance(cfg_.profile_event_cost);
      break;
    case ToolKind::Scalasca:
      rc.advance(cfg_.scalasca_event_cost);
      break;
    case ToolKind::ScorepTrace:
      rc.advance(cfg_.trace_event_cost);
      st.buffered += cfg_.trace_record_bytes;
      if (st.buffered >= cfg_.trace_buffer_bytes) flush_trace(rc, st);
      break;
    default:
      break;
  }
}

void BaselineTool::on_finalize(mpi::RankContext& rc) {
  auto& st = states_[static_cast<std::size_t>(rc.world_rank)];
  switch (kind_) {
    case ToolKind::ScorepProfile: {
      // Profiles are unified into one file at the job root (Score-P
      // writes a single profile.cubex): everyone pays a gather-tree
      // latency; only the root touches the filesystem.
      const auto& part = rt_.partition_of_world(rc.world_rank);
      rc.advance(std::ceil(std::log2(std::max(2, part.size))) * 30e-6);
      if (rc.world_rank == part.first_world_rank) {
        rc.clock = std::max(rc.clock, fs_->metadata_op(rc.clock));
        rc.clock = std::max(
            rc.clock,
            fs_->write(rt_.core_of(rc.world_rank),
                       64 * 1024 + 2048ull * static_cast<std::uint64_t>(
                                       part.size),
                       rc.clock));
      }
      break;
    }
    case ToolKind::ScorepTrace:
      flush_trace(rc, st);
      break;
    case ToolKind::Scalasca: {
      // Unification/collation: a deeper synchronization phase than the
      // plain profile, then one collated dump at the root.
      const auto& part = rt_.partition_of_world(rc.world_rank);
      const double depth = std::ceil(std::log2(std::max(2, part.size)));
      rc.advance(depth * 120e-6);
      if (rc.world_rank == part.first_world_rank) {
        rc.clock = std::max(rc.clock, fs_->metadata_op(rc.clock));
        rc.clock = std::max(
            rc.clock,
            fs_->write(rt_.core_of(rc.world_rank),
                       256 * 1024 + 4096ull * static_cast<std::uint64_t>(
                                        part.size),
                       rc.clock));
      }
      break;
    }
    default:
      break;
  }
  total_events_ += st.events;
}

BaselineTotals BaselineTool::totals() const {
  BaselineTotals t;
  t.events = total_events_;
  t.trace_bytes = total_trace_bytes_;
  t.metadata_ops = fs_->metadata_ops();
  return t;
}

std::shared_ptr<BaselineTool> attach_baseline(mpi::Runtime& rt, ToolKind kind,
                                              BaselineConfig cfg) {
  if (kind == ToolKind::Reference || kind == ToolKind::OnlineCoupling)
    return nullptr;
  auto tool = std::make_shared<BaselineTool>(rt, kind, cfg);
  rt.tools().attach(tool);
  return tool;
}

}  // namespace esp::baseline
