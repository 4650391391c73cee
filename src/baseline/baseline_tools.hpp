#pragma once
/// \file baseline_tools.hpp
/// \brief Comparator tool models for Fig. 16: Score-P 1.1.1 profile mode,
/// Score-P trace mode over SionLib, and Scalasca 1.4.3 runtime
/// summarization.
///
/// Each baseline implements its real *data path* as an interception layer
/// against the same simulated substrates the online coupling uses:
///  - Score-P profile: per-call in-memory call-path aggregation; no trace
///    IO (a small profile dump at finalize);
///  - Score-P trace (+SionLib): per-call OTF2-like record appended to a
///    memory buffer; on overflow the buffer is flushed through the
///    simulated parallel filesystem. SionLib aggregates one physical file
///    per *node*, so metadata pressure scales with nodes, not ranks —
///    but the data volume still shares the job's OST bandwidth slice;
///  - Scalasca: runtime summarization — heavier per-call bookkeeping than
///    a plain profile plus a parallel unification phase at finalize.
///
/// Record sizes are calibrated to the paper's reported volumes (Score-P
/// traces 313 MB -> 116 GB while online coupling moves 923 MB -> 333 GB,
/// i.e. the streamed raw events are ~2.9x larger than OTF2 records).

#include <memory>

#include "net/simfs.hpp"
#include "simmpi/runtime.hpp"

namespace esp::baseline {

enum class ToolKind {
  Reference,       ///< No tool attached.
  ScorepProfile,   ///< Score-P profile mode (MPI only).
  ScorepTrace,     ///< Score-P trace mode + SionLib.
  Scalasca,        ///< Scalasca runtime summarization.
  OnlineCoupling,  ///< Our method (attached elsewhere; listed for benches).
};

const char* tool_kind_name(ToolKind k) noexcept;

struct BaselineConfig {
  /// OTF2-like trace record size (vs the 40-byte streamed Event).
  std::uint64_t trace_record_bytes = 89;
  /// Per-rank trace memory buffer (Score-P default-ish).
  std::uint64_t trace_buffer_bytes = 1u << 20;
  /// Per-call costs.
  double profile_event_cost = 700e-9;
  double trace_event_cost = 500e-9;
  double scalasca_event_cost = 1.3e-6;
};

/// Common counters (inspect after run()).
struct BaselineTotals {
  std::uint64_t events = 0;
  std::uint64_t trace_bytes = 0;    ///< Volume written to the filesystem.
  std::uint64_t metadata_ops = 0;
};

class BaselineTool : public mpi::Tool {
 public:
  BaselineTool(mpi::Runtime& rt, ToolKind kind, BaselineConfig cfg);

  void on_init(mpi::RankContext& rc) override;
  void on_call(mpi::RankContext& rc, const mpi::CallInfo& ci) override;
  void on_finalize(mpi::RankContext& rc) override;

  BaselineTotals totals() const;
  net::SimFs& fs() noexcept { return *fs_; }

 private:
  struct RankState {
    std::uint64_t buffered = 0;  ///< Trace bytes not yet flushed.
    std::uint64_t events = 0;
    bool opened = false;
  };
  void flush_trace(mpi::RankContext& rc, RankState& st);

  mpi::Runtime& rt_;
  ToolKind kind_;
  BaselineConfig cfg_;
  std::unique_ptr<net::SimFs> fs_;
  std::vector<RankState> states_;
  std::uint64_t total_events_ = 0;
  std::uint64_t total_trace_bytes_ = 0;
};

/// Attach a baseline tool to every partition (benches run the workload as
/// the only partition). Reference/OnlineCoupling return nullptr.
std::shared_ptr<BaselineTool> attach_baseline(mpi::Runtime& rt, ToolKind kind,
                                              BaselineConfig cfg = {});

}  // namespace esp::baseline
