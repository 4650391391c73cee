#pragma once
/// \file workloads.hpp
/// \brief NAS-MPI benchmark communication skeletons + EulerMHD.
///
/// Substitutes for the paper's evaluation workloads (§IV-C): each skeleton
/// reproduces the benchmark's *communication structure* — process
/// topology, message sizes and counts per iteration scaled by problem
/// class — and charges analytic compute time per iteration, calibrated so
/// the instrumentation-bandwidth ordering of the paper holds (class C
/// programs issue MPI calls more intensively than class D ones, hence a
/// larger Bi and a larger online-instrumentation overhead, Fig. 15). Work
/// traffic is size-only (null buffers, see mpi::Comm): nobody reads it.
///
/// Patterns implemented (and the paper figures they feed):
///  - BT / SP: square process grid, ADI-style x/y sweeps; SP issues more,
///    smaller messages (Fig. 17d topology, Fig. 18c-e density maps);
///  - LU: non-periodic 2D grid, SSOR wavefront pipeline — send count
///    correlates with neighbour count (Fig. 17e, Fig. 18a-b);
///  - CG: power-of-two row/column reductions with log-distance partners
///    (the blocky matrix of Fig. 17a-b);
///  - FT: transpose all-to-all (dense matrix);
///  - EulerMHD: 2D torus halo exchange + dt allreduce + periodic POSIX
///    checkpoints (Fig. 17c).

#include <string>

#include "simmpi/runtime.hpp"

namespace esp::nas {

enum class Benchmark { BT, CG, FT, LU, SP, EulerMHD };
enum class ProblemClass { C, D };

const char* benchmark_name(Benchmark b) noexcept;
std::string workload_label(Benchmark b, ProblemClass c);

struct WorkloadParams {
  Benchmark bench = Benchmark::SP;
  ProblemClass cls = ProblemClass::C;
  /// Timestep count. 0 selects a scaled-down default suitable for the
  /// simulator (the per-iteration structure is what matters to every
  /// reproduced figure).
  int iterations = 0;
};

/// Largest process count <= `target` valid for the benchmark's topology
/// (square for BT/SP/EulerMHD, power of two for CG/FT, any even grid for
/// LU).
int nearest_valid_nprocs(Benchmark b, int target);

/// Build the program main for a workload; run it as a partition of a
/// valid process count.
mpi::ProgramMain make_workload(WorkloadParams p);

/// Analytic per-iteration shape of a workload at `nprocs` ranks: used by
/// benches to report the paper's Bi metric without running.
struct IterationShape {
  double flops_per_rank = 0;      ///< Compute charged per rank per iter.
  double p2p_bytes_per_rank = 0;  ///< Payload sent per rank per iter.
  int p2p_msgs_per_rank = 0;      ///< Messages sent per rank per iter.
  int default_iterations = 0;
};
IterationShape iteration_shape(const WorkloadParams& p, int nprocs);

}  // namespace esp::nas
