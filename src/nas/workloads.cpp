#include "nas/workloads.hpp"

#include <array>
#include <cmath>
#include <cstddef>
#include <span>
#include <stdexcept>
#include <vector>

#include "instrument/online_instrument.hpp"

namespace esp::nas {

namespace {

int isqrt(int n) {
  int k = static_cast<int>(std::sqrt(static_cast<double>(n)));
  while ((k + 1) * (k + 1) <= n) ++k;
  while (k * k > n) --k;
  return k;
}

int floor_pow2(int n) {
  int p = 1;
  while (p * 2 <= n) p *= 2;
  return p;
}

constexpr int kWorkTag = 17;

/// Problem-class scale constants (per NPB 3.x problem definitions).
struct ClassScale {
  int grid_n;          ///< BT/SP/LU cube edge.
  double cg_na;        ///< CG matrix order.
  double ft_points;    ///< FT total grid points.
  double mhd_mesh;     ///< EulerMHD square-mesh edge.
};

ClassScale scale_of(ProblemClass c) {
  if (c == ProblemClass::C) return {162, 150000.0, 512.0 * 512 * 512, 2048};
  return {408, 1500000.0, 2048.0 * 1024 * 1024, 4096};
}

/// Most neighbours a halo exchange has: BT/SP sweep two at a time,
/// EulerMHD's 2D mesh has four.
constexpr std::size_t kMaxNeighbours = 4;

/// Exchange `bytes` with each listed neighbour via irecv/isend/waitall,
/// with the requests on the stack.
void halo_exchange(const mpi::Comm& w, std::span<const int> neighbours,
                   std::uint64_t bytes) {
  if (neighbours.empty()) return;
  if (neighbours.size() > kMaxNeighbours)
    throw std::invalid_argument("halo exchange with more than 4 neighbours");
  std::array<mpi::Request, 2 * kMaxNeighbours> reqs;
  std::size_t n = 0;
  for (int nb : neighbours) reqs[n++] = w.irecv(nullptr, bytes, nb, kWorkTag);
  for (int nb : neighbours) reqs[n++] = w.isend(nullptr, bytes, nb, kWorkTag);
  mpi::waitall(std::span(reqs.data(), n));
}

// -------------------------------------------------------------------------
// BT / SP: square process grid, ADI x/y sweeps.
// -------------------------------------------------------------------------

void run_bt_sp(mpi::ProcEnv& env, ProblemClass cls, int iters, bool is_sp) {
  const mpi::Comm& w = env.world;
  const int p = w.size();
  const int k = isqrt(p);
  if (k * k != p) throw std::invalid_argument("BT/SP needs a square count");
  const int r = env.world_rank;
  const int row = r / k, col = r % k;
  const ClassScale sc = scale_of(cls);
  const double n = sc.grid_n;
  // Uneven domain decomposition, as in the real benchmark: the first
  // (N mod k) rows/columns of the process grid hold one extra cell plane.
  // This is the physical origin of the spatial imbalance the paper's
  // density maps expose (Fig. 18c-e).
  const int base = sc.grid_n / k, extra = sc.grid_n % k;
  const double cells_x = base + (col < extra ? 1 : 0);
  const double cells_y = base + (row < extra ? 1 : 0);
  const double cells_per_rank = cells_x * cells_y * n;
  // SP: more sweep stages with smaller faces; BT: fewer, larger.
  const int stages = is_sp ? 2 : 1;
  const double face_doubles = cells_x * n * 5.0;
  const std::uint64_t msg =
      static_cast<std::uint64_t>(face_doubles * 8.0 * (is_sp ? 1.0 : 2.0));
  const double flops = cells_per_rank * (is_sp ? 220.0 : 350.0);

  auto at = [&](int rr, int cc) {
    return ((rr + k) % k) * k + (cc + k) % k;  // cyclic (multipartition-like)
  };
  const std::vector<int> x_nb = {at(row, col - 1), at(row, col + 1)};
  const std::vector<int> y_nb = {at(row - 1, col), at(row + 1, col)};

  for (int it = 0; it < iters; ++it) {
    mpi::compute_flops(flops);
    for (int s = 0; s < stages; ++s) {
      halo_exchange(w, x_nb, msg);  // x sweep
      halo_exchange(w, y_nb, msg);  // y sweep
    }
    if (it % 8 == 7) {
      double residual = 1.0, out = 0.0;
      w.allreduce(&residual, &out, 1, mpi::Datatype::Double,
                  mpi::ReduceOp::Sum);
    }
  }
}

// -------------------------------------------------------------------------
// LU: non-periodic grid, SSOR wavefront pipeline.
// -------------------------------------------------------------------------

void run_lu(mpi::ProcEnv& env, ProblemClass cls, int iters) {
  const mpi::Comm& w = env.world;
  const int p = w.size();
  const int px = floor_pow2(isqrt(p));
  const int py = p / px;
  if (px * py != p) throw std::invalid_argument("LU needs px*py ranks");
  const int r = env.world_rank;
  const int row = r / px, col = r % px;
  const ClassScale sc = scale_of(cls);
  const double n = sc.grid_n;
  // Uneven decomposition, as in BT/SP (drives Fig. 18b's pattern).
  const double cells_x = sc.grid_n / px + (col < sc.grid_n % px ? 1 : 0);
  const double cells_y = sc.grid_n / py + (row < sc.grid_n % py ? 1 : 0);
  const double cells_per_rank = cells_x * cells_y * n;
  const double flops = cells_per_rank * 250.0;

  // Wavefront pipeline: `stages` chunks per sweep; total per-sweep volume
  // matches the benchmark's N boundary rows.
  const int stages = 8;
  const std::uint64_t msg_s =
      static_cast<std::uint64_t>(n * (n / px) * 5.0 * 8.0 / stages);
  const std::uint64_t msg_e =
      static_cast<std::uint64_t>(n * (n / py) * 5.0 * 8.0 / stages);

  const int north = row > 0 ? r - px : -1;
  const int south = row + 1 < py ? r + px : -1;
  const int west = col > 0 ? r - 1 : -1;
  const int east = col + 1 < px ? r + 1 : -1;

  const double stage_flops = flops / (2.0 * stages);

  for (int it = 0; it < iters; ++it) {
    // Lower-triangular sweep: NW -> SE.
    for (int s = 0; s < stages; ++s) {
      if (north >= 0) w.recv(nullptr, msg_s, north, kWorkTag);
      if (west >= 0) w.recv(nullptr, msg_e, west, kWorkTag);
      mpi::compute_flops(stage_flops);
      if (south >= 0) w.send(nullptr, msg_s, south, kWorkTag);
      if (east >= 0) w.send(nullptr, msg_e, east, kWorkTag);
    }
    // Upper-triangular sweep: SE -> NW.
    for (int s = 0; s < stages; ++s) {
      if (south >= 0) w.recv(nullptr, msg_s, south, kWorkTag);
      if (east >= 0) w.recv(nullptr, msg_e, east, kWorkTag);
      mpi::compute_flops(stage_flops);
      if (north >= 0) w.send(nullptr, msg_s, north, kWorkTag);
      if (west >= 0) w.send(nullptr, msg_e, west, kWorkTag);
    }
    if (it % 8 == 7) {
      double rsd = 1.0, out = 0.0;
      w.allreduce(&rsd, &out, 1, mpi::Datatype::Double, mpi::ReduceOp::Max);
    }
  }
}

// -------------------------------------------------------------------------
// CG: row reductions with log-distance partners + transpose exchange.
// -------------------------------------------------------------------------

void run_cg(mpi::ProcEnv& env, ProblemClass cls, int iters) {
  const mpi::Comm& w = env.world;
  const int p = w.size();
  if ((p & (p - 1)) != 0)
    throw std::invalid_argument("CG needs a power-of-two count");
  int nprows = floor_pow2(isqrt(p));
  int npcols = p / nprows;  // npcols == nprows or 2*nprows
  const int r = env.world_rank;
  const int row = r / npcols, col = r % npcols;
  const ClassScale sc = scale_of(cls);
  const std::uint64_t reduce_bytes =
      static_cast<std::uint64_t>(sc.cg_na * 8.0 / p) + 8;
  const std::uint64_t transpose_bytes =
      static_cast<std::uint64_t>(sc.cg_na * 8.0 / nprows / npcols) + 8;
  const double flops = sc.cg_na * 130000.0 / p;  // ~25 sub-iters over nnz

  // Involutive transpose partner, valid for npcols in {nprows, 2*nprows}.
  const int R = nprows;
  const int t_row = col % R;
  const int t_col = row + (col >= R ? R : 0);
  const int transpose_partner = t_row * npcols + t_col;

  auto sendrecv = [&](int partner, std::uint64_t bytes) {
    if (partner == r) return;
    mpi::Request rq = w.irecv(nullptr, bytes, partner, kWorkTag);
    w.send(nullptr, bytes, partner, kWorkTag);
    mpi::wait(rq);
  };

  for (int it = 0; it < iters; ++it) {
    mpi::compute_flops(flops);
    // Sum-reduce along the row via distance-doubling partners (x2: the
    // benchmark reduces both q and r vectors).
    for (int rep = 0; rep < 2; ++rep) {
      for (int j = 1; j < npcols; j <<= 1) {
        const int partner = row * npcols + (col ^ j);
        sendrecv(partner, reduce_bytes);
      }
    }
    sendrecv(transpose_partner, transpose_bytes);
    if (it % 4 == 3) {
      double rho = 1.0, out = 0.0;
      w.allreduce(&rho, &out, 1, mpi::Datatype::Double, mpi::ReduceOp::Sum);
    }
  }
}

// -------------------------------------------------------------------------
// FT: transpose all-to-all.
// -------------------------------------------------------------------------

void run_ft(mpi::ProcEnv& env, ProblemClass cls, int iters) {
  const mpi::Comm& w = env.world;
  const int p = w.size();
  if ((p & (p - 1)) != 0)
    throw std::invalid_argument("FT needs a power-of-two count");
  const ClassScale sc = scale_of(cls);
  // Complex grid redistributed across ranks each iteration.
  const std::uint64_t bytes_each = static_cast<std::uint64_t>(
      std::max(16.0, sc.ft_points * 16.0 / p / p));
  const double flops =
      sc.ft_points * 5.0 * std::log2(sc.ft_points) / p;

  for (int it = 0; it < iters; ++it) {
    mpi::compute_flops(flops);
    w.alltoall(nullptr, bytes_each, nullptr);
    if (it % 4 == 3) {
      double chk = 1.0, outv = 0.0;
      w.allreduce(&chk, &outv, 1, mpi::Datatype::Double, mpi::ReduceOp::Sum);
    }
  }
}

// -------------------------------------------------------------------------
// EulerMHD: 2D torus halo + dt reduction + POSIX checkpoints.
// -------------------------------------------------------------------------

void run_eulermhd(mpi::ProcEnv& env, ProblemClass cls, int iters) {
  const mpi::Comm& w = env.world;
  const int p = w.size();
  const int k = isqrt(p);
  if (k * k != p)
    throw std::invalid_argument("EulerMHD needs a square count");
  const int r = env.world_rank;
  const int row = r / k, col = r % k;
  const ClassScale sc = scale_of(cls);
  const double mesh = sc.mhd_mesh;
  constexpr double kVars = 9.0;    // MHD conservative variables
  constexpr double kGhost = 2.0;   // high-order stencil depth
  const double cells_per_rank = mesh * mesh / p;
  const std::uint64_t msg =
      static_cast<std::uint64_t>((mesh / k) * kVars * kGhost * 8.0);
  const double flops = cells_per_rank * 2000.0;  // high-order MHD fluxes

  auto at = [&](int rr, int cc) {
    return ((rr + k) % k) * k + (cc + k) % k;  // periodic Cartesian mesh
  };
  const std::vector<int> nb = {at(row, col - 1), at(row, col + 1),
                               at(row - 1, col), at(row + 1, col)};
  for (int it = 0; it < iters; ++it) {
    mpi::compute_flops(flops);
    halo_exchange(w, nb, msg);
    double dt_local = 1e-3, dt = 0.0;
    w.allreduce(&dt_local, &dt, 1, mpi::Datatype::Double, mpi::ReduceOp::Min);
    if (it % 10 == 9) {
      const auto ckpt =
          static_cast<std::uint64_t>(cells_per_rank * kVars * 8.0);
      inst::posix_io(inst::EventKind::PosixWrite, ckpt,
                     static_cast<double>(ckpt) / 400e6);
    }
  }
}

}  // namespace

const char* benchmark_name(Benchmark b) noexcept {
  switch (b) {
    case Benchmark::BT: return "BT";
    case Benchmark::CG: return "CG";
    case Benchmark::FT: return "FT";
    case Benchmark::LU: return "LU";
    case Benchmark::SP: return "SP";
    case Benchmark::EulerMHD: return "EulerMHD";
  }
  return "?";
}

std::string workload_label(Benchmark b, ProblemClass c) {
  if (b == Benchmark::EulerMHD) return "EulerMHD";
  return std::string(benchmark_name(b)) + "." +
         (c == ProblemClass::C ? "C" : "D");
}

int nearest_valid_nprocs(Benchmark b, int target) {
  if (target < 1) return 1;
  switch (b) {
    case Benchmark::BT:
    case Benchmark::SP:
    case Benchmark::EulerMHD: {
      const int k = isqrt(target);
      return std::max(1, k * k);
    }
    case Benchmark::CG:
    case Benchmark::FT:
      return floor_pow2(target);
    case Benchmark::LU: {
      // px * py with both powers of two.
      return floor_pow2(target);
    }
  }
  return 1;
}

mpi::ProgramMain make_workload(WorkloadParams p) {
  return [p](mpi::ProcEnv& env) {
    int iters = p.iterations;
    if (iters <= 0) iters = iteration_shape(p, env.world.size()).default_iterations;
    switch (p.bench) {
      case Benchmark::BT: run_bt_sp(env, p.cls, iters, false); break;
      case Benchmark::SP: run_bt_sp(env, p.cls, iters, true); break;
      case Benchmark::LU: run_lu(env, p.cls, iters); break;
      case Benchmark::CG: run_cg(env, p.cls, iters); break;
      case Benchmark::FT: run_ft(env, p.cls, iters); break;
      case Benchmark::EulerMHD: run_eulermhd(env, p.cls, iters); break;
    }
  };
}

IterationShape iteration_shape(const WorkloadParams& p, int nprocs) {
  IterationShape s;
  const ClassScale sc = scale_of(p.cls);
  const double n = sc.grid_n;
  const int k = std::max(1, isqrt(nprocs));
  switch (p.bench) {
    case Benchmark::BT:
      s.flops_per_rank = n * n * n / nprocs * 350.0;
      s.p2p_msgs_per_rank = 4;
      s.p2p_bytes_per_rank = 4.0 * (n / k) * n * 5.0 * 8.0 * 2.0;
      s.default_iterations = 40;
      break;
    case Benchmark::SP:
      s.flops_per_rank = n * n * n / nprocs * 220.0;
      s.p2p_msgs_per_rank = 8;
      s.p2p_bytes_per_rank = 8.0 * (n / k) * n * 5.0 * 8.0;
      s.default_iterations = 60;
      break;
    case Benchmark::LU:
      s.flops_per_rank = n * n * n / nprocs * 250.0;
      s.p2p_msgs_per_rank = 2 * 8 * 2;
      s.p2p_bytes_per_rank = 2.0 * n * ((n / k) + (n / k)) * 5.0 * 8.0;
      s.default_iterations = 50;
      break;
    case Benchmark::CG: {
      const int npcols = nprocs / floor_pow2(isqrt(nprocs));
      int logc = 0;
      while ((1 << logc) < npcols) ++logc;
      s.flops_per_rank = sc.cg_na * 130000.0 / nprocs;
      s.p2p_msgs_per_rank = 2 * logc + 1;
      s.p2p_bytes_per_rank =
          2.0 * logc * (sc.cg_na * 8.0 / nprocs) + sc.cg_na * 8.0 / nprocs;
      s.default_iterations = 25;
      break;
    }
    case Benchmark::FT:
      s.flops_per_rank = sc.ft_points * 5.0 * std::log2(sc.ft_points) / nprocs;
      s.p2p_msgs_per_rank = nprocs - 1;
      s.p2p_bytes_per_rank = sc.ft_points * 16.0 / nprocs;
      s.default_iterations = 10;
      break;
    case Benchmark::EulerMHD:
      s.flops_per_rank = sc.mhd_mesh * sc.mhd_mesh / nprocs * 2000.0;
      s.p2p_msgs_per_rank = 4;
      s.p2p_bytes_per_rank = 4.0 * (sc.mhd_mesh / k) * 9.0 * 2.0 * 8.0;
      s.default_iterations = 40;
      break;
  }
  return s;
}

}  // namespace esp::nas
