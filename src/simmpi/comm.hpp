#pragma once
/// \file comm.hpp
/// \brief Communicators and the two-layer (MPI_/PMPI_-style) call API.
///
/// A Comm is a cheap value handle over shared group data. Like MPI, the
/// calling rank is implicit: methods resolve the running rank's
/// RankContext through the runtime (Runtime::self).
///
/// Two layers are exposed:
///  - `p*` methods — the PMPI-equivalent base implementation. Tools and
///    internal collective algorithms call these; they are never
///    intercepted.
///  - plain methods — the MPI-equivalent public surface. Each runs the
///    base implementation and then dispatches a CallInfo through the
///    runtime's tool chain (virtualization, instrumentation, baselines).

#include <cstdint>
#include <memory>
#include <span>
#include <stdexcept>
#include <string>
#include <vector>

#include "common/buffer.hpp"
#include "simmpi/request.hpp"
#include "simmpi/types.hpp"

namespace esp::mpi {

class Runtime;

/// Immutable group data shared by every member of a communicator.
struct CommData {
  std::uint64_t ctx = 0;         ///< Unique context id (message namespace).
  std::vector<int> world_ranks;  ///< comm rank -> world rank.
  /// world rank -> comm rank, -1 for non-members.
  std::vector<int> world_to_comm;
  Runtime* rt = nullptr;

  static std::shared_ptr<CommData> make(Runtime* rt, std::uint64_t ctx,
                                        std::vector<int> world_ranks);
  /// Comm rank of a world rank, or -1 when not a member.
  int comm_rank_of(int world) const noexcept;
};

class Comm {
 public:
  Comm() = default;
  explicit Comm(std::shared_ptr<const CommData> data) : data_(std::move(data)) {}

  bool valid() const noexcept { return data_ != nullptr; }
  int size() const noexcept { return static_cast<int>(data_->world_ranks.size()); }
  std::uint64_t context() const noexcept { return data_->ctx; }
  /// Rank of the *calling rank* within this communicator (-1 if outside).
  int rank() const;
  /// World rank of a member; throws std::out_of_range for bad ranks (a
  /// negative peer computed by the caller fails loudly, not as UB).
  int world_rank(int comm_rank) const {
    if (comm_rank < 0 || comm_rank >= size())
      throw std::out_of_range("comm rank " + std::to_string(comm_rank) +
                              " outside communicator of size " +
                              std::to_string(size()));
    return data_->world_ranks[static_cast<std::size_t>(comm_rank)];
  }
  /// Comm rank for a world rank, or -1 when not a member.
  int comm_rank_of_world(int world) const;
  Runtime& runtime() const noexcept { return *data_->rt; }

  // --------------------------------------------------------------------
  // PMPI layer: base implementations, never intercepted.
  //
  // Size-only messages: send/isend/recv/irecv (both layers, raw pointers)
  // and alltoall's in/out accept a null buffer with a non-zero count. It
  // is charged exactly like a real buffer (sender clock, staging, wire,
  // crash-oracle booking, Status.bytes, every tool's CallInfo), but no
  // host byte moves: a real send into a null receive is discarded, and a
  // null send leaves a real receive buffer untouched. Reductions read
  // their operands, so they take real buffers.
  // --------------------------------------------------------------------
  void psend(const void* buf, std::uint64_t bytes, int dst, int tag) const;
  Status precv(void* buf, std::uint64_t bytes, int src, int tag) const;
  Request pisend(const void* buf, std::uint64_t bytes, int dst, int tag) const;
  Request pirecv(void* buf, std::uint64_t bytes, int src, int tag) const;
  /// By-reference send: the posted item co-owns the buffer, so a match
  /// after the caller dropped its reference still reads live memory.
  Request pisend(const BufferRef& buf, std::uint64_t bytes, int dst,
                 int tag) const;
  /// Block receive: posts no storage. At match, a rendezvous send posted
  /// by reference and delivered whole hands over its very buffer; any
  /// other send (raw pointer, eager, truncated, capped) arrives as a fresh
  /// buffer holding a copy of its physically delivered bytes. The buffer
  /// lands in the request (RequestState::delivered), which the receiver takes
  /// after the wait; a size-only send or a failed receive leaves it null.
  ///
  /// Ownership rule (the paper's "writable iff unique"): a buffer sent by
  /// reference belongs to the receiver from the send on. Its sender never
  /// reads or writes it again and may drop its reference at once; an
  /// injected corrupt bit flips inside it, as inside any delivered bytes.
  Request pirecv_block(std::uint64_t max_bytes, int src, int tag) const;
  /// Non-blocking probe for a matching incoming message. A miss returns
  /// at once, so a loop that polls until a message arrives must use
  /// iprobe(), whose miss lets the other ranks run.
  bool piprobe(int src, int tag, Status* st) const;

  void pbarrier() const;
  void pbcast(void* buf, std::uint64_t bytes, int root) const;
  void preduce(const void* in, void* out, std::uint64_t count, Datatype dt,
               ReduceOp op, int root) const;
  void pallreduce(const void* in, void* out, std::uint64_t count, Datatype dt,
                  ReduceOp op) const;
  void pgather(const void* in, std::uint64_t bytes_each, void* out,
               int root) const;
  void pallgather(const void* in, std::uint64_t bytes_each, void* out) const;
  void palltoall(const void* in, std::uint64_t bytes_each, void* out) const;
  void pscan(const void* in, void* out, std::uint64_t count, Datatype dt,
             ReduceOp op) const;
  Comm psplit(int color, int key) const;
  Comm pdup() const;

  // --------------------------------------------------------------------
  // Public layer: tool-wrapped equivalents.
  // --------------------------------------------------------------------
  void send(const void* buf, std::uint64_t bytes, int dst, int tag) const;
  Status recv(void* buf, std::uint64_t bytes, int src, int tag) const;
  Request isend(const void* buf, std::uint64_t bytes, int dst, int tag) const;
  Request irecv(void* buf, std::uint64_t bytes, int src, int tag) const;
  bool iprobe(int src, int tag, Status* st) const;

  void barrier() const;
  void bcast(void* buf, std::uint64_t bytes, int root) const;
  void reduce(const void* in, void* out, std::uint64_t count, Datatype dt,
              ReduceOp op, int root) const;
  void allreduce(const void* in, void* out, std::uint64_t count, Datatype dt,
                 ReduceOp op) const;
  void gather(const void* in, std::uint64_t bytes_each, void* out,
              int root) const;
  void allgather(const void* in, std::uint64_t bytes_each, void* out) const;
  void alltoall(const void* in, std::uint64_t bytes_each, void* out) const;
  void scan(const void* in, void* out, std::uint64_t count, Datatype dt,
            ReduceOp op) const;
  Comm split(int color, int key) const;
  Comm dup() const;

  // Typed conveniences (span-based) over the public layer.
  template <typename T>
  void send(std::span<const T> data, int dst, int tag) const {
    send(data.data(), data.size_bytes(), dst, tag);
  }
  template <typename T>
  Status recv(std::span<T> data, int src, int tag) const {
    return recv(data.data(), data.size_bytes(), src, tag);
  }
  template <typename T>
  T allreduce_one(T value, ReduceOp op) const;

 private:
  friend class Runtime;
  /// Translate a world-rank Status source to this communicator's numbering.
  Status translate(Status st) const;
  std::shared_ptr<const CommData> data_;
};

// Request completion — free functions (requests are not comm-scoped).
// p-layer:
Status pwait(Request& r);
void pwaitall(std::span<Request> rs);
bool ptest(Request& r, Status* st);
/// Block until any non-null request completes; returns its index (the
/// request is consumed: reset to null semantics is the caller's concern)
/// or -1 when every entry is null.
int pwaitany(std::span<Request> rs, Status* st);
// public (tool-wrapped) layer:
Status wait(Request& r);
void waitall(std::span<Request> rs);
bool test(Request& r, Status* st);

/// Advance the calling rank's virtual clock by a pure-compute phase.
void compute(double seconds);
/// Compute expressed in floating-point operations (uses machine rate).
void compute_flops(double flops);

/// Apply a builtin reduction: inout[i] = op(inout[i], in[i]).
void apply_reduce(const void* in, void* inout, std::uint64_t count, Datatype dt,
                  ReduceOp op);

template <typename T>
T Comm::allreduce_one(T value, ReduceOp op) const {
  static_assert(std::is_arithmetic_v<T>);
  Datatype dt;
  if constexpr (std::is_same_v<T, double>) {
    dt = Datatype::Double;
  } else if constexpr (sizeof(T) == 8) {
    dt = Datatype::Int64;
  } else {
    dt = Datatype::Int32;
  }
  T out{};
  allreduce(&value, &out, 1, dt, op);
  return out;
}

}  // namespace esp::mpi
