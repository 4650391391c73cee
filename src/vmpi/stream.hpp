#pragma once
/// \file stream.hpp
/// \brief VMPI_Stream: persistent asynchronous channels (paper §III-A,
/// Fig. 9).
///
/// Semantics reproduced from the paper:
///  - UNIX-pipe-like behaviour: writes are non-blocking until all
///    asynchronous buffers are in flight (adaptation window between
///    producer and consumer), reads block unless NONBLOCK is set;
///  - the write endpoint owns `n_async` output buffers SHARED between all
///    endpoints (to bound memory when blocks are ~1 MB);
///  - the read endpoint posts `n_async` receive buffers PER incoming
///    stream so an arriving block always finds a buffer (no unexpected
///    message: the transport hands the block to the posted receive);
///    each writer announces its block size and `n_async` when it opens,
///    and the reader adopts both per link;
///  - a stream connected to multiple endpoints distributes blocks using a
///    load-balancing policy (none / random / round-robin), independently
///    chosen at each endpoint;
///  - non-blocking read returns kEagain and the next call tries the next
///    endpoint according to the policy, avoiding circular waits;
///  - read returns 0 once every remote writer has closed the stream.
///
/// Resilience (beyond the paper): every block carries a 24-byte header
/// (magic, CRC-32, per-link sequence number, payload length; the CRC covers
/// the sequence number, the payload length and the payload bytes) so the
/// read endpoint detects corrupted blocks (CRC mismatch) and lost blocks
/// (sequence gaps) instead of feeding garbage to analysis. A writer that
/// dies without sending end-of-stream is detected — via the runtime's
/// crash sweep or, for a silently-vanished writer, an idle poll — and
/// surfaces as kEpipe rather than a hang; declaring a peer dead charges
/// 1 ms of virtual time, modelling the reader's timeout.
/// There is one wire format: every block and every end-of-stream marker
/// is framed. The transport delivers stream data in full whatever the
/// runtime's payload copy cap says, so the header always arrives.
///
/// A block's bytes are touched twice on the host: the writer frames and
/// checksums it while copying it into a pooled (block_size + 24)-byte
/// block, and the reader checks the CRC — while copying it out (read), or
/// in place before handing the block itself over (read_some). In between
/// nothing copies it: the writer sends the block by reference and drops
/// its own reference, and the reader's posted block receive takes that
/// very block at match time (Comm::pirecv_block). Writer output buffers
/// and reader slots are therefore credits, not storage: a stream open
/// mints no block, and a block exists only while it carries data. The
/// copying CRC passes are pure byte work and run on helper threads while
/// the rank is busy (simmpi/fiber.hpp); no simulation step waits on how
/// fast they run.
///
/// Streams run on the universe communicator's PMPI layer in a reserved tag
/// space, so instrumentation (which rides the tool chain) never sees its
/// own transport.

#include <cstdint>
#include <deque>
#include <memory>
#include <vector>

#include "common/buffer.hpp"
#include "simmpi/runtime.hpp"
#include "vmpi/map.hpp"

namespace esp::vmpi {

/// Result of Stream::read in non-blocking mode when no block is ready.
inline constexpr int kEagain = -11;

/// Result of Stream::read once no data can ever arrive again AND at least
/// one writer died without a clean end-of-stream (broken pipe). A clean
/// shutdown of every writer still reads 0.
inline constexpr int kEpipe = -32;

/// Block-distribution policies (write side) and polling order (read side).
enum class BalancePolicy { None, Random, RoundRobin };

/// Flags for Stream::read.
inline constexpr int kNonblock = 1;

struct StreamConfig {
  std::uint64_t block_size = 1u << 20;  ///< Paper: block size tends to ~1 MB.
  int n_async = 3;  ///< N_A of Fig. 9; a reader posts its writers' value.
  BalancePolicy policy = BalancePolicy::RoundRobin;

  // ---- reader-liveness lease + failover (see "Failure model v2") ------
  /// Writers watch their *readers*: every delivered block doubles as a
  /// heartbeat and an idle reader owes a beacon each `hb_interval`. The
  /// simulation models the beacon stream rather than materializing the
  /// messages (which would perturb clocks and call counts): a reader dead
  /// since virtual time T has, by definition, missed every beacon after
  /// T, so the writer declares it dead at its first write/close once its
  /// own clock passes T + hb_lease, re-routes the endpoint to a surviving
  /// rank of the same partition (Map::failover_target, round-robin) and
  /// replays the unacknowledged tail from the resend window. Armed only
  /// when the run has a fault plan and an endpoint's partition has a
  /// scheduled crash — a fault-free run pays nothing.
  double hb_lease = 2e-3;    ///< Virtual seconds of silence before declaring death.
  double hb_interval = 5e-4; ///< Modeled beacon period (heartbeats_missed unit).
  /// Framed copies of the most recent blocks kept per endpoint for replay
  /// after failover; older blocks are unreplayable and become seq-gap
  /// loss on the new link. 0 disables replay entirely.
  ///
  /// Retention is exact: write_partial() pushes the new copy first and
  /// trims with a strictly-greater-than test afterwards, so the ring holds
  /// exactly min(blocks written on the link, resend_window) entries — a
  /// full ring evicts back down to `resend_window`, never to
  /// `resend_window - 1`. FailoverCtl.replayed (and with it the adopted
  /// link's loss ledger: lost == written - replayed at the window
  /// boundary) inherits that exact count.
  int resend_window = 4;
};

/// Per-incoming-link health, for the data-loss ledger.
struct StreamPeerStats {
  int universe_rank = -1;
  std::uint64_t blocks_delivered = 0;
  std::uint64_t bytes_delivered = 0;   ///< Payload bytes of delivered blocks.
  std::uint64_t blocks_lost = 0;       ///< Sequence gaps (network drops).
  std::uint64_t blocks_corrupted = 0;  ///< CRC / framing failures.
  std::uint64_t blocks_retried = 0;    ///< Corrupt blocks skipped-and-continued.
  bool closed = false;                 ///< Clean end-of-stream received.
  bool dead = false;                   ///< Writer died / link quarantined.
  bool failover_join = false;          ///< Link adopted from a dead reader.
  /// Link adopted through a planned drain handoff (elastic membership):
  /// clean by construction, charges nothing to the loss ledger.
  bool drain_join = false;
  /// Blocks the writer announced it would replay on this adopted link.
  std::uint64_t blocks_replayed = 0;
};

/// Whole-stream aggregate of StreamPeerStats plus write-side counters.
struct StreamStats {
  std::uint64_t blocks_written = 0;
  std::uint64_t blocks_read = 0;
  std::uint64_t bytes_written = 0;  ///< Payload bytes accepted by write*.
  std::uint64_t bytes_read = 0;     ///< Payload bytes delivered to read*.
  std::uint64_t blocks_lost = 0;
  std::uint64_t blocks_corrupted = 0;
  std::uint64_t blocks_retried = 0;
  std::uint64_t writes_failed = 0;  ///< Sends completed with a dead peer.
  std::uint64_t eagain_returns = 0;      ///< Non-blocking reads that found nothing.
  std::uint64_t backpressure_waits = 0;  ///< Writes that waited for an out buffer.
  std::uint64_t failovers = 0;          ///< Endpoints re-routed after reader death.
  std::uint64_t heartbeats_missed = 0;  ///< Modeled beacons missed before declaring.
  std::uint64_t resent_blocks = 0;      ///< Blocks replayed onto new endpoints.
  std::uint64_t failover_joins = 0;     ///< Links adopted from dead readers (read side).
  std::uint64_t planned_handoffs = 0;   ///< Drain handoffs executed (write side).
  std::uint64_t drain_joins = 0;        ///< Links adopted via drain handoff (read side).
  int peers_dead = 0;
};

/// A persistent, asynchronous, block-oriented channel between partitions.
class Stream {
 public:
  explicit Stream(StreamConfig cfg = {});
  ~Stream();

  Stream(const Stream&) = delete;
  Stream& operator=(const Stream&) = delete;

  /// Open the stream over a mapping ("w" on the writing partition, "r" on
  /// the reading one). VMPI_Stream_open_map.
  void open_map(mpi::ProcEnv& env, const Map& map, const char* mode);

  /// Open between two arbitrary universe ranks.
  void open_peer(mpi::ProcEnv& env, int remote_universe_rank,
                 const char* mode);

  /// Write `nblocks` blocks of block_size bytes from `buf`. Non-blocking
  /// until all async output buffers are in flight, then waits for the
  /// oldest (backpressure). Returns blocks written.
  int write(const void* buf, int nblocks);

  /// Write one short block of `bytes` <= block_size (a producer's final,
  /// partially-filled pack). The receiver sees the actual byte count.
  int write_partial(const void* buf, std::uint64_t bytes);

  /// Read one or more blocks into `buf`, which must hold nblocks *
  /// block_size() bytes — note block_size() may have been adopted from
  /// the writers at open_map(). Returns blocks read (>0), kEagain
  /// (kNonblock set, nothing available), 0 (all writers closed cleanly),
  /// or kEpipe (no data can ever arrive and >= 1 writer died uncleanly).
  /// The contents of `buf` are unspecified unless the call returns n > 0,
  /// and then only the first n blocks are defined: a block's CRC is checked
  /// while it is copied in, so a rejected block may leave its bytes behind
  /// (it is counted and never returned). A kEagain return is an idle wait
  /// for the scheduler (simmpi/fiber.hpp): the call resumes only when no
  /// other rank can run, so a polling loop never starves the writers.
  int read(void* buf, int nblocks, int flags = 0);

  /// Batched read without a copy: up to `max_blocks` blocks, each handed
  /// over as a read-only view of exactly its payload, appended to `out`
  /// (ready to move onto the blackboard). The CRC is checked in place in
  /// the delivered block, whose pool block returns when the last view
  /// drops, and the slot's receive is reposted; virtual time is charged
  /// as for read(). The first block honours the blocking mode in
  /// `flags`; further blocks are taken opportunistically (non-blocking),
  /// so a burst of queued blocks drains in one call but the call never
  /// waits for more than one; a kEagain return is an idle wait, as for
  /// read(), but the probes after the first block never idle. Returns the
  /// number of blocks appended (> 0), or read()'s terminal codes (0 /
  /// kEagain / kEpipe) when — and only when — nothing was appended: a
  /// call that drained at least one block always reports the positive
  /// count and leaves the terminal condition for the next call. Throws std::logic_error when
  /// `max_blocks <= 0` (a non-positive budget would otherwise return 0,
  /// indistinguishable from a clean end-of-stream).
  int read_some(std::vector<BufferRef>& out, int max_blocks, int flags = 0);

  /// Flush outstanding writes and send end-of-stream to every endpoint.
  /// Idempotent: second and later calls are no-ops.
  void close();

  bool is_open() const noexcept { return open_ && !closed_; }
  std::uint64_t block_size() const noexcept { return cfg_.block_size; }
  std::uint64_t blocks_written() const noexcept { return blocks_written_; }
  std::uint64_t blocks_read() const noexcept { return blocks_read_; }

  /// Aggregate health counters (either endpoint).
  StreamStats stats() const;
  /// Per-incoming-link health (read endpoint; empty on writers).
  std::vector<StreamPeerStats> peer_stats() const;

  /// Reader: cancel the still-posted receives of links whose writer has
  /// closed cleanly or died, so the mailbox of a long-lived fabric reader
  /// does not keep n_async receives per departed tenant forever. A link
  /// with an undrained queued send is skipped until the next call. The
  /// receives hold no storage; per-link accounting (StreamPeerStats)
  /// survives. No-op on writers.
  void reclaim_closed_slots();

 private:
  struct InPeer {
    int universe_rank = -1;
    int tag = 0;
    /// The N_A receive credits: each a posted block receive (no storage
    /// until a block arrives in its request), or null once consumed and
    /// not reposted (a closed link).
    std::vector<mpi::Request> slots;
    std::size_t head = 0;  ///< Completion order is FIFO per peer.
    bool closed = false;
    bool dead = false;
    std::uint64_t expected_seq = 0;
    std::uint64_t blocks = 0;
    std::uint64_t bytes = 0;
    std::uint64_t lost = 0;
    std::uint64_t corrupted = 0;
    std::uint64_t retried = 0;
    int consecutive_corrupt = 0;
    bool failover_join = false;          ///< Adopted from a dead reader.
    bool drain_join = false;             ///< Adopted via planned drain handoff.
    std::uint64_t replay_announced = 0;  ///< Writer's announced replay count.
  };

  /// A received failover/drain handshake and its sender (stream.cpp).
  struct Join;

  int next_target();
  int acquire_out_buf();
  /// read() without the idle on kEagain; with `out`, hands the block over
  /// (nblocks must be 1) instead of copying into `buf`.
  int read_counted(void* buf, BufferRef* out, int nblocks, int flags);
  int read_impl(void* buf, BufferRef* out, int nblocks, int flags);
  /// Writer: move every endpoint that must move. A reader
  /// whose lease expired moves to a crash successor; with `follow_epoch`,
  /// a holder that an elastic epoch boundary no longer routes to drains
  /// to the new one (or, if it is already dead, moves as a crash). Called
  /// on entry to write_partial() (following epochs) and close() (not).
  void route_endpoints(bool follow_epoch);
  /// Writer: earliest virtual time at which `peer` dies, from the fault
  /// plan's oracle (at_time crashes) or the recorded death (after_calls
  /// crashes); +inf for a healthy rank.
  double peer_death_time(int peer) const;
  /// Writer: the one link move. Hands endpoint `ti` to `target` with a
  /// FailoverCtl handshake. A crash move charges the dead holder's missed
  /// beacons and replays the resend ring; `target` -1 makes the endpoint
  /// a dead end. A drain move first closes the live holder with a drain
  /// end-of-stream, then drops the ring and advances the accountability
  /// base (the holder analyzed all of it).
  void move_link(std::size_t ti, int target, bool drain);
  /// Reader: adopt queued and deferred handshakes. Returns true when at
  /// least one link was adopted or reopened (the caller must rescan).
  bool accept_joins();
  /// Reader: apply one handshake — a new link, or a reopen of the closed
  /// previous incarnation. False while that incarnation is still live.
  bool adopt(const Join& join);
  /// Try to consume one completed block, copied into `buf` or, with
  /// `out`, handed over as a view of its block; -2 when nothing ready, 0
  /// when every peer closed cleanly, -3 when done with >= 1 dead peer.
  int try_read_block(void* buf, BufferRef* out);
  void mark_peer_dead(InPeer& ip);
  /// Declare writers that finished without end-of-stream dead. Returns
  /// true when at least one peer changed state.
  bool scan_silent_dead();
  /// Detach waitset_ from every still-posted receive so a late writer
  /// completion cannot notify it after the stream is destroyed.
  void disarm_receives();

  StreamConfig cfg_;
  bool open_ = false;
  bool writer_ = false;
  bool closed_ = false;
  mpi::Comm universe_;
  mpi::Runtime* rt_ = nullptr;

  // Writer side.
  std::vector<int> peers_;  ///< Reader universe ranks (-1: dead end).
  int data_tag_ = 0;
  /// The N_A output credits: each an in-flight send, or null when free.
  /// The block itself travels with the send and belongs to the reader.
  std::vector<mpi::Request> out_;
  std::vector<std::uint64_t> out_seq_;  ///< Per-endpoint block sequence.
  std::size_t rr_next_ = 0;
  std::uint64_t writes_failed_ = 0;
  /// Failover machinery engages only when the run can actually lose a
  /// reader: fault injection on and a scheduled crash for at least one
  /// endpoint (writer) / partition sibling (reader).
  bool failover_armed_ = false;
  /// Per-endpoint ring of framed block copies available for replay.
  std::vector<std::deque<BufferRef>> resend_;
  std::uint64_t failovers_ = 0;
  std::uint64_t heartbeats_missed_ = 0;
  std::uint64_t resent_blocks_ = 0;

  // Elastic membership (both sides; armed from Runtime::elastic()).
  /// Writer: endpoints inside the elastic partition follow elastic_route
  /// per epoch (handoffs ride the failover handshake).
  bool elastic_armed_ = false;
  int elastic_epoch_ = 0;  ///< Last epoch this writer acted on.
  /// Per-endpoint ranks that held the link in an earlier epoch and
  /// analyzed its blocks — never valid crash-failover successors (their
  /// partials already cover those sequence ranges).
  std::vector<std::vector<int>> prior_holders_;
  /// Per-endpoint first sequence number the *current* holder is
  /// accountable for (advanced at each clean drain handoff). A crash
  /// successor charges its ledger only from here: below it, blocks were
  /// analyzed by live previous holders.
  std::vector<std::uint64_t> replay_base_;
  std::uint64_t planned_handoffs_ = 0;

  // Reader side.
  std::vector<InPeer> in_peers_;
  std::size_t rr_peer_ = 0;
  mpi::WaitSet waitset_;  ///< Wait-any target for blocking reads.
  bool failover_possible_ = false;
  std::uint64_t failover_joins_ = 0;
  std::uint64_t drain_joins_ = 0;
  /// Handshakes that arrived while their link's previous incarnation was
  /// still live: its drain end-of-stream must close it first, or the
  /// reopen would corrupt that incarnation's sequence accounting.
  std::vector<Join> pending_joins_;

  std::uint64_t blocks_written_ = 0;
  std::uint64_t blocks_read_ = 0;
  std::uint64_t bytes_written_ = 0;
  std::uint64_t bytes_read_ = 0;
  std::uint64_t eagain_returns_ = 0;
  std::uint64_t backpressure_waits_ = 0;
};

}  // namespace esp::vmpi
