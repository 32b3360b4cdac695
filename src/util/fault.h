#ifndef ADAMINE_UTIL_FAULT_H_
#define ADAMINE_UTIL_FAULT_H_

#include <cstdint>
#include <limits>
#include <streambuf>
#include <string>
#include <string_view>

namespace adamine::fault {

/// A process-wide registry of named failure points, used by tests to
/// simulate crashes and numeric corruption at precise moments. Production
/// code calls ShouldFail(point) at interesting boundaries (every serialised
/// write, every checkpoint, every batch); the call is a single relaxed
/// atomic load unless a test has armed at least one point, and allocates
/// nothing (the lookups take a string_view and build no key before it), so
/// leaving the hooks in release builds costs nothing measurable.
///
/// Well-known failure points. Using the constants (rather than ad-hoc
/// strings) keeps the producer and the test in sync.
inline constexpr char kSerializeWrite[] = "io.serialize.write";
inline constexpr char kAtomicRename[] = "io.atomic.rename";
inline constexpr char kAtomicWriteBytes[] = "io.atomic.write_bytes";
inline constexpr char kTrainerNonfiniteLoss[] = "trainer.nonfinite_loss";
inline constexpr char kTrainerCrashAfterCheckpoint[] =
    "trainer.crash_after_checkpoint";
/// Serving-path fault points (see DESIGN.md, "Overload behavior").
/// kServeScoreDelay follows the kAtomicWriteBytes convention of encoding a
/// quantity in `skip`: arm with skip = the artificial per-micro-batch
/// scoring delay in milliseconds (read via ArmedSkip, never consumed).
inline constexpr char kServeScoreDelay[] = "serve.score.delay";
/// Fires inside io::LoadTensorBundle: the bundle is parsed from a torn
/// (half-length) copy of the file, so the reader's truncation handling —
/// not a crash — must surface the error.
inline constexpr char kServeLoadRead[] = "serve.load.read";
/// Fires inside AdmissionController::Admit: the request is shed with
/// kUnavailable as if the queue were full.
inline constexpr char kServeQueueReject[] = "serve.queue.reject";
/// Fires inside ShardClient just before a replica attempt: the attempt
/// returns kUnavailable without touching the replica, as if the process
/// behind it had died. Arm the bare point to kill every replica of every
/// shard, or arm the replica-scoped variant (ShardReplicaPoint) to kill
/// one replica while the rest of the fleet stays healthy.
inline constexpr char kServeShardFail[] = "serve.shard.fail";
/// Per-shard stall: follows the kServeScoreDelay convention of encoding a
/// quantity in `skip` — arm with skip = the artificial per-attempt delay in
/// milliseconds (read via ArmedSkip, never consumed). The stall happens in
/// the attempt thread before the replica is queried, so it models a slow
/// network hop or a wedged replica; the fan-out coordinator's per-shard
/// timeout — not the stalled attempt — bounds the caller's wait. Scopes
/// with ShardReplicaPoint like kServeShardFail.
inline constexpr char kServeShardDelay[] = "serve.shard.delay";

/// Wire-level fault points, consulted by net::ShardServer and
/// net::ShardChannel (see DESIGN.md, "Network serving"). Each server/channel
/// checks its scope-qualified variant ("<point>.<scope>", see ScopedPoint)
/// first, then the bare point, so a test running several servers in one
/// process can tear exactly one of them.
/// The server hard-closes the connection (RST via SO_LINGER 0) instead of
/// writing the response — the client sees ECONNRESET mid-read.
inline constexpr char kNetConnReset[] = "net.conn.reset";
/// The server's event loop consumes incoming bytes one at a time while
/// armed — every frame arrives maximally fragmented, exercising the
/// read-side reassembly state machine.
inline constexpr char kNetReadShort[] = "net.read.short";
/// Quantity-in-skip stall (ms, read via ArmedSkip like kServeScoreDelay):
/// the server sleeps before writing each response, modelling a wedged or
/// slow peer; the client's deadline/hedging machinery must bound the wait.
inline constexpr char kNetWriteStall[] = "net.write.stall";
/// The server flips one payload byte of the outgoing response frame, so the
/// client's CRC check must reject it as a torn frame (kConnectionLost after
/// the channel drops the connection) rather than decode garbage.
inline constexpr char kNetFrameCorrupt[] = "net.frame.corrupt";

/// Fires at the two fsync sites inside io::AtomicWriteFile (temp file
/// before rename, parent directory after): the sync is skipped and the
/// write surfaces a descriptive error instead of silently claiming
/// durability. Arm with skip = 0 to fail the file fsync, skip = 1 to pass
/// it and fail the directory fsync.
inline constexpr char kIoFsync[] = "io.fsync.fail";

/// Mutable-index fault points, consulted by mutate::MutableCorpus (see
/// DESIGN.md, "Live mutation and crash recovery"). Each models a crash at
/// one boundary of the mutation pipeline; the recovery tests arm them,
/// observe the failed operation, then re-open the corpus and assert every
/// acknowledged mutation survived.
/// Fires inside WAL append: only the first half of the record's bytes reach
/// the file and the fsync is skipped, like a process killed mid-write().
/// The append reports an error (the mutation is NOT acknowledged) and
/// recovery must discard the torn tail.
inline constexpr char kMutateWalTorn[] = "mutate.wal.torn";
/// Fires inside WAL append: models write() failing with ENOSPC after half
/// the record's bytes landed. Unlike the torn-tail point this failure is
/// *transient* — the writer reports kResourceExhausted and the corpus rolls
/// the WAL back to the last acknowledged record and keeps serving, resuming
/// acks once the point disarms ("space freed") instead of latching
/// read-only. Arm with skip/fire to shape the outage window.
inline constexpr char kMutateWalEnospc[] = "mutate.wal.enospc";
/// Fires inside the background scrubber, once per sealed-segment CRC check:
/// the segment is treated as bit-rotted even though its bytes are intact,
/// so the quarantine protocol (rename to .quarantine, drop from the next
/// manifest generation, serve partial) runs without the test having to
/// corrupt real bytes. Arm with skip = the index of the segment check to
/// condemn.
inline constexpr char kMutateSegmentBitrot[] = "mutate.segment.bitrot";
/// Fires during seal, after the sealed segment file is written but before
/// the manifest names it: the seal aborts, leaving an orphaned segment that
/// recovery must delete.
inline constexpr char kMutateSealCrash[] = "mutate.seal.crash";
/// Fires during merge, after the merged segment file is written but before
/// the manifest names it: same orphan-cleanup contract as seal.
inline constexpr char kMutateMergeCrash[] = "mutate.merge.crash";
/// Fires inside manifest commit: half the new manifest's bytes are written
/// directly to its final path (no atomic rename, no fsync) — a torn
/// manifest that recovery must reject, falling back to the previous
/// generation.
inline constexpr char kMutateManifestTorn[] = "mutate.manifest.torn";

/// "<point>.<shard>.<replica>": the replica-scoped variant of a serve-path
/// fault point. ShardClient consults the scoped point first, then the bare
/// one, so tests can take down one replica (or one whole shard, by arming
/// every replica of it) without touching the others.
std::string ShardReplicaPoint(const std::string& point, int64_t shard,
                              int64_t replica);

/// "<point>.<scope>": the scope-qualified variant of a wire-level fault
/// point (scope is the server's or channel's fault_scope config string).
/// Empty scope returns the bare point.
std::string ScopedPoint(const std::string& point, const std::string& scope);

/// Arms `point`: the next `skip` hits pass, then the following `fire` hits
/// fail, after which the point disarms itself. Re-arming overwrites any
/// previous schedule for the point.
void Arm(const std::string& point, int64_t skip = 0,
         int64_t fire = std::numeric_limits<int64_t>::max());

/// Removes any schedule for `point` (hit counters are kept).
void Disarm(const std::string& point);

/// Disarms every point and zeroes every hit counter. Tests call this in
/// their setup/teardown so armed faults never leak between tests.
void Reset();

/// True if `point` currently has a schedule.
bool IsArmed(std::string_view point);

/// Remaining skip count of an armed point, or -1 if not armed. Points whose
/// schedule encodes a quantity rather than a countdown (e.g.
/// kAtomicWriteBytes, where `skip` is the byte budget before writes start
/// failing) are read through this.
int64_t ArmedSkip(std::string_view point);

/// True if any point is armed (the registry fast path).
bool AnyArmed();

/// Registers one hit at `point` and returns true if the point fires on this
/// hit. When nothing at all is armed this is a single atomic load; when the
/// registry is active, every hit is also counted so tests can enumerate the
/// failure boundaries of an operation (see Hits).
bool ShouldFail(std::string_view point);

/// Number of ShouldFail calls at `point` since the last Reset, counted only
/// while the registry is active (i.e. at least one point armed). Arm an
/// unrelated or never-firing schedule (skip = int64 max) to census the
/// boundaries of an operation without failing it.
int64_t Hits(const std::string& point);

/// A streambuf decorator that forwards writes to `target` until
/// `byte_budget` bytes have been written, then fails every subsequent write
/// — including mid-call, so a 100-byte put with 40 bytes of budget leaves
/// exactly 40 bytes in the target, like a process killed mid-write().
/// Reads are not supported.
class FaultInjectingStreambuf : public std::streambuf {
 public:
  FaultInjectingStreambuf(std::streambuf* target, int64_t byte_budget);

  int64_t bytes_written() const { return bytes_written_; }

 protected:
  int overflow(int ch) override;
  std::streamsize xsputn(const char* s, std::streamsize n) override;
  int sync() override;

 private:
  std::streambuf* target_;
  int64_t budget_;
  int64_t bytes_written_ = 0;
};

}  // namespace adamine::fault

#endif  // ADAMINE_UTIL_FAULT_H_
