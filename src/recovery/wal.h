// Write-ahead log over a pluggable byte device (log_device.h).
//
// Append adds a record to the volatile tail (process memory); FlushTo
// frames pending records — length-prefix + CRC32C per record — writes them
// to the device and syncs, moving the stable boundary. Records are stored
// in their encoded form — exactly what sits on the device — and decoded on
// read, so the binary codec is on the hot path and tested end to end.
//
// Flush pipeline: FlushTo is a leader/follower group commit with a device
// pipeline kMaxInflightBatches (two) deep.
//   * A caller whose target LSN is already claimed by an in-flight batch
//     parks on the stable watermark (per-LSN wait, no device contact).
//   * Otherwise it becomes a leader: it claims every unclaimed record under
//     mu_, encodes the frames, and submits to the device *in claim order*
//     (a turn counter under device_mu_ keeps frames in LSN order on disk).
//     Up to two batches are in flight at once, so the frame encoding of
//     batch N+1 overlaps the fsync of batch N, and a committer arriving
//     during a sync claims everything that piled up — natural batching at
//     fsync granularity with no fixed window.
//   * The retry backoff sleeps with device_mu_ *released* (condvar wait),
//     so stats readers and concurrent flushers with already-stable targets
//     never stall behind a retry loop.
//
// Failure contract (the part the in-memory ancestor never had):
//   * FlushTo retries transient device errors with bounded exponential
//     backoff (WalOptions::max_flush_attempts); a torn batch append is
//     rolled back with Truncate before the retry so frames never
//     double-write.
//   * If retries are exhausted the WAL degrades to a failed, read-only
//     state: the first error sticks (health()), later batches in the
//     pipeline fail without touching the device (frames must stay in LSN
//     order), further Flushes return the error, and Append drops the record
//     and returns kInvalidLsn — commit paths observe the failure through
//     RecoveryManager::MakeStable rather than a crash.
//   * At restart, RecoverAtStartup scans the device image, truncates a
//     torn/corrupt *tail* at the first bad checksum (repairing the device
//     in place), and refuses mid-log corruption with Status::Corruption
//     instead of replaying garbage.
//
// Checkpoint truncation: TruncateCheckpointed drops the stable record
// prefix covered by a completed fuzzy checkpoint from the in-memory
// vectors (bounding their growth) and asks the device to free the
// corresponding byte prefix (whole segments on the file device). The
// stable LSN watermark is monotonic across truncation.
//
// LoseVolatileTail models the old simulated crash (drop everything after
// the last Flush); device-level crashes — torn writes, power cuts — are
// injected underneath via FaultInjector.
#ifndef SEMCC_RECOVERY_WAL_H_
#define SEMCC_RECOVERY_WAL_H_

#include <atomic>
#include <chrono>
#include <memory>
#include <string>
#include <vector>

#include "recovery/log_device.h"
#include "recovery/log_record.h"
#include "util/annotations.h"
#include "util/macros.h"
#include "util/metrics.h"

namespace semcc {

/// \brief Point-in-time snapshot of WAL statistics (plain data; returned by
/// value from WriteAheadLog::stats()).
struct WalStats {
  uint64_t appends = 0;        ///< records accepted by Append
  uint64_t flushes = 0;        ///< successful non-empty forces
  uint64_t flush_retries = 0;  ///< device errors retried inside FlushTo
  bool degraded = false;       ///< sticky failed/read-only state
  uint64_t stable_records = 0; ///< records ever made stable (incl. truncated)
  uint64_t stable_bytes = 0;   ///< framed bytes currently on the device
  uint64_t retained_records = 0;   ///< records held in memory
  uint64_t truncated_records = 0;  ///< records dropped by checkpoints
  /// Device time (append + sync, including retries) per successful flush.
  metrics::HistogramSummary flush_micros;
  /// Records per flushed batch (group-commit effectiveness).
  metrics::HistogramSummary flush_batch_records;

  std::string ToJson() const;
};

struct WalOptions {
  /// Flush attempts per call (first try + retries) before the WAL degrades
  /// to the failed state.
  int max_flush_attempts = 4;
  /// Backoff before the first retry; doubles per further retry.
  std::chrono::microseconds flush_retry_backoff{200};
};

class WriteAheadLog {
 public:
  /// Depth of the flush pipeline: one batch syncing on the device while the
  /// next one is being claimed and encoded. Two is the sweet spot — the
  /// encode is much cheaper than an fsync, so a deeper pipeline only grows
  /// batch-slot wait queues without overlapping any more work. The group
  /// flusher pool (RecoveryManager) runs one thread per slot.
  static constexpr size_t kMaxInflightBatches = 2;

  /// In-memory device (the unit-test default). \param flush_micros
  /// simulated stable-storage latency per Flush (models an fsync; 0 =
  /// free). With a non-zero cost, group commit pays off — see
  /// RecoveryOptions::group_commit.
  explicit WriteAheadLog(uint32_t flush_micros = 0);
  /// Explicit device (file-backed or fault-injected).
  explicit WriteAheadLog(std::unique_ptr<LogDevice> device,
                         WalOptions options = WalOptions());
  SEMCC_DISALLOW_COPY_AND_ASSIGN(WriteAheadLog);

  /// Scan the device's existing durable image: CRC-check every frame,
  /// truncate a torn tail (on the device too, so new appends are
  /// consistent), refuse mid-log corruption, and continue LSN assignment
  /// after the highest recovered LSN. Returns the recovered records for
  /// replay. Call once, before any Append, on a freshly constructed WAL.
  Result<std::vector<LogRecord>> RecoverAtStartup() SEMCC_EXCLUDES(device_mu_);

  /// Append a record (assigns the LSN). Thread-safe. In the failed state
  /// the record is dropped and kInvalidLsn returned.
  Lsn Append(LogRecord record);

  /// Make every record appended so far stable (force). Equivalent to
  /// FlushTo(last appended LSN).
  Status Flush() SEMCC_EXCLUDES(device_mu_);

  /// Make every record up to `target` stable. If an in-flight batch
  /// already covers the target, parks on the stable watermark; otherwise
  /// leads a new batch (see the pipeline contract above). Retries
  /// transient device errors; on exhaustion degrades the WAL and returns
  /// the error (which also becomes health()).
  Status FlushTo(Lsn target) SEMCC_EXCLUDES(device_mu_);

  /// Force-per-commit flush: like FlushTo, but ALWAYS issues one device
  /// sync from this call, even when `target` is already durable — the
  /// naive (write; fsync) commit baseline that group commit amortizes.
  /// Used by the force-per-commit durability policy so that policy means
  /// what its name says; everything else should use FlushTo.
  Status FlushForce(Lsn target) SEMCC_EXCLUDES(device_mu_);

  /// Drop stable records with lsn < `up_to` from memory and release the
  /// corresponding device prefix (LogDevice::DropPrefix — the file device
  /// frees whole closed segments only; the retained device image is always
  /// a superset of the retained records). Waits for in-flight batches to
  /// publish first. Returns the number of records dropped from memory.
  /// Callers must guarantee `up_to` is covered by a durable checkpoint.
  Result<size_t> TruncateCheckpointed(Lsn up_to) SEMCC_EXCLUDES(device_mu_);

  /// Crash simulation: drop all records after the last flush. Call only at
  /// quiesce (no in-flight batches).
  void LoseVolatileTail();

  /// Decode and return all *retained* stable records in LSN order (records
  /// truncated by a checkpoint are gone — the checkpoint covers them).
  /// Decode failures propagate as Status (corrupt-log tests assert against
  /// this contract).
  Result<std::vector<LogRecord>> StableRecords() const;

  /// Decode and return everything retained, including the volatile tail.
  Result<std::vector<LogRecord>> AllRecords() const;

  /// OK, or the sticky first device failure that degraded the WAL.
  Status health() const;

  /// Aggregate statistics snapshot (consistent under mu_ for the counters;
  /// histograms are monotonic lower bounds, exact at quiesce).
  WalStats stats() const;

  /// Records ever made stable, including checkpoint-truncated ones.
  size_t stable_count() const;
  /// Records ever appended (stable + volatile tail + truncated).
  size_t total_count() const;
  /// Records currently held in memory (bounded by checkpoint truncation).
  size_t retained_count() const;
  /// Records dropped from memory by TruncateCheckpointed.
  size_t truncated_count() const;
  /// Framed bytes currently stable on the device.
  uint64_t stable_bytes() const;
  uint64_t flush_count() const;
  /// Last LSN that is stable (0 if none). Monotonic across truncation.
  Lsn stable_lsn() const;
  /// Last LSN claimed by an in-flight or published batch (>= stable_lsn).
  Lsn claimed_lsn() const;
  /// Batches currently between claim and publish (0, 1, or 2).
  size_t inflight_batches() const;
  /// The next LSN Append would assign (cheap; for checkpoint triggers).
  Lsn next_lsn_hint() const { return next_lsn_.load(std::memory_order_relaxed); }

  /// The underlying device (stats, fault-plan reconfiguration in tests).
  LogDevice* device() { return device_.get(); }

  /// Truncate a retained record by one byte, bypassing the device
  /// (exercises the StableRecords/AllRecords decode-failure contract; the
  /// codec rejects truncated records, see LogRecordCodec.TruncationRejected).
  /// `index` is relative to the retained records.
  void CorruptRecordForTesting(size_t index);

 private:
  /// Shared body of FlushTo / FlushForce (see the pipeline contract above).
  Status FlushInternal(Lsn target, bool force_sync) SEMCC_EXCLUDES(device_mu_);

  const WalOptions options_;
  const std::unique_ptr<LogDevice> device_;
  /// Guards the device submission turn. Never held while sleeping: the
  /// retry backoff waits on device_cv_, which releases it. Acquired before
  /// mu_ only in RecoverAtStartup; the flush path holds the two strictly in
  /// sequence, never nested.
  mutable Mutex device_mu_ SEMCC_ACQUIRED_BEFORE(mu_);
  /// Signals turn advancement; doubles as the interruptible backoff timer.
  CondVar device_cv_;
  /// Batch sequence currently allowed to touch the device.
  uint64_t device_turn_ SEMCC_GUARDED_BY(device_mu_) = 0;
  /// Set when a batch exhausted its retries: later turns must not append
  /// (frames must stay in LSN order with no holes).
  bool device_failed_ SEMCC_GUARDED_BY(device_mu_) = false;

  mutable Mutex mu_;
  /// Publishes the stable watermark and batch-slot availability; waiters
  /// are per-LSN (each re-checks its own target against stable_lsn_).
  CondVar stable_cv_;
  /// One entry per retained record, encoded (payload bytes, unframed).
  /// Absolute record i lives at index i - base_records_.
  std::vector<std::string> encoded_ SEMCC_GUARDED_BY(mu_);
  /// Parallel to encoded_.
  std::vector<Lsn> lsns_ SEMCC_GUARDED_BY(mu_);
  /// Records dropped from the front by TruncateCheckpointed.
  size_t base_records_ SEMCC_GUARDED_BY(mu_) = 0;
  /// Retained records [0, stable_) survive a crash.
  size_t stable_ SEMCC_GUARDED_BY(mu_) = 0;
  /// Retained records [0, claimed_) belong to published or in-flight
  /// batches. stable_ <= claimed_ <= encoded_.size().
  size_t claimed_ SEMCC_GUARDED_BY(mu_) = 0;
  Lsn stable_lsn_ SEMCC_GUARDED_BY(mu_) = 0;
  Lsn claimed_lsn_ SEMCC_GUARDED_BY(mu_) = 0;
  /// Claimed-but-unpublished batches (bounded by kMaxInflightBatches).
  size_t inflight_ SEMCC_GUARDED_BY(mu_) = 0;
  uint64_t next_batch_seq_ SEMCC_GUARDED_BY(mu_) = 0;
  /// A checkpoint truncation is rewriting the vectors; claims must wait.
  bool truncating_ SEMCC_GUARDED_BY(mu_) = false;
  uint64_t stable_bytes_ SEMCC_GUARDED_BY(mu_) = 0;
  uint64_t flushes_ SEMCC_GUARDED_BY(mu_) = 0;
  uint64_t appends_ SEMCC_GUARDED_BY(mu_) = 0;
  uint64_t flush_retries_ SEMCC_GUARDED_BY(mu_) = 0;
  /// First device failure; sticky (the degraded/read-only state).
  Status failed_ SEMCC_GUARDED_BY(mu_);
  std::atomic<Lsn> next_lsn_{1};
  metrics::AtomicHistogram flush_micros_;
  metrics::AtomicHistogram flush_batch_records_;
};

}  // namespace semcc

#endif  // SEMCC_RECOVERY_WAL_H_
