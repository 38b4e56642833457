// RecoveryManager: write-ahead logging + restart for open nested
// transactions, extending the multi-level recovery line the paper's
// conclusion points at ([WHBM90, HW91]).
//
// Online, the manager listens to both strata of events:
//   * ObjectStore changes -> physical redo records;
//   * transactional events -> txn begin/commit/abort and per-action undo
//     information (method results for registered semantic inverses,
//     before-images for leaf writes).
//
// At restart, Recover():
//   1. REDO: replays physical records of the stable log in LSN order into a
//      fresh store, reproducing the exact crash-time state including the
//      original object ids (the data "disk" is not consulted: the log is
//      the authoritative copy — a log-structured restart). When the log
//      contains a complete checkpoint region (kCkptBegin..kCkptEnd), replay
//      starts at that region instead of the head: earlier physical records
//      are covered by the fuzzy dump, and records *inside* the region are
//      applied idempotently (AlreadyExists/NotFound are benign there,
//      because online records of concurrent transactions interleave with
//      the dump);
//   2. UNDO: identifies loser transactions (begun, neither committed nor
//      abort-completed) and walks their transactional records in reverse LSN
//      order, skipping records covered by a committed ancestor that carries
//      a total semantic inverse — the same rule the online abort path uses —
//      running method inverses as new transactions and reverting uncovered
//      leaf writes physically. (Leaf before-images are sound here for the
//      same reason they are sound online: a leaf whose enclosing method
//      never committed was invisible to other transactions — Case 2 blocks
//      them until the method commits.)
#ifndef SEMCC_RECOVERY_RECOVERY_MANAGER_H_
#define SEMCC_RECOVERY_RECOVERY_MANAGER_H_

#include <atomic>
#include <chrono>
#include <functional>
#include <map>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "object/object_store.h"
#include "recovery/wal.h"
#include "txn/txn_context.h"
#include "txn/txn_manager.h"
#include "util/annotations.h"
#include "util/macros.h"

namespace semcc {

/// \brief Commit-durability policy of the RecoveryManager, plus the log
/// device configuration the Database uses to build the WAL.
struct RecoveryOptions {
  /// false: every commit forces the log individually (simplest, one device
  /// write per transaction). true: commits enqueue and a pool of
  /// WriteAheadLog::kMaxInflightBatches group flushers makes them stable
  /// together, with no timed window: the in-flight device sync is the
  /// batching window — commits that arrive while it runs ride the next
  /// pipelined batch, led by the other pool thread. With a non-zero WAL
  /// flush latency this is the classic group-commit throughput win.
  bool group_commit = false;
  /// > 0: after roughly this many appended log records, a commit triggers
  /// an online fuzzy checkpoint through the trigger installed with
  /// SetCheckpointTrigger (the Database wires itself in). 0 = no automatic
  /// checkpoints (Database::Checkpoint can still be called manually).
  uint64_t checkpoint_every_records = 0;
  /// Truncate the WAL prefix covered by a completed checkpoint (memory and
  /// device). false keeps the full log — the crash-offset sweep uses this
  /// to enumerate every historical crash point across a checkpoint.
  bool checkpoint_truncate = true;
  /// Empty: in-memory log device (tests, perf baselines). Non-empty:
  /// durable file-backed log in this directory — append-only segment files
  /// written through POSIX write/fsync (see file_log_device.h).
  std::string log_dir;
  /// Segment rotation threshold of the file-backed device.
  uint64_t log_segment_bytes = 4u << 20;
  /// In-memory device only: simulated stable-storage latency per sync.
  uint32_t wal_flush_micros = 0;
  /// Flush attempts (first try + retries) before the WAL degrades to the
  /// failed read-only state (see WalOptions).
  int max_flush_attempts = 4;
  /// Backoff before the first flush retry; doubles per further retry.
  std::chrono::microseconds flush_retry_backoff{200};
};

class RecoveryManager : public StoreListener, public ActionLogger {
 public:
  explicit RecoveryManager(WriteAheadLog* wal,
                           RecoveryOptions options = RecoveryOptions());
  ~RecoveryManager() override;
  SEMCC_DISALLOW_COPY_AND_ASSIGN(RecoveryManager);

  // --- StoreListener (physical redo stratum) -----------------------------
  void OnCreateAtomic(Oid oid, TypeId type, const Value& initial) override;
  void OnCreateTuple(
      Oid oid, TypeId type,
      const std::vector<std::pair<std::string, Oid>>& components) override;
  void OnCreateSet(Oid oid, TypeId type) override;
  void OnDestroy(Oid oid) override;
  void OnPut(Oid oid, const Value& after) override;
  void OnSetInsert(Oid set, const Value& key, Oid member) override;
  void OnSetRemove(Oid set, const Value& key, Oid member) override;

  // --- ActionLogger (transactional undo stratum) -------------------------
  void OnTxnBegin(TxnId txn) override;
  /// Forces the log (individually or via group commit). A durability
  /// failure cannot stop the in-memory commit — the interface is void — so
  /// it is recorded sticky in health() and logged loudly instead.
  void OnTxnCommit(TxnId txn) override;
  void OnTxnAbort(TxnId txn) override;
  void OnMethodCommitted(const SubTxn& node, const Value& result,
                         bool has_total_inverse) override;
  void OnLeafPut(const SubTxn& node, const Value& before) override;
  void OnLeafSetInsert(const SubTxn& node) override;
  void OnLeafSetRemove(const SubTxn& node, Oid removed_member) override;

  /// Log a named-root binding (durable directory of entry-point objects).
  void OnNamedRoot(const std::string& name, Oid oid);

  /// Take an online fuzzy checkpoint: append a kCkptBegin marker, dump the
  /// live object graph as restore records (store->DumpForCheckpoint, which
  /// excludes concurrent writers per object, not globally — transactions
  /// keep committing), re-log the named roots, append kCkptEnd, force it
  /// stable, and (if options.checkpoint_truncate) drop the log prefix the
  /// checkpoint made redundant. The truncation point is
  /// min(checkpoint-begin LSN, begin LSN of every transaction still active
  /// at checkpoint begin) so no loser's undo information is ever dropped.
  /// Serialized against itself; safe to call concurrently with commits.
  Status Checkpoint(ObjectStore* store,
                    const std::vector<std::pair<std::string, Oid>>& roots)
      SEMCC_EXCLUDES(gc_mu_);

  /// Install the callback MaybeTriggerCheckpoint fires when the log grows
  /// past checkpoint_every_records (the Database installs its own
  /// Checkpoint()). Call once, before transactions start.
  void SetCheckpointTrigger(std::function<Status()> trigger) {
    ckpt_trigger_ = std::move(trigger);
  }

  WriteAheadLog* wal() { return wal_; }

  /// OK, or the first durability failure observed on a commit/abort force
  /// (also surfaces the WAL's own degraded state). Sticky.
  Status health() const SEMCC_EXCLUDES(gc_mu_);

  /// Stop the group flusher, draining pending flush requests first (a
  /// commit waiting in MakeStable either becomes stable or is failed — it
  /// is never left sleeping). Idempotent; the destructor calls it.
  void Shutdown() SEMCC_EXCLUDES(gc_mu_);

  struct RecoveryStats {
    size_t records = 0;
    size_t redo_applied = 0;
    /// In-checkpoint-region records skipped as already covered by the fuzzy
    /// dump (benign AlreadyExists/NotFound), plus pre-checkpoint physical
    /// records not replayed at all.
    size_t redo_skipped = 0;
    /// True when REDO started from a complete kCkptBegin..kCkptEnd region
    /// instead of the head of the log.
    bool used_checkpoint = false;
    size_t winners = 0;
    size_t losers = 0;
    size_t inverses_run = 0;
    size_t leaf_undos = 0;
    /// Ids of the loser transactions (in-place restart logs a kTxnAbort
    /// marker for each once their compensation completed).
    std::vector<TxnId> loser_ids;
    std::string ToString() const;
  };

  /// Rebuild state from `log` into the (freshly constructed, schema- and
  /// method-installed, object-empty) target components. `named_root_sink`
  /// receives replayed named-root bindings. `between_passes`, if set, runs
  /// after the physical REDO pass and before loser compensation — in-place
  /// restart uses it to reattach the store listener, so REDO does not
  /// re-log records that are already in the log but the compensation
  /// transactions do log theirs.
  static Result<RecoveryStats> Recover(
      const std::vector<LogRecord>& log, ObjectStore* store,
      MethodRegistry* methods, TxnManager* txns,
      const std::function<void(const std::string&, Oid)>& named_root_sink,
      const std::function<void()>& between_passes = {});

 private:
  LogRecord ActionBase(const SubTxn& node, LogType type);
  /// Make `lsn` stable per the commit policy (force or group). Returns the
  /// durability outcome: a failed WAL, a failed group flush, or a flusher
  /// that stopped before the LSN became stable all surface here instead of
  /// hanging the committer.
  Status MakeStable(Lsn lsn) SEMCC_EXCLUDES(gc_mu_);
  void GroupFlusherLoop() SEMCC_EXCLUDES(gc_mu_);
  /// Record a durability failure in health() (first one wins) and log it.
  void RecordFailure(const Status& st) SEMCC_EXCLUDES(gc_mu_);
  /// Fire the checkpoint trigger if the log has grown past the configured
  /// record budget. Runs the checkpoint synchronously on the calling
  /// (committing) thread; concurrent commits proceed — only one trigger
  /// runs at a time.
  void MaybeTriggerCheckpoint();

  WriteAheadLog* const wal_;
  const RecoveryOptions options_;

  // Group-commit machinery (only used when options_.group_commit).
  mutable Mutex gc_mu_;
  CondVar gc_cv_;
  bool gc_stop_ SEMCC_GUARDED_BY(gc_mu_) = false;
  /// Highest LSN whose durability has been requested. A watermark, not a
  /// boolean: requests that arrive while a flush is in flight stay visible
  /// (watermark > stable_lsn) instead of being lost with the batch flag.
  Lsn gc_requested_ SEMCC_GUARDED_BY(gc_mu_) = 0;
  /// First group-flush failure; sticky, returned to every waiter.
  Status gc_status_ SEMCC_GUARDED_BY(gc_mu_);
  /// Pool threads still running; 0 => gc_exited_.
  int gc_live_ SEMCC_GUARDED_BY(gc_mu_) = 0;
  bool gc_exited_ SEMCC_GUARDED_BY(gc_mu_) = false;
  /// First durability failure observed on any commit/abort path.
  Status health_ SEMCC_GUARDED_BY(gc_mu_);
  std::vector<std::thread> gc_pool_;

  // Checkpoint machinery.
  /// Begin LSN of every transaction with a logged begin and no stable
  /// commit/abort yet. Entries are erased only *after* the commit/abort
  /// record is stable: a checkpoint must never truncate the undo records of
  /// a transaction that could still be a loser.
  std::map<TxnId, Lsn> active_txn_begin_ SEMCC_GUARDED_BY(ckpt_mu_);
  /// Guards the active-transaction map; held across the kCkptBegin append
  /// so the truncation point and the map snapshot are atomic w.r.t.
  /// concurrent OnTxnBegin (which holds it across append+insert).
  mutable Mutex ckpt_mu_;
  /// Serializes whole checkpoint runs.
  Mutex ckpt_run_mu_;
  std::function<Status()> ckpt_trigger_;
  /// next_lsn_hint threshold at which the next automatic checkpoint fires.
  std::atomic<uint64_t> ckpt_next_at_{0};
  std::atomic<bool> ckpt_in_trigger_{false};
};

}  // namespace semcc

#endif  // SEMCC_RECOVERY_RECOVERY_MANAGER_H_
