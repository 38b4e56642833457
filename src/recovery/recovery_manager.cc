#include "recovery/recovery_manager.h"

#include <algorithm>
#include <cstdio>
#include <map>
#include <set>

#include "util/logging.h"

namespace semcc {

RecoveryManager::RecoveryManager(WriteAheadLog* wal, RecoveryOptions options)
    : wal_(wal), options_(options) {
  if (options_.checkpoint_every_records > 0) {
    ckpt_next_at_.store(options_.checkpoint_every_records,
                        std::memory_order_relaxed);
  }
  if (options_.group_commit) {
    // One pool thread per pipeline slot: while one thread's batch syncs,
    // another claims and encodes the next (see WriteAheadLog::FlushTo).
    const int n = static_cast<int>(WriteAheadLog::kMaxInflightBatches);
    gc_live_ = n;
    for (int i = 0; i < n; ++i) {
      gc_pool_.emplace_back([this]() { GroupFlusherLoop(); });
    }
  }
}

RecoveryManager::~RecoveryManager() { Shutdown(); }

void RecoveryManager::Shutdown() {
  if (gc_pool_.empty()) return;
  {
    MutexLock guard(gc_mu_);
    gc_stop_ = true;
  }
  gc_cv_.NotifyAll();
  for (std::thread& t : gc_pool_) t.join();
  gc_pool_.clear();
}

void RecoveryManager::GroupFlusherLoop() {
  MutexLock lock(gc_mu_);
  while (true) {
    // Sleep until there is *unclaimed* demand. The demand signal is the
    // requested-LSN watermark compared against what an in-flight batch has
    // already claimed: a request covered by a running flush needs no second
    // flusher (its publisher wakes the committer), but a request beyond it
    // wakes another pool thread, which leads the next pipelined batch while
    // the first one's fsync is still in flight.
    while (!gc_stop_ && gc_status_.ok() &&
           gc_requested_ <= wal_->claimed_lsn()) {
      gc_cv_.Wait(lock);
    }
    if (!gc_status_.ok()) break;
    // On stop, drain: keep flushing until the watermark is stable, so a
    // committer already waiting in MakeStable is never abandoned.
    if (gc_requested_ <= wal_->stable_lsn()) {
      if (gc_stop_) break;
      continue;  // claimed and already published between checks
    }
    // No timed batching window: the in-flight fsync is the window. The
    // first commit's demand starts a sync immediately; every commit that
    // arrives while it runs is claimed by the listening pool thread into
    // the next pipelined batch, so batch size self-tunes to the device. A
    // timed gather-window is strictly worse here (measured): it parks every
    // closed-loop committer before syncing, nothing is appended *during* the
    // fsync, the pipeline never forms, and group commit loses to
    // force-per-commit.
    const Lsn target = gc_requested_;
    // Both pool threads wake on the same demand; only one can lead. If a
    // concurrent flusher already claimed this target, tailgating it into
    // FlushTo would just block as a follower until its publish — leaving
    // NOBODY listening for the commits that arrive during its fsync, which
    // serializes the pipeline back into lockstep. Loop back to the
    // demand-wait instead: this thread becomes the listener that leads the
    // next batch while the claimed one's fsync is in flight. (On stop,
    // fall through: the drain must not spin on a covered-but-unstable
    // watermark.)
    if (target <= wal_->claimed_lsn() && !gc_stop_) continue;
    lock.Unlock();
    const Status st = wal_->FlushTo(target);
    lock.Lock();
    if (!st.ok()) {
      if (gc_status_.ok()) gc_status_ = st;
      break;
    }
    gc_cv_.NotifyAll();
  }
  if (--gc_live_ == 0) gc_exited_ = true;
  gc_cv_.NotifyAll();
}

Status RecoveryManager::MakeStable(Lsn lsn) {
  if (lsn == kInvalidLsn) {
    // The WAL refused the append: it is degraded. Surface why.
    const Status st = wal_->health();
    return st.ok() ? Status::IOError("log append failed") : st;
  }
  // Force-per-commit: this commit pays for its own device sync (FlushForce
  // never rides an earlier sync), which is exactly what the policy's name
  // promises — and the baseline the group-commit policy amortizes.
  if (!options_.group_commit) return wal_->FlushForce(lsn);
  MutexLock lock(gc_mu_);
  if (gc_requested_ < lsn) gc_requested_ = lsn;
  gc_cv_.NotifyAll();
  while (wal_->stable_lsn() < lsn) {
    if (!gc_status_.ok()) return gc_status_;
    if (gc_exited_) {
      return Status::Aborted("log flusher stopped before LSN " +
                             std::to_string(lsn) + " became stable");
    }
    gc_cv_.Wait(lock);
  }
  return Status::OK();
}

Status RecoveryManager::health() const {
  {
    MutexLock guard(gc_mu_);
    if (!health_.ok()) return health_;
  }
  return wal_->health();
}

void RecoveryManager::RecordFailure(const Status& st) {
  SEMCC_LOG(Error) << "commit durability lost: " << st.ToString();
  MutexLock guard(gc_mu_);
  if (health_.ok()) health_ = st;
}

// --- physical stratum ---------------------------------------------------

void RecoveryManager::OnCreateAtomic(Oid oid, TypeId type, const Value& initial) {
  LogRecord rec;
  rec.type = LogType::kCreateAtomic;
  rec.object = oid;
  rec.obj_type = type;
  rec.value = initial;
  wal_->Append(std::move(rec));
}

void RecoveryManager::OnCreateTuple(
    Oid oid, TypeId type,
    const std::vector<std::pair<std::string, Oid>>& components) {
  LogRecord rec;
  rec.type = LogType::kCreateTuple;
  rec.object = oid;
  rec.obj_type = type;
  rec.components = components;
  wal_->Append(std::move(rec));
}

void RecoveryManager::OnCreateSet(Oid oid, TypeId type) {
  LogRecord rec;
  rec.type = LogType::kCreateSet;
  rec.object = oid;
  rec.obj_type = type;
  wal_->Append(std::move(rec));
}

void RecoveryManager::OnDestroy(Oid oid) {
  LogRecord rec;
  rec.type = LogType::kDestroy;
  rec.object = oid;
  wal_->Append(std::move(rec));
}

void RecoveryManager::OnPut(Oid oid, const Value& after) {
  LogRecord rec;
  rec.type = LogType::kAtomWrite;
  rec.object = oid;
  rec.value = after;
  wal_->Append(std::move(rec));
}

void RecoveryManager::OnSetInsert(Oid set, const Value& key, Oid member) {
  LogRecord rec;
  rec.type = LogType::kSetInsert;
  rec.object = set;
  rec.args = {key};
  rec.aux_oid = member;
  wal_->Append(std::move(rec));
}

void RecoveryManager::OnSetRemove(Oid set, const Value& key, Oid member) {
  LogRecord rec;
  rec.type = LogType::kSetRemove;
  rec.object = set;
  rec.args = {key};
  rec.aux_oid = member;
  wal_->Append(std::move(rec));
}

void RecoveryManager::OnNamedRoot(const std::string& name, Oid oid) {
  LogRecord rec;
  rec.type = LogType::kNamedRoot;
  rec.name = name;
  rec.object = oid;
  wal_->Append(std::move(rec));
  // Directory entries are rare and precious: force individually.
  const Status st = wal_->Flush();
  if (!st.ok()) RecordFailure(st);
}

// --- online fuzzy checkpoint ----------------------------------------------

Status RecoveryManager::Checkpoint(
    ObjectStore* store, const std::vector<std::pair<std::string, Oid>>& roots) {
  MutexLock run(ckpt_run_mu_);
  SEMCC_RETURN_NOT_OK(health());

  Lsn begin_lsn = kInvalidLsn;
  Lsn trunc_lsn = kInvalidLsn;
  {
    // Atomically append the begin marker and snapshot the active set (see
    // OnTxnBegin): the truncation point must cover every transaction that
    // could still be a loser at a crash after this checkpoint.
    MutexLock guard(ckpt_mu_);
    LogRecord begin;
    begin.type = LogType::kCkptBegin;
    begin_lsn = wal_->Append(std::move(begin));
    if (begin_lsn == kInvalidLsn) {
      const Status st = wal_->health();
      return st.ok() ? Status::IOError("log append failed") : st;
    }
    trunc_lsn = begin_lsn;
    for (const auto& [txn, lsn] : active_txn_begin_) {
      trunc_lsn = std::min(trunc_lsn, lsn);
    }
  }

  // Fuzzy dump: per-object consistent restore records, interleaved in the
  // log with the records of concurrent transactions. Per object, log order
  // equals apply order (both hold the object's lock across apply+log), so
  // REDO can treat the region idempotently.
  SEMCC_RETURN_NOT_OK(store->DumpForCheckpoint());

  // Re-log the named-root directory: truncation may drop the original
  // binding records.
  for (const auto& [name, oid] : roots) {
    LogRecord rec;
    rec.type = LogType::kNamedRoot;
    rec.name = name;
    rec.object = oid;
    wal_->Append(std::move(rec));
  }

  LogRecord end;
  end.type = LogType::kCkptEnd;
  end.txn = begin_lsn;  // ties End to its Begin: only complete pairs count
  const Lsn end_lsn = wal_->Append(std::move(end));
  if (end_lsn == kInvalidLsn) {
    const Status st = wal_->health();
    return st.ok() ? Status::IOError("log append failed") : st;
  }
  // The checkpoint exists only once its End is durable; truncating before
  // that would leave a log whose head is a dump with no End — REDO would
  // rightly ignore it and find the covered records gone.
  SEMCC_RETURN_NOT_OK(MakeStable(end_lsn));

  if (options_.checkpoint_truncate) {
    auto dropped = wal_->TruncateCheckpointed(trunc_lsn);
    SEMCC_RETURN_NOT_OK(dropped.status());
  }
  return Status::OK();
}

void RecoveryManager::MaybeTriggerCheckpoint() {
  if (options_.checkpoint_every_records == 0 || !ckpt_trigger_) return;
  const uint64_t appended = wal_->next_lsn_hint();
  if (appended < ckpt_next_at_.load(std::memory_order_relaxed)) return;
  if (ckpt_in_trigger_.exchange(true)) return;  // one trigger at a time
  const Status st = ckpt_trigger_();
  if (!st.ok()) {
    SEMCC_LOG(Warn) << "automatic checkpoint failed: " << st.ToString();
  }
  // Re-arm from the LSN *after* the checkpoint: the dump appends one record
  // per live object, so arming from the pre-checkpoint LSN would count the
  // dump itself toward the next threshold — and once the object graph
  // outgrows the interval, every checkpoint immediately triggers the next
  // (a checkpoint storm that once logged 12M records for 6400 txns).
  ckpt_next_at_.store(wal_->next_lsn_hint() +
                      options_.checkpoint_every_records);
  ckpt_in_trigger_.store(false);
}

// --- transactional stratum -------------------------------------------------

void RecoveryManager::OnTxnBegin(TxnId txn) {
  LogRecord rec;
  rec.type = LogType::kTxnBegin;
  rec.txn = txn;
  // ckpt_mu_ across append+insert: a concurrent checkpoint either sees the
  // begin in the active map (and keeps its undo records) or the begin lands
  // after the checkpoint's own kCkptBegin (and is past the truncation
  // point). Without the lock a begin could slip between the two and have
  // its undo information truncated.
  MutexLock guard(ckpt_mu_);
  const Lsn lsn = wal_->Append(std::move(rec));
  if (lsn != kInvalidLsn) active_txn_begin_.emplace(txn, lsn);
}

void RecoveryManager::OnTxnCommit(TxnId txn) {
  LogRecord rec;
  rec.type = LogType::kTxnCommit;
  rec.txn = txn;
  const Lsn lsn = wal_->Append(std::move(rec));
  // Force at commit (individually or via group commit).
  const Status st = MakeStable(lsn);
  if (!st.ok()) {
    RecordFailure(st);
    return;  // still possibly a loser: keep it pinned in the active map
  }
  {
    // Only now — with the commit record stable — may a checkpoint truncate
    // this transaction's records.
    MutexLock guard(ckpt_mu_);
    active_txn_begin_.erase(txn);
  }
  MaybeTriggerCheckpoint();
}

void RecoveryManager::OnTxnAbort(TxnId txn) {
  LogRecord rec;
  rec.type = LogType::kTxnAbort;
  rec.txn = txn;
  const Lsn lsn = wal_->Append(std::move(rec));
  // Abort is complete: restart must not re-undo.
  const Status st = MakeStable(lsn);
  if (!st.ok()) {
    RecordFailure(st);
    return;
  }
  MutexLock guard(ckpt_mu_);
  active_txn_begin_.erase(txn);
}

LogRecord RecoveryManager::ActionBase(const SubTxn& node, LogType type) {
  LogRecord rec;
  rec.type = type;
  rec.txn = node.root()->id();
  rec.subtxn = node.id();
  rec.parent = node.parent() != nullptr ? node.parent()->id() : node.id();
  rec.object = node.object();
  rec.obj_type = node.type();
  rec.method = node.method();
  rec.args = node.args();
  for (const SubTxn* anc : node.AncestorChain()) rec.path.push_back(anc->id());
  return rec;
}

void RecoveryManager::OnMethodCommitted(const SubTxn& node, const Value& result,
                                        bool has_total_inverse) {
  LogRecord rec = ActionBase(node, LogType::kMethodCommit);
  rec.value = result;
  rec.flag = has_total_inverse;
  wal_->Append(std::move(rec));
}

void RecoveryManager::OnLeafPut(const SubTxn& node, const Value& before) {
  LogRecord rec = ActionBase(node, LogType::kLeafPut);
  rec.value = before;
  wal_->Append(std::move(rec));
}

void RecoveryManager::OnLeafSetInsert(const SubTxn& node) {
  wal_->Append(ActionBase(node, LogType::kLeafSetInsert));
}

void RecoveryManager::OnLeafSetRemove(const SubTxn& node, Oid removed_member) {
  LogRecord rec = ActionBase(node, LogType::kLeafSetRemove);
  rec.aux_oid = removed_member;
  wal_->Append(std::move(rec));
}

// --- restart -----------------------------------------------------------------

std::string RecoveryManager::RecoveryStats::ToString() const {
  char buf[200];
  std::snprintf(buf, sizeof(buf),
                "records=%zu redo=%zu skipped=%zu ckpt=%d winners=%zu "
                "losers=%zu inverses=%zu leaf_undos=%zu",
                records, redo_applied, redo_skipped, used_checkpoint ? 1 : 0,
                winners, losers, inverses_run, leaf_undos);
  return buf;
}

Result<RecoveryManager::RecoveryStats> RecoveryManager::Recover(
    const std::vector<LogRecord>& log, ObjectStore* store,
    MethodRegistry* methods, TxnManager* txns,
    const std::function<void(const std::string&, Oid)>& named_root_sink,
    const std::function<void()>& between_passes) {
  RecoveryStats stats;
  stats.records = log.size();

  // Locate the last *complete* checkpoint region: a kCkptEnd whose txn
  // field names the LSN of a kCkptBegin present in the log. Physical REDO
  // starts at that Begin — everything before it is covered by the fuzzy
  // dump (a truncated log starts there anyway; an untruncated one keeps the
  // prefix only for UNDO information). A Begin without an End is a
  // checkpoint that died mid-dump: ignored entirely.
  size_t redo_start = 0;
  {
    std::map<Lsn, size_t> begin_at;
    for (size_t i = 0; i < log.size(); ++i) {
      if (log[i].type == LogType::kCkptBegin) {
        begin_at[log[i].lsn] = i;
      } else if (log[i].type == LogType::kCkptEnd) {
        auto it = begin_at.find(static_cast<Lsn>(log[i].txn));
        if (it != begin_at.end()) {
          redo_start = it->second;
          stats.used_checkpoint = true;
        }
      }
    }
  }

  // Pass 1 — REDO: replay physical records from redo_start; classify
  // transactions and replay the named-root directory over the whole log.
  // Inside the checkpoint region the fuzzy dump and the records of
  // concurrent transactions interleave, so replay there is idempotent:
  // a restore that finds its object already rebuilt, or an online write
  // whose object is not dumped yet, is simply the other copy of the same
  // effect (per object, log order equals apply order) and is skipped.
  std::set<TxnId> begun, committed, aborted;
  bool in_region = false;
  for (size_t i = 0; i < log.size(); ++i) {
    const LogRecord& rec = log[i];
    const bool redo = i >= redo_start;
    switch (rec.type) {
      case LogType::kCkptBegin:
        if (redo) in_region = true;
        break;
      case LogType::kCkptEnd:
        in_region = false;
        break;
      case LogType::kCreateAtomic: {
        if (!redo) { stats.redo_skipped++; break; }
        Status st = store->RestoreAtomic(rec.object, rec.obj_type, rec.value);
        if (!st.ok()) {
          if (!(in_region && st.IsAlreadyExists())) return st;
          stats.redo_skipped++;
          break;
        }
        stats.redo_applied++;
        break;
      }
      case LogType::kCreateTuple: {
        if (!redo) { stats.redo_skipped++; break; }
        Status st = store->RestoreTuple(rec.object, rec.obj_type, rec.components);
        if (!st.ok()) {
          if (!(in_region && st.IsAlreadyExists())) return st;
          stats.redo_skipped++;
          break;
        }
        stats.redo_applied++;
        break;
      }
      case LogType::kCreateSet: {
        if (!redo) { stats.redo_skipped++; break; }
        Status st = store->RestoreSet(rec.object, rec.obj_type);
        if (!st.ok()) {
          if (!(in_region && st.IsAlreadyExists())) return st;
          stats.redo_skipped++;
          break;
        }
        stats.redo_applied++;
        break;
      }
      case LogType::kDestroy: {
        if (!redo) { stats.redo_skipped++; break; }
        Status st = store->Destroy(rec.object);
        if (!st.ok() && !st.IsNotFound()) return st;
        stats.redo_applied++;
        break;
      }
      case LogType::kAtomWrite: {
        if (!redo) { stats.redo_skipped++; break; }
        Status st = store->Put(rec.object, rec.value);
        if (!st.ok()) {
          if (!(in_region && st.IsNotFound())) return st;
          stats.redo_skipped++;  // object dumped later in the region
          break;
        }
        stats.redo_applied++;
        break;
      }
      case LogType::kSetInsert: {
        if (!redo) { stats.redo_skipped++; break; }
        Status st = store->SetInsert(rec.object, rec.args[0], rec.aux_oid);
        if (!st.ok()) {
          if (!(in_region && (st.IsNotFound() || st.IsAlreadyExists()))) {
            return st;
          }
          stats.redo_skipped++;
          break;
        }
        stats.redo_applied++;
        break;
      }
      case LogType::kSetRemove: {
        if (!redo) { stats.redo_skipped++; break; }
        Status st = store->SetRemove(rec.object, rec.args[0]);
        if (!st.ok() && !st.IsNotFound()) return st;
        stats.redo_applied++;
        break;
      }
      case LogType::kNamedRoot:
        // Applied over the whole log: the checkpoint re-logs the directory,
        // and later bindings overwrite earlier ones in log order.
        if (named_root_sink) named_root_sink(rec.name, rec.object);
        break;
      case LogType::kTxnBegin:
        begun.insert(rec.txn);
        break;
      case LogType::kTxnCommit:
        committed.insert(rec.txn);
        break;
      case LogType::kTxnAbort:
        aborted.insert(rec.txn);  // abort fully compensated before the record
        break;
      default:
        break;  // transactional undo info, handled in pass 2
    }
  }

  if (between_passes) between_passes();

  // Pass 2 — UNDO the losers: begun, neither committed nor abort-complete.
  std::set<TxnId> losers;
  for (TxnId t : begun) {
    if (committed.count(t) == 0 && aborted.count(t) == 0) losers.insert(t);
  }
  stats.winners = begun.size() - losers.size();
  stats.losers = losers.size();
  stats.loser_ids.assign(losers.begin(), losers.end());
  if (losers.empty()) return stats;

  // Subtransactions of losers that committed WITH a registered total
  // inverse: anything underneath them is compensated by that inverse.
  std::set<TxnId> total_inverse_subtxns;
  for (const LogRecord& rec : log) {
    if (rec.type == LogType::kMethodCommit && rec.flag &&
        losers.count(rec.txn) > 0) {
      total_inverse_subtxns.insert(rec.subtxn);
    }
  }
  auto covered = [&](const LogRecord& rec) {
    for (TxnId anc : rec.path) {
      if (total_inverse_subtxns.count(anc) > 0) return true;
    }
    return false;
  };

  // Reverse LSN order = reverse completion order (the online abort order).
  for (auto it = log.rbegin(); it != log.rend(); ++it) {
    const LogRecord& rec = *it;
    if (losers.count(rec.txn) == 0) continue;
    if (covered(rec)) continue;
    switch (rec.type) {
      case LogType::kMethodCommit: {
        if (!rec.flag) break;  // read-only method: nothing to do
        auto def = methods->Find(rec.obj_type, rec.method);
        if (!def.ok()) {
          SEMCC_LOG(Error) << "recovery: method " << rec.method
                           << " not registered; cannot compensate";
          break;
        }
        const MethodDef* d = def.ValueOrDie();
        Args args = rec.args;
        Value result = rec.value;
        Oid object = rec.object;
        auto r = txns->Run("recovery-undo", [&](TxnCtx& ctx) -> Result<Value> {
          SEMCC_RETURN_NOT_OK(d->inverse(ctx, object, args, result));
          return Value();
        });
        if (!r.ok()) {
          SEMCC_LOG(Error) << "recovery compensation failed: "
                           << r.status().ToString();
        } else {
          stats.inverses_run++;
        }
        break;
      }
      case LogType::kLeafPut:
        SEMCC_RETURN_NOT_OK(store->Put(rec.object, rec.value));
        stats.leaf_undos++;
        break;
      case LogType::kLeafSetInsert: {
        Status st = store->SetRemove(rec.object, rec.args[0]);
        if (!st.ok() && !st.IsNotFound()) return st;
        stats.leaf_undos++;
        break;
      }
      case LogType::kLeafSetRemove: {
        // AlreadyExists: the crash hit between the undo record and the
        // physical remove, so the member never left the set.
        Status st = store->SetInsert(rec.object, rec.args[0], rec.aux_oid);
        if (!st.ok() && !st.IsAlreadyExists()) return st;
        stats.leaf_undos++;
        break;
      }
      default:
        break;
    }
  }
  return stats;
}

}  // namespace semcc
