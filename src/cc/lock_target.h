// Lock names and their hash.
//
// Split out of cc/lock_manager.h so that code naming lock targets does not
// pull in the whole lock manager.
#ifndef SEMCC_CC_LOCK_TARGET_H_
#define SEMCC_CC_LOCK_TARGET_H_

#include <cstdint>
#include <string>

#include "object/oid.h"
#include "storage/record_manager.h"

namespace semcc {

/// \brief What a lock names: an object, a record, or a page — optionally
/// narrowed to a key interval within that object (keyrange_locks).
///
/// The interval is an *annotation*, not part of the lock's identity: two
/// targets naming the same object always share one queue, so FCFS order
/// stays per-object. The interval only feeds the conflict scan's disjointness
/// precheck — entries whose closed intervals [key_lo, key_hi] cannot
/// overlap the requester's are skipped before the compatibility matrix is
/// even consulted (DESIGN.md §5.8). operator== and LockTargetHash therefore
/// deliberately ignore it.
struct LockTarget {
  enum class Space : uint8_t { kObject = 0, kRecord = 1, kPage = 2 };
  Space space = Space::kObject;
  uint64_t key = 0;
  /// Closed key interval touched within the object; only meaningful when
  /// has_interval is set (by LockManager::Acquire under keyrange_locks).
  int64_t key_lo = 0;
  int64_t key_hi = 0;
  bool has_interval = false;

  static LockTarget ForObject(Oid oid) { return {Space::kObject, oid}; }
  static LockTarget ForRecord(const Rid& rid) {
    return {Space::kRecord,
            (static_cast<uint64_t>(rid.page_id) << 16) | rid.slot};
  }
  static LockTarget ForPage(PageId page) {
    return {Space::kPage, static_cast<uint64_t>(page)};
  }

  /// Identity: (space, key) only — the interval annotation is invisible to
  /// queue lookup and hashing (see class comment).
  bool operator==(const LockTarget& other) const {
    return space == other.space && key == other.key;
  }
  std::string ToString() const;
};

/// Hash over (space, key) with a splitmix64 finalizer so that the
/// structured keys this system produces — sequential Oids, Rids whose low
/// 16 bits are a slot, page ids — spread over both hash-table buckets and
/// lock-table shards (which use the LOW bits). A multiplicative-only hash
/// clusters them: e.g. `ForRecord({page, 0})` keys are all multiples of
/// 1<<16 and would land every record of slot 0 in shard 0.
struct LockTargetHash {
  size_t operator()(const LockTarget& t) const {
    uint64_t x = (t.key << 2) ^ static_cast<uint64_t>(t.space);
    x += 0x9e3779b97f4a7c15ull;
    x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9ull;
    x = (x ^ (x >> 27)) * 0x94d049bb133111ebull;
    return static_cast<size_t>(x ^ (x >> 31));
  }
};

}  // namespace semcc

#endif  // SEMCC_CC_LOCK_TARGET_H_
