// Process-wide interning of method names to dense integer ids.
//
// The conflict test of paper §4.2 runs once per (holder, requester) pair per
// ancestor-walk step on every lock acquisition; keying it by std::string
// makes the hot path hash strings and chase heap. Interning every method
// name once per action (SubTxn construction) and once per registration lets
// the conflict test, which runs many times per action, work on 32-bit ids:
// the CompatibilityRegistry compiles its per-type matrices into dense
// id-indexed tables (see cc/compatibility.h) and the lock manager's
// TestConflict never touches a string.
//
// Ids are assigned process-wide (not per registry) so a SubTxn's cached id
// is meaningful against any CompatibilityRegistry. The generic operations of
// paper §2.2 get fixed ids 0..6 so their built-in commutativity rules can
// switch on small constants.
#ifndef SEMCC_CC_METHOD_INTERNER_H_
#define SEMCC_CC_METHOD_INTERNER_H_

#include <cstdint>
#include <string>
#include <unordered_map>
#include <vector>

#include "util/annotations.h"
#include "util/macros.h"

namespace semcc {

using MethodId = uint32_t;
constexpr MethodId kInvalidMethodId = UINT32_MAX;

/// Fixed ids of the built-in generic operations (paper §2.2), pre-interned
/// by MethodInterner::Global() in this order.
namespace generic_ids {
inline constexpr MethodId kGet = 0;
inline constexpr MethodId kPut = 1;
inline constexpr MethodId kInsert = 2;
inline constexpr MethodId kRemove = 3;
inline constexpr MethodId kSelect = 4;
inline constexpr MethodId kScan = 5;
inline constexpr MethodId kSize = 6;
inline constexpr MethodId kMember = 7;
inline constexpr MethodId kRangeScan = 8;
inline constexpr MethodId kNumGenericOps = 9;
}  // namespace generic_ids

/// \brief Thread-safe append-only string-to-id table.
///
/// Intern() runs once per action (the SubTxn constructor) and once per
/// compatibility registration, under a SharedMutex; the conflict test, which
/// runs once per holder per ancestor-walk step, uses the cached ids and
/// never comes here.
class MethodInterner {
 public:
  /// The process-wide interner (generic operations pre-interned).
  static MethodInterner& Global();

  MethodInterner();
  SEMCC_DISALLOW_COPY_AND_ASSIGN(MethodInterner);

  /// Id of `name`, assigning a fresh one on first sight.
  MethodId Intern(const std::string& name) SEMCC_EXCLUDES(mu_);

  /// Id of `name`, or kInvalidMethodId if it was never interned.
  MethodId Lookup(const std::string& name) const SEMCC_EXCLUDES(mu_);

  /// The name behind `id` (by value: the backing vector may grow).
  std::string NameOf(MethodId id) const SEMCC_EXCLUDES(mu_);

  /// Number of distinct interned names (== smallest unassigned id).
  size_t size() const SEMCC_EXCLUDES(mu_);

 private:
  mutable SharedMutex mu_;
  std::unordered_map<std::string, MethodId> ids_ SEMCC_GUARDED_BY(mu_);
  std::vector<std::string> names_ SEMCC_GUARDED_BY(mu_);
};

}  // namespace semcc

#endif  // SEMCC_CC_METHOD_INTERNER_H_
