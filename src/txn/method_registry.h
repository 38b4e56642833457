// Registry of (user-defined) methods on encapsulated object types.
//
// A method has a body (which may invoke further methods on other objects or
// even the same object — paper footnote 3) and, for update methods, a
// semantic inverse used to compensate the committed subtransaction when an
// ancestor aborts (paper §3: "committed subtransactions need to be
// compensated by means of appropriate 'inverse' operations").
#ifndef SEMCC_TXN_METHOD_REGISTRY_H_
#define SEMCC_TXN_METHOD_REGISTRY_H_

#include <functional>
#include <map>
#include <string>
#include <utility>
#include <vector>

#include "object/oid.h"
#include "object/value.h"
#include "util/annotations.h"
#include "util/macros.h"
#include "util/result.h"

namespace semcc {

class TxnCtx;

/// \brief One registered method.
struct MethodDef {
  TypeId type = kInvalidTypeId;
  std::string name;
  /// Read-only methods need no inverse and map to shared locks under the
  /// conventional baselines.
  bool read_only = false;
  /// The implementation. `self` is the receiver object.
  std::function<Result<Value>(TxnCtx&, Oid self, const Args&)> body;
  /// Semantic compensation, executed as a new subtransaction of the aborting
  /// transaction. Receives the original arguments and the original result.
  /// Mandatory for update methods (enforced at registration).
  std::function<Status(TxnCtx&, Oid self, const Args&, const Value& result)>
      inverse;
};

/// \brief Thread-safe method lookup table, keyed by (type, name).
class MethodRegistry {
 public:
  MethodRegistry() = default;
  SEMCC_DISALLOW_COPY_AND_ASSIGN(MethodRegistry);

  Status Register(MethodDef def);
  Result<const MethodDef*> Find(TypeId type, const std::string& name) const;
  std::vector<std::string> MethodsOf(TypeId type) const;

 private:
  mutable Mutex mu_;
  std::map<std::pair<TypeId, std::string>, MethodDef> methods_
      SEMCC_GUARDED_BY(mu_);
};

}  // namespace semcc

#endif  // SEMCC_TXN_METHOD_REGISTRY_H_
