#include "txn/method_registry.h"

namespace semcc {

Status MethodRegistry::Register(MethodDef def) {
  if (def.name.empty()) return Status::InvalidArgument("empty method name");
  if (!def.body) return Status::InvalidArgument("method has no body");
  if (!def.read_only && !def.inverse) {
    return Status::InvalidArgument(
        "update method " + def.name +
        " needs a semantic inverse (open nested transactions compensate "
        "committed subtransactions; physical undo would wipe out commuting "
        "updates of other transactions)");
  }
  MutexLock guard(mu_);
  auto key = std::make_pair(def.type, def.name);
  if (methods_.count(key) > 0) {
    return Status::AlreadyExists("method already registered: " + def.name);
  }
  methods_[key] = std::move(def);
  return Status::OK();
}

Result<const MethodDef*> MethodRegistry::Find(TypeId type,
                                              const std::string& name) const {
  MutexLock guard(mu_);
  auto it = methods_.find(std::make_pair(type, name));
  if (it == methods_.end()) {
    return Status::NotFound("no method " + name + " on type " +
                            std::to_string(type));
  }
  return &it->second;
}

std::vector<std::string> MethodRegistry::MethodsOf(TypeId type) const {
  MutexLock guard(mu_);
  std::vector<std::string> out;
  for (const auto& [key, def] : methods_) {
    if (key.first == type) out.push_back(key.second);
  }
  return out;
}

}  // namespace semcc
