#include "object/object_store.h"

#include <cstring>

#include "util/logging.h"

namespace semcc {

ObjectStore::ObjectStore(Schema* schema, RecordManager* records)
    : schema_(schema), records_(records) {
  // Oid 0 = the database root object (no storage record needed).
  auto root = std::make_unique<ObjectMeta>();
  root->oid = kDatabaseOid;
  root->type = Schema::kDatabaseTypeId;
  root->kind = ObjectKind::kTuple;
  objects_.push_back(std::move(root));
}

Result<ObjectStore::ObjectMeta*> ObjectStore::Find(Oid oid) const {
  ReaderMutexLock guard(meta_mu_);
  if (oid >= objects_.size()) return Status::NotFound("unknown oid");
  ObjectMeta* meta = objects_[oid].get();
  if (meta->destroyed) return Status::NotFound("object destroyed");
  return meta;
}

Result<ObjectStore::ObjectMeta*> ObjectStore::FindOfKind(
    Oid oid, ObjectKind kind) const {
  SEMCC_ASSIGN_OR_RETURN(ObjectMeta * meta, Find(oid));
  if (meta->kind != kind) {
    return Status::InvalidArgument(std::string("object is not ") +
                                   ObjectKindName(kind));
  }
  return meta;
}

Result<Oid> ObjectStore::CreateAtomic(TypeId type, const Value& initial) {
  SEMCC_ASSIGN_OR_RETURN(Rid rid, records_->Insert(initial.Serialize()));
  WriterMutexLock guard(meta_mu_);
  auto meta = std::make_unique<ObjectMeta>();
  meta->oid = objects_.size();
  meta->type = type;
  meta->kind = ObjectKind::kAtomic;
  meta->rid = rid;
  objects_.push_back(std::move(meta));
  const Oid oid = objects_.back()->oid;
  if (listener_ != nullptr) listener_->OnCreateAtomic(oid, type, initial);
  return oid;
}

Result<Oid> ObjectStore::CreateTuple(
    TypeId type, std::vector<std::pair<std::string, Oid>> components) {
  SEMCC_ASSIGN_OR_RETURN(TypeDescriptor desc, schema_->Get(type));
  if (desc.kind != ObjectKind::kTuple) {
    return Status::InvalidArgument("type is not a tuple type: " + desc.name);
  }
  if (desc.components.size() != components.size()) {
    return Status::InvalidArgument("component count mismatch for " + desc.name);
  }
  // Serialize the (immutable) structure: component oids in type order.
  std::string record;
  for (const ComponentDef& def : desc.components) {
    const std::pair<std::string, Oid>* found = nullptr;
    for (const auto& given : components) {
      if (given.first == def.name) {
        found = &given;
        break;
      }
    }
    if (found == nullptr) {
      return Status::InvalidArgument("missing component " + def.name);
    }
    record.append(reinterpret_cast<const char*>(&found->second), sizeof(Oid));
  }
  SEMCC_ASSIGN_OR_RETURN(Rid rid, records_->Insert(record));
  WriterMutexLock guard(meta_mu_);
  auto meta = std::make_unique<ObjectMeta>();
  meta->oid = objects_.size();
  meta->type = type;
  meta->kind = ObjectKind::kTuple;
  meta->rid = rid;
  meta->components = std::move(components);
  objects_.push_back(std::move(meta));
  const Oid oid = objects_.back()->oid;
  if (listener_ != nullptr) {
    listener_->OnCreateTuple(oid, type, objects_.back()->components);
  }
  return oid;
}

Result<Oid> ObjectStore::CreateSet(TypeId type) {
  SEMCC_ASSIGN_OR_RETURN(TypeDescriptor desc, schema_->Get(type));
  if (desc.kind != ObjectKind::kSet) {
    return Status::InvalidArgument("type is not a set type: " + desc.name);
  }
  uint64_t count = 0;
  std::string stub(reinterpret_cast<const char*>(&count), sizeof(count));
  SEMCC_ASSIGN_OR_RETURN(Rid rid, records_->Insert(stub));
  WriterMutexLock guard(meta_mu_);
  auto meta = std::make_unique<ObjectMeta>();
  meta->oid = objects_.size();
  meta->type = type;
  meta->kind = ObjectKind::kSet;
  meta->rid = rid;
  objects_.push_back(std::move(meta));
  const Oid oid = objects_.back()->oid;
  if (listener_ != nullptr) listener_->OnCreateSet(oid, type);
  return oid;
}

Status ObjectStore::Destroy(Oid oid) {
  // Writer meta_mu_ across delete + mark + log: the checkpoint dump holds
  // the reader lock for its whole scan, so a destroy can never interleave
  // with a dump (the dump would read the deleted record), and the destroy's
  // log position matches its apply position.
  WriterMutexLock guard(meta_mu_);
  if (oid >= objects_.size()) return Status::NotFound("unknown oid");
  ObjectMeta* meta = objects_[oid].get();
  if (meta->destroyed) return Status::NotFound("object destroyed");
  if (meta->rid.valid()) {
    SEMCC_RETURN_NOT_OK(records_->Delete(meta->rid));
  }
  meta->destroyed = true;
  if (listener_ != nullptr) listener_->OnDestroy(oid);
  return Status::OK();
}

Result<Value> ObjectStore::Get(Oid oid) {
  SEMCC_ASSIGN_OR_RETURN(ObjectMeta * meta, FindOfKind(oid, ObjectKind::kAtomic));
  SEMCC_ASSIGN_OR_RETURN(std::string bytes, records_->Read(meta->rid));
  return Value::Deserialize(bytes);
}

Status ObjectStore::Put(Oid oid, const Value& value) {
  SEMCC_ASSIGN_OR_RETURN(ObjectMeta * meta, FindOfKind(oid, ObjectKind::kAtomic));
  // Per-object apply+log atomicity (set_mu doubles as the object latch for
  // atoms): the checkpoint dump reads the record and logs its restore under
  // the same lock, so per object the log order always equals the apply
  // order — the property the in-checkpoint-region replay tolerance relies
  // on.
  MutexLock obj(meta->set_mu);
  SEMCC_RETURN_NOT_OK(records_->Update(meta->rid, value.Serialize()));
  if (listener_ != nullptr) listener_->OnPut(oid, value);
  return Status::OK();
}

Result<Oid> ObjectStore::Component(Oid tuple, const std::string& name) {
  SEMCC_ASSIGN_OR_RETURN(ObjectMeta * meta, FindOfKind(tuple, ObjectKind::kTuple));
  for (const auto& [cname, coid] : meta->components) {
    if (cname == name) return coid;
  }
  return Status::NotFound("no component " + name + " in " +
                          schema_->TypeName(meta->type));
}

Result<std::vector<std::pair<std::string, Oid>>> ObjectStore::Components(
    Oid tuple) {
  SEMCC_ASSIGN_OR_RETURN(ObjectMeta * meta, FindOfKind(tuple, ObjectKind::kTuple));
  return meta->components;
}

Status ObjectStore::RewriteSetStub(ObjectMeta* meta) {
  const uint64_t count = meta->members.size();
  std::string stub(reinterpret_cast<const char*>(&count), sizeof(count));
  return records_->Update(meta->rid, stub);
}

Status ObjectStore::SetInsert(Oid set, const Value& key, Oid member) {
  SEMCC_ASSIGN_OR_RETURN(ObjectMeta * meta, FindOfKind(set, ObjectKind::kSet));
  MutexLock guard(meta->set_mu);
  if (meta->members.count(key) > 0) {
    return Status::AlreadyExists("duplicate key " + key.ToString());
  }
  meta->members[key] = member;
  SEMCC_RETURN_NOT_OK(RewriteSetStub(meta));
  if (listener_ != nullptr) listener_->OnSetInsert(set, key, member);
  return Status::OK();
}

Status ObjectStore::SetRemove(Oid set, const Value& key) {
  SEMCC_ASSIGN_OR_RETURN(ObjectMeta * meta, FindOfKind(set, ObjectKind::kSet));
  MutexLock guard(meta->set_mu);
  auto it = meta->members.find(key);
  if (it == meta->members.end()) {
    return Status::NotFound("no member with key " + key.ToString());
  }
  const Oid member = it->second;
  meta->members.erase(it);
  SEMCC_RETURN_NOT_OK(RewriteSetStub(meta));
  if (listener_ != nullptr) listener_->OnSetRemove(set, key, member);
  return Status::OK();
}

Result<Oid> ObjectStore::SetSelect(Oid set, const Value& key) {
  SEMCC_ASSIGN_OR_RETURN(ObjectMeta * meta, FindOfKind(set, ObjectKind::kSet));
  MutexLock guard(meta->set_mu);
  auto it = meta->members.find(key);
  if (it == meta->members.end()) {
    return Status::NotFound("no member with key " + key.ToString());
  }
  return it->second;
}

Result<std::vector<std::pair<Value, Oid>>> ObjectStore::SetScan(Oid set) {
  SEMCC_ASSIGN_OR_RETURN(ObjectMeta * meta, FindOfKind(set, ObjectKind::kSet));
  MutexLock guard(meta->set_mu);
  std::vector<std::pair<Value, Oid>> out;
  out.reserve(meta->members.size());
  for (const auto& [k, v] : meta->members) out.emplace_back(k, v);
  return out;
}

Result<size_t> ObjectStore::SetSize(Oid set) {
  SEMCC_ASSIGN_OR_RETURN(ObjectMeta * meta, FindOfKind(set, ObjectKind::kSet));
  MutexLock guard(meta->set_mu);
  return meta->members.size();
}

Status ObjectStore::EmplaceAt(Oid oid, std::unique_ptr<ObjectMeta> meta) {
  if (oid < objects_.size() && !objects_[oid]->destroyed) {
    return Status::AlreadyExists("oid already live: " + std::to_string(oid));
  }
  while (objects_.size() <= oid) {
    auto pad = std::make_unique<ObjectMeta>();
    pad->oid = objects_.size();
    pad->destroyed = true;
    objects_.push_back(std::move(pad));
  }
  objects_[oid] = std::move(meta);
  return Status::OK();
}

Status ObjectStore::RestoreAtomic(Oid oid, TypeId type, const Value& initial) {
  SEMCC_ASSIGN_OR_RETURN(Rid rid, records_->Insert(initial.Serialize()));
  {
    WriterMutexLock guard(meta_mu_);
    auto meta = std::make_unique<ObjectMeta>();
    meta->oid = oid;
    meta->type = type;
    meta->kind = ObjectKind::kAtomic;
    meta->rid = rid;
    SEMCC_RETURN_NOT_OK(EmplaceAt(oid, std::move(meta)));
  }
  if (listener_ != nullptr) listener_->OnCreateAtomic(oid, type, initial);
  return Status::OK();
}

Status ObjectStore::RestoreTuple(
    Oid oid, TypeId type, std::vector<std::pair<std::string, Oid>> components) {
  std::string record;
  for (const auto& [name, coid] : components) {
    (void)name;
    record.append(reinterpret_cast<const char*>(&coid), sizeof(Oid));
  }
  SEMCC_ASSIGN_OR_RETURN(Rid rid, records_->Insert(record));
  {
    WriterMutexLock guard(meta_mu_);
    auto meta = std::make_unique<ObjectMeta>();
    meta->oid = oid;
    meta->type = type;
    meta->kind = ObjectKind::kTuple;
    meta->rid = rid;
    meta->components = std::move(components);
    SEMCC_RETURN_NOT_OK(EmplaceAt(oid, std::move(meta)));
  }
  if (listener_ != nullptr) {
    ReaderMutexLock guard(meta_mu_);
    listener_->OnCreateTuple(oid, type, objects_[oid]->components);
  }
  return Status::OK();
}

Status ObjectStore::RestoreSet(Oid oid, TypeId type) {
  uint64_t count = 0;
  std::string stub(reinterpret_cast<const char*>(&count), sizeof(count));
  SEMCC_ASSIGN_OR_RETURN(Rid rid, records_->Insert(stub));
  {
    WriterMutexLock guard(meta_mu_);
    auto meta = std::make_unique<ObjectMeta>();
    meta->oid = oid;
    meta->type = type;
    meta->kind = ObjectKind::kSet;
    meta->rid = rid;
    SEMCC_RETURN_NOT_OK(EmplaceAt(oid, std::move(meta)));
  }
  if (listener_ != nullptr) listener_->OnCreateSet(oid, type);
  return Status::OK();
}

Status ObjectStore::DumpForCheckpoint() {
  if (listener_ == nullptr) return Status::OK();
  // Reader meta_mu_ for the whole scan: value writes and set mutations on
  // existing objects proceed (they hold only the per-object set_mu), but
  // creates and destroys — structure changes — wait for the dump. That is
  // the "fuzzy" granularity: per object, never globally consistent.
  ReaderMutexLock guard(meta_mu_);
  for (Oid oid = 1; oid < objects_.size(); ++oid) {
    ObjectMeta* meta = objects_[oid].get();
    if (meta->destroyed) continue;
    switch (meta->kind) {
      case ObjectKind::kAtomic: {
        // Read + log under the object latch, mirroring Put: the restore
        // record lands in the log at a position consistent with every
        // concurrent write to this object.
        MutexLock obj(meta->set_mu);
        SEMCC_ASSIGN_OR_RETURN(std::string bytes, records_->Read(meta->rid));
        SEMCC_ASSIGN_OR_RETURN(Value value, Value::Deserialize(bytes));
        listener_->OnCreateAtomic(oid, meta->type, value);
        break;
      }
      case ObjectKind::kTuple:
        // Structure is immutable after creation; no latch needed.
        listener_->OnCreateTuple(oid, meta->type, meta->components);
        break;
      case ObjectKind::kSet: {
        MutexLock obj(meta->set_mu);
        listener_->OnCreateSet(oid, meta->type);
        for (const auto& [key, member] : meta->members) {
          listener_->OnSetInsert(oid, key, member);
        }
        break;
      }
    }
  }
  // Destroyed objects are skipped (EmplaceAt pads the gaps at replay), but
  // a destroyed *last* oid would silently shrink the replayed oid space and
  // let a post-restart create reuse its oid while retained log records
  // still name it. Pin the end with a placeholder create + destroy.
  const Oid last = objects_.size() - 1;
  if (last >= 1 && objects_[last]->destroyed) {
    listener_->OnCreateAtomic(last, objects_[last]->type, Value());
    listener_->OnDestroy(last);
  }
  return Status::OK();
}

Result<ObjectKind> ObjectStore::KindOf(Oid oid) const {
  SEMCC_ASSIGN_OR_RETURN(ObjectMeta * meta, Find(oid));
  return meta->kind;
}

Result<TypeId> ObjectStore::TypeOf(Oid oid) const {
  SEMCC_ASSIGN_OR_RETURN(ObjectMeta * meta, Find(oid));
  return meta->type;
}

Result<Rid> ObjectStore::RidOf(Oid oid) const {
  SEMCC_ASSIGN_OR_RETURN(ObjectMeta * meta, Find(oid));
  if (!meta->rid.valid()) {
    return Status::NotFound("object has no storage record (database root?)");
  }
  return meta->rid;
}

Result<PageId> ObjectStore::PageOf(Oid oid) const {
  SEMCC_ASSIGN_OR_RETURN(Rid rid, RidOf(oid));
  return rid.page_id;
}

uint64_t ObjectStore::num_objects() const {
  ReaderMutexLock guard(meta_mu_);
  return objects_.size();
}

std::string ObjectStore::DebugString(Oid oid) const {
  auto meta_r = Find(oid);
  if (!meta_r.ok()) {
    return std::string("<").append(meta_r.status().ToString()).append(">");
  }
  ObjectMeta* meta = meta_r.ValueOrDie();
  return std::string("@")
      .append(std::to_string(oid))
      .append(":")
      .append(schema_->TypeName(meta->type))
      .append("(")
      .append(ObjectKindName(meta->kind))
      .append(")");
}

}  // namespace semcc
