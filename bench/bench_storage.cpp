// Micro-benchmarks of the storage substrate and object store.
#include <benchmark/benchmark.h>

#include <vector>

#include "object/object_store.h"
#include "storage/buffer_pool.h"
#include "storage/disk_manager.h"
#include "storage/record_manager.h"

namespace semcc {
namespace {

void BM_PageInsert(benchmark::State& state) {
  Page page;
  page.Reset(0);
  const std::string rec(64, 'x');
  for (auto _ : state) {
    auto r = page.Insert(rec);
    if (!r.ok()) page.Reset(0);
  }
  state.SetBytesProcessed(static_cast<int64_t>(state.iterations()) * 64);
}
BENCHMARK(BM_PageInsert);

void BM_PageRead(benchmark::State& state) {
  Page page;
  page.Reset(0);
  uint16_t slot = page.Insert(std::string(64, 'x')).ValueOrDie();
  for (auto _ : state) {
    benchmark::DoNotOptimize(page.Read(slot));
  }
}
BENCHMARK(BM_PageRead);

// Each thread fetches its own resident page, so the threaded rows measure
// the pool's shared hit path (page table and pin protocol), not page latches.
void BM_BufferPoolFetchHit(benchmark::State& state) {
  static DiskManager disk;
  static BufferPool* pool = nullptr;
  static std::vector<PageId> ids;
  if (state.thread_index() == 0) {
    pool = new BufferPool(64, &disk);
    ids.clear();
    for (int t = 0; t < state.threads(); ++t) {
      ids.push_back(pool->NewPage().ValueOrDie()->page_id());
    }
  }
  // The framework starts the timed loop of every thread together, after
  // thread 0's setup above.
  for (auto _ : state) {
    auto g = pool->FetchPage(ids[static_cast<size_t>(state.thread_index())]);
    benchmark::DoNotOptimize(g);
  }
  state.SetItemsProcessed(state.iterations());
  if (state.thread_index() == 0) {
    delete pool;
    pool = nullptr;
  }
}
BENCHMARK(BM_BufferPoolFetchHit)->Threads(1)->Threads(2)->Threads(4)->UseRealTime();

void BM_BufferPoolFetchMissEvict(benchmark::State& state) {
  DiskManager disk;
  BufferPool pool(2, &disk);  // every fetch of a third page evicts
  PageId ids[3];
  for (PageId& id : ids) {
    auto g = pool.NewPage().ValueOrDie();
    id = g->page_id();
    g.MarkDirty();
  }
  int i = 0;
  for (auto _ : state) {
    auto g = pool.FetchPage(ids[i++ % 3]);
    benchmark::DoNotOptimize(g);
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_BufferPoolFetchMissEvict);

void BM_RecordInsert(benchmark::State& state) {
  DiskManager disk;
  BufferPool pool(1024, &disk);
  RecordManager rm(&pool);
  const std::string rec(32, 'r');
  for (auto _ : state) {
    benchmark::DoNotOptimize(rm.Insert(rec));
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_RecordInsert);

void BM_RecordReadUpdate(benchmark::State& state) {
  DiskManager disk;
  BufferPool pool(64, &disk);
  RecordManager rm(&pool);
  Rid rid = rm.Insert(Value(int64_t{1}).Serialize()).ValueOrDie();
  for (auto _ : state) {
    auto v = rm.Read(rid);
    benchmark::DoNotOptimize(v);
    (void)rm.Update(rid, Value(int64_t{2}).Serialize());
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_RecordReadUpdate);

void BM_ObjectStoreGetPut(benchmark::State& state) {
  DiskManager disk;
  BufferPool pool(64, &disk);
  RecordManager rm(&pool);
  Schema schema;
  ObjectStore store(&schema, &rm);
  TypeId num = schema.DefineAtomicType("Num").ValueOrDie();
  Oid a = store.CreateAtomic(num, Value(int64_t{0})).ValueOrDie();
  int64_t i = 0;
  for (auto _ : state) {
    auto v = store.Get(a);
    benchmark::DoNotOptimize(v);
    (void)store.Put(a, Value(++i));
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_ObjectStoreGetPut);

void BM_SetSelect(benchmark::State& state) {
  const int members = static_cast<int>(state.range(0));
  DiskManager disk;
  BufferPool pool(256, &disk);
  RecordManager rm(&pool);
  Schema schema;
  ObjectStore store(&schema, &rm);
  TypeId num = schema.DefineAtomicType("Num").ValueOrDie();
  TypeId elem =
      schema.DefineTupleType("E", {{"k", num}}, false).ValueOrDie();
  TypeId bag = schema.DefineSetType("Bag", elem, "k").ValueOrDie();
  Oid set = store.CreateSet(bag).ValueOrDie();
  for (int m = 0; m < members; ++m) {
    Oid k = store.CreateAtomic(num, Value(static_cast<int64_t>(m))).ValueOrDie();
    Oid e = store.CreateTuple(elem, {{"k", k}}).ValueOrDie();
    (void)store.SetInsert(set, Value(static_cast<int64_t>(m)), e);
  }
  int64_t i = 0;
  for (auto _ : state) {
    benchmark::DoNotOptimize(store.SetSelect(set, Value(i++ % members)));
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_SetSelect)->Arg(8)->Arg(256)->Arg(4096);

void BM_ValueSerializeRoundTrip(benchmark::State& state) {
  Value v("a medium sized string value");
  for (auto _ : state) {
    std::string bytes = v.Serialize();
    benchmark::DoNotOptimize(Value::Deserialize(bytes));
  }
}
BENCHMARK(BM_ValueSerializeRoundTrip);

}  // namespace
}  // namespace semcc

int main(int argc, char** argv) {
  benchmark::Initialize(&argc, argv);
  if (benchmark::ReportUnrecognizedArguments(argc, argv)) return 1;
  benchmark::AddCustomContext("semcc_build_type", SEMCC_BUILD_TYPE);
  benchmark::RunSpecifiedBenchmarks();
  benchmark::Shutdown();
  return 0;
}
