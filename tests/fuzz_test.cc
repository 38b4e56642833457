// Reference-model fuzz tests: random operation sequences against simple
// in-memory models, parameterized over seeds (TEST_P sweeps).
#include <gtest/gtest.h>

#include <map>
#include <optional>
#include <string>

#include "object/object_store.h"
#include "storage/buffer_pool.h"
#include "storage/page.h"
#include "storage/record_manager.h"
#include "test_env.h"
#include "util/random.h"

namespace semcc {
namespace {

class SeededFuzz : public ::testing::TestWithParam<uint64_t> {};

// --- Page vs. map<slot, string> -----------------------------------------

TEST_P(SeededFuzz, PageMatchesReferenceModel) {
  Random rng(GetParam());
  Page page;
  page.Reset(1);
  std::map<uint16_t, std::string> model;
  const int steps = test_env::IterCount("SEMCC_FUZZ_ITERS", 4000);
  for (int step = 0; step < steps; ++step) {
    const uint64_t op = rng.Uniform(100);
    if (op < 40) {  // insert
      std::string rec(rng.Uniform(120) + 1, static_cast<char>('a' + rng.Uniform(26)));
      auto slot = page.Insert(rec);
      if (slot.ok()) {
        model[slot.ValueOrDie()] = rec;
      } else {
        EXPECT_TRUE(slot.status().IsOutOfSpace());
      }
    } else if (op < 60 && !model.empty()) {  // update
      auto it = model.begin();
      std::advance(it, rng.Uniform(model.size()));
      std::string rec(rng.Uniform(150) + 1, static_cast<char>('A' + rng.Uniform(26)));
      Status st = page.Update(it->first, rec);
      if (st.ok()) {
        it->second = rec;
      } else {
        // Grow-updates that do not fit fail non-destructively.
        EXPECT_TRUE(st.IsOutOfSpace()) << st.ToString();
        auto read = page.Read(it->first);
        ASSERT_TRUE(read.ok());
        EXPECT_EQ(read.ValueOrDie(), it->second);
      }
    } else if (op < 75 && !model.empty()) {  // delete
      auto it = model.begin();
      std::advance(it, rng.Uniform(model.size()));
      EXPECT_TRUE(page.Delete(it->first).ok());
      model.erase(it);
    } else if (!model.empty()) {  // read random live slot
      auto it = model.begin();
      std::advance(it, rng.Uniform(model.size()));
      auto read = page.Read(it->first);
      ASSERT_TRUE(read.ok());
      EXPECT_EQ(read.ValueOrDie(), it->second);
    }
  }
  EXPECT_EQ(page.LiveRecords(), model.size());
  for (const auto& [slot, rec] : model) {
    EXPECT_EQ(page.Read(slot).ValueOrDie(), rec);
  }
}

// --- RecordManager vs. map<rid, string>, under a tiny buffer pool ---------

TEST_P(SeededFuzz, RecordManagerMatchesReferenceModel) {
  Random rng(GetParam() ^ 0xabcdef);
  DiskManager disk;
  BufferPool pool(3, &disk);  // tiny: constant eviction pressure
  RecordManager rm(&pool);
  std::map<std::string, std::string> model;  // key = rid string
  std::map<std::string, Rid> rids;
  const int steps = test_env::IterCount("SEMCC_FUZZ_ITERS", 3000);
  for (int step = 0; step < steps; ++step) {
    const uint64_t op = rng.Uniform(100);
    if (op < 45) {
      std::string rec =
          std::string("v").append(std::to_string(rng.Next() % 100000));
      Rid rid = rm.Insert(rec).ValueOrDie();
      model[rid.ToString()] = rec;
      rids[rid.ToString()] = rid;
    } else if (op < 65 && !model.empty()) {
      auto it = model.begin();
      std::advance(it, rng.Uniform(model.size()));
      std::string rec =
          std::string("u").append(std::to_string(rng.Next() % 100000));
      ASSERT_TRUE(rm.Update(rids[it->first], rec).ok());
      it->second = rec;
    } else if (op < 75 && !model.empty()) {
      auto it = model.begin();
      std::advance(it, rng.Uniform(model.size()));
      ASSERT_TRUE(rm.Delete(rids[it->first]).ok());
      rids.erase(it->first);
      model.erase(it);
    } else if (!model.empty()) {
      auto it = model.begin();
      std::advance(it, rng.Uniform(model.size()));
      EXPECT_EQ(rm.Read(rids[it->first]).ValueOrDie(), it->second);
    }
  }
  for (const auto& [key, rec] : model) {
    EXPECT_EQ(rm.Read(rids[key]).ValueOrDie(), rec);
  }
}

// --- ObjectStore sets vs. map<key, oid> -------------------------------------

TEST_P(SeededFuzz, SetOperationsMatchReferenceModel) {
  Random rng(GetParam() ^ 0x5e75);
  DiskManager disk;
  BufferPool pool(128, &disk);
  RecordManager rm(&pool);
  Schema schema;
  ObjectStore store(&schema, &rm);
  TypeId num = schema.DefineAtomicType("N").ValueOrDie();
  TypeId bag = schema.DefineSetType("Bag", num, "k").ValueOrDie();
  Oid set = store.CreateSet(bag).ValueOrDie();
  std::map<int64_t, Oid> model;
  const int steps = test_env::IterCount("SEMCC_FUZZ_ITERS", 3000);
  for (int step = 0; step < steps; ++step) {
    const int64_t key = static_cast<int64_t>(rng.Uniform(64));
    const uint64_t op = rng.Uniform(100);
    if (op < 40) {
      Oid member = store.CreateAtomic(num, Value(key)).ValueOrDie();
      Status st = store.SetInsert(set, Value(key), member);
      if (model.count(key) > 0) {
        EXPECT_TRUE(st.IsAlreadyExists());
      } else {
        ASSERT_TRUE(st.ok());
        model[key] = member;
      }
    } else if (op < 65) {
      Status st = store.SetRemove(set, Value(key));
      if (model.count(key) > 0) {
        ASSERT_TRUE(st.ok());
        model.erase(key);
      } else {
        EXPECT_TRUE(st.IsNotFound());
      }
    } else if (op < 90) {
      auto r = store.SetSelect(set, Value(key));
      if (model.count(key) > 0) {
        EXPECT_EQ(r.ValueOrDie(), model[key]);
      } else {
        EXPECT_TRUE(r.status().IsNotFound());
      }
    } else {
      EXPECT_EQ(store.SetSize(set).ValueOrDie(), model.size());
      auto scan = store.SetScan(set).ValueOrDie();
      ASSERT_EQ(scan.size(), model.size());
      auto mit = model.begin();
      for (const auto& [k, v] : scan) {
        EXPECT_EQ(k.AsInt(), mit->first);
        EXPECT_EQ(v, mit->second);
        ++mit;
      }
    }
  }
}

// --- Value codec fuzz ---------------------------------------------------------

TEST_P(SeededFuzz, ValueCodecRoundTripsRandomValues) {
  Random rng(GetParam() ^ 0xc0dec);
  const int steps = test_env::IterCount("SEMCC_FUZZ_ITERS", 2000);
  for (int i = 0; i < steps; ++i) {
    Value v;
    switch (rng.Uniform(6)) {
      case 0:
        v = Value();
        break;
      case 1:
        v = Value(rng.Bernoulli(0.5));
        break;
      case 2:
        v = Value(static_cast<int64_t>(rng.Next()));
        break;
      case 3:
        v = Value(rng.NextDouble() * 1e9 - 5e8);
        break;
      case 4: {
        std::string s(rng.Uniform(64), 'x');
        for (char& c : s) c = static_cast<char>(rng.Uniform(256));
        v = Value(s);
        break;
      }
      case 5:
        v = Value::Ref(rng.Next());
        break;
    }
    auto back = Value::Deserialize(v.Serialize());
    ASSERT_TRUE(back.ok());
    EXPECT_EQ(back.ValueOrDie(), v);
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, SeededFuzz,
                         ::testing::Values(1, 2, 3, 5, 8, 13, 21, 34));

}  // namespace
}  // namespace semcc
