// Unit tests for the storage substrate: slotted pages, disk manager, buffer
// pool (clock replacement, dirty write-back, pin exhaustion, concurrent fills,
// the lock-free unpin), record manager.
#include <gtest/gtest.h>

#include <atomic>
#include <cstdio>
#include <cstring>
#include <string>
#include <thread>
#include <vector>

#include "storage/buffer_pool.h"
#include "storage/disk_manager.h"
#include "storage/page.h"
#include "storage/record_manager.h"

namespace semcc {
namespace {

// --- Page ---------------------------------------------------------------

TEST(Page, InsertAndRead) {
  Page p;
  p.Reset(7);
  EXPECT_EQ(p.page_id(), 7u);
  uint16_t slot = p.Insert("hello").ValueOrDie();
  EXPECT_EQ(p.Read(slot).ValueOrDie(), "hello");
  EXPECT_EQ(p.LiveRecords(), 1);
}

TEST(Page, MultipleRecordsKeepSlots) {
  Page p;
  p.Reset(0);
  std::vector<uint16_t> slots;
  for (int i = 0; i < 50; ++i) {
    slots.push_back(p.Insert("rec" + std::to_string(i)).ValueOrDie());
  }
  for (int i = 0; i < 50; ++i) {
    EXPECT_EQ(p.Read(slots[i]).ValueOrDie(), "rec" + std::to_string(i));
  }
}

TEST(Page, DeleteTombstones) {
  Page p;
  p.Reset(0);
  uint16_t a = p.Insert("a").ValueOrDie();
  uint16_t b = p.Insert("b").ValueOrDie();
  ASSERT_TRUE(p.Delete(a).ok());
  EXPECT_TRUE(p.Read(a).status().IsNotFound());
  EXPECT_EQ(p.Read(b).ValueOrDie(), "b");
  EXPECT_TRUE(p.Delete(a).IsNotFound());  // double delete
  EXPECT_EQ(p.LiveRecords(), 1);
}

TEST(Page, UpdateInPlaceAndGrow) {
  Page p;
  p.Reset(0);
  uint16_t s = p.Insert("aaaa").ValueOrDie();
  ASSERT_TRUE(p.Update(s, "bb").ok());  // shrink in place
  EXPECT_EQ(p.Read(s).ValueOrDie(), "bb");
  ASSERT_TRUE(p.Update(s, std::string(100, 'x')).ok());  // relocate
  EXPECT_EQ(p.Read(s).ValueOrDie(), std::string(100, 'x'));
}

TEST(Page, FillsUpThenRejects) {
  Page p;
  p.Reset(0);
  const std::string rec(100, 'r');
  int inserted = 0;
  while (true) {
    auto r = p.Insert(rec);
    if (!r.ok()) {
      EXPECT_TRUE(r.status().IsOutOfSpace());
      break;
    }
    inserted++;
  }
  // 4 KiB page, 104 bytes per record incl. slot entry: ~39 fit.
  EXPECT_GT(inserted, 30);
  EXPECT_LT(inserted, 45);
}

TEST(Page, CompactionReclaimsDeletedSpace) {
  Page p;
  p.Reset(0);
  std::vector<uint16_t> slots;
  const std::string rec(100, 'r');
  while (true) {
    auto r = p.Insert(rec);
    if (!r.ok()) break;
    slots.push_back(r.ValueOrDie());
  }
  // Free half the records; the holes are not contiguous.
  for (size_t i = 0; i < slots.size(); i += 2) {
    ASSERT_TRUE(p.Delete(slots[i]).ok());
  }
  // New inserts must succeed after internal compaction.
  auto r = p.Insert(std::string(200, 'n'));
  ASSERT_TRUE(r.ok()) << r.status().ToString();
  EXPECT_EQ(p.Read(r.ValueOrDie()).ValueOrDie(), std::string(200, 'n'));
  // Survivors are intact.
  for (size_t i = 1; i < slots.size(); i += 2) {
    EXPECT_EQ(p.Read(slots[i]).ValueOrDie(), rec);
  }
}

TEST(Page, RejectsOversizedRecord) {
  Page p;
  p.Reset(0);
  EXPECT_TRUE(p.Insert(std::string(kPageSize, 'x')).status().IsInvalidArgument());
}

TEST(Page, ReadInvalidSlot) {
  Page p;
  p.Reset(0);
  EXPECT_TRUE(p.Read(3).status().IsNotFound());
}

// --- DiskManager ----------------------------------------------------------

TEST(DiskManager, AllocateReadWrite) {
  DiskManager disk;
  PageId id = disk.AllocatePage();
  Page p;
  p.Reset(id);
  uint16_t slot = p.Insert("persisted").ValueOrDie();
  ASSERT_TRUE(disk.WritePage(id, p.data()).ok());
  Page q;
  ASSERT_TRUE(disk.ReadPage(id, q.data()).ok());
  EXPECT_EQ(q.Read(slot).ValueOrDie(), "persisted");
  EXPECT_EQ(disk.reads(), 1u);
  EXPECT_EQ(disk.writes(), 1u);
}

TEST(DiskManager, ReadBeyondImageFails) {
  DiskManager disk;
  Page p;
  EXPECT_TRUE(disk.ReadPage(5, p.data()).IsNotFound());
}

// --- BufferPool -------------------------------------------------------------

TEST(BufferPool, NewPageIsPinnedAndUsable) {
  DiskManager disk;
  BufferPool pool(4, &disk);
  auto guard = pool.NewPage().ValueOrDie();
  ASSERT_TRUE(guard.valid());
  uint16_t slot = guard->Insert("x").ValueOrDie();
  EXPECT_EQ(guard->Read(slot).ValueOrDie(), "x");
}

TEST(BufferPool, EvictionWritesBackDirtyPages) {
  DiskManager disk;
  BufferPool pool(2, &disk);
  PageId first;
  uint16_t slot;
  {
    auto g = pool.NewPage().ValueOrDie();
    first = g->page_id();
    slot = g->Insert("dirty data").ValueOrDie();
    g.MarkDirty();
  }
  // Evict `first` by cycling more pages than frames.
  for (int i = 0; i < 4; ++i) {
    auto g = pool.NewPage().ValueOrDie();
    g.MarkDirty();
  }
  auto g = pool.FetchPage(first).ValueOrDie();
  EXPECT_EQ(g->Read(slot).ValueOrDie(), "dirty data");
}

TEST(BufferPool, ExhaustionWhenAllPinned) {
  DiskManager disk;
  BufferPool pool(2, &disk);
  auto a = pool.NewPage().ValueOrDie();
  auto b = pool.NewPage().ValueOrDie();
  auto c = pool.NewPage();
  EXPECT_FALSE(c.ok());
  EXPECT_TRUE(c.status().IsOutOfSpace());
  a.Release();
  auto d = pool.NewPage();
  EXPECT_TRUE(d.ok());
}

TEST(BufferPool, HitsAndMissesCounted) {
  DiskManager disk;
  BufferPool pool(4, &disk);
  PageId id;
  {
    auto g = pool.NewPage().ValueOrDie();
    id = g->page_id();
    g.MarkDirty();
  }
  (void)pool.FetchPage(id).ValueOrDie();  // hit (still resident)
  EXPECT_GE(pool.hits(), 1u);
}

// Byte `i` of page `id`'s disk image in the concurrent-fill test.
char PatternByte(PageId id, size_t i) {
  return static_cast<char>((id * 131 + i * 7 + 1) & 0xff);
}

TEST(BufferPool, ConcurrentFetchesSeeFullyFilledFrames) {
  // More pages than frames, so fetches keep evicting and refilling frames
  // while other threads hit the same pages. Every fetch — hit or miss —
  // must see the whole disk image of its own page. Fetches of ids beyond
  // the disk image fail, and must leave the id unmapped: a retry fails too
  // instead of hitting an unfilled frame.
  DiskManager disk;
  constexpr PageId kPages = 24;
  constexpr PageId kUnallocated = kPages + 3;
  std::vector<char> image(kPageSize);
  for (PageId p = 0; p < kPages; ++p) {
    const PageId id = disk.AllocatePage();
    for (size_t i = 0; i < kPageSize; ++i) image[i] = PatternByte(id, i);
    ASSERT_TRUE(disk.WritePage(id, image.data()).ok());
  }
  BufferPool pool(6, &disk);
  constexpr int kThreads = 4;
  constexpr int kFetches = 3000;
  std::atomic<int> mismatches{0};
  std::atomic<int> unexpected_failures{0};
  std::atomic<int> failed_reads_served{0};
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&, t]() {
      for (int n = 0; n < kFetches; ++n) {
        if (n % 97 == 0) {
          if (pool.FetchPage(kUnallocated).ok()) ++failed_reads_served;
          continue;
        }
        const PageId id = static_cast<PageId>((n * 7 + t * 5) % kPages);
        auto g = pool.FetchPage(id);
        if (!g.ok()) {
          ++unexpected_failures;
          continue;
        }
        const Page* page = g.ValueOrDie().get();
        page->RLatch();
        for (size_t i = 0; i < kPageSize; ++i) {
          if (page->data()[i] != PatternByte(id, i)) {
            ++mismatches;
            break;
          }
        }
        page->RUnlatch();
      }
    });
  }
  for (auto& th : threads) th.join();
  EXPECT_EQ(mismatches.load(), 0);
  EXPECT_EQ(unexpected_failures.load(), 0);
  EXPECT_EQ(failed_reads_served.load(), 0);
  const uint64_t hits = pool.hits();
  EXPECT_TRUE(pool.FetchPage(kUnallocated).status().IsNotFound());
  EXPECT_EQ(pool.hits(), hits) << "failed read left the id mapped";
}

// A disk page holding one record, `rec`, in slot 0.
PageId WriteRecordPage(DiskManager* disk, const std::string& rec) {
  Page p;
  p.Reset(disk->AllocatePage());
  EXPECT_EQ(p.Insert(rec).ValueOrDie(), 0);
  EXPECT_TRUE(disk->WritePage(p.page_id(), p.data()).ok());
  return p.page_id();
}

// Fixed-width record for round `n`, so rewrites stay in place.
std::string Counter(int n) {
  char buf[16];
  std::snprintf(buf, sizeof(buf), "%08d", n);
  return buf;
}

TEST(BufferPool, PinnedFrameSurvivesEvictionPressure) {
  // One thread keeps page P pinned and rewrites it under its latch while
  // three threads cycle through more pages than frames. The clock must skip
  // P's frame: its bytes never change under the pin except by the owner.
  DiskManager disk;
  const PageId p_id = WriteRecordPage(&disk, Counter(0));
  std::vector<PageId> others;
  for (int i = 0; i < 12; ++i) others.push_back(WriteRecordPage(&disk, Counter(i)));
  BufferPool pool(5, &disk);
  constexpr int kCyclers = 3;
  constexpr int kFetches = 3000;
  std::atomic<int> cyclers_done{0};
  std::atomic<int> changed_under_pin{0};
  std::atomic<int> bad_reads{0};
  int rounds = 0;
  std::thread owner([&]() {
    auto g = pool.FetchPage(p_id).ValueOrDie();
    std::vector<char> last(g->data(), g->data() + kPageSize);
    do {
      g->WLatch();
      if (std::memcmp(g->data(), last.data(), kPageSize) != 0) ++changed_under_pin;
      EXPECT_TRUE(g->Update(0, Counter(++rounds)).ok());
      std::memcpy(last.data(), g->data(), kPageSize);
      g->WUnlatch();
      if (rounds % 16 == 0) std::this_thread::yield();
    } while (cyclers_done.load() < kCyclers);
    g.MarkDirty();
  });
  std::vector<std::thread> cyclers;
  for (int t = 0; t < kCyclers; ++t) {
    cyclers.emplace_back([&, t]() {
      for (int n = 0; n < kFetches; ++n) {
        const size_t i = static_cast<size_t>(n + t * 4) % others.size();
        auto g = pool.FetchPage(others[i]);
        if (!g.ok()) {
          ++bad_reads;
          continue;
        }
        Page* page = g.ValueOrDie().get();
        page->RLatch();
        if (page->Read(0).ValueOrDie() != Counter(static_cast<int>(i))) ++bad_reads;
        page->RUnlatch();
      }
      ++cyclers_done;
    });
  }
  for (auto& th : cyclers) th.join();
  owner.join();
  EXPECT_EQ(changed_under_pin.load(), 0);
  EXPECT_EQ(bad_reads.load(), 0);
  auto g = pool.FetchPage(p_id).ValueOrDie();
  EXPECT_EQ(g->Read(0).ValueOrDie(), Counter(rounds));
}

TEST(BufferPool, DirtyMarkFromUnpinSurvivesEviction) {
  // Each thread owns its pages and bumps a counter in them, unpinning dirty,
  // in a pool smaller than any one thread's page set, so fetches keep
  // evicting even if the threads happen to run one after another. Every
  // fetch must see the previous round's value: a dirty mark lost between the
  // lock-free Unpin and the evictor would drop the write-back and resurrect
  // an older disk image.
  DiskManager disk;
  constexpr int kThreads = 4;
  constexpr int kPagesPerThread = 6;
  constexpr int kRounds = 300;
  std::vector<std::vector<PageId>> owned(kThreads);
  for (auto& pages : owned) {
    for (int i = 0; i < kPagesPerThread; ++i) {
      pages.push_back(WriteRecordPage(&disk, Counter(0)));
    }
  }
  BufferPool pool(kThreads, &disk);  // one frame per thread
  std::atomic<int> stale{0};
  std::atomic<int> failures{0};
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&, t]() {
      for (int n = 1; n <= kRounds; ++n) {
        for (PageId id : owned[t]) {
          auto r = pool.FetchPage(id);
          if (!r.ok()) {
            ++failures;
            continue;
          }
          PageGuard g = std::move(r).ValueOrDie();
          g->WLatch();
          if (g->Read(0).ValueOrDie() != Counter(n - 1)) ++stale;
          if (!g->Update(0, Counter(n)).ok()) ++failures;
          g->WUnlatch();
          g.MarkDirty();
        }
      }
    });
  }
  for (auto& th : threads) th.join();
  EXPECT_EQ(stale.load(), 0);
  EXPECT_EQ(failures.load(), 0);
  EXPECT_GT(pool.misses(),
            static_cast<uint64_t>(kThreads * kPagesPerThread * kRounds / 2));
  for (const auto& pages : owned) {
    for (PageId id : pages) {
      auto g = pool.FetchPage(id).ValueOrDie();
      EXPECT_EQ(g->Read(0).ValueOrDie(), Counter(kRounds)) << "page " << id;
    }
  }
}

TEST(BufferPool, ClockGivesRecentlyUsedPageASecondChance) {
  // Three frames hold A, B, C; touching A again sets its reference bit, so
  // the clock passes over A and evicts B when D needs a frame.
  DiskManager disk;
  const PageId a = WriteRecordPage(&disk, "a");
  const PageId b = WriteRecordPage(&disk, "b");
  const PageId c = WriteRecordPage(&disk, "c");
  const PageId d = WriteRecordPage(&disk, "d");
  BufferPool pool(3, &disk);
  for (PageId id : {a, b, c, a, d}) ASSERT_TRUE(pool.FetchPage(id).ok());
  EXPECT_EQ(pool.misses(), 4u);
  EXPECT_EQ(pool.hits(), 1u);
  ASSERT_TRUE(pool.FetchPage(a).ok());
  EXPECT_EQ(pool.hits(), 2u) << "A was evicted despite its second chance";
  ASSERT_TRUE(pool.FetchPage(b).ok());
  EXPECT_EQ(pool.misses(), 5u) << "B should have been the victim";
}

TEST(BufferPool, FlushAllPersistsEverything) {
  DiskManager disk;
  uint16_t slot;
  PageId id;
  {
    BufferPool pool(4, &disk);
    auto g = pool.NewPage().ValueOrDie();
    id = g->page_id();
    slot = g->Insert("flushed").ValueOrDie();
    g.MarkDirty();
    g.Release();
    ASSERT_TRUE(pool.FlushAll().ok());
  }
  Page p;
  ASSERT_TRUE(disk.ReadPage(id, p.data()).ok());
  EXPECT_EQ(p.Read(slot).ValueOrDie(), "flushed");
}

// --- RecordManager ------------------------------------------------------------

struct RecordManagerTest : public ::testing::Test {
  RecordManagerTest() : pool(64, &disk), rm(&pool) {}
  DiskManager disk;
  BufferPool pool;
  RecordManager rm;
};

TEST_F(RecordManagerTest, InsertReadUpdateDelete) {
  Rid rid = rm.Insert("value-1").ValueOrDie();
  EXPECT_TRUE(rid.valid());
  EXPECT_EQ(rm.Read(rid).ValueOrDie(), "value-1");
  ASSERT_TRUE(rm.Update(rid, "value-2").ok());
  EXPECT_EQ(rm.Read(rid).ValueOrDie(), "value-2");
  ASSERT_TRUE(rm.Delete(rid).ok());
  EXPECT_TRUE(rm.Read(rid).status().IsNotFound());
}

TEST_F(RecordManagerTest, SpillsAcrossPages) {
  std::vector<Rid> rids;
  const std::string rec(500, 'z');
  for (int i = 0; i < 100; ++i) rids.push_back(rm.Insert(rec).ValueOrDie());
  // 4 KiB pages hold ~8 of these: multiple pages in play.
  EXPECT_GT(rids.back().page_id, rids.front().page_id);
  for (const Rid& rid : rids) EXPECT_EQ(rm.Read(rid).ValueOrDie(), rec);
}

TEST_F(RecordManagerTest, ClusteredInsertsShareAPage) {
  Rid a = rm.Insert("a").ValueOrDie();
  Rid b = rm.Insert("b").ValueOrDie();
  // Insertion clustering is what makes page-granularity locking contend.
  EXPECT_EQ(a.page_id, b.page_id);
}

TEST_F(RecordManagerTest, ManySmallRecords) {
  std::vector<Rid> rids;
  for (int i = 0; i < 5000; ++i) {
    rids.push_back(
        rm.Insert(std::string("r").append(std::to_string(i))).ValueOrDie());
  }
  for (int i = 0; i < 5000; i += 997) {
    EXPECT_EQ(rm.Read(rids[i]).ValueOrDie(),
              std::string("r").append(std::to_string(i)));
  }
  EXPECT_EQ(rm.num_inserts(), 5000u);
}

TEST(Rid, ToStringAndEquality) {
  Rid a{3, 4};
  Rid b{3, 4};
  Rid c{3, 5};
  EXPECT_EQ(a, b);
  EXPECT_NE(a, c);
  EXPECT_EQ(a.ToString(), "3.4");
  EXPECT_NE(RidHash()(a), RidHash()(c));
}

}  // namespace
}  // namespace semcc
