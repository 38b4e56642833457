// Tests for the durable log stack under injected faults: frame scanning
// (CRC, torn-tail truncation, mid-log refusal), the in-memory and
// file-backed log devices, the WAL's flush retry/degradation contract, and
// the group-commit shutdown/missed-wakeup fixes.
#include <fcntl.h>
#include <gtest/gtest.h>
#include <unistd.h>

#include <atomic>
#include <chrono>
#include <future>
#include <string>
#include <thread>
#include <vector>

#include "recovery/fault_injector.h"
#include "recovery/file_log_device.h"
#include "recovery/log_device.h"
#include "recovery/recovery_manager.h"
#include "recovery/wal.h"
#include "storage/posix_file.h"

namespace semcc {
namespace {

LogRecord MakeRecord(Oid object, int64_t v = 0) {
  LogRecord rec;
  rec.type = LogType::kAtomWrite;
  rec.object = object;
  rec.value = Value(v);
  return rec;
}

std::string TempDir(const char* tag) {
  std::string dir = "/tmp/semcc_wal_test_" + std::to_string(getpid()) + "_" +
                    tag;
  CleanupDirectoryForTesting(dir);
  return dir;
}

// --- frame scanning -------------------------------------------------------

TEST(LogFrame, RoundTripsFrames) {
  std::string image;
  logframe::AppendFrame(&image, "alpha");
  logframe::AppendFrame(&image, "bb");
  logframe::AppendFrame(&image, std::string(1000, 'x'));
  auto scan = logframe::ScanFrames(image);
  ASSERT_TRUE(scan.ok()) << scan.status().ToString();
  ASSERT_EQ(scan->payloads.size(), 3u);
  EXPECT_EQ(scan->payloads[0], "alpha");
  EXPECT_EQ(scan->payloads[1], "bb");
  EXPECT_EQ(scan->payloads[2], std::string(1000, 'x'));
  EXPECT_EQ(scan->valid_bytes, image.size());
  EXPECT_FALSE(scan->truncated_tail);
}

TEST(LogFrame, EveryPrefixIsATornTailAtWorst) {
  // Cut the image at every byte offset: the scan must always succeed,
  // recover exactly the fully contained frames, and report a torn tail
  // whenever the cut is not on a frame boundary.
  std::string image;
  std::vector<uint64_t> boundaries = {0};
  for (const char* p : {"first", "second-longer", "x"}) {
    logframe::AppendFrame(&image, p);
    boundaries.push_back(image.size());
  }
  for (size_t cut = 0; cut <= image.size(); ++cut) {
    auto scan = logframe::ScanFrames(std::string_view(image).substr(0, cut));
    ASSERT_TRUE(scan.ok()) << "cut=" << cut << ": " << scan.status().ToString();
    size_t contained = 0;
    uint64_t last_boundary = 0;
    for (size_t b = 1; b < boundaries.size(); ++b) {
      if (boundaries[b] <= cut) {
        contained = b;
        last_boundary = boundaries[b];
      }
    }
    EXPECT_EQ(scan->payloads.size(), contained) << "cut=" << cut;
    EXPECT_EQ(scan->valid_bytes, last_boundary) << "cut=" << cut;
    EXPECT_EQ(scan->truncated_tail, cut != last_boundary) << "cut=" << cut;
  }
}

TEST(LogFrame, CorruptLastFrameIsATornTail) {
  std::string image;
  logframe::AppendFrame(&image, "keep me");
  const uint64_t boundary = image.size();
  logframe::AppendFrame(&image, "damaged");
  image[image.size() - 3] ^= 0x5a;  // flip payload bits of the last frame
  auto scan = logframe::ScanFrames(image);
  ASSERT_TRUE(scan.ok()) << scan.status().ToString();
  ASSERT_EQ(scan->payloads.size(), 1u);
  EXPECT_EQ(scan->payloads[0], "keep me");
  EXPECT_EQ(scan->valid_bytes, boundary);
  EXPECT_TRUE(scan->truncated_tail);
}

TEST(LogFrame, MidLogCorruptionRefused) {
  // Damage in the middle with an intact frame after it cannot be a torn
  // tail; replaying around the hole would be silent data loss.
  std::string image;
  logframe::AppendFrame(&image, "first");
  logframe::AppendFrame(&image, "second");
  image[logframe::kHeaderSize + 2] ^= 0x5a;  // payload bits of frame 1
  auto scan = logframe::ScanFrames(image);
  ASSERT_FALSE(scan.ok());
  EXPECT_TRUE(scan.status().IsCorruption()) << scan.status().ToString();
}

TEST(LogFrame, ZeroFilledTailIsTorn) {
  // A block of zeros (preallocated-but-unwritten disk) is not a frame:
  // payloads are never empty, so a zero length field is torn, not valid.
  std::string image;
  logframe::AppendFrame(&image, "real");
  const uint64_t boundary = image.size();
  image.append(256, '\0');
  auto scan = logframe::ScanFrames(image);
  ASSERT_TRUE(scan.ok()) << scan.status().ToString();
  EXPECT_EQ(scan->payloads.size(), 1u);
  EXPECT_EQ(scan->valid_bytes, boundary);
  EXPECT_TRUE(scan->truncated_tail);
}

// --- in-memory device -----------------------------------------------------

TEST(InMemoryDevice, OnlySyncedBytesAreDurable) {
  InMemoryLogDevice dev;
  ASSERT_TRUE(dev.Append("abc").ok());
  EXPECT_EQ(dev.ReadDurable().ValueOrDie(), "");  // a reboot loses the cache
  ASSERT_TRUE(dev.Sync().ok());
  ASSERT_TRUE(dev.Append("def").ok());
  EXPECT_EQ(dev.ReadDurable().ValueOrDie(), "abc");
  ASSERT_TRUE(dev.Sync().ok());
  EXPECT_EQ(dev.ReadDurable().ValueOrDie(), "abcdef");
  EXPECT_EQ(dev.sync_count(), 2u);
}

// --- WAL on a device ------------------------------------------------------

TEST(WalDevice, FlushedRecordsSurviveRestart) {
  WriteAheadLog wal;
  for (int i = 0; i < 5; ++i) wal.Append(MakeRecord(static_cast<Oid>(i), i));
  ASSERT_TRUE(wal.Flush().ok());
  wal.Append(MakeRecord(99, 99));  // volatile tail: lost at the "crash"

  const std::string image = wal.device()->ReadDurable().ValueOrDie();
  WriteAheadLog wal2(std::make_unique<InMemoryLogDevice>(image));
  auto recovered = wal2.RecoverAtStartup();
  ASSERT_TRUE(recovered.ok()) << recovered.status().ToString();
  ASSERT_EQ(recovered.ValueOrDie().size(), 5u);
  for (int i = 0; i < 5; ++i) {
    EXPECT_EQ(recovered.ValueOrDie()[i].object, static_cast<Oid>(i));
    EXPECT_EQ(recovered.ValueOrDie()[i].value.AsInt(), i);
  }
  // LSN assignment continues after the recovered maximum.
  const Lsn next = wal2.Append(MakeRecord(5));
  EXPECT_GT(next, recovered.ValueOrDie().back().lsn);
}

TEST(WalDevice, RestartTruncatesTornTailOnDevice) {
  WriteAheadLog wal;
  for (int i = 0; i < 4; ++i) wal.Append(MakeRecord(static_cast<Oid>(i)));
  ASSERT_TRUE(wal.Flush().ok());
  std::string image = wal.device()->ReadDurable().ValueOrDie();
  image.resize(image.size() - 5);  // crash mid-write of the last frame

  WriteAheadLog wal2(std::make_unique<InMemoryLogDevice>(image));
  auto recovered = wal2.RecoverAtStartup();
  ASSERT_TRUE(recovered.ok()) << recovered.status().ToString();
  EXPECT_EQ(recovered.ValueOrDie().size(), 3u);
  // The device was repaired in place: the torn bytes are gone, so new
  // appends follow the last intact frame.
  EXPECT_EQ(wal2.device()->written_bytes(), wal2.stable_bytes());
  wal2.Append(MakeRecord(50));
  ASSERT_TRUE(wal2.Flush().ok());
  WriteAheadLog wal3(
      std::make_unique<InMemoryLogDevice>(
          wal2.device()->ReadDurable().ValueOrDie()));
  ASSERT_TRUE(wal3.RecoverAtStartup().ok());
  EXPECT_EQ(wal3.stable_count(), 4u);
}

TEST(WalDevice, RestartRefusesMidLogCorruption) {
  WriteAheadLog wal;
  for (int i = 0; i < 4; ++i) wal.Append(MakeRecord(static_cast<Oid>(i)));
  ASSERT_TRUE(wal.Flush().ok());
  std::string image = wal.device()->ReadDurable().ValueOrDie();
  image[logframe::kHeaderSize + 1] ^= 0x5a;  // first frame's payload

  WriteAheadLog wal2(std::make_unique<InMemoryLogDevice>(image));
  auto recovered = wal2.RecoverAtStartup();
  ASSERT_FALSE(recovered.ok());
  EXPECT_TRUE(recovered.status().IsCorruption())
      << recovered.status().ToString();
}

TEST(WalDevice, StableAndAllRecordsPropagateDecodeFailures) {
  WriteAheadLog wal;
  wal.Append(MakeRecord(1));
  wal.Append(MakeRecord(2));
  ASSERT_TRUE(wal.Flush().ok());
  ASSERT_TRUE(wal.StableRecords().ok());
  wal.CorruptRecordForTesting(0);
  auto stable = wal.StableRecords();
  ASSERT_FALSE(stable.ok());
  EXPECT_TRUE(stable.status().IsCorruption()) << stable.status().ToString();
  auto all = wal.AllRecords();
  ASSERT_FALSE(all.ok());
  EXPECT_TRUE(all.status().IsCorruption());
}

// --- fault injection ------------------------------------------------------

WalOptions FastRetryOptions(int attempts = 4) {
  WalOptions o;
  o.max_flush_attempts = attempts;
  o.flush_retry_backoff = std::chrono::microseconds(1);
  return o;
}

TEST(WalFault, TransientFsyncFailuresAreRetried) {
  auto injector = std::make_unique<FaultInjector>(
      std::make_unique<InMemoryLogDevice>());
  FaultInjector* fi = injector.get();
  WriteAheadLog wal(std::move(injector), FastRetryOptions());
  FaultPlan plan;
  plan.fail_next_syncs = 2;
  fi->SetPlan(plan);
  wal.Append(MakeRecord(1));
  ASSERT_TRUE(wal.Flush().ok());  // third attempt succeeds
  EXPECT_EQ(fi->injected_sync_failures(), 2u);
  EXPECT_TRUE(wal.health().ok());
  EXPECT_EQ(wal.stable_count(), 1u);
  // The batch was appended exactly once despite the retries.
  auto scan = logframe::ScanFrames(fi->ReadDurable().ValueOrDie());
  ASSERT_TRUE(scan.ok());
  EXPECT_EQ(scan->payloads.size(), 1u);
}

TEST(WalFault, ExhaustedRetriesDegradeToReadOnly) {
  auto injector = std::make_unique<FaultInjector>(
      std::make_unique<InMemoryLogDevice>());
  FaultInjector* fi = injector.get();
  WriteAheadLog wal(std::move(injector), FastRetryOptions(3));
  FaultPlan plan;
  plan.fail_all_syncs = true;
  fi->SetPlan(plan);
  wal.Append(MakeRecord(1));
  const Status st = wal.Flush();
  ASSERT_FALSE(st.ok());
  EXPECT_TRUE(st.IsIOError()) << st.ToString();
  EXPECT_EQ(fi->injected_sync_failures(), 3u);
  // Degraded: the failure is sticky, appends are refused, and further
  // flushes return the error without touching the device again.
  EXPECT_FALSE(wal.health().ok());
  EXPECT_EQ(wal.Append(MakeRecord(2)), kInvalidLsn);
  ASSERT_FALSE(wal.Flush().ok());
  EXPECT_EQ(fi->injected_sync_failures(), 3u);
}

TEST(WalFault, ShortWriteIsRolledBackAndRetried) {
  auto injector = std::make_unique<FaultInjector>(
      std::make_unique<InMemoryLogDevice>());
  FaultInjector* fi = injector.get();
  WriteAheadLog wal(std::move(injector), FastRetryOptions());
  wal.Append(MakeRecord(1));
  ASSERT_TRUE(wal.Flush().ok());
  FaultPlan plan;
  plan.short_write_bytes = 3;  // tear the next batch three bytes in
  fi->SetPlan(plan);
  wal.Append(MakeRecord(2));
  wal.Append(MakeRecord(3));
  ASSERT_TRUE(wal.Flush().ok());  // tear, truncate-repair, retry, succeed
  EXPECT_EQ(fi->injected_short_writes(), 1u);
  EXPECT_TRUE(wal.health().ok());
  // No torn garbage and no duplicated frames on the device.
  auto scan = logframe::ScanFrames(fi->ReadDurable().ValueOrDie());
  ASSERT_TRUE(scan.ok()) << scan.status().ToString();
  EXPECT_EQ(scan->payloads.size(), 3u);
  EXPECT_FALSE(scan->truncated_tail);
}

TEST(WalFault, PowerCutLeavesRecoverableTornPrefix) {
  auto injector = std::make_unique<FaultInjector>(
      std::make_unique<InMemoryLogDevice>());
  FaultInjector* fi = injector.get();
  WriteAheadLog wal(std::move(injector), FastRetryOptions());
  wal.Append(MakeRecord(1));
  wal.Append(MakeRecord(2));
  ASSERT_TRUE(wal.Flush().ok());
  const uint64_t stable = wal.stable_bytes();

  // Power dies 7 bytes into the next batch's device write.
  FaultPlan plan;
  plan.power_cut_after_bytes = static_cast<int64_t>(stable + 7);
  fi->SetPlan(plan);
  wal.Append(MakeRecord(3));
  ASSERT_FALSE(wal.Flush().ok());
  EXPECT_TRUE(fi->powered_off());
  EXPECT_FALSE(wal.health().ok());
  EXPECT_EQ(wal.Append(MakeRecord(4)), kInvalidLsn);

  // "Reboot": the post-crash durable image has a torn 7-byte tail.
  const std::string image = fi->ReadDurable().ValueOrDie();
  EXPECT_EQ(image.size(), stable + 7);
  WriteAheadLog wal2(std::make_unique<InMemoryLogDevice>(image));
  auto recovered = wal2.RecoverAtStartup();
  ASSERT_TRUE(recovered.ok()) << recovered.status().ToString();
  ASSERT_EQ(recovered.ValueOrDie().size(), 2u);
  EXPECT_EQ(recovered.ValueOrDie()[1].object, 2u);
}

// --- file-backed device ---------------------------------------------------

struct FileDeviceTest : public ::testing::Test {
  void SetUp() override { dir_ = TempDir("filedev"); }
  void TearDown() override { CleanupDirectoryForTesting(dir_); }
  std::string dir_;
};

TEST_F(FileDeviceTest, RotatesSegmentsAndReopens) {
  FileLogDeviceOptions fopts;
  fopts.segment_bytes = 128;  // tiny: force rotation
  size_t segments = 0;
  {
    auto device = FileLogDevice::Open(dir_, fopts);
    ASSERT_TRUE(device.ok()) << device.status().ToString();
    WriteAheadLog wal(std::move(device).ValueUnsafe(), FastRetryOptions());
    ASSERT_TRUE(wal.RecoverAtStartup().ok());
    for (int i = 0; i < 40; ++i) {
      wal.Append(MakeRecord(static_cast<Oid>(i), i));
      ASSERT_TRUE(wal.Flush().ok());
    }
    auto* fdev = static_cast<FileLogDevice*>(wal.device());
    segments = fdev->segment_count();
    EXPECT_GT(segments, 1u);
  }
  // Process restart: reopen the directory, everything is still there.
  auto device = FileLogDevice::Open(dir_, fopts);
  ASSERT_TRUE(device.ok()) << device.status().ToString();
  EXPECT_EQ(device.ValueOrDie()->segment_count(), segments);
  WriteAheadLog wal(std::move(device).ValueUnsafe(), FastRetryOptions());
  auto recovered = wal.RecoverAtStartup();
  ASSERT_TRUE(recovered.ok()) << recovered.status().ToString();
  ASSERT_EQ(recovered.ValueOrDie().size(), 40u);
  for (int i = 0; i < 40; ++i) {
    EXPECT_EQ(recovered.ValueOrDie()[i].value.AsInt(), i);
  }
}

TEST_F(FileDeviceTest, TruncateRepairsAcrossSegments) {
  FileLogDeviceOptions fopts;
  fopts.segment_bytes = 64;
  auto device = FileLogDevice::Open(dir_, fopts);
  ASSERT_TRUE(device.ok());
  FileLogDevice* dev = device.ValueOrDie().get();
  const std::string chunk(48, 'a');
  for (int i = 0; i < 6; ++i) {
    ASSERT_TRUE(dev->Append(chunk).ok());
    ASSERT_TRUE(dev->Sync().ok());
  }
  ASSERT_GT(dev->segment_count(), 1u);
  // Truncate back into the first segment: later segments must vanish both
  // from the image and from the directory.
  ASSERT_TRUE(dev->Truncate(10).ok());
  EXPECT_EQ(dev->written_bytes(), 10u);
  EXPECT_EQ(dev->ReadDurable().ValueOrDie(), chunk.substr(0, 10));
  ASSERT_TRUE(dev->Append("zz").ok());
  ASSERT_TRUE(dev->Sync().ok());
  EXPECT_EQ(dev->ReadDurable().ValueOrDie(), chunk.substr(0, 10) + "zz");
  auto names = ListDirectory(dir_);
  ASSERT_TRUE(names.ok());
  EXPECT_EQ(names.ValueOrDie().size(), 1u);
}

TEST_F(FileDeviceTest, TornTailOnDiskIsTruncatedAtRestart) {
  // A crash mid-append left half a frame at the segment file's physical
  // end, past its zero padding (an append that crosses the padded extent
  // grows the file). Recovery must drop it and scrub it on disk without
  // growing the file; the torn overwrite inside the padding is covered
  // below.
  const std::string path = dir_ + "/wal-000001.log";
  uint64_t stable = 0;
  {
    auto device = FileLogDevice::Open(dir_, {});
    ASSERT_TRUE(device.ok());
    WriteAheadLog wal(std::move(device).ValueUnsafe(), FastRetryOptions());
    ASSERT_TRUE(wal.RecoverAtStartup().ok());
    wal.Append(MakeRecord(1));
    wal.Append(MakeRecord(2));
    ASSERT_TRUE(wal.Flush().ok());
    stable = wal.stable_bytes();
  }
  // Crash left half a frame on disk.
  {
    PosixWritableFile f;
    ASSERT_TRUE(f.Open(path).ok());
    ASSERT_TRUE(f.Append("\x40\x00\x00\x00torn", 8).ok());
    ASSERT_TRUE(f.Sync().ok());
  }
  const uint64_t torn_extent = FileSize(path).ValueOrDie();
  auto device = FileLogDevice::Open(dir_, {});
  ASSERT_TRUE(device.ok());
  WriteAheadLog wal(std::move(device).ValueUnsafe(), FastRetryOptions());
  auto recovered = wal.RecoverAtStartup();
  ASSERT_TRUE(recovered.ok()) << recovered.status().ToString();
  EXPECT_EQ(recovered.ValueOrDie().size(), 2u);
  EXPECT_EQ(wal.stable_bytes(), stable);
  // The file itself was repaired: the same extent, with every byte past the
  // valid frames (the torn half-frame included) back to zeros.
  std::string content;
  ASSERT_TRUE(ReadFileToString(path, &content).ok());
  EXPECT_EQ(content.size(), torn_extent);
  EXPECT_EQ(content.find_first_not_of('\0', stable), std::string::npos);
}

TEST_F(FileDeviceTest, TornOverwriteInPreallocatedSegmentIsRepaired) {
  // With preallocation (the default), appends overwrite zero padding in
  // place, so a crash mid-append tears the frame at the *logical* end with
  // megabytes of padding after it. Recovery must drop the torn bytes, keep
  // the padding contract intact, and be idempotent across a second restart.
  uint64_t stable = 0;
  {
    auto device = FileLogDevice::Open(dir_, {});
    ASSERT_TRUE(device.ok());
    WriteAheadLog wal(std::move(device).ValueUnsafe(), FastRetryOptions());
    ASSERT_TRUE(wal.RecoverAtStartup().ok());
    wal.Append(MakeRecord(1));
    wal.Append(MakeRecord(2));
    ASSERT_TRUE(wal.Flush().ok());
    stable = wal.stable_bytes();
  }
  // Simulate the torn in-place overwrite: half a frame at the logical end,
  // zeros beyond it (PosixWritableFile only appends, so go through pwrite).
  {
    const std::string path = dir_ + "/wal-000001.log";
    const int fd = ::open(path.c_str(), O_WRONLY);
    ASSERT_GE(fd, 0);
    ASSERT_EQ(::pwrite(fd, "\x40\x00\x00\x00torn", 8,
                       static_cast<off_t>(stable)),
              8);
    ASSERT_EQ(::fsync(fd), 0);
    ::close(fd);
  }
  for (int restart = 0; restart < 2; ++restart) {
    auto device = FileLogDevice::Open(dir_, {});
    ASSERT_TRUE(device.ok());
    WriteAheadLog wal(std::move(device).ValueUnsafe(), FastRetryOptions());
    auto recovered = wal.RecoverAtStartup();
    ASSERT_TRUE(recovered.ok())
        << "restart " << restart << ": " << recovered.status().ToString();
    EXPECT_EQ(recovered.ValueOrDie().size(), 2u) << "restart " << restart;
    EXPECT_EQ(wal.stable_bytes(), stable) << "restart " << restart;
    // The logical image holds exactly the valid frames...
    auto image = wal.device()->ReadDurable();
    ASSERT_TRUE(image.ok());
    EXPECT_EQ(image.ValueOrDie().size(), stable) << "restart " << restart;
    // ...and the segment on disk is re-padded, with the torn bytes scrubbed
    // back to zeros so they cannot resurface as a fake tail later.
    EXPECT_EQ(FileSize(dir_ + "/wal-000001.log").ValueOrDie(), 4u << 20)
        << "restart " << restart;
    // The repaired log accepts new appends that land where the tear was.
    if (restart == 1) {
      wal.Append(MakeRecord(3));
      ASSERT_TRUE(wal.Flush().ok());
      EXPECT_GT(wal.stable_bytes(), stable);
    }
  }
}

TEST_F(FileDeviceTest, SegmentGapRefused) {
  FileLogDeviceOptions fopts;
  fopts.segment_bytes = 32;
  {
    auto device = FileLogDevice::Open(dir_, fopts);
    ASSERT_TRUE(device.ok());
    FileLogDevice* dev = device.ValueOrDie().get();
    for (int i = 0; i < 4; ++i) {
      // Over the threshold: every append lands in a fresh segment.
      ASSERT_TRUE(dev->Append(std::string(33, 'x')).ok());
      ASSERT_TRUE(dev->Sync().ok());
    }
    ASSERT_GE(dev->segment_count(), 3u);
  }
  ASSERT_TRUE(RemoveFile(dir_ + "/wal-000002.log").ok());
  auto device = FileLogDevice::Open(dir_, fopts);
  ASSERT_FALSE(device.ok());
  EXPECT_TRUE(device.status().IsCorruption()) << device.status().ToString();
}

// --- group commit ---------------------------------------------------------

TEST(GroupCommit, ShutdownDrainsPendingCommits) {
  // A commit request that no pool thread has claimed when Shutdown() stops
  // the pool must be flushed out (or failed) — never left asleep. The slow
  // device keeps commit 1's batch syncing while the pool is told to stop;
  // commit 2 is appended after that batch's last chance to absorb it, so
  // only the drain can make it stable.
  WriteAheadLog wal(/*flush_micros=*/200000);
  RecoveryOptions opts;
  opts.group_commit = true;
  RecoveryManager manager(&wal, opts);
  // OnTxnCommit blocks in MakeStable until its record is stable or failed.
  auto first = std::async(std::launch::async, [&]() { manager.OnTxnCommit(1); });
  while (wal.inflight_batches() == 0) {
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  auto shutdown = std::async(std::launch::async, [&]() { manager.Shutdown(); });
  // Let the idle pool thread see the stop request before commit 2 arrives.
  std::this_thread::sleep_for(std::chrono::milliseconds(10));
  auto second = std::async(std::launch::async, [&]() { manager.OnTxnCommit(2); });
  while (wal.total_count() < 2) {
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  ASSERT_LT(wal.stable_count(), 2u) << "nothing left to drain";
  for (std::future<void>* f : {&first, &second, &shutdown}) {
    ASSERT_EQ(f->wait_for(std::chrono::seconds(10)), std::future_status::ready)
        << "committer or shutdown stranded";
  }
  // Drained, not dropped: both commit records are stable.
  EXPECT_EQ(wal.stable_count(), 2u);
  EXPECT_TRUE(manager.health().ok()) << manager.health().ToString();
}

TEST(GroupCommit, RequestDuringInFlightFlushIsNotLost) {
  // The second commit arrives while the flusher is inside wal_->Flush()
  // (the device sync takes 20ms). With the old boolean pending flag the
  // flusher's post-flush reset wiped that request and the second committer
  // waited forever; the requested-LSN watermark keeps it visible.
  WriteAheadLog wal(/*flush_micros=*/20000);
  RecoveryOptions opts;
  opts.group_commit = true;
  RecoveryManager manager(&wal, opts);
  auto first = std::async(std::launch::async, [&]() { manager.OnTxnCommit(1); });
  std::this_thread::sleep_for(std::chrono::milliseconds(5));  // mid-flush
  auto second = std::async(std::launch::async, [&]() { manager.OnTxnCommit(2); });
  ASSERT_EQ(first.wait_for(std::chrono::seconds(10)),
            std::future_status::ready);
  ASSERT_EQ(second.wait_for(std::chrono::seconds(10)),
            std::future_status::ready)
      << "second committer lost its wakeup";
  EXPECT_EQ(wal.stable_count(), 2u);
  manager.Shutdown();
}

TEST(GroupCommit, FlushFailureFailsWaitersInsteadOfHanging) {
  auto injector = std::make_unique<FaultInjector>(
      std::make_unique<InMemoryLogDevice>());
  FaultInjector* fi = injector.get();
  WriteAheadLog wal(std::move(injector), FastRetryOptions(2));
  FaultPlan plan;
  plan.fail_all_syncs = true;
  fi->SetPlan(plan);
  RecoveryOptions opts;
  opts.group_commit = true;
  RecoveryManager manager(&wal, opts);
  auto commit = std::async(std::launch::async, [&]() { manager.OnTxnCommit(1); });
  ASSERT_EQ(commit.wait_for(std::chrono::seconds(10)),
            std::future_status::ready)
      << "committer hung on a dead device";
  EXPECT_FALSE(manager.health().ok());
  // Later commits observe the failure immediately instead of blocking.
  manager.OnTxnCommit(2);
  EXPECT_FALSE(manager.health().ok());
  manager.Shutdown();
}

TEST(GroupCommit, ForceModeSurfacesWalFailure) {
  auto injector = std::make_unique<FaultInjector>(
      std::make_unique<InMemoryLogDevice>());
  FaultInjector* fi = injector.get();
  WriteAheadLog wal(std::move(injector), FastRetryOptions(2));
  FaultPlan plan;
  plan.fail_all_syncs = true;
  fi->SetPlan(plan);
  RecoveryManager manager(&wal, RecoveryOptions());  // force-per-commit
  EXPECT_TRUE(manager.health().ok());
  manager.OnTxnCommit(1);
  EXPECT_FALSE(manager.health().ok());
}

// --- pipelined flush (PR 8) -----------------------------------------------

TEST(WalPipeline, ConcurrentFlushToKeepsFrameOrder) {
  // Many threads racing Append+FlushTo drive the depth-2 device pipeline
  // hard; whatever interleaving happens, the frames on the device must be
  // in LSN order with no gaps (the turn-ordered device section is the only
  // thing enforcing this).
  WriteAheadLog wal(std::make_unique<InMemoryLogDevice>(/*sync_micros=*/50));
  constexpr int kThreads = 4;
  constexpr int kPerThread = 50;
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&wal, t]() {
      for (int i = 0; i < kPerThread; ++i) {
        const Lsn lsn = wal.Append(MakeRecord(1 + t, i));
        ASSERT_NE(lsn, kInvalidLsn);
        ASSERT_TRUE(wal.FlushTo(lsn).ok());
      }
    });
  }
  for (auto& th : threads) th.join();
  EXPECT_TRUE(wal.health().ok());
  EXPECT_EQ(wal.stable_count(), size_t{kThreads * kPerThread});
  // StableRecords re-reads the durable image; ascending LSNs there prove
  // no pipelined batch overtook an earlier one on the device.
  auto stable = wal.StableRecords();
  ASSERT_TRUE(stable.ok()) << stable.status().ToString();
  ASSERT_EQ(stable->size(), size_t{kThreads * kPerThread});
  for (size_t i = 0; i < stable->size(); ++i) {
    EXPECT_EQ((*stable)[i].lsn, static_cast<Lsn>(i + 1));
  }
}

TEST(WalPipeline, RetrySleepDoesNotBlockStableReaders) {
  // Regression test: the retry backoff used to sleep while holding the
  // device mutex, so even a FlushTo whose target was already stable (which
  // never needs the device) queued up behind the sleeping flusher. The
  // backoff now waits on the device condvar with the lock released.
  auto injector = std::make_unique<FaultInjector>(
      std::make_unique<InMemoryLogDevice>());
  FaultInjector* fi = injector.get();
  WalOptions wopts;
  wopts.max_flush_attempts = 2;
  wopts.flush_retry_backoff = std::chrono::milliseconds(300);
  WriteAheadLog wal(std::move(injector), wopts);
  const Lsn first = wal.Append(MakeRecord(1));
  ASSERT_TRUE(wal.Flush().ok());

  FaultPlan plan;
  plan.fail_next_syncs = 1;
  fi->SetPlan(plan);
  wal.Append(MakeRecord(2));
  auto flush = std::async(std::launch::async, [&]() { return wal.Flush(); });
  // Wait until the flusher has taken its first failure and entered backoff.
  for (int i = 0; i < 10000 && fi->injected_sync_failures() < 1; ++i) {
    std::this_thread::sleep_for(std::chrono::microseconds(100));
  }
  ASSERT_EQ(fi->injected_sync_failures(), 1u);

  const auto start = std::chrono::steady_clock::now();
  EXPECT_TRUE(wal.FlushTo(first).ok());  // already stable: no device needed
  (void)wal.stats();                     // stats path must not block either
  const auto elapsed = std::chrono::steady_clock::now() - start;
  EXPECT_LT(elapsed, std::chrono::milliseconds(150))
      << "stable-target FlushTo blocked behind the retry backoff";

  ASSERT_EQ(flush.wait_for(std::chrono::seconds(10)),
            std::future_status::ready);
  EXPECT_TRUE(flush.get().ok());
  EXPECT_TRUE(wal.health().ok());
  EXPECT_EQ(wal.stable_count(), 2u);
}

TEST(GroupCommit, FlusherPoolDeathFailsWaiters) {
  // With the whole flusher pool hitting a dead device, parked committers
  // must be failed, not stranded.
  auto injector = std::make_unique<FaultInjector>(
      std::make_unique<InMemoryLogDevice>());
  FaultInjector* fi = injector.get();
  WriteAheadLog wal(std::move(injector), FastRetryOptions(2));
  FaultPlan plan;
  plan.fail_all_syncs = true;
  fi->SetPlan(plan);
  RecoveryOptions opts;
  opts.group_commit = true;
  RecoveryManager manager(&wal, opts);
  std::vector<std::future<void>> commits;
  for (TxnId txn = 1; txn <= 4; ++txn) {
    commits.push_back(std::async(std::launch::async,
                                 [&manager, txn]() { manager.OnTxnCommit(txn); }));
  }
  for (auto& c : commits) {
    ASSERT_EQ(c.wait_for(std::chrono::seconds(10)), std::future_status::ready)
        << "committer hung on a dead flusher pool";
  }
  EXPECT_FALSE(manager.health().ok());
  manager.Shutdown();
}

TEST(GroupCommit, TransientEioMidPipelineRecovers) {
  // A transient fsync EIO injected while the two-deep pipeline is busy must
  // be absorbed by the retry loop: every commit completes, health stays OK,
  // and nothing is lost.
  auto injector = std::make_unique<FaultInjector>(
      std::make_unique<InMemoryLogDevice>(/*sync_micros=*/20));
  FaultInjector* fi = injector.get();
  WriteAheadLog wal(std::move(injector), FastRetryOptions(4));
  RecoveryOptions opts;
  opts.group_commit = true;
  RecoveryManager manager(&wal, opts);
  constexpr int kThreads = 4;
  constexpr int kPerThread = 25;
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&manager, fi, t]() {
      for (int i = 0; i < kPerThread; ++i) {
        if (t == 0 && i == kPerThread / 2) {
          FaultPlan plan;
          plan.fail_next_syncs = 2;
          fi->SetPlan(plan);
        }
        manager.OnTxnCommit(static_cast<TxnId>(1 + t * kPerThread + i));
      }
    });
  }
  for (auto& th : threads) th.join();
  manager.Shutdown();
  EXPECT_TRUE(manager.health().ok());
  EXPECT_TRUE(wal.health().ok());
  EXPECT_EQ(wal.stable_count(), size_t{kThreads * kPerThread});
}

// --- checkpoint truncation (PR 8) -----------------------------------------

TEST(WalCheckpoint, TruncateCheckpointedDropsStablePrefix) {
  WriteAheadLog wal(std::make_unique<InMemoryLogDevice>());
  for (int i = 1; i <= 10; ++i) wal.Append(MakeRecord(static_cast<Oid>(i)));
  ASSERT_TRUE(wal.Flush().ok());
  const uint64_t bytes_before = wal.device()->written_bytes();

  auto dropped = wal.TruncateCheckpointed(/*up_to=*/6);
  ASSERT_TRUE(dropped.ok()) << dropped.status().ToString();
  EXPECT_EQ(dropped.ValueOrDie(), 5u);  // LSNs 1..5
  EXPECT_EQ(wal.retained_count(), 5u);
  EXPECT_EQ(wal.truncated_count(), 5u);
  EXPECT_EQ(wal.stable_count(), 10u);  // logical counters stay monotonic
  EXPECT_EQ(wal.total_count(), 10u);
  EXPECT_EQ(wal.stable_lsn(), 10u);
  EXPECT_LT(wal.device()->written_bytes(), bytes_before);

  auto stable = wal.StableRecords();
  ASSERT_TRUE(stable.ok()) << stable.status().ToString();
  ASSERT_EQ(stable->size(), 5u);
  for (size_t i = 0; i < stable->size(); ++i) {
    EXPECT_EQ((*stable)[i].lsn, static_cast<Lsn>(6 + i));
  }
  // Idempotent: the prefix is gone, a second call drops nothing.
  auto again = wal.TruncateCheckpointed(6);
  ASSERT_TRUE(again.ok());
  EXPECT_EQ(again.ValueOrDie(), 0u);
}

TEST(WalCheckpoint, TruncateOnlyCoversStableRecords) {
  // Unflushed records are never truncated, even when their LSN is below the
  // checkpoint bound: only the durable prefix is eligible.
  WriteAheadLog wal(std::make_unique<InMemoryLogDevice>());
  for (int i = 1; i <= 3; ++i) wal.Append(MakeRecord(static_cast<Oid>(i)));
  ASSERT_TRUE(wal.Flush().ok());
  wal.Append(MakeRecord(4));
  wal.Append(MakeRecord(5));

  auto dropped = wal.TruncateCheckpointed(/*up_to=*/100);
  ASSERT_TRUE(dropped.ok()) << dropped.status().ToString();
  EXPECT_EQ(dropped.ValueOrDie(), 3u);
  EXPECT_EQ(wal.retained_count(), 2u);
  ASSERT_TRUE(wal.Flush().ok());
  auto stable = wal.StableRecords();
  ASSERT_TRUE(stable.ok()) << stable.status().ToString();
  ASSERT_EQ(stable->size(), 2u);
  EXPECT_EQ((*stable)[0].lsn, 4u);
  EXPECT_EQ((*stable)[1].lsn, 5u);
}

TEST(WalCheckpoint, FileDeviceDropsWholeSegmentsAndSurvivesReopen) {
  const std::string dir = TempDir("ckpt_drop");
  FileLogDeviceOptions fopts;
  fopts.segment_bytes = 64;  // rotate roughly every record
  {
    auto device = FileLogDevice::Open(dir, fopts);
    ASSERT_TRUE(device.ok()) << device.status().ToString();
    WriteAheadLog wal(std::move(device).ValueUnsafe(), FastRetryOptions());
    for (int i = 1; i <= 8; ++i) {
      wal.Append(MakeRecord(static_cast<Oid>(i), i));
      ASSERT_TRUE(wal.Flush().ok());  // flush per record to force rotation
    }
    const auto names_before = ListDirectory(dir);
    ASSERT_TRUE(names_before.ok());
    auto dropped = wal.TruncateCheckpointed(/*up_to=*/6);
    ASSERT_TRUE(dropped.ok()) << dropped.status().ToString();
    EXPECT_EQ(dropped.ValueOrDie(), 5u);
    const auto names_after = ListDirectory(dir);
    ASSERT_TRUE(names_after.ok());
    EXPECT_LT(names_after->size(), names_before->size())
        << "no segment files were unlinked";
  }
  // Reopen: the device accepts a first segment index > 1 and recovery sees
  // a contiguous record suffix ending at the last LSN. Whole-segment
  // granularity may retain a few records below the truncation point; what
  // matters is that nothing at or above it is missing.
  auto device = FileLogDevice::Open(dir, fopts);
  ASSERT_TRUE(device.ok()) << device.status().ToString();
  WriteAheadLog wal(std::move(device).ValueUnsafe(), FastRetryOptions());
  auto recovered = wal.RecoverAtStartup();
  ASSERT_TRUE(recovered.ok()) << recovered.status().ToString();
  ASSERT_FALSE(recovered->empty());
  EXPECT_EQ(recovered->back().lsn, 8u);
  EXPECT_LE(recovered->front().lsn, 6u);
  for (size_t i = 1; i < recovered->size(); ++i) {
    EXPECT_EQ((*recovered)[i].lsn, (*recovered)[i - 1].lsn + 1);
  }
  CleanupDirectoryForTesting(dir);
}

TEST(WalCheckpoint, TruncateRacingFlushesKeepsEverySuffixRecord) {
  // Truncation must drain the pipeline and block new claims without losing
  // records that commit concurrently with it.
  WriteAheadLog wal(std::make_unique<InMemoryLogDevice>(/*sync_micros=*/20));
  std::atomic<bool> stop{false};
  std::atomic<Lsn> last{0};
  std::thread writer([&]() {
    while (!stop.load()) {
      const Lsn lsn = wal.Append(MakeRecord(7));
      if (lsn == kInvalidLsn) break;
      if (!wal.FlushTo(lsn).ok()) break;
      last.store(lsn);
    }
  });
  size_t total_dropped = 0;
  for (int round = 0; round < 5; ++round) {
    std::this_thread::sleep_for(std::chrono::milliseconds(5));
    const Lsn bound = last.load();
    if (bound == 0) continue;
    auto dropped = wal.TruncateCheckpointed(bound);
    ASSERT_TRUE(dropped.ok()) << dropped.status().ToString();
    total_dropped += dropped.ValueOrDie();
  }
  stop.store(true);
  writer.join();
  EXPECT_TRUE(wal.health().ok());
  EXPECT_GT(total_dropped, 0u);
  auto stable = wal.StableRecords();
  ASSERT_TRUE(stable.ok()) << stable.status().ToString();
  ASSERT_EQ(stable->size(), wal.retained_count());
  EXPECT_EQ(wal.stable_count(), wal.truncated_count() + stable->size());
  if (!stable->empty()) {
    EXPECT_EQ(stable->back().lsn, wal.stable_lsn());
    for (size_t i = 1; i < stable->size(); ++i) {
      EXPECT_EQ((*stable)[i].lsn, (*stable)[i - 1].lsn + 1);
    }
  }
}

}  // namespace
}  // namespace semcc
