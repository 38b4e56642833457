// BufferPool: fixed set of in-memory frames over the DiskManager with clock
// (second-chance) eviction and pin counting.
#ifndef SEMCC_STORAGE_BUFFER_POOL_H_
#define SEMCC_STORAGE_BUFFER_POOL_H_

#include <atomic>
#include <cstdint>
#include <memory>
#include <unordered_map>
#include <vector>

#include "storage/disk_manager.h"
#include "storage/page.h"
#include "util/annotations.h"
#include "util/macros.h"
#include "util/result.h"

namespace semcc {

/// \brief RAII pin on a buffered page. Unpins (and marks dirty, if requested)
/// on destruction.
class PageGuard;

/// \brief Buffer pool with clock replacement.
///
/// Thread safety: all public methods are thread-safe. Content access still
/// requires the page latch (Page::RLatch/WLatch), which PageGuard exposes.
/// Pins rise only under mu_; Unpin is a lock-free release decrement that the
/// evictor's acquire load of a zero pin count pairs with.
class BufferPool {
 public:
  BufferPool(size_t pool_size, DiskManager* disk);
  ~BufferPool();
  SEMCC_DISALLOW_COPY_AND_ASSIGN(BufferPool);

  /// Allocate a brand-new page, pinned.
  Result<PageGuard> NewPage();

  /// Fetch (possibly from disk), pinned.
  Result<PageGuard> FetchPage(PageId id);

  /// Write all dirty pages back.
  Status FlushAll();

  uint64_t hits() const { MutexLock guard(mu_); return hits_; }
  uint64_t misses() const { MutexLock guard(mu_); return misses_; }
  size_t pool_size() const { return frames_.size(); }

 private:
  friend class PageGuard;

  struct Frame {
    Page page;
    PageId disk_id = kInvalidPageId;
    std::atomic<int> pin_count{0};
    std::atomic<bool> dirty{false};
    bool ref = false;  // second-chance bit
  };

  void Unpin(size_t frame_idx, bool dirty);

  /// Clock sweep: the first unpinned frame whose ref bit is already clear.
  Result<size_t> FindVictim() SEMCC_REQUIRES(mu_);

  /// Find a frame for `id`: hit, free frame, or clock eviction. Returns the
  /// frame index with pin_count already incremented. On a miss the frame is
  /// filled — read from disk if `load`, else reset to an empty page — before
  /// `id` is published in the page table, all under mu_, so a concurrent hit
  /// never sees a half-filled frame and a failed read leaves `id` unmapped.
  Result<size_t> Pin(PageId id, bool load) SEMCC_EXCLUDES(mu_);

  DiskManager* const disk_;
  mutable Mutex mu_;
  /// Frame slots are allocated once in the constructor; mu_ guards each
  /// Frame's disk_id and ref, not the vector itself.
  std::vector<std::unique_ptr<Frame>> frames_;
  std::unordered_map<PageId, size_t> page_table_ SEMCC_GUARDED_BY(mu_);
  std::vector<size_t> free_frames_ SEMCC_GUARDED_BY(mu_);
  size_t clock_hand_ SEMCC_GUARDED_BY(mu_) = 0;
  uint64_t hits_ SEMCC_GUARDED_BY(mu_) = 0;
  uint64_t misses_ SEMCC_GUARDED_BY(mu_) = 0;
};

class PageGuard {
 public:
  PageGuard() = default;
  PageGuard(BufferPool* pool, size_t frame_idx, Page* page)
      : pool_(pool), frame_idx_(frame_idx), page_(page) {}
  PageGuard(PageGuard&& other) noexcept { *this = std::move(other); }
  PageGuard& operator=(PageGuard&& other) noexcept {
    Release();
    pool_ = other.pool_;
    frame_idx_ = other.frame_idx_;
    page_ = other.page_;
    dirty_ = other.dirty_;
    other.pool_ = nullptr;
    other.page_ = nullptr;
    return *this;
  }
  SEMCC_DISALLOW_COPY_AND_ASSIGN(PageGuard);
  ~PageGuard() { Release(); }

  Page* get() { return page_; }
  const Page* get() const { return page_; }
  Page* operator->() { return page_; }
  const Page* operator->() const { return page_; }
  bool valid() const { return page_ != nullptr; }

  /// Mark the page as modified; it will be written back before eviction.
  void MarkDirty() { dirty_ = true; }

  void Release() {
    if (pool_ != nullptr && page_ != nullptr) {
      pool_->Unpin(frame_idx_, dirty_);
      pool_ = nullptr;
      page_ = nullptr;
    }
  }

 private:
  BufferPool* pool_ = nullptr;
  size_t frame_idx_ = 0;
  Page* page_ = nullptr;
  bool dirty_ = false;
};

}  // namespace semcc

#endif  // SEMCC_STORAGE_BUFFER_POOL_H_
