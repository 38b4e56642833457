#include "storage/buffer_pool.h"

#include <utility>

#include "util/logging.h"

namespace semcc {

BufferPool::BufferPool(size_t pool_size, DiskManager* disk) : disk_(disk) {
  SEMCC_CHECK(pool_size > 0);
  frames_.reserve(pool_size);
  free_frames_.reserve(pool_size);
  for (size_t i = 0; i < pool_size; ++i) {
    frames_.push_back(std::make_unique<Frame>());
    free_frames_.push_back(pool_size - 1 - i);
  }
}

BufferPool::~BufferPool() {
  // A destructor cannot propagate failure; surface it instead of dropping it.
  const Status flushed = FlushAll();
  if (!flushed.ok()) {
    SEMCC_LOG(Error) << "final FlushAll failed: " << flushed.ToString();
  }
}

Result<size_t> BufferPool::Pin(PageId id, bool load) {
  MutexLock guard(mu_);
  auto it = page_table_.find(id);
  if (it != page_table_.end()) {
    Frame* f = frames_[it->second].get();
    f->pin_count.fetch_add(1);
    f->ref = true;
    hits_++;
    return it->second;
  }
  misses_++;
  size_t idx;
  if (!free_frames_.empty()) {
    idx = free_frames_.back();
    free_frames_.pop_back();
  } else {
    SEMCC_ASSIGN_OR_RETURN(idx, FindVictim());
    Frame* victim = frames_[idx].get();
    if (victim->dirty.load()) {
      // On failure the victim stays resident and dirty.
      SEMCC_RETURN_NOT_OK(disk_->WritePage(victim->disk_id, victim->page.data()));
      victim->dirty.store(false);
    }
    page_table_.erase(victim->disk_id);
  }
  Frame* f = frames_[idx].get();
  if (load) {
    Status st = disk_->ReadPage(id, f->page.data());
    if (!st.ok()) {
      f->disk_id = kInvalidPageId;
      free_frames_.push_back(idx);
      return st;
    }
  } else {
    f->page.Reset(id);
  }
  f->disk_id = id;
  f->pin_count.store(1);  // ref and dirty are clear on free and victim frames
  page_table_[id] = idx;
  return idx;
}

Result<size_t> BufferPool::FindVictim() {
  for (size_t step = 0; step < 2 * frames_.size(); ++step) {
    const size_t idx = clock_hand_;
    clock_hand_ = (clock_hand_ + 1) % frames_.size();
    Frame* f = frames_[idx].get();
    // Pins rise only under mu_, so a zero count stays zero while we hold it.
    if (f->pin_count.load(std::memory_order_acquire) != 0) continue;
    if (!std::exchange(f->ref, false)) return idx;
  }
  return Status::OutOfSpace("buffer pool exhausted: all frames pinned");
}

void BufferPool::Unpin(size_t frame_idx, bool dirty) {
  Frame* f = frames_[frame_idx].get();
  if (dirty) f->dirty.store(true);
  const int prev = f->pin_count.fetch_sub(1, std::memory_order_release);
  SEMCC_CHECK(prev > 0);
}

Result<PageGuard> BufferPool::NewPage() {
  const PageId id = disk_->AllocatePage();
  SEMCC_ASSIGN_OR_RETURN(size_t idx, Pin(id, /*load=*/false));
  PageGuard guard(this, idx, &frames_[idx]->page);
  guard.MarkDirty();
  return guard;
}

Result<PageGuard> BufferPool::FetchPage(PageId id) {
  SEMCC_ASSIGN_OR_RETURN(size_t idx, Pin(id, /*load=*/true));
  return PageGuard(this, idx, &frames_[idx]->page);
}

Status BufferPool::FlushAll() {
  MutexLock guard(mu_);
  for (auto& [id, idx] : page_table_) {
    Frame* f = frames_[idx].get();
    // Clear the mark first: an Unpin racing with the write re-marks it.
    if (f->dirty.exchange(false)) {
      const Status st = disk_->WritePage(f->disk_id, f->page.data());
      if (!st.ok()) f->dirty.store(true);
      SEMCC_RETURN_NOT_OK(st);
    }
  }
  return Status::OK();
}

}  // namespace semcc
