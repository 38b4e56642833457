#include "recovery/file_log_device.h"

#include <algorithm>
#include <cstdio>
#include <cstring>

#include "util/macros.h"

namespace semcc {

namespace {
constexpr char kSegmentPrefix[] = "wal-";
constexpr char kSegmentSuffix[] = ".log";

/// wal-%06u.log → index, or 0 if the name is not a segment.
uint32_t ParseSegmentName(const std::string& name) {
  if (name.size() <= std::strlen(kSegmentPrefix) + std::strlen(kSegmentSuffix)) {
    return 0;
  }
  if (name.rfind(kSegmentPrefix, 0) != 0) return 0;
  if (name.size() < std::strlen(kSegmentSuffix) ||
      name.compare(name.size() - std::strlen(kSegmentSuffix),
                   std::strlen(kSegmentSuffix), kSegmentSuffix) != 0) {
    return 0;
  }
  const std::string digits =
      name.substr(std::strlen(kSegmentPrefix),
                  name.size() - std::strlen(kSegmentPrefix) -
                      std::strlen(kSegmentSuffix));
  if (digits.empty()) return 0;
  uint32_t index = 0;
  for (char c : digits) {
    if (c < '0' || c > '9') return 0;
    index = index * 10 + static_cast<uint32_t>(c - '0');
  }
  return index;
}
}  // namespace

std::string FileLogDevice::SegmentPath(uint32_t index) const {
  char name[32];
  std::snprintf(name, sizeof(name), "%s%06u%s", kSegmentPrefix, index,
                kSegmentSuffix);
  return dir_ + "/" + name;
}

Result<std::unique_ptr<FileLogDevice>> FileLogDevice::Open(
    const std::string& dir, FileLogDeviceOptions options) {
  SEMCC_RETURN_NOT_OK(EnsureDirectory(dir));
  auto device =
      std::unique_ptr<FileLogDevice>(new FileLogDevice(dir, options));
  SEMCC_ASSIGN_OR_RETURN(std::vector<std::string> names, ListDirectory(dir));
  std::vector<Segment> segments;
  for (const std::string& name : names) {
    const uint32_t index = ParseSegmentName(name);
    if (index == 0) continue;  // not ours (0 is never a valid segment index)
    SEMCC_ASSIGN_OR_RETURN(uint64_t size,
                           FileSize(device->SegmentPath(index)));
    segments.push_back({index, size});
  }
  // ListDirectory sorts lexically; zero-padded names make that index order.
  // A gap in the sequence means someone deleted a middle segment — the
  // image would silently skip bytes, so refuse.
  for (size_t i = 0; i + 1 < segments.size(); ++i) {
    if (segments[i + 1].index != segments[i].index + 1) {
      return Status::Corruption("log segment gap: " +
                                device->SegmentPath(segments[i].index) +
                                " is followed by " +
                                device->SegmentPath(segments[i + 1].index));
    }
  }
  if (segments.empty()) {
    device->current_index_ = 1;
  } else {
    device->current_index_ = segments.back().index;
    segments.pop_back();
    device->closed_ = std::move(segments);
    for (const Segment& s : device->closed_) device->closed_bytes_ += s.size;
  }
  SEMCC_RETURN_NOT_OK(
      device->current_.Open(device->SegmentPath(device->current_index_)));
  // Only a *fresh* tail segment is preallocated here: a reopened tail may
  // carry padding (or a torn frame) from the previous run, and recovery
  // truncates it to the last valid frame before anything is appended —
  // padding added now would just be cut again.
  if (device->current_.size() == 0) {
    SEMCC_RETURN_NOT_OK(device->current_.PreallocateTo(options.segment_bytes));
  }
  SEMCC_RETURN_NOT_OK(SyncDirectory(dir));
  device->synced_ = device->written_bytes();
  return device;
}

Status FileLogDevice::Rotate() {
  SEMCC_RETURN_NOT_OK(current_.Sync());
  const uint64_t size = current_.size();
  SEMCC_RETURN_NOT_OK(current_.Close());
  closed_.push_back({current_index_, size});
  closed_bytes_ += size;
  current_index_++;
  SEMCC_RETURN_NOT_OK(current_.Open(SegmentPath(current_index_)));
  SEMCC_RETURN_NOT_OK(current_.PreallocateTo(options_.segment_bytes));
  return SyncDirectory(dir_);
}

Status FileLogDevice::Append(std::string_view bytes) {
  if (current_.size() >= options_.segment_bytes) {
    SEMCC_RETURN_NOT_OK(Rotate());
  }
  return current_.Append(bytes.data(), bytes.size());
}

Status FileLogDevice::Sync() {
  SEMCC_RETURN_NOT_OK(current_.Sync());
  synced_ = written_bytes();
  syncs_++;
  return Status::OK();
}

Result<std::string> FileLogDevice::ReadDurable() {
  std::string image;
  std::string chunk;
  for (const Segment& s : closed_) {
    SEMCC_RETURN_NOT_OK(ReadFileToString(SegmentPath(s.index), &chunk));
    image += chunk;
  }
  SEMCC_RETURN_NOT_OK(ReadFileToString(SegmentPath(current_index_), &chunk));
  // Cap the tail at its logical size: bytes past it are preallocation
  // padding, not content. (After a reopen the logical size *includes* any
  // padding left by the previous process — recovery sees those zeros, scans
  // them as a torn tail, and truncates; see FileLogDeviceOptions.)
  if (chunk.size() > current_.size()) chunk.resize(current_.size());
  image += chunk;
  return image;
}

Result<uint64_t> FileLogDevice::DropPrefix(uint64_t bytes) {
  uint64_t dropped = 0;
  size_t n = 0;
  for (const Segment& s : closed_) {
    if (dropped + s.size > bytes) break;
    dropped += s.size;
    n++;
  }
  if (n == 0) return uint64_t{0};
  // Unlink in index order: a crash mid-way leaves a contiguous suffix of
  // segments, which Open accepts (only a *gap* is corruption).
  for (size_t i = 0; i < n; ++i) {
    SEMCC_RETURN_NOT_OK(RemoveFile(SegmentPath(closed_[i].index)));
  }
  closed_.erase(closed_.begin(), closed_.begin() + n);
  closed_bytes_ -= dropped;
  // Closed segments were fsynced at rotation, so they are inside synced_.
  synced_ -= dropped;
  SEMCC_RETURN_NOT_OK(SyncDirectory(dir_));
  return dropped;
}

Status FileLogDevice::Truncate(uint64_t size) {
  if (size >= written_bytes()) return Status::OK();
  // Find the segment containing logical offset `size`; truncate it, delete
  // everything after it, and make it the append target again.
  std::vector<Segment> all = closed_;
  all.push_back({current_index_, current_.size()});
  SEMCC_RETURN_NOT_OK(current_.Close());
  uint64_t base = 0;
  size_t keep = 0;  // index into `all` of the segment that becomes current
  for (size_t i = 0; i < all.size(); ++i) {
    if (size <= base + all[i].size) {
      keep = i;
      break;
    }
    base += all[i].size;
  }
  // Remember the kept segment's on-disk extent: repair restores padding up
  // to it (zero-scrubbing whatever the truncated region held, so torn bytes
  // cannot resurface as a fake tail) but never *grows* the file past the
  // extent it had.
  SEMCC_ASSIGN_OR_RETURN(const uint64_t keep_physical,
                         FileSize(SegmentPath(all[keep].index)));
  SEMCC_RETURN_NOT_OK(TruncateFile(SegmentPath(all[keep].index), size - base));
  for (size_t i = keep + 1; i < all.size(); ++i) {
    SEMCC_RETURN_NOT_OK(RemoveFile(SegmentPath(all[i].index)));
  }
  closed_.assign(all.begin(), all.begin() + keep);
  closed_bytes_ = base;
  current_index_ = all[keep].index;
  SEMCC_RETURN_NOT_OK(current_.Open(SegmentPath(current_index_)));
  SEMCC_RETURN_NOT_OK(current_.Sync());
  if (keep_physical > size - base) {
    SEMCC_RETURN_NOT_OK(current_.PreallocateTo(keep_physical));
  }
  SEMCC_RETURN_NOT_OK(SyncDirectory(dir_));
  synced_ = std::min<uint64_t>(synced_, size);
  return Status::OK();
}

}  // namespace semcc
