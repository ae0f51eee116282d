// Registered memory regions.
//
// A MemoryRegion owns real bytes. One-sided operations copy actual data
// between regions, so everything layered above (headers, checksums, hash
// buckets) behaves exactly as it would on real hardware — including torn
// reads when a responder mutates a region between simulated instants.

#ifndef SRC_RDMA_MEMORY_H_
#define SRC_RDMA_MEMORY_H_

#include <algorithm>
#include <cstddef>
#include <cstdint>
#include <cstring>
#include <functional>
#include <iterator>
#include <span>
#include <stdexcept>
#include <vector>

#include "src/rdma/types.h"

namespace rdma {

class Node;

// The one checked byte-copy every registered-memory path funnels through
// (region accessors, rfp staging, kv entry moves). Two guarantees memcpy
// alone does not give:
//  * zero-length spans are valid no-ops even when they carry a null data
//    pointer (empty messages / empty values);
//  * overlapping src/dst throws instead of silently invoking UB — staging
//    buffers and registered entries never legitimately alias, so an overlap
//    is always a caller bug worth failing loudly on.
// The spans must be the same length; length mismatch is likewise a bug.
inline void CopyBytes(std::span<std::byte> dst, std::span<const std::byte> src) {
  if (dst.size() != src.size()) {
    throw std::invalid_argument("rdma::CopyBytes: src/dst length mismatch");
  }
  if (src.empty()) return;
  const std::byte* s = src.data();
  const std::byte* d = dst.data();
  // std::less gives the total pointer order the raw < lacks across objects.
  const bool disjoint = std::less_equal<const std::byte*>{}(s + src.size(), d) ||
                        std::less_equal<const std::byte*>{}(d + dst.size(), s);
  if (!disjoint) {
    throw std::invalid_argument("rdma::CopyBytes: overlapping spans");
  }
  std::memcpy(dst.data(), s, src.size());
}

class MemoryRegion {
 public:
  MemoryRegion(Node* node, uint32_t lkey, uint32_t rkey, size_t size, uint32_t access)
      : node_(node), lkey_(lkey), rkey_(rkey), access_(access), data_(size) {}

  MemoryRegion(const MemoryRegion&) = delete;
  MemoryRegion& operator=(const MemoryRegion&) = delete;

  Node* node() const { return node_; }
  uint32_t lkey() const { return lkey_; }
  RemoteKey remote_key() const { return RemoteKey{rkey_}; }
  size_t size() const { return data_.size(); }
  uint32_t access() const { return access_; }

  bool AllowsRemoteRead() const { return (access_ & kAccessRemoteRead) != 0; }
  bool AllowsRemoteWrite() const { return (access_ & kAccessRemoteWrite) != 0; }

  std::span<std::byte> bytes() { return data_; }
  std::span<const std::byte> bytes() const { return data_; }

  bool InBounds(size_t offset, size_t len) const {
    return offset <= data_.size() && len <= data_.size() - offset;
  }

  // Local typed accessors (bounds are the caller's responsibility after an
  // InBounds check; they assert in debug builds via span).
  template <typename T>
  T Load(size_t offset) const {
    T value;
    std::memcpy(&value, data_.data() + offset, sizeof(T));
    return value;
  }

  template <typename T>
  void Store(size_t offset, const T& value) {
    std::memcpy(data_.data() + offset, &value, sizeof(T));
  }

  void WriteBytes(size_t offset, std::span<const std::byte> src) {
    CopyBytes(std::span<std::byte>(data_).subspan(offset, src.size()), src);
  }

  void ReadBytes(size_t offset, std::span<std::byte> dst) const {
    CopyBytes(dst, std::span<const std::byte>(data_).subspan(offset, dst.size()));
  }

  // ---- Remote-write watches ---------------------------------------------------
  //
  // A watch raises the one-byte `*flag` (sets it to 1) whenever bytes that a
  // peer put on the wire land on [offset, offset + len): an RDMA WRITE, or a
  // fault-injected corruption that models one. Local stores never raise it.
  // A poller can then skip a watched range whose flag is down, knowing no
  // remote byte changed there since it cleared the flag. Watched ranges of
  // one region must not overlap; the flag must outlive the watch.
  void Watch(size_t offset, size_t len, uint8_t* flag);
  // Removes the watch that starts at `offset`.
  void Unwatch(size_t offset);
  // Raises the flag of every watch overlapping [offset, offset + len).
  // O(log watches); free when the region has none.
  void NoteRemoteWrite(size_t offset, size_t len) {
    if (!watches_.empty() && len != 0) {
      RaiseWatches(offset, len);
    }
  }

 private:
  struct WatchRange {
    size_t begin;
    size_t end;
    uint8_t* flag;
  };
  void RaiseWatches(size_t offset, size_t len);

  Node* node_;
  uint32_t lkey_;
  uint32_t rkey_;
  uint32_t access_;
  std::vector<std::byte> data_;
  std::vector<WatchRange> watches_;  // sorted by begin, disjoint
};

inline void MemoryRegion::Watch(size_t offset, size_t len, uint8_t* flag) {
  const auto it = std::lower_bound(
      watches_.begin(), watches_.end(), offset,
      [](const WatchRange& w, size_t off) { return w.begin < off; });
  if ((it != watches_.end() && it->begin < offset + len) ||
      (it != watches_.begin() && std::prev(it)->end > offset)) {
    throw std::invalid_argument("rdma::MemoryRegion::Watch: overlapping watch");
  }
  watches_.insert(it, WatchRange{offset, offset + len, flag});
}

inline void MemoryRegion::Unwatch(size_t offset) {
  const auto it = std::lower_bound(
      watches_.begin(), watches_.end(), offset,
      [](const WatchRange& w, size_t off) { return w.begin < off; });
  if (it != watches_.end() && it->begin == offset) {
    watches_.erase(it);
  }
}

inline void MemoryRegion::RaiseWatches(size_t offset, size_t len) {
  // The last watch starting at or before `offset` may cover it; later ones
  // overlap while they start below the write's end.
  auto it = std::upper_bound(watches_.begin(), watches_.end(), offset,
                             [](size_t off, const WatchRange& w) { return off < w.begin; });
  if (it != watches_.begin() && std::prev(it)->end > offset) {
    --it;
  }
  for (const size_t end = offset + len; it != watches_.end() && it->begin < end; ++it) {
    *it->flag = 1;
  }
}

}  // namespace rdma

#endif  // SRC_RDMA_MEMORY_H_
