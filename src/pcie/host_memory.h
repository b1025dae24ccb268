// Simulated host DRAM, physically addressed, organized as sparse 2 MiB huge
// pages (the unit the driver pins and the TLB maps, paper §4.2). Pages are
// materialized on first touch so multi-GiB address spaces cost only what is
// actually written.
#ifndef SRC_PCIE_HOST_MEMORY_H_
#define SRC_PCIE_HOST_MEMORY_H_

#include <algorithm>
#include <cstdint>
#include <functional>
#include <map>
#include <memory>
#include <vector>

#include "src/common/bytes.h"
#include "src/common/types.h"

namespace strom {

inline constexpr uint64_t kHugePageSize = 2ull * 1024 * 1024;
inline constexpr uint64_t kHugePageMask = kHugePageSize - 1;

inline constexpr uint64_t HugePageBase(uint64_t addr) { return addr & ~kHugePageMask; }
inline constexpr uint64_t HugePageOffset(uint64_t addr) { return addr & kHugePageMask; }

class HostMemory {
 public:
  HostMemory() = default;
  HostMemory(const HostMemory&) = delete;
  HostMemory& operator=(const HostMemory&) = delete;

  void Write(PhysAddr addr, ByteSpan data);
  void Read(PhysAddr addr, MutableByteSpan out) const;

  // Scatter/gather span iteration: visits the range [addr, addr + len) as one
  // ByteSpan per touched page, in address order, without materializing a
  // buffer. Consumers (DmaEngine, StRoM kernels) read the pages in place.
  // Unmapped memory reads as zero (the visitor sees a span of a shared zero
  // page). visit(offset_in_range, span_of_bytes).
  template <typename Fn>
  void VisitRead(PhysAddr addr, size_t len, Fn&& visit) const {
    size_t done = 0;
    while (done < len) {
      const PhysAddr cur = addr + done;
      const uint64_t off = HugePageOffset(cur);
      const size_t chunk = std::min<size_t>(len - done, kHugePageSize - off);
      const uint8_t* page = PageForRead(cur);
      visit(done, ByteSpan(page == nullptr ? ZeroPage() : page + off, chunk));
      done += chunk;
    }
  }

  // Write-side counterpart: visits the same page decomposition with mutable
  // spans, materializing pages on first touch. visit must fill every byte of
  // the span it is handed.
  template <typename Fn>
  void VisitWrite(PhysAddr addr, size_t len, Fn&& visit) {
    size_t done = 0;
    while (done < len) {
      const PhysAddr cur = addr + done;
      const uint64_t off = HugePageOffset(cur);
      const size_t chunk = std::min<size_t>(len - done, kHugePageSize - off);
      uint8_t* page = PageFor(cur, /*create=*/true);
      visit(done, MutableByteSpan(page + off, chunk));
      done += chunk;
    }
    if (!watches_.empty()) {
      FireWatches(addr, len);
    }
  }

  // One-shot write watches, the event-driven half of host polling
  // (RoceDriver::PollU64). WatchWrite arms `fire` on [addr, addr + len),
  // len <= kMaxWatchLen. The first later write that overlaps the range —
  // every writer goes through VisitWrite: DMA completions, Write, WriteU64,
  // Fill — disarms the watch and runs `fire` once, after its bytes are in
  // place. There is no cancel: a watcher that goes away first makes its
  // `fire` a no-op.
  static constexpr size_t kMaxWatchLen = 8;
  void WatchWrite(PhysAddr addr, size_t len, std::function<void()> fire);

  // Convenience scalar accessors (little-endian, matching x86 host layout).
  void WriteU64(PhysAddr addr, uint64_t value);
  uint64_t ReadU64(PhysAddr addr) const;

  // Fills a range with a byte value.
  void Fill(PhysAddr addr, size_t len, uint8_t value);

  size_t materialized_pages() const { return pages_.size(); }

  // Allocates a fresh, zeroed physical huge page and returns its base address.
  // Page addresses are deliberately non-consecutive (stride > page size) so
  // that code assuming physical contiguity across pages fails loudly; the TLB
  // must be used to translate (paper §4.2: "physically they might not be
  // contiguous").
  PhysAddr AllocPage();

 private:
  uint8_t* PageFor(PhysAddr addr, bool create);
  const uint8_t* PageForRead(PhysAddr addr) const;
  // Shared all-zero page backing reads of unmapped memory.
  static const uint8_t* ZeroPage();
  void FireWatches(PhysAddr addr, size_t len);

  struct Watch {
    size_t len = 0;
    std::function<void()> fire;
  };
  // Armed watches by first watched byte. Ranges are at most kMaxWatchLen
  // long, so a write [a, a + n) can only hit keys in [a - kMaxWatchLen + 1,
  // a + n).
  std::multimap<PhysAddr, Watch> watches_;

  std::map<uint64_t, std::unique_ptr<uint8_t[]>> pages_;
  uint64_t next_page_index_ = 1;
  // One-entry lookup cache: DMA bursts and poll loops hammer the same page,
  // and the std::map find dominated the access cost. Map nodes are stable
  // under insertion (and pages are never erased), so the cached pointer can
  // not dangle. Only mapped pages are cached — a miss stays a map lookup.
  mutable uint64_t cached_base_ = ~uint64_t{0};
  mutable uint8_t* cached_page_ = nullptr;
};

}  // namespace strom

#endif  // SRC_PCIE_HOST_MEMORY_H_
