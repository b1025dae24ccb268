#include "src/pcie/host_memory.h"

#include <algorithm>
#include <cstring>

#include "src/common/logging.h"

namespace strom {

uint8_t* HostMemory::PageFor(PhysAddr addr, bool create) {
  const uint64_t base = HugePageBase(addr);
  if (base == cached_base_) {
    return cached_page_;
  }
  auto it = pages_.find(base);
  if (it == pages_.end()) {
    if (!create) {
      return nullptr;
    }
    auto page = std::make_unique<uint8_t[]>(kHugePageSize);
    std::memset(page.get(), 0, kHugePageSize);
    it = pages_.emplace(base, std::move(page)).first;
  }
  cached_base_ = base;
  cached_page_ = it->second.get();
  return cached_page_;
}

const uint8_t* HostMemory::PageForRead(PhysAddr addr) const {
  const uint64_t base = HugePageBase(addr);
  if (base == cached_base_) {
    return cached_page_;
  }
  auto it = pages_.find(base);
  if (it == pages_.end()) {
    return nullptr;
  }
  cached_base_ = base;
  cached_page_ = it->second.get();
  return cached_page_;
}

const uint8_t* HostMemory::ZeroPage() {
  static const std::unique_ptr<uint8_t[]> zero = [] {
    auto page = std::make_unique<uint8_t[]>(kHugePageSize);
    std::memset(page.get(), 0, kHugePageSize);
    return page;
  }();
  return zero.get();
}

void HostMemory::Write(PhysAddr addr, ByteSpan data) {
  VisitWrite(addr, data.size(), [&data](size_t done, MutableByteSpan dst) {
    std::memcpy(dst.data(), data.data() + done, dst.size());
  });
}

void HostMemory::Read(PhysAddr addr, MutableByteSpan out) const {
  VisitRead(addr, out.size(), [&out](size_t done, ByteSpan src) {
    std::memcpy(out.data() + done, src.data(), src.size());
  });
}

void HostMemory::WriteU64(PhysAddr addr, uint64_t value) {
  uint8_t buf[8];
  StoreLe64(buf, value);
  Write(addr, ByteSpan(buf, 8));
}

uint64_t HostMemory::ReadU64(PhysAddr addr) const {
  // Poll loops spin on this: for the common page-interior word, skip the
  // visitor machinery and load straight from the page.
  const uint64_t off = HugePageOffset(addr);
  if (off + 8 <= kHugePageSize) {
    const uint8_t* page = PageForRead(addr);
    static constexpr uint8_t kZeros[8] = {};
    return LoadLe64(page == nullptr ? kZeros : page + off);
  }
  uint8_t buf[8];
  Read(addr, MutableByteSpan(buf, 8));
  return LoadLe64(buf);
}

void HostMemory::Fill(PhysAddr addr, size_t len, uint8_t value) {
  VisitWrite(addr, len, [value](size_t, MutableByteSpan dst) {
    std::memset(dst.data(), value, dst.size());
  });
}

void HostMemory::WatchWrite(PhysAddr addr, size_t len, std::function<void()> fire) {
  STROM_CHECK(len > 0 && len <= kMaxWatchLen) << "watch length " << len;
  watches_.emplace(addr, Watch{len, std::move(fire)});
}

void HostMemory::FireWatches(PhysAddr addr, size_t len) {
  // Disarm every hit before running any callback, so a callback may arm
  // watches without invalidating this walk.
  std::vector<std::function<void()>> hits;
  const PhysAddr lo = addr >= kMaxWatchLen ? addr - (kMaxWatchLen - 1) : 0;
  for (auto it = watches_.lower_bound(lo); it != watches_.end() && it->first < addr + len;) {
    if (it->first + it->second.len > addr) {
      hits.push_back(std::move(it->second.fire));
      it = watches_.erase(it);
    } else {
      ++it;
    }
  }
  for (auto& fire : hits) {
    fire();
  }
}

PhysAddr HostMemory::AllocPage() {
  // Stride of 2 pages leaves an unmapped hole after every page, so accesses
  // that run past a page without a TLB-split fault on zeroed memory in tests.
  const PhysAddr base = next_page_index_ * kHugePageSize * 2;
  ++next_page_index_;
  (void)PageFor(base, /*create=*/true);
  return base;
}

}  // namespace strom
