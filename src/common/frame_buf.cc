#include "src/common/frame_buf.h"

#include <array>
#include <atomic>
#include <vector>

namespace strom {
namespace internal {

namespace {

// See FrameBlocksOutstanding(): the live-block census of threads that have
// exited, folded in by their pools' destructors.
std::atomic<int64_t> g_exited_blocks_outstanding{0};

// Free lists bucketed by storage capacity: bucket b holds blocks with
// capacity in [64 << b, 64 << (b+1)). Bucket count covers 64 B .. 4 MiB,
// which spans everything from ACK frames to GB-scale shuffle DMA chunks;
// larger blocks are simply not pooled.
constexpr size_t kMinCapacity = 64;
constexpr int kNumBuckets = 17;
constexpr size_t kMaxBlocksPerBucket = 64;

int BucketFor(size_t capacity) {
  if (capacity < kMinCapacity) {
    return 0;
  }
  int b = 0;
  size_t c = capacity / kMinCapacity;
  while (c > 1 && b < kNumBuckets - 1) {
    c >>= 1;
    ++b;
  }
  return b;
}

struct FramePool {
  std::array<std::vector<FrameBlock*>, kNumBuckets> buckets;
  FramePoolStats stats;
  // Blocks acquired minus blocks released on this thread. A block released
  // on another thread than the one that acquired it leaves +1 here and -1
  // there, so only the sum over threads is meaningful.
  int64_t outstanding = 0;

  ~FramePool() {
    g_exited_blocks_outstanding.fetch_add(outstanding, std::memory_order_relaxed);
    for (auto& bucket : buckets) {
      for (FrameBlock* block : bucket) {
        delete block;
      }
    }
  }

  FrameBlock* Acquire(size_t size) {
    // Look in the bucket whose smallest member can hold `size`, then one
    // larger; a miss falls through to a fresh allocation sized exactly.
    const int first = BucketFor(size == 0 ? 1 : 2 * size - 1);
    for (int b = first; b < first + 2 && b < kNumBuckets; ++b) {
      auto& bucket = buckets[b];
      if (!bucket.empty()) {
        FrameBlock* block = bucket.back();
        bucket.pop_back();
        ++stats.reuses;
        block->storage.resize(size);
        // The memo object (if any) is kept for allocation reuse, but it
        // describes the block's previous life: never serve it as valid.
        block->memo_valid = false;
        return block;
      }
    }
    ++stats.allocations;
    FrameBlock* block = new FrameBlock;
    // Reserve the search bucket's guarantee size: with capacity == size the
    // block would recycle into the bucket below `first` and never be found
    // by this very same Acquire(size) again.
    block->storage.reserve(std::max(size, kMinCapacity << first));
    block->storage.resize(size);
    return block;
  }

  FrameBlock* Adopt(ByteBuffer&& data) {
    // Reuse a node from the smallest bucket if one is idle; its storage is
    // replaced wholesale by the adopted buffer.
    FrameBlock* block;
    if (!buckets[0].empty()) {
      block = buckets[0].back();
      buckets[0].pop_back();
      ++stats.reuses;
    } else {
      ++stats.allocations;
      block = new FrameBlock;
    }
    block->storage = std::move(data);
    block->memo_valid = false;
    return block;
  }

  void Release(FrameBlock* block) {
    auto& bucket = buckets[BucketFor(block->storage.capacity())];
    if (bucket.size() < kMaxBlocksPerBucket) {
      block->refs = 0;
      bucket.push_back(block);
    } else {
      delete block;
    }
  }
};

FramePool& Pool() {
  thread_local FramePool pool;
  return pool;
}

}  // namespace

FrameBlock* AcquireFrameBlock(size_t size) {
  FramePool& pool = Pool();
  ++pool.outstanding;
  return pool.Acquire(size);
}

FrameBlock* AdoptFrameBlock(ByteBuffer&& data) {
  FramePool& pool = Pool();
  ++pool.outstanding;
  return pool.Adopt(std::move(data));
}

void ReleaseFrameBlock(FrameBlock* block) {
  FramePool& pool = Pool();
  --pool.outstanding;
  pool.Release(block);
}

}  // namespace internal

FramePoolStats GetFramePoolStats() { return internal::Pool().stats; }

uint64_t FrameBlocksOutstanding() {
  return static_cast<uint64_t>(
      internal::g_exited_blocks_outstanding.load(std::memory_order_relaxed) +
      internal::Pool().outstanding);
}

}  // namespace strom
