// Ref-counted pooled frame buffer.
//
// A FrameBuf is a {block, offset, length} view over a pooled byte block. The
// hot paths build a frame once (FrameBuilder + WireWriter) and then share it
// by reference count across the link, switch ports, capture taps, and the
// receiver — where the payload is carried onward as a SubSpan of the same
// block rather than copied. Released blocks return to a thread-local free
// list bucketed by capacity, so steady-state traffic allocates nothing.
//
// Threading model: each Simulator runs on one thread (the parallel sweep
// runner gives every worker its own points), so a live FrameBuf is never
// shared across threads and the reference count is a plain integer. The
// live-block census is per thread too (see FrameBlocksOutstanding): nothing
// on the acquire/release path is atomic.
#ifndef SRC_COMMON_FRAME_BUF_H_
#define SRC_COMMON_FRAME_BUF_H_

#include <cstdint>
#include <memory>
#include <utility>

#include "src/common/bytes.h"

namespace strom {

// Base class for memoized per-frame side-state (e.g. the RoCE encoder caches
// the ICRC and a decoded-header view, see src/proto/packet.h). A memo is pure
// memoization: the wire bytes stay authoritative, and ANY mutation of the
// frame — mutable data()/operator[], assign, pool recycling — marks the memo
// invalid so later consumers fall back to recomputing from bytes. The memo
// object itself survives pool recycling so steady-state traffic reuses its
// allocation.
struct FrameMemo {
  virtual ~FrameMemo() = default;
};

namespace internal {
struct FrameBlock {
  uint32_t refs = 0;
  ByteBuffer storage;
  // Memoized side-state for the frame view [memo_off, memo_off + memo_len)
  // over `storage`. Valid only while memo_valid is set; the object outlives
  // invalidation so its allocation can be reused by the next producer.
  std::unique_ptr<FrameMemo> memo;
  uint32_t memo_off = 0;
  uint32_t memo_len = 0;
  bool memo_valid = false;
};
// Pool interface (thread-local behind the scenes).
FrameBlock* AcquireFrameBlock(size_t size);
FrameBlock* AdoptFrameBlock(ByteBuffer&& data);
void ReleaseFrameBlock(FrameBlock* block);

}  // namespace internal

class FrameBuf {
 public:
  FrameBuf() = default;

  // A zero-filled frame of `size` bytes, intended to be overwritten. The
  // explicit fill matters for determinism: a recycled block must not leak
  // stale bytes from a previous frame.
  static FrameBuf Allocate(size_t size) {
    FrameBuf f;
    if (size > 0) {
      f.block_ = internal::AcquireFrameBlock(size);
      f.block_->refs = 1;
      f.len_ = static_cast<uint32_t>(size);
      std::memset(f.data(), 0, size);
    }
    return f;
  }

  // Like Allocate but skips the zero fill. Only for callers that overwrite
  // every byte before the frame escapes (Copy, DMA read completion); recycled
  // blocks may otherwise leak stale bytes from a previous frame.
  static FrameBuf AllocateUninit(size_t size) {
    FrameBuf f;
    if (size > 0) {
      f.block_ = internal::AcquireFrameBlock(size);
      f.block_->refs = 1;
      f.len_ = static_cast<uint32_t>(size);
    }
    return f;
  }

  static FrameBuf Copy(ByteSpan data) {
    FrameBuf f = AllocateUninit(data.size());
    if (!data.empty()) {
      std::memcpy(f.data(), data.data(), data.size());
    }
    return f;
  }

  // Takes ownership of an existing buffer without copying. The buffer's heap
  // allocation is recycled through the pool when the last reference drops.
  static FrameBuf Adopt(ByteBuffer&& data) {
    FrameBuf f;
    if (!data.empty()) {
      f.block_ = internal::AdoptFrameBlock(std::move(data));
      f.block_->refs = 1;
      f.len_ = static_cast<uint32_t>(f.block_->storage.size());
    }
    return f;
  }

  FrameBuf(const FrameBuf& other) noexcept
      : block_(other.block_), off_(other.off_), len_(other.len_) {
    if (block_ != nullptr) {
      ++block_->refs;
    }
  }

  FrameBuf& operator=(const FrameBuf& other) noexcept {
    if (this != &other) {
      Release();
      block_ = other.block_;
      off_ = other.off_;
      len_ = other.len_;
      if (block_ != nullptr) {
        ++block_->refs;
      }
    }
    return *this;
  }

  FrameBuf(FrameBuf&& other) noexcept
      : block_(other.block_), off_(other.off_), len_(other.len_) {
    other.block_ = nullptr;
    other.off_ = 0;
    other.len_ = 0;
  }

  FrameBuf& operator=(FrameBuf&& other) noexcept {
    if (this != &other) {
      Release();
      block_ = other.block_;
      off_ = other.off_;
      len_ = other.len_;
      other.block_ = nullptr;
      other.off_ = 0;
      other.len_ = 0;
    }
    return *this;
  }

  ~FrameBuf() { Release(); }

  const uint8_t* data() const {
    return block_ == nullptr ? nullptr : block_->storage.data() + off_;
  }
  // Mutable access; callers that might share the block must EnsureUnique()
  // first (e.g. the link's corrupt-injection path). Handing out a mutable
  // pointer invalidates any memo on the block: cached side-state must never
  // outlive a byte mutation.
  uint8_t* data() {
    if (block_ == nullptr) {
      return nullptr;
    }
    block_->memo_valid = false;
    return block_->storage.data() + off_;
  }
  size_t size() const { return len_; }
  bool empty() const { return len_ == 0; }

  uint8_t operator[](size_t i) const { return data()[i]; }
  uint8_t& operator[](size_t i) { return data()[i]; }

  const uint8_t* begin() const { return data(); }
  const uint8_t* end() const { return data() + len_; }

  ByteSpan span() const { return ByteSpan(data(), len_); }
  operator ByteSpan() const { return span(); }  // NOLINT

  // A view sharing the same block (refcount bump, no copy).
  FrameBuf SubSpan(size_t offset, size_t length) const {
    STROM_CHECK_LE(offset + length, len_);
    FrameBuf f(*this);
    f.off_ += static_cast<uint32_t>(offset);
    f.len_ = static_cast<uint32_t>(length);
    return f;
  }

  // Deep copy into a fresh pooled block.
  FrameBuf Clone() const { return Copy(span()); }

  // -------------------------------------------------------------------------
  // Memoized side-state (see FrameMemo above). A memo is only visible through
  // views with the exact extent it was committed for, so a payload SubSpan of
  // a frame never sees the frame's memo and vice versa.
  // -------------------------------------------------------------------------

  // Typed read access to a committed, still-valid memo; nullptr on a memo
  // miss (no memo, invalidated by mutation/recycling, extent mismatch, or a
  // different concrete type).
  template <typename T>
  const T* GetMemo() const {
    if (block_ == nullptr || !block_->memo_valid || block_->memo_off != off_ ||
        block_->memo_len != len_) {
      return nullptr;
    }
    return dynamic_cast<const T*>(block_->memo.get());
  }

  // Producer side: returns a memo object of type T to fill in, reusing the
  // block's previous memo allocation when the type matches. The memo stays
  // invalid until CommitMemo() is called, so a half-written memo can never be
  // observed.
  template <typename T>
  T* EditMemo() {
    if (block_ == nullptr) {
      return nullptr;
    }
    block_->memo_valid = false;
    T* typed = dynamic_cast<T*>(block_->memo.get());
    if (typed == nullptr) {
      auto fresh = std::make_unique<T>();
      typed = fresh.get();
      block_->memo = std::move(fresh);
    }
    return typed;
  }

  // Marks the memo valid for this view's exact extent.
  void CommitMemo() {
    if (block_ != nullptr && block_->memo != nullptr) {
      block_->memo_off = off_;
      block_->memo_len = len_;
      block_->memo_valid = true;
    }
  }

  void InvalidateMemo() {
    if (block_ != nullptr) {
      block_->memo_valid = false;
    }
  }

  // Copy-on-write: after this call the block is exclusively owned, so
  // mutation cannot be observed through other references.
  void EnsureUnique() {
    if (block_ != nullptr && block_->refs > 1) {
      *this = Copy(span());
    }
  }

  ByteBuffer ToBuffer() const { return ByteBuffer(begin(), end()); }

  // Vector-style conveniences (used heavily by tests building packets).
  void assign(size_t n, uint8_t value) {
    *this = Allocate(n);
    if (n > 0) {
      std::memset(data(), value, n);
    }
  }
  void clear() { Release(); }

 private:
  friend class FrameBuilder;

  void Release() {
    if (block_ != nullptr && --block_->refs == 0) {
      internal::ReleaseFrameBlock(block_);
    }
    block_ = nullptr;
    off_ = 0;
    len_ = 0;
  }

  internal::FrameBlock* block_ = nullptr;
  uint32_t off_ = 0;
  uint32_t len_ = 0;
};

inline bool operator==(const FrameBuf& a, const FrameBuf& b) {
  return a.size() == b.size() &&
         (a.empty() || std::memcmp(a.data(), b.data(), a.size()) == 0);
}
inline bool operator!=(const FrameBuf& a, const FrameBuf& b) { return !(a == b); }
inline bool operator==(const FrameBuf& a, const ByteBuffer& b) {
  return a.size() == b.size() &&
         (a.empty() || std::memcmp(a.data(), b.data(), a.size()) == 0);
}
inline bool operator==(const ByteBuffer& a, const FrameBuf& b) { return b == a; }

// Builds a frame in a pooled block with the existing WireWriter, then wraps
// it as a FrameBuf without copying:
//
//   FrameBuilder b(wire_size_hint);
//   WireWriter w(b.buffer());
//   ... encode ...
//   FrameBuf frame = std::move(b).Finish();
class FrameBuilder {
 public:
  explicit FrameBuilder(size_t capacity_hint) {
    block_ = internal::AcquireFrameBlock(capacity_hint);
    block_->storage.clear();
  }

  ~FrameBuilder() {
    if (block_ != nullptr) {
      internal::ReleaseFrameBlock(block_);
    }
  }

  FrameBuilder(const FrameBuilder&) = delete;
  FrameBuilder& operator=(const FrameBuilder&) = delete;

  ByteBuffer& buffer() { return block_->storage; }

  FrameBuf Finish() && {
    FrameBuf f;
    if (!block_->storage.empty()) {
      f.block_ = block_;
      f.block_->refs = 1;
      f.len_ = static_cast<uint32_t>(block_->storage.size());
      block_ = nullptr;
    }
    return f;
  }

 private:
  internal::FrameBlock* block_ = nullptr;
};

// Pool introspection for the microbench and tests.
struct FramePoolStats {
  uint64_t allocations = 0;  // blocks created with operator new
  uint64_t reuses = 0;       // blocks served from the free list
};
FramePoolStats GetFramePoolStats();

// Blocks currently referenced by live FrameBufs/FrameBuilders, process-wide.
// Blocks parked on a free list don't count. The leak auditor checks this is
// zero once every simulation object is destroyed. Each thread keeps a plain
// count and folds it into a process-wide total when it exits; this returns
// that total plus the calling thread's count. It is exact whenever no other
// thread that touched frames is still running — after ParallelFor joins, or
// around a serial run — which is where the audits read it.
uint64_t FrameBlocksOutstanding();

}  // namespace strom

#endif  // SRC_COMMON_FRAME_BUF_H_
