#pragma once

#include <cstddef>
#include <cstdint>
#include <cstring>
#include <new>

namespace exasim::util {

// ---------------------------------------------------------------------------
// Hot-path allocation pool (DESIGN.md §9)
//
// The simulator's per-event constant factor is the product: xSim's whole
// point is oversubscription, so a run delivers millions of events, each of
// which used to pay one general-purpose heap allocation for its payload (and
// a second for the payload's byte buffer). pool_alloc/pool_free replace that
// with per-thread size-class free lists carved from process-lifetime slabs:
// the steady-state cost is a pointer pop/push, with zero locks and zero
// heap traffic.
//
// Thread model. Free lists are thread-local, which for the sharded PDES
// engine means pool-local to the owning LP group (each group runs on exactly
// one worker thread). A payload scheduled cross-group is allocated on the
// producer's thread and freed on the consumer's; the block then simply joins
// the consumer's free list and re-enters circulation there. Window-barrier
// mailbox traffic is symmetric across groups, so the lists stay balanced
// without a central return path — and every hand-off is already separated by
// the window barriers, so no synchronization is needed at all.
//
// Provenance. Every block carries a 16-byte header recording whether it came
// from a slab or the plain heap, so the runtime toggle (--no-pool /
// EXASIM_NO_POOL / set_pool_enabled) can flip at any time: a block is always
// returned the way it was obtained. Slabs live for the whole process (they
// are anchored in a global registry, so leak checkers see them as reachable
// and cross-thread block migration can never dangle).
//
// Determinism. Pooling affects only *where* bytes live, never the engine's
// (time, priority, source, seq) event order — the simulated schedule is
// bit-identical with pools on or off, which tests/test_machine verifies.
// ---------------------------------------------------------------------------

/// Whether pool_alloc serves from the slab pool (true) or falls through to
/// the plain heap (false). Initialized from pool_enabled_from_env(); flip at
/// runtime via set_pool_enabled (--no-pool).
bool pool_enabled();
void set_pool_enabled(bool enabled);

/// EXASIM_NO_POOL read as "0|1" ("1" disables pooling; unset or empty keeps
/// it). Throws std::invalid_argument naming the variable on any other value.
bool pool_enabled_from_env();

/// Allocates `bytes` (16-byte aligned). Never fails softly: throws
/// std::bad_alloc like operator new.
void* pool_alloc(std::size_t bytes);

/// Returns a pool_alloc block. Safe from any thread and under any toggle
/// state (provenance header). nullptr is ignored.
void pool_free(void* p);

/// Aggregate allocation counters over all threads since process start.
/// Monotonic; diff two snapshots to meter one region of execution.
struct PoolStats {
  std::uint64_t allocs = 0;       ///< pool_alloc calls.
  std::uint64_t frees = 0;        ///< pool_free calls (non-null).
  std::uint64_t recycled = 0;     ///< Allocs served from a free list.
  std::uint64_t heap_allocs = 0;  ///< Allocs that hit the general heap
                                  ///< (pool disabled or oversize block).
  std::uint64_t slab_allocs = 0;  ///< New slabs carved (heap traffic, cold).
  std::uint64_t slab_bytes = 0;   ///< Total bytes reserved in slabs.
};
PoolStats pool_stats();

/// Payload byte buffer with small-buffer optimization: up to kInlineBytes
/// live inside the object (inside the pooled payload block — zero extra
/// allocations for the common small-message case); larger payloads spill to
/// one pool_alloc block. Move-only, like the unique_ptr payloads that carry
/// it. Default state is empty.
class PayloadBuf {
 public:
  static constexpr std::size_t kInlineBytes = 64;

  PayloadBuf() = default;
  ~PayloadBuf() { reset_spill(); }

  PayloadBuf(const PayloadBuf&) = delete;
  PayloadBuf& operator=(const PayloadBuf&) = delete;

  PayloadBuf(PayloadBuf&& other) noexcept { steal(other); }
  PayloadBuf& operator=(PayloadBuf&& other) noexcept {
    if (this != &other) {
      reset_spill();
      steal(other);
    }
    return *this;
  }

  /// Replaces the contents with a copy of [src, src+n).
  void assign(const void* src, std::size_t n) {
    resize_uninitialized(n);
    if (n != 0) std::memcpy(data(), src, n);
  }

  /// Sets the size to n without initializing new bytes (fill via data()).
  void resize_uninitialized(std::size_t n) {
    if (n > kInlineBytes) {
      if (n > spill_capacity_) {
        reset_spill();
        spill_ = static_cast<std::byte*>(pool_alloc(n));
        spill_capacity_ = n;
      }
    }
    size_ = n;
  }

  void clear() {
    reset_spill();
    size_ = 0;
  }

  std::byte* data() { return size_ > kInlineBytes ? spill_ : inline_; }
  const std::byte* data() const { return size_ > kInlineBytes ? spill_ : inline_; }
  std::size_t size() const { return size_; }
  bool empty() const { return size_ == 0; }
  /// True if the contents spilled out of the inline buffer.
  bool spilled() const { return size_ > kInlineBytes; }

 private:
  void reset_spill() {
    if (spill_ != nullptr) {
      pool_free(spill_);
      spill_ = nullptr;
      spill_capacity_ = 0;
    }
  }

  void steal(PayloadBuf& other) {
    size_ = other.size_;
    spill_ = other.spill_;
    spill_capacity_ = other.spill_capacity_;
    if (size_ != 0 && size_ <= kInlineBytes) std::memcpy(inline_, other.inline_, size_);
    other.spill_ = nullptr;
    other.spill_capacity_ = 0;
    other.size_ = 0;
  }

  std::byte inline_[kInlineBytes];
  std::byte* spill_ = nullptr;
  std::size_t spill_capacity_ = 0;
  std::size_t size_ = 0;
};

}  // namespace exasim::util
