// Software prefetch shim.
//
// The batched hot path knows which RT slot and PT stage rows a packet will
// probe several packets before the probe happens (the hashes are computed
// for the whole batch up front), so it can hide the table's cache misses
// behind the decode of the intervening packets. Two distances are used
// (DartMonitor::process_batch's kFar and kNear):
//
//   prefetch_far  — issued 192 packets ahead, targets L2. The L2 miss
//     queue holds several times more outstanding requests than the ~dozen
//     L1 fill buffers, so far prefetches are how the loop gets memory-level
//     parallelism past the single-core demand-miss ceiling.
//   prefetch_near — issued 24 packets ahead, promotes the row the rest of
//     the way to L1 with write intent (RT edges advance, PT slots are
//     claimed or erased on nearly every probe).
//
// A hint fetches one cache line, but a table row need not sit inside one:
// rows are 24 B (RT) and 40 B (PT) and the storage is not line-aligned, so
// a quarter of RT rows and half of PT rows straddle two lines. Table rows
// are therefore always prefetched whole, through prefetch_row_far /
// prefetch_row_near, which hint every line [row, row + sizeof(row)) touches
// (the first and the last byte's line; see hint_row_lines).
//
// Compilers without the builtin degrade to a no-op — prefetching is purely
// a performance hint and never affects results.
#pragma once

#include <cstddef>

namespace dart {

// A fixed 64 rather than std::hardware_destructive_interference_size: the
// standard constant is ABI-unstable across -mtune settings (GCC warns on
// every use) and 64 is the line size on every platform this targets. The
// SPSC ring pads its indices to it as well.
inline constexpr std::size_t kCacheLine = 64;

/// Pull `addr` toward L2, far ahead of use (read hint: at this distance the
/// goal is overlapping DRAM fetches, not line ownership).
inline void prefetch_far(const void* addr) noexcept {
#if defined(__GNUC__) || defined(__clang__)
  __builtin_prefetch(addr, 0, 2);
#else
  (void)addr;
#endif
}

/// Promote `addr` to L1 just before use, with write intent.
inline void prefetch_near(const void* addr) noexcept {
#if defined(__GNUC__) || defined(__clang__)
  __builtin_prefetch(addr, 1, 3);
#else
  (void)addr;
#endif
}

/// Call `hint` with the first and the last of the `bytes` (1..kCacheLine)
/// bytes at `addr`: between them they name every cache line those bytes
/// touch — two lines when they cross a line boundary, else the same line
/// twice. The repeat is deliberate: a hint to a line already in flight is
/// nearly free, while testing for the crossing costs a data-dependent
/// branch that mispredicts on a large share of rows and measured slower.
template <typename Hint>
inline void hint_row_lines(const void* addr, std::size_t bytes,
                           Hint hint) noexcept {
  const auto* first = static_cast<const unsigned char*>(addr);
  hint(first);
  hint(first + bytes - 1);
}

/// prefetch_far of every line `*row` spans.
template <typename T>
inline void prefetch_row_far(const T* row) noexcept {
  static_assert(sizeof(T) <= kCacheLine, "a row spans at most two lines");
  hint_row_lines(row, sizeof(T), [](const void* line) { prefetch_far(line); });
}

/// prefetch_near of every line `*row` spans.
template <typename T>
inline void prefetch_row_near(const T* row) noexcept {
  static_assert(sizeof(T) <= kCacheLine, "a row spans at most two lines");
  hint_row_lines(row, sizeof(T), [](const void* line) { prefetch_near(line); });
}

}  // namespace dart
