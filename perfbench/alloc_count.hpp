// Per-thread heap-allocation counter, linked into pb_world_traced only.
#pragma once

#include <cstdint>

namespace pb {

/// Heap allocations (every operator new) by all threads so far.
[[nodiscard]] std::uint64_t allocations() noexcept;

}  // namespace pb
