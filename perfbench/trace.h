#pragma once
// Per-layer span accounting. The traced build (trace.cpp) wraps each
// layer's cross-module entry points with GNU ld --wrap and keeps a span
// stack; the untraced build (untraced.cpp) links a stub that records
// nothing. Host time not covered by any span is the `core` residual:
// replica, protocol, pacemaker and client code, which is reached through
// virtual calls and handlers that cannot be wrapped.

#include <cstdint>

namespace perfbench::trace {

enum Layer : int {
  kForest,
  kCrypto,
  kQuorum,
  kSim,
  kNet,
  kMempool,
  kSync,
  kHarness,
  kLayerCount,
};

inline constexpr const char* kLayerNames[kLayerCount] = {
    "forest", "crypto", "quorum", "sim", "net", "mempool", "sync", "harness"};

struct Totals {
  std::uint64_t calls[kLayerCount] = {};
  std::int64_t total_ns[kLayerCount] = {};  ///< span durations
  std::int64_t self_ns[kLayerCount] = {};   ///< minus nested spans
  std::uint64_t verifies = 0;          ///< KeyStore::verify calls
  std::uint64_t blocks_committed = 0;  ///< blocks committed, all replicas
};

/// True in the traced build.
[[nodiscard]] bool enabled();
void reset();
[[nodiscard]] Totals read();

}  // namespace perfbench::trace
