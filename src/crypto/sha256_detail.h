#pragma once

// Internal to the crypto module: the SHA-256 compression kernels behind
// Sha256::process_block. Exposed so tests can run each kernel directly.

#include <cstdint>

namespace bamboo::crypto::detail {

/// One SHA-256 compression: folds the 64-byte `block` into `state[8]`.
using CompressFn = void (*)(std::uint32_t* state, const std::uint8_t* block);

/// Portable FIPS 180-4 compression; runs on every target.
void compress_scalar(std::uint32_t* state, const std::uint8_t* block);

/// The x86 SHA extensions (SHA-NI) kernel, or nullptr when this CPU lacks
/// SHA, SSE4.1 or SSSE3, or the build targets another architecture.
[[nodiscard]] CompressFn shani_kernel();

}  // namespace bamboo::crypto::detail
