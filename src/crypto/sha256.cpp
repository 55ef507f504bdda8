#include "crypto/sha256.h"

#include <algorithm>
#include <cstring>

#include "crypto/sha256_detail.h"
#include "util/hex.h"

#if defined(__x86_64__) || defined(__i386__)
#include <cpuid.h>
#include <immintrin.h>
#endif

namespace bamboo::crypto {

namespace {

constexpr std::array<std::uint32_t, 64> kRoundConstants = {
    0x428a2f98, 0x71374491, 0xb5c0fbcf, 0xe9b5dba5, 0x3956c25b, 0x59f111f1,
    0x923f82a4, 0xab1c5ed5, 0xd807aa98, 0x12835b01, 0x243185be, 0x550c7dc3,
    0x72be5d74, 0x80deb1fe, 0x9bdc06a7, 0xc19bf174, 0xe49b69c1, 0xefbe4786,
    0x0fc19dc6, 0x240ca1cc, 0x2de92c6f, 0x4a7484aa, 0x5cb0a9dc, 0x76f988da,
    0x983e5152, 0xa831c66d, 0xb00327c8, 0xbf597fc7, 0xc6e00bf3, 0xd5a79147,
    0x06ca6351, 0x14292967, 0x27b70a85, 0x2e1b2138, 0x4d2c6dfc, 0x53380d13,
    0x650a7354, 0x766a0abb, 0x81c2c92e, 0x92722c85, 0xa2bfe8a1, 0xa81a664b,
    0xc24b8b70, 0xc76c51a3, 0xd192e819, 0xd6990624, 0xf40e3585, 0x106aa070,
    0x19a4c116, 0x1e376c08, 0x2748774c, 0x34b0bcb5, 0x391c0cb3, 0x4ed8aa4a,
    0x5b9cca4f, 0x682e6ff3, 0x748f82ee, 0x78a5636f, 0x84c87814, 0x8cc70208,
    0x90befffa, 0xa4506ceb, 0xbef9a3f7, 0xc67178f2};

constexpr std::array<std::uint32_t, 8> kInitialState = {
    0x6a09e667, 0xbb67ae85, 0x3c6ef372, 0xa54ff53a,
    0x510e527f, 0x9b05688c, 0x1f83d9ab, 0x5be0cd19};

constexpr std::uint32_t rotr(std::uint32_t x, int n) {
  return (x >> n) | (x << (32 - n));
}

}  // namespace

void Sha256::reset() {
  state_ = kInitialState;
  buffer_len_ = 0;
  total_len_ = 0;
}

namespace detail {

void compress_scalar(std::uint32_t* state, const std::uint8_t* block) {
  std::array<std::uint32_t, 64> w;
  for (int i = 0; i < 16; ++i) {
    w[static_cast<std::size_t>(i)] =
        (static_cast<std::uint32_t>(block[i * 4]) << 24) |
        (static_cast<std::uint32_t>(block[i * 4 + 1]) << 16) |
        (static_cast<std::uint32_t>(block[i * 4 + 2]) << 8) |
        static_cast<std::uint32_t>(block[i * 4 + 3]);
  }
  for (std::size_t i = 16; i < 64; ++i) {
    const std::uint32_t s0 =
        rotr(w[i - 15], 7) ^ rotr(w[i - 15], 18) ^ (w[i - 15] >> 3);
    const std::uint32_t s1 =
        rotr(w[i - 2], 17) ^ rotr(w[i - 2], 19) ^ (w[i - 2] >> 10);
    w[i] = w[i - 16] + s0 + w[i - 7] + s1;
  }

  std::uint32_t a = state[0], b = state[1], c = state[2], d = state[3];
  std::uint32_t e = state[4], f = state[5], g = state[6], h = state[7];

  for (std::size_t i = 0; i < 64; ++i) {
    const std::uint32_t s1 = rotr(e, 6) ^ rotr(e, 11) ^ rotr(e, 25);
    const std::uint32_t ch = (e & f) ^ (~e & g);
    const std::uint32_t temp1 = h + s1 + ch + kRoundConstants[i] + w[i];
    const std::uint32_t s0 = rotr(a, 2) ^ rotr(a, 13) ^ rotr(a, 22);
    const std::uint32_t maj = (a & b) ^ (a & c) ^ (b & c);
    const std::uint32_t temp2 = s0 + maj;
    h = g;
    g = f;
    f = e;
    e = d + temp1;
    d = c;
    c = b;
    b = a;
    a = temp1 + temp2;
  }

  state[0] += a;
  state[1] += b;
  state[2] += c;
  state[3] += d;
  state[4] += e;
  state[5] += f;
  state[6] += g;
  state[7] += h;
}

#if defined(__x86_64__) || defined(__i386__)

namespace {

/// SHA-NI compression. The state lives in two registers as ABEF/CDGH; each
/// quad-round adds four round constants to four schedule words and runs
/// two sha256rnds2 (two rounds each). The schedule rolls through m0..m3,
/// extended four words at a time by sha256msg1/msg2.
__attribute__((target("sha,sse4.1"))) void compress_shani(
    std::uint32_t* state, const std::uint8_t* block) {
  const __m128i kByteSwap =
      _mm_set_epi64x(0x0c0d0e0f08090a0bLL, 0x0405060700010203LL);
  const __m128i* words = reinterpret_cast<const __m128i*>(block);
  const __m128i* k = reinterpret_cast<const __m128i*>(kRoundConstants.data());

  const __m128i cdab = _mm_shuffle_epi32(
      _mm_loadu_si128(reinterpret_cast<const __m128i*>(state)), 0xB1);
  const __m128i efgh = _mm_shuffle_epi32(
      _mm_loadu_si128(reinterpret_cast<const __m128i*>(state + 4)), 0x1B);
  __m128i abef = _mm_alignr_epi8(cdab, efgh, 8);
  __m128i cdgh = _mm_blend_epi16(efgh, cdab, 0xF0);
  const __m128i abef_in = abef;
  const __m128i cdgh_in = cdgh;

  __m128i m0 = _mm_shuffle_epi8(_mm_loadu_si128(words), kByteSwap);
  __m128i m1 = _mm_shuffle_epi8(_mm_loadu_si128(words + 1), kByteSwap);
  __m128i m2 = _mm_shuffle_epi8(_mm_loadu_si128(words + 2), kByteSwap);
  __m128i m3 = _mm_shuffle_epi8(_mm_loadu_si128(words + 3), kByteSwap);

  for (std::size_t q = 0; q < 16; ++q) {
    const __m128i wk = _mm_add_epi32(m0, _mm_loadu_si128(k + q));
    cdgh = _mm_sha256rnds2_epu32(cdgh, abef, wk);
    abef = _mm_sha256rnds2_epu32(abef, cdgh, _mm_shuffle_epi32(wk, 0x0E));
    // W[t] = s1(W[t-2]) + W[t-7] + s0(W[t-15]) + W[t-16], four at a time.
    const __m128i next = _mm_sha256msg2_epu32(
        _mm_add_epi32(_mm_sha256msg1_epu32(m0, m1),
                      _mm_alignr_epi8(m3, m2, 4)),
        m3);
    m0 = m1;
    m1 = m2;
    m2 = m3;
    m3 = next;
  }

  abef = _mm_add_epi32(abef, abef_in);
  cdgh = _mm_add_epi32(cdgh, cdgh_in);
  const __m128i feba = _mm_shuffle_epi32(abef, 0x1B);
  const __m128i dchg = _mm_shuffle_epi32(cdgh, 0xB1);
  _mm_storeu_si128(reinterpret_cast<__m128i*>(state),
                   _mm_blend_epi16(feba, dchg, 0xF0));  // DCBA
  _mm_storeu_si128(reinterpret_cast<__m128i*>(state + 4),
                   _mm_alignr_epi8(dchg, feba, 8));  // HGFE
}

}  // namespace

CompressFn shani_kernel() {
  unsigned eax = 0, ebx = 0, ecx = 0, edx = 0;
  if (__get_cpuid(1, &eax, &ebx, &ecx, &edx) == 0) return nullptr;
  const bool ssse3 = (ecx & bit_SSSE3) != 0;
  const bool sse41 = (ecx & bit_SSE4_1) != 0;
  if (__get_cpuid_count(7, 0, &eax, &ebx, &ecx, &edx) == 0) return nullptr;
  const bool sha = (ebx & bit_SHA) != 0;
  return ssse3 && sse41 && sha ? &compress_shani : nullptr;
}

#else

CompressFn shani_kernel() { return nullptr; }

#endif

}  // namespace detail

void Sha256::process_block(const std::uint8_t* block) {
  // Chosen once per process: the CPU does not change under us.
  static const detail::CompressFn compress = [] {
    const detail::CompressFn hw = detail::shani_kernel();
    return hw != nullptr ? hw : &detail::compress_scalar;
  }();
  compress(state_.data(), block);
}

void Sha256::update(std::span<const std::uint8_t> data) {
  total_len_ += data.size();
  std::size_t offset = 0;
  if (buffer_len_ > 0) {
    const std::size_t take = std::min(data.size(), 64 - buffer_len_);
    std::memcpy(buffer_.data() + buffer_len_, data.data(), take);
    buffer_len_ += take;
    offset = take;
    if (buffer_len_ == 64) {
      process_block(buffer_.data());
      buffer_len_ = 0;
    }
  }
  while (offset + 64 <= data.size()) {
    process_block(data.data() + offset);
    offset += 64;
  }
  if (offset < data.size()) {
    std::memcpy(buffer_.data(), data.data() + offset, data.size() - offset);
    buffer_len_ = data.size() - offset;
  }
}

template <std::size_t N>
void Sha256::update_le(std::uint64_t v) {
  // Room in the buffer (without filling it): write the bytes in place.
  if (buffer_len_ + N < 64) {
    for (std::size_t i = 0; i < N; ++i)
      buffer_[buffer_len_ + i] = static_cast<std::uint8_t>(v >> (8 * i));
    buffer_len_ += N;
    total_len_ += N;
    return;
  }
  std::array<std::uint8_t, N> bytes;
  for (std::size_t i = 0; i < N; ++i)
    bytes[i] = static_cast<std::uint8_t>(v >> (8 * i));
  update(bytes);
}

void Sha256::update_u64(std::uint64_t v) { update_le<8>(v); }

void Sha256::update_u32(std::uint32_t v) { update_le<4>(v); }

Digest Sha256::finish() {
  const std::uint64_t bit_len = total_len_ * 8;
  // Padding: 0x80, zeros to 56 mod 64, then the 64-bit big-endian bit
  // length, written straight into the buffer (one or two compressions).
  buffer_[buffer_len_++] = 0x80;
  if (buffer_len_ > 56) {
    std::memset(buffer_.data() + buffer_len_, 0, 64 - buffer_len_);
    process_block(buffer_.data());
    buffer_len_ = 0;
  }
  std::memset(buffer_.data() + buffer_len_, 0, 56 - buffer_len_);
  for (std::size_t i = 0; i < 8; ++i)
    buffer_[56 + i] = static_cast<std::uint8_t>(bit_len >> (8 * (7 - i)));
  process_block(buffer_.data());
  buffer_len_ = 0;

  Digest out;
  for (int i = 0; i < 8; ++i) {
    const std::uint32_t word = state_[static_cast<std::size_t>(i)];
    out[static_cast<std::size_t>(i * 4)] = static_cast<std::uint8_t>(word >> 24);
    out[static_cast<std::size_t>(i * 4 + 1)] =
        static_cast<std::uint8_t>(word >> 16);
    out[static_cast<std::size_t>(i * 4 + 2)] =
        static_cast<std::uint8_t>(word >> 8);
    out[static_cast<std::size_t>(i * 4 + 3)] = static_cast<std::uint8_t>(word);
  }
  return out;
}

Digest Sha256::hash(std::span<const std::uint8_t> data) {
  Sha256 h;
  h.update(data);
  return h.finish();
}

Digest Sha256::hash(std::string_view text) {
  Sha256 h;
  h.update(text);
  return h.finish();
}

Sha256Midstate Sha256::midstate() const {
  // Only exact block boundaries can be captured: a partial buffer would
  // have to be re-fed on resume.
  return Sha256Midstate{state_, total_len_ - buffer_len_};
}

std::pair<Sha256Midstate, Sha256Midstate> hmac_midstates(
    std::span<const std::uint8_t> key) {
  std::array<std::uint8_t, 64> block_key{};
  if (key.size() > 64) {
    const Digest hashed = Sha256::hash(key);
    std::memcpy(block_key.data(), hashed.data(), hashed.size());
  } else {
    std::memcpy(block_key.data(), key.data(), key.size());
  }

  std::array<std::uint8_t, 64> ipad;
  std::array<std::uint8_t, 64> opad;
  for (std::size_t i = 0; i < 64; ++i) {
    ipad[i] = static_cast<std::uint8_t>(block_key[i] ^ 0x36);
    opad[i] = static_cast<std::uint8_t>(block_key[i] ^ 0x5c);
  }

  Sha256 inner;
  inner.update(ipad);
  Sha256 outer;
  outer.update(opad);
  return {inner.midstate(), outer.midstate()};
}

Digest hmac_sha256(const Sha256Midstate& inner_mid,
                   const Sha256Midstate& outer_mid,
                   std::span<const std::uint8_t> message) {
  Sha256 inner(inner_mid);
  inner.update(message);
  const Digest inner_digest = inner.finish();

  Sha256 outer(outer_mid);
  outer.update(inner_digest);
  return outer.finish();
}

Digest hmac_sha256(std::span<const std::uint8_t> key,
                   std::span<const std::uint8_t> message) {
  const auto [inner, outer] = hmac_midstates(key);
  return hmac_sha256(inner, outer, message);
}

std::string short_hex(const Digest& d) {
  return util::to_hex(std::span<const std::uint8_t>(d.data(), 4));
}

std::string to_hex(const Digest& d) {
  return util::to_hex(std::span<const std::uint8_t>(d.data(), d.size()));
}

}  // namespace bamboo::crypto
