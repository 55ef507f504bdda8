// SHA-256 against NIST/FIPS 180-4 test vectors, HMAC-SHA256 against RFC
// 4231, both compression kernels against each other and against a
// byte-wise padding model, and the simulated signature scheme.

#include <gtest/gtest.h>

#include <array>
#include <cstdint>
#include <random>
#include <string>
#include <vector>

#include "crypto/sha256.h"
#include "crypto/sha256_detail.h"
#include "crypto/signer.h"
#include "util/hex.h"

namespace bamboo {
namespace {

std::string hex_of(const crypto::Digest& d) { return crypto::to_hex(d); }

// ---------------------------------------------------------------------------
// SHA-256 vectors
// ---------------------------------------------------------------------------

TEST(Sha256, EmptyString) {
  EXPECT_EQ(
      hex_of(crypto::Sha256::hash("")),
      "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855");
}

TEST(Sha256, Abc) {
  EXPECT_EQ(
      hex_of(crypto::Sha256::hash("abc")),
      "ba7816bf8f01cfea414140de5dae2223b00361a396177a9cb410ff61f20015ad");
}

TEST(Sha256, TwoBlockMessage) {
  EXPECT_EQ(
      hex_of(crypto::Sha256::hash(
          "abcdbcdecdefdefgefghfghighijhijkijkljklmklmnlmnomnopnopq")),
      "248d6a61d20638b8e5c026930c3e6039a33ce45964ff2167f6ecedd419db06c1");
}

TEST(Sha256, LongerVector) {
  EXPECT_EQ(
      hex_of(crypto::Sha256::hash(
          "abcdefghbcdefghicdefghijdefghijkefghijklfghijklmghijklmnhijklmno"
          "ijklmnopjklmnopqklmnopqrlmnopqrsmnopqrstnopqrstu")),
      "cf5b16a778af8380036ce59e7b0492370b249b11e8f07a51afac45037afee9d1");
}

TEST(Sha256, MillionAs) {
  crypto::Sha256 h;
  const std::string chunk(1000, 'a');
  for (int i = 0; i < 1000; ++i) h.update(chunk);
  EXPECT_EQ(
      hex_of(h.finish()),
      "cdc76e5c9914fb9281a1c7e284d73e67f1809a48a497200e046d39ccc7112cd0");
}

TEST(Sha256, IncrementalMatchesOneShot) {
  const std::string msg = "The quick brown fox jumps over the lazy dog";
  crypto::Sha256 h;
  for (char c : msg) {
    h.update(std::string_view(&c, 1));
  }
  EXPECT_EQ(h.finish(), crypto::Sha256::hash(msg));
}

TEST(Sha256, BoundaryLengths) {
  // Exercise the padding edge cases around the 55/56/64 byte boundaries.
  for (std::size_t len : {55u, 56u, 57u, 63u, 64u, 65u, 119u, 120u}) {
    const std::string msg(len, 'x');
    crypto::Sha256 a;
    a.update(msg);
    crypto::Sha256 b;
    b.update(msg.substr(0, len / 2));
    b.update(msg.substr(len / 2));
    EXPECT_EQ(a.finish(), b.finish()) << "length " << len;
  }
}

TEST(Sha256, ResetAllowsReuse) {
  crypto::Sha256 h;
  h.update("garbage");
  (void)h.finish();
  h.reset();
  h.update("abc");
  EXPECT_EQ(
      hex_of(h.finish()),
      "ba7816bf8f01cfea414140de5dae2223b00361a396177a9cb410ff61f20015ad");
}

TEST(Sha256, IntegerAbsorption) {
  crypto::Sha256 a;
  a.update_u64(0x0807060504030201ULL);
  crypto::Sha256 b;
  const std::vector<std::uint8_t> bytes = {1, 2, 3, 4, 5, 6, 7, 8};
  b.update(bytes);
  EXPECT_EQ(a.finish(), b.finish());
}

TEST(Sha256, MidstateResumeMatchesFull) {
  // Capturing the compression state on a block boundary and resuming must
  // reproduce the one-shot digest exactly — the contract behind the
  // KeyStore's cached HMAC ipad/opad prefixes.
  const std::string prefix(64, 'p');
  for (std::size_t suffix_len : {0u, 1u, 32u, 63u, 64u, 200u}) {
    const std::string suffix(suffix_len, 's');
    crypto::Sha256 head;
    head.update(prefix);
    crypto::Sha256 resumed(head.midstate());
    resumed.update(suffix);
    EXPECT_EQ(resumed.finish(), crypto::Sha256::hash(prefix + suffix))
        << suffix_len;
  }
}

// ---------------------------------------------------------------------------
// HMAC-SHA256 (RFC 4231)
// ---------------------------------------------------------------------------

TEST(HmacSha256, Rfc4231Case1) {
  const std::vector<std::uint8_t> key(20, 0x0b);
  const std::string msg = "Hi There";
  const auto mac = crypto::hmac_sha256(
      key, std::span<const std::uint8_t>(
               reinterpret_cast<const std::uint8_t*>(msg.data()), msg.size()));
  EXPECT_EQ(
      hex_of(mac),
      "b0344c61d8db38535ca8afceaf0bf12b881dc200c9833da726e9376c2e32cff7");
}

TEST(HmacSha256, Rfc4231Case2) {
  const std::string key = "Jefe";
  const std::string msg = "what do ya want for nothing?";
  const auto mac = crypto::hmac_sha256(
      std::span<const std::uint8_t>(
          reinterpret_cast<const std::uint8_t*>(key.data()), key.size()),
      std::span<const std::uint8_t>(
          reinterpret_cast<const std::uint8_t*>(msg.data()), msg.size()));
  EXPECT_EQ(
      hex_of(mac),
      "5bdcc146bf60754e6a042426089575c75a003f089d2739839dec58b964ec3843");
}

TEST(HmacSha256, LongKeyIsHashed) {
  const std::vector<std::uint8_t> key(131, 0xaa);
  const std::string msg = "Test Using Larger Than Block-Size Key - Hash Key First";
  const auto mac = crypto::hmac_sha256(
      key, std::span<const std::uint8_t>(
               reinterpret_cast<const std::uint8_t*>(msg.data()), msg.size()));
  EXPECT_EQ(
      hex_of(mac),
      "60e431591ee0b67f0d8a26aacbf5b77f8e0bc6213728c5140546040f0ee37f54");
}

// ---------------------------------------------------------------------------
// Compression kernels and padding
// ---------------------------------------------------------------------------

using Bytes = std::vector<std::uint8_t>;

Bytes bytes_of(std::string_view s) { return Bytes(s.begin(), s.end()); }

/// Reference SHA-256 built byte by byte: append 0x80, then zeros until the
/// length is 56 mod 64, then the 64-bit big-endian bit length, and compress
/// the result block by block with `kernel` from the FIPS 180-4 initial state.
crypto::Digest model_hash(crypto::detail::CompressFn kernel, Bytes msg) {
  const std::uint64_t bit_len = static_cast<std::uint64_t>(msg.size()) * 8;
  msg.push_back(0x80);
  while (msg.size() % 64 != 56) msg.push_back(0x00);
  for (int shift = 56; shift >= 0; shift -= 8)
    msg.push_back(static_cast<std::uint8_t>(bit_len >> shift));
  std::array<std::uint32_t, 8> state = {0x6a09e667, 0xbb67ae85, 0x3c6ef372,
                                        0xa54ff53a, 0x510e527f, 0x9b05688c,
                                        0x1f83d9ab, 0x5be0cd19};
  for (std::size_t off = 0; off < msg.size(); off += 64)
    kernel(state.data(), msg.data() + off);
  crypto::Digest out;
  for (std::size_t i = 0; i < 32; ++i)
    out[i] = static_cast<std::uint8_t>(state[i / 4] >> (24 - 8 * (i % 4)));
  return out;
}

/// HMAC-SHA256 (RFC 2104) over model_hash, so a kernel can be checked
/// against the RFC 4231 vectors on its own.
crypto::Digest model_hmac(crypto::detail::CompressFn kernel, Bytes key,
                          const Bytes& msg) {
  if (key.size() > 64) {
    const crypto::Digest k = model_hash(kernel, key);
    key.assign(k.begin(), k.end());
  }
  key.resize(64, 0x00);
  Bytes inner;
  Bytes outer;
  for (std::uint8_t b : key) {
    inner.push_back(static_cast<std::uint8_t>(b ^ 0x36));
    outer.push_back(static_cast<std::uint8_t>(b ^ 0x5c));
  }
  inner.insert(inner.end(), msg.begin(), msg.end());
  const crypto::Digest inner_digest = model_hash(kernel, inner);
  outer.insert(outer.end(), inner_digest.begin(), inner_digest.end());
  return model_hash(kernel, outer);
}

/// Both kernels this CPU can run: the portable one always, SHA-NI when the
/// CPU has the SHA extensions.
std::vector<crypto::detail::CompressFn> kernels() {
  std::vector<crypto::detail::CompressFn> out = {
      &crypto::detail::compress_scalar};
  if (crypto::detail::CompressFn hw = crypto::detail::shani_kernel())
    out.push_back(hw);
  return out;
}

TEST(Sha256Kernels, HardwareMatchesScalarOnRandomBlocks) {
  const crypto::detail::CompressFn hw = crypto::detail::shani_kernel();
  if (hw == nullptr) GTEST_SKIP() << "CPU lacks the SHA extensions";
  std::mt19937_64 rng(0x5ba256);
  for (int trial = 0; trial < 20000; ++trial) {
    std::array<std::uint32_t, 8> state;
    for (auto& w : state) w = static_cast<std::uint32_t>(rng());
    std::array<std::uint8_t, 64> block;
    for (auto& b : block) b = static_cast<std::uint8_t>(rng());
    std::array<std::uint32_t, 8> expect = state;
    crypto::detail::compress_scalar(expect.data(), block.data());
    hw(state.data(), block.data());
    ASSERT_EQ(state, expect) << "trial " << trial;
  }
}

TEST(Sha256Kernels, NistVectorsOnEveryKernel) {
  const std::pair<std::string, std::string> vectors[] = {
      {"", "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855"},
      {"abc",
       "ba7816bf8f01cfea414140de5dae2223b00361a396177a9cb410ff61f20015ad"},
      {"abcdbcdecdefdefgefghfghighijhijkijkljklmklmnlmnomnopnopq",
       "248d6a61d20638b8e5c026930c3e6039a33ce45964ff2167f6ecedd419db06c1"},
      {"abcdefghbcdefghicdefghijdefghijkefghijklfghijklmghijklmnhijklmno"
       "ijklmnopjklmnopqklmnopqrlmnopqrsmnopqrstnopqrstu",
       "cf5b16a778af8380036ce59e7b0492370b249b11e8f07a51afac45037afee9d1"},
      {std::string(1000000, 'a'),
       "cdc76e5c9914fb9281a1c7e284d73e67f1809a48a497200e046d39ccc7112cd0"}};
  for (const crypto::detail::CompressFn kernel : kernels()) {
    for (const auto& [msg, want] : vectors) {
      EXPECT_EQ(hex_of(model_hash(kernel, bytes_of(msg))), want)
          << "length " << msg.size();
    }
  }
}

TEST(Sha256Kernels, Rfc4231VectorsOnEveryKernel) {
  struct Case {
    Bytes key;
    std::string msg;
    std::string want;
  };
  const Case cases[] = {
      {Bytes(20, 0x0b), "Hi There",
       "b0344c61d8db38535ca8afceaf0bf12b881dc200c9833da726e9376c2e32cff7"},
      {bytes_of("Jefe"), "what do ya want for nothing?",
       "5bdcc146bf60754e6a042426089575c75a003f089d2739839dec58b964ec3843"},
      {Bytes(131, 0xaa),
       "Test Using Larger Than Block-Size Key - Hash Key First",
       "60e431591ee0b67f0d8a26aacbf5b77f8e0bc6213728c5140546040f0ee37f54"}};
  for (const crypto::detail::CompressFn kernel : kernels()) {
    for (const Case& c : cases) {
      EXPECT_EQ(hex_of(model_hmac(kernel, c.key, bytes_of(c.msg))), c.want)
          << c.msg;
    }
  }
}

TEST(Sha256, FinishMatchesBytewisePaddingModel) {
  // Every length through four blocks, each hashed whole and split at every
  // point, so the 0x80 lands at every buffer offset and both the one- and
  // two-compression tails of finish() run.
  std::mt19937_64 rng(256);
  Bytes msg;
  for (std::size_t len = 0; len <= 256; ++len) {
    const crypto::Digest want =
        model_hash(&crypto::detail::compress_scalar, msg);
    for (std::size_t split = 0; split <= len; ++split) {
      crypto::Sha256 h;
      h.update(std::span<const std::uint8_t>(msg.data(), split));
      h.update(std::span<const std::uint8_t>(msg.data() + split, len - split));
      ASSERT_EQ(h.finish(), want) << "length " << len << " split " << split;
    }
    msg.push_back(static_cast<std::uint8_t>(rng()));
  }
}

TEST(Sha256, IntegerAppendsMatchBytesAtEveryOffset) {
  // update_u32/update_u64 write into the buffer in place when it has room;
  // the digest must equal hashing the same little-endian bytes.
  const std::uint64_t v64 = 0x0102030405060708ULL;
  const std::uint32_t v32 = 0xa1b2c3d4U;
  for (std::size_t prefix = 0; prefix <= 130; ++prefix) {
    const std::string head(prefix, 'h');
    crypto::Sha256 a;
    a.update(head);
    a.update_u64(v64);
    a.update_u32(v32);
    a.update_u64(v64);
    Bytes bytes = bytes_of(head);
    const auto append_le = [&bytes](std::uint64_t v, int n) {
      for (int i = 0; i < n; ++i)
        bytes.push_back(static_cast<std::uint8_t>(v >> (8 * i)));
    };
    append_le(v64, 8);
    append_le(v32, 4);
    append_le(v64, 8);
    EXPECT_EQ(a.finish(), crypto::Sha256::hash(bytes)) << "prefix " << prefix;
  }
}

// ---------------------------------------------------------------------------
// Simulated signatures
// ---------------------------------------------------------------------------

TEST(KeyStore, SignVerifyRoundTrip) {
  crypto::KeyStore keys(1234, 4);
  const auto digest = crypto::Sha256::hash("message");
  const auto sig = keys.sign(2, digest);
  EXPECT_EQ(sig.signer, 2u);
  EXPECT_TRUE(keys.verify(sig, digest));
}

TEST(KeyStore, RejectsTamperedMessage) {
  crypto::KeyStore keys(1234, 4);
  const auto sig = keys.sign(1, crypto::Sha256::hash("message"));
  EXPECT_FALSE(keys.verify(sig, crypto::Sha256::hash("other message")));
}

TEST(KeyStore, RejectsForgedSigner) {
  crypto::KeyStore keys(1234, 4);
  const auto digest = crypto::Sha256::hash("message");
  auto sig = keys.sign(1, digest);
  sig.signer = 3;  // claim someone else signed it
  EXPECT_FALSE(keys.verify(sig, digest));
}

TEST(KeyStore, RejectsUnknownSigner) {
  crypto::KeyStore keys(1234, 4);
  const auto digest = crypto::Sha256::hash("m");
  auto sig = keys.sign(0, digest);
  sig.signer = 17;  // out of range
  EXPECT_FALSE(keys.verify(sig, digest));
}

TEST(KeyStore, DistinctNodesDistinctSignatures) {
  crypto::KeyStore keys(1234, 4);
  const auto digest = crypto::Sha256::hash("m");
  EXPECT_NE(keys.sign(0, digest).tag, keys.sign(1, digest).tag);
}

TEST(KeyStore, DistinctClustersDistinctKeys) {
  crypto::KeyStore a(1, 4);
  crypto::KeyStore b(2, 4);
  const auto digest = crypto::Sha256::hash("m");
  EXPECT_NE(a.sign(0, digest).tag, b.sign(0, digest).tag);
  EXPECT_FALSE(b.verify(a.sign(0, digest), digest));
}

TEST(KeyStore, DeterministicAcrossInstances) {
  crypto::KeyStore a(7, 4);
  crypto::KeyStore b(7, 4);
  const auto digest = crypto::Sha256::hash("m");
  EXPECT_EQ(a.sign(3, digest).tag, b.sign(3, digest).tag);
}

}  // namespace
}  // namespace bamboo
