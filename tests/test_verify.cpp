// Tests for the certificate-verification pipeline: CertVerifier structural
// and HMAC checks on hand-crafted QCs/TCs, equivalence of its memo of
// verified certificates with memo-free checking, the forge-qc Byzantine
// strategy end-to-end (forged certificates must be rejected and counted,
// never committed), strategy cost-model sanity, and determinism of the
// simulated multi-worker verify pool.

#include <gtest/gtest.h>

#include <string>
#include <utility>
#include <vector>

#include "client/workload.h"
#include "crypto/sha256.h"
#include "crypto/signer.h"
#include "harness/experiment.h"
#include "quorum/cert_verifier.h"
#include "types/certificates.h"
#include "util/rng.h"

namespace bamboo {
namespace {

using quorum::CertCheck;
using quorum::CertVerifier;

constexpr std::uint32_t kN = 4;  // quorum 3

/// A QC for (view, hash) signed honestly by replicas [0, signers).
types::QuorumCert signed_qc(const crypto::KeyStore& keys, types::View view,
                            const crypto::Digest& hash,
                            std::uint32_t signers = 3) {
  types::QuorumCert qc;
  qc.view = view;
  qc.height = 1;
  qc.block_hash = hash;
  const crypto::Digest digest = types::vote_digest(view, hash);
  for (std::uint32_t i = 0; i < signers; ++i) {
    qc.sigs.push_back(keys.sign(i, digest));
  }
  return qc;
}

/// A TC for `view` whose i-th signer honestly reports reported[i]; the
/// embedded high_qc must be supplied by the caller.
types::TimeoutCert signed_tc(const crypto::KeyStore& keys, types::View view,
                             std::vector<types::View> reported,
                             types::QuorumCert high_qc) {
  types::TimeoutCert tc;
  tc.view = view;
  tc.reported_qc_views = std::move(reported);
  tc.high_qc = std::move(high_qc);
  for (std::uint32_t i = 0; i < tc.reported_qc_views.size(); ++i) {
    tc.sigs.push_back(
        keys.sign(i, types::timeout_digest(view, tc.reported_qc_views[i])));
  }
  return tc;
}

class CertVerifierTest : public ::testing::Test {
 protected:
  crypto::KeyStore keys{42, kN};
  CertVerifier verifier{keys, kN};
  crypto::Digest h = crypto::Sha256::hash("block");
};

TEST_F(CertVerifierTest, ValidQcPasses) {
  EXPECT_EQ(verifier.check_qc(signed_qc(keys, 3, h)), CertCheck::kOk);
}

TEST_F(CertVerifierTest, GenesisQcValidByConvention) {
  EXPECT_EQ(verifier.check_qc(types::QuorumCert{}), CertCheck::kOk);
}

TEST_F(CertVerifierTest, TooFewSigsRejected) {
  EXPECT_EQ(verifier.check_qc(signed_qc(keys, 3, h, 2)),
            CertCheck::kTooFewSigs);
  types::QuorumCert empty;
  empty.view = 3;  // non-genesis, zero signatures
  EXPECT_EQ(verifier.check_qc(empty), CertCheck::kTooFewSigs);
}

TEST_F(CertVerifierTest, SignerOutOfRangeRejected) {
  auto qc = signed_qc(keys, 3, h);
  qc.sigs[1].signer = kN + 3;
  EXPECT_EQ(verifier.check_qc(qc), CertCheck::kSignerOutOfRange);
}

TEST_F(CertVerifierTest, DuplicateSignerRejected) {
  // Three signatures but only two distinct replicas: not a quorum, even
  // though both of signer 0's tags verify.
  auto qc = signed_qc(keys, 3, h);
  qc.sigs[2] = qc.sigs[0];
  EXPECT_EQ(verifier.check_qc(qc), CertCheck::kDuplicateSigner);
}

TEST_F(CertVerifierTest, ForgedTagRejected) {
  auto qc = signed_qc(keys, 3, h);
  qc.sigs[1].tag = crypto::Sha256::hash("not a real signature");
  EXPECT_EQ(verifier.check_qc(qc), CertCheck::kBadSignature);
}

TEST_F(CertVerifierTest, TamperedFieldsBreakEverySignature) {
  // Signatures bind (view, block_hash): altering either after signing must
  // invalidate the certificate.
  auto qc = signed_qc(keys, 3, h);
  qc.view = 4;
  EXPECT_EQ(verifier.check_qc(qc), CertCheck::kBadSignature);
  qc = signed_qc(keys, 3, h);
  qc.block_hash = crypto::Sha256::hash("other block");
  EXPECT_EQ(verifier.check_qc(qc), CertCheck::kBadSignature);
}

TEST_F(CertVerifierTest, ReusedVerifierStateIsClean) {
  // The epoch-tagged dedup scratch must not leak between calls: the same
  // signers passing once cannot trip the duplicate check later.
  const auto qc = signed_qc(keys, 3, h);
  EXPECT_EQ(verifier.check_qc(qc), CertCheck::kOk);
  EXPECT_EQ(verifier.check_qc(qc), CertCheck::kOk);
}

TEST_F(CertVerifierTest, ValidTcPasses) {
  const auto tc =
      signed_tc(keys, 5, {1, 3, 0}, signed_qc(keys, 3, h));
  EXPECT_EQ(verifier.check_tc(tc), CertCheck::kOk);
}

TEST_F(CertVerifierTest, TcReportedViewsMustMatchSigs) {
  auto tc = signed_tc(keys, 5, {1, 3, 0}, signed_qc(keys, 3, h));
  tc.reported_qc_views.push_back(2);  // 4 reports, 3 signatures
  EXPECT_EQ(verifier.check_tc(tc), CertCheck::kMalformed);
}

TEST_F(CertVerifierTest, TcHighQcMustBeMaxReported) {
  // AggQC invariant: the embedded high_qc must be the freshest QC any
  // signer reported. A stale or inflated high_qc is malformed.
  auto tc = signed_tc(keys, 5, {1, 3, 0}, signed_qc(keys, 2, h));
  EXPECT_EQ(verifier.check_tc(tc), CertCheck::kMalformed);
  tc = signed_tc(keys, 5, {1, 3, 0}, signed_qc(keys, 4, h));
  EXPECT_EQ(verifier.check_tc(tc), CertCheck::kMalformed);
}

TEST_F(CertVerifierTest, TcForgedTimeoutSigRejected) {
  auto tc = signed_tc(keys, 5, {1, 3, 0}, signed_qc(keys, 3, h));
  tc.sigs[0].tag = crypto::Sha256::hash("junk");
  EXPECT_EQ(verifier.check_tc(tc), CertCheck::kBadSignature);
}

TEST_F(CertVerifierTest, TcLyingReportRejected) {
  // Signer 1 signed "my high QC is view 3" but the TC claims it reported
  // view 2: the tag no longer matches the per-signer timeout digest.
  auto tc = signed_tc(keys, 5, {1, 3, 0}, signed_qc(keys, 3, h));
  tc.reported_qc_views[1] = 2;
  tc.high_qc = signed_qc(keys, 2, h);  // keep the max-invariant intact
  EXPECT_EQ(verifier.check_tc(tc), CertCheck::kBadSignature);
}

TEST_F(CertVerifierTest, TcBadEmbeddedHighQcRejected) {
  auto bad_qc = signed_qc(keys, 3, h);
  bad_qc.sigs[2].tag = crypto::Sha256::hash("junk");
  const auto tc = signed_tc(keys, 5, {1, 3, 0}, bad_qc);
  EXPECT_EQ(verifier.check_tc(tc), CertCheck::kBadSignature);
}

// ---------------------------------------------------------------------------
// The memo of verified certificates: a long-lived verifier must give the
// verdict a fresh (memo-free) one gives, on every certificate
// ---------------------------------------------------------------------------

/// Draws a seeded mix of valid, repeated, tampered and forged certificates.
class CertMix {
 public:
  CertMix(const crypto::KeyStore& keys, std::uint64_t seed)
      : keys_(keys), rng_(seed) {}

  /// One certificate; exactly one of the two is meaningful (`is_tc`).
  struct Draw {
    bool is_tc = false;
    types::QuorumCert qc;
    types::TimeoutCert tc;
  };

  Draw next() {
    view_ += rng_.uniform_u64(3);  // views advance past the memo window
    Draw d;
    switch (rng_.uniform_u64(10)) {
      case 0:
      case 1: d.qc = valid_qc(view_); break;
      case 2: d.is_tc = true; d.tc = valid_tc(view_); break;
      case 3:  // repeat of anything drawn before, however old
        if (!history_.empty()) {
          d = history_[rng_.uniform_u64(history_.size())];
        } else {
          d.qc = valid_qc(view_);
        }
        break;
      case 4: {  // one-tag-flipped look-alike of an earlier certificate
        d = history_.empty() ? Draw{false, valid_qc(view_), {}}
                             : history_[rng_.uniform_u64(history_.size())];
        flip_one_tag(d);
        break;
      }
      case 5: {  // two signers' ids swapped: both tags now mismatch
        d.qc = valid_qc(view_);
        std::swap(d.qc.sigs[0].signer, d.qc.sigs[1].signer);
        break;
      }
      case 6: {  // duplicate, out-of-range or too few signers
        d.qc = valid_qc(view_);
        const std::uint64_t kind = rng_.uniform_u64(3);
        if (kind == 0) d.qc.sigs[1] = d.qc.sigs[0];
        if (kind == 1) d.qc.sigs[2].signer = kN + 1 + rng_.uniform_u64(5);
        if (kind == 2) d.qc.sigs.resize(types::quorum_size(kN) - 1);
        break;
      }
      case 7:  // height is not signed: a tampered copy still verifies
        d.qc = valid_qc(view_);
        d.qc.height += 1 + rng_.uniform_u64(100);
        break;
      case 8: {  // forgery claiming a far-future view
        d.qc = valid_qc(view_);
        d.qc.view = 1'000'000'000'000ULL + rng_.uniform_u64(1'000'000);
        if (rng_.uniform_u64(2) == 0) {
          d.is_tc = true;
          d.tc = valid_tc(view_);
          d.tc.view = d.qc.view;
        }
        break;
      }
      default: {  // a TC whose embedded high_qc carries one bad tag
        d.is_tc = true;
        d.tc = valid_tc(view_);
        if (!d.tc.high_qc.sigs.empty()) d.tc.high_qc.sigs.back().tag[0] ^= 1;
        break;
      }
    }
    history_.push_back(d);
    return d;
  }

 private:
  /// A QC over a random quorum-or-larger signer subset in random order, so
  /// equal (view, hash) pairs can still differ in their bytes.
  types::QuorumCert valid_qc(types::View view) {
    types::QuorumCert qc;
    qc.view = view;
    qc.height = view;
    qc.block_hash = crypto::Sha256::hash(
        "block" + std::to_string(view) + "/" +
        std::to_string(rng_.uniform_u64(2)));
    const crypto::Digest digest = types::vote_digest(view, qc.block_hash);
    std::vector<std::uint32_t> ids(kN);
    for (std::uint32_t i = 0; i < kN; ++i) ids[i] = i;
    for (std::uint32_t i = kN - 1; i > 0; --i) {
      std::swap(ids[i], ids[rng_.uniform_u64(i + 1)]);
    }
    ids.resize(types::quorum_size(kN) + rng_.uniform_u64(2));
    for (const std::uint32_t id : ids) {
      qc.sigs.push_back(keys_.sign(id, digest));
    }
    return qc;
  }

  types::TimeoutCert valid_tc(types::View view) {
    const types::View high = view > 1 ? view - 1 - rng_.uniform_u64(2) : 0;
    std::vector<types::View> reported{high, high > 0 ? high - 1 : 0, 0};
    return signed_tc(keys_, view + 1, std::move(reported),
                     high == 0 ? types::QuorumCert{} : valid_qc(high));
  }

  void flip_one_tag(Draw& d) {
    std::vector<crypto::Signature>& sigs = d.is_tc ? d.tc.sigs : d.qc.sigs;
    if (sigs.empty()) return;
    sigs[rng_.uniform_u64(sigs.size())].tag[rng_.uniform_u64(32)] ^=
        static_cast<std::uint8_t>(1 + rng_.uniform_u64(255));
  }

  const crypto::KeyStore& keys_;
  util::Rng rng_;
  types::View view_ = 1;
  std::vector<Draw> history_;
};

TEST(CertVerifierMemo, MatchesMemoFreeVerdictOnEveryCertificate) {
  const crypto::KeyStore keys(42, kN);
  for (const std::uint64_t seed : {1u, 2u, 3u}) {
    CertVerifier memo(keys, kN);
    CertMix mix(keys, seed);
    std::uint32_t accepted = 0;
    std::uint32_t rejected = 0;
    for (int i = 0; i < 600; ++i) {
      const CertMix::Draw d = mix.next();
      CertVerifier fresh(keys, kN);
      const CertCheck want =
          d.is_tc ? fresh.check_tc(d.tc) : fresh.check_qc(d.qc);
      const CertCheck got =
          d.is_tc ? memo.check_tc(d.tc) : memo.check_qc(d.qc);
      ASSERT_EQ(got, want) << "seed " << seed << " draw " << i << ": "
                           << check_name(got) << " vs " << check_name(want);
      ++(want == CertCheck::kOk ? accepted : rejected);
    }
    // The mix must exercise both verdicts and leave a non-empty memo.
    EXPECT_GT(accepted, 100u) << seed;
    EXPECT_GT(rejected, 100u) << seed;
    EXPECT_GT(memo.memo_size(), 0u) << seed;
  }
}

TEST_F(CertVerifierTest, RejectionIsNotMemoized) {
  // A forged look-alike fails first; its genuine twin must still pass.
  const auto qc = signed_qc(keys, 3, h);
  auto forged = qc;
  forged.sigs[2].tag[5] ^= 0x40;
  EXPECT_EQ(verifier.check_qc(forged), CertCheck::kBadSignature);
  EXPECT_EQ(verifier.check_qc(qc), CertCheck::kOk);
  EXPECT_EQ(verifier.check_qc(forged), CertCheck::kBadSignature);
  const auto tc = signed_tc(keys, 5, {1, 3, 0}, qc);
  auto forged_tc = tc;
  forged_tc.sigs[0].tag[0] ^= 1;
  EXPECT_EQ(verifier.check_tc(forged_tc), CertCheck::kBadSignature);
  EXPECT_EQ(verifier.check_tc(tc), CertCheck::kOk);
}

TEST_F(CertVerifierTest, MemoIsPerKeyStore) {
  // A certificate accepted under one cluster's keys is checked afresh by a
  // verifier on another cluster's keys: there is no global memo.
  const auto qc = signed_qc(keys, 3, h);
  EXPECT_EQ(verifier.check_qc(qc), CertCheck::kOk);
  const crypto::KeyStore other_keys{43, kN};
  CertVerifier other(other_keys, kN);
  EXPECT_EQ(other.check_qc(qc), CertCheck::kBadSignature);
}

TEST_F(CertVerifierTest, FarFutureForgeryDoesNotFlushMemo) {
  EXPECT_EQ(verifier.check_qc(signed_qc(keys, 10, h)), CertCheck::kOk);
  ASSERT_EQ(verifier.memo_size(), 1u);
  auto forged = signed_qc(keys, 10, h);
  forged.view = 1'000'000'000'000ULL;
  EXPECT_EQ(verifier.check_qc(forged), CertCheck::kBadSignature);
  EXPECT_EQ(verifier.memo_size(), 1u);
}

TEST_F(CertVerifierTest, MemoStaysWithinViewWindow) {
  // One QC and one TC per view over 10 000 views: the memo never holds
  // more than the window's worth of views.
  constexpr std::size_t kBound = 2 * (CertVerifier::kMemoWindow + 1);
  types::QuorumCert prev = signed_qc(keys, 1, h);
  EXPECT_EQ(verifier.check_qc(prev), CertCheck::kOk);
  for (types::View v = 2; v <= 10'000; ++v) {
    const auto qc = signed_qc(keys, v, h);
    ASSERT_EQ(verifier.check_qc(qc), CertCheck::kOk) << v;
    const auto tc = signed_tc(keys, v, {prev.view, 0, 0}, prev);
    ASSERT_EQ(verifier.check_tc(tc), CertCheck::kOk) << v;
    ASSERT_LE(verifier.memo_size(), kBound) << v;
    prev = qc;
  }
  EXPECT_GT(verifier.memo_size(), CertVerifier::kMemoWindow);
  // A certificate from below the window is still verified in full.
  EXPECT_EQ(verifier.check_qc(signed_qc(keys, 5, h)), CertCheck::kOk);
  auto stale_forgery = signed_qc(keys, 5, h);
  stale_forgery.sigs[0].tag[0] ^= 1;
  EXPECT_EQ(verifier.check_qc(stale_forgery), CertCheck::kBadSignature);
}

// ---------------------------------------------------------------------------
// End-to-end: the verification pipeline inside full runs
// ---------------------------------------------------------------------------

harness::RunSpec e2e_spec(const std::string& protocol) {
  core::Config cfg;
  cfg.protocol = protocol;
  cfg.n_replicas = 4;
  cfg.bsize = 400;
  cfg.psize = 128;
  cfg.memsize = 200000;
  cfg.seed = 11;
  client::WorkloadConfig wl;
  wl.mode = client::LoadMode::kClosedLoop;
  wl.concurrency = 256;
  harness::RunSpec spec;
  spec.cfg = cfg;
  spec.workload = wl;
  spec.opts.warmup_s = 0.25;
  spec.opts.measure_s = 0.75;
  return spec;
}

TEST(VerifyPipeline, HonestRunVerifiesAndRejectsNothing) {
  const harness::RunResult r = harness::execute(e2e_spec("hotstuff"));
  EXPECT_GT(r.certs_verified, 0u);
  EXPECT_EQ(r.certs_rejected, 0u);
  EXPECT_TRUE(r.consistent);
}

TEST(VerifyPipeline, ForgeQcAttackIsRejectedEndToEnd) {
  // A Byzantine leader proposing off a stale parent under a forged QC (fake
  // HMAC tags from a full quorum of signer ids) must have every forged
  // certificate dropped at the receivers: the forgeries are counted, no
  // safety violation occurs, and the honest majority keeps committing.
  harness::RunSpec spec = e2e_spec("hotstuff");
  spec.cfg.byz_no = 1;
  spec.cfg.strategy = "forge-qc";
  const harness::RunResult r = harness::execute(spec);
  EXPECT_GT(r.certs_rejected, 0u);
  EXPECT_EQ(r.safety_violations, 0u);
  EXPECT_TRUE(r.consistent);
  EXPECT_GT(r.throughput_tps, 0.0);
}

TEST(VerifyPipeline, ForgeQcRejectedUnderEveryStrategy) {
  // The verify *strategy* changes only the simulated cost, never the
  // verdict: forgeries are rejected under batch and amortized-qc too.
  for (const char* strategy : {"batch", "amortized-qc"}) {
    harness::RunSpec spec = e2e_spec("hotstuff");
    spec.cfg.byz_no = 1;
    spec.cfg.strategy = "forge-qc";
    spec.cfg.verify_strategy = strategy;
    spec.cfg.cpu_verify_per_sig = sim::microseconds(10);
    const harness::RunResult r = harness::execute(spec);
    EXPECT_GT(r.certs_rejected, 0u) << strategy;
    EXPECT_EQ(r.safety_violations, 0u) << strategy;
    EXPECT_TRUE(r.consistent) << strategy;
  }
}

TEST(VerifyPipeline, VerifySurchargeCostsThroughput) {
  // Charging per-signature certificate verification must make the run
  // CPU-bound and commit less than the free-verification baseline.
  const harness::RunResult base = harness::execute(e2e_spec("hotstuff"));
  harness::RunSpec loaded = e2e_spec("hotstuff");
  loaded.cfg.verify_strategy = "eager";
  loaded.cfg.cpu_verify_per_sig = sim::microseconds(320);
  const harness::RunResult r = harness::execute(loaded);
  EXPECT_LT(r.throughput_tps, base.throughput_tps);
  EXPECT_TRUE(r.consistent);
}

TEST(VerifyPipeline, WorkerPoolRunsAreDeterministic) {
  // A multi-worker verify pool must stay bit-deterministic: the same spec
  // executed twice yields field-identical results.
  harness::RunSpec spec = e2e_spec("2chs");
  spec.cfg.cpu_workers = 4;
  spec.cfg.verify_strategy = "batch";
  spec.cfg.cpu_verify_per_sig = sim::microseconds(40);
  const harness::RunResult a = harness::execute(spec);
  const harness::RunResult b = harness::execute(spec);
  EXPECT_EQ(a, b);
  EXPECT_TRUE(a.consistent);
  EXPECT_GT(a.certs_verified, 0u);
}

TEST(VerifyPipeline, ExtraWorkersRelieveCpuPressure) {
  // Under a heavy eager surcharge, adding simulated verify workers must
  // not hurt throughput (the pool drains the same queue concurrently).
  harness::RunSpec spec = e2e_spec("hotstuff");
  spec.cfg.verify_strategy = "eager";
  spec.cfg.cpu_verify_per_sig = sim::microseconds(320);
  const harness::RunResult w1 = harness::execute(spec);
  spec.cfg.cpu_workers = 4;
  const harness::RunResult w4 = harness::execute(spec);
  EXPECT_GE(w4.throughput_tps, w1.throughput_tps);
  EXPECT_TRUE(w4.consistent);
}

}  // namespace
}  // namespace bamboo
