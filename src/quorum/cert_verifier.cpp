#include "quorum/cert_verifier.h"

#include <algorithm>

namespace bamboo::quorum {

const char* check_name(CertCheck c) {
  switch (c) {
    case CertCheck::kOk: return "ok";
    case CertCheck::kTooFewSigs: return "too-few-sigs";
    case CertCheck::kSignerOutOfRange: return "signer-out-of-range";
    case CertCheck::kDuplicateSigner: return "duplicate-signer";
    case CertCheck::kBadSignature: return "bad-signature";
    case CertCheck::kMalformed: return "malformed";
  }
  return "?";
}

CertVerifier::CertVerifier(const crypto::KeyStore& keys,
                           std::uint32_t n_replicas)
    : keys_(keys),
      n_(n_replicas),
      quorum_(types::quorum_size(n_replicas)),
      seen_epoch_(n_replicas, 0) {}

std::size_t CertVerifier::memo_size() const {
  std::size_t size = 0;
  for (const auto& [view, certs] : qc_memo_) size += certs.size();
  for (const auto& [view, certs] : tc_memo_) size += certs.size();
  return size;
}

// Memo: certificates are formed once and then reach every replica, often
// several times (each recipient of a proposal checks its justify QC;
// Streamlet echoes, timeout storms attaching the same high-QC and sync
// responses repeat it), so at n replicas the same HMAC tags would be
// evaluated about n times. Since a verdict is a pure function of the
// certificate, the KeyStore and n, remembering successes cannot change any
// verdict. A hit needs full equality — a look-alike with one forged tag
// never matches and goes through the full check — and failures are never
// stored, so a genuine twin of a rejected forgery is still accepted.
template <typename Cert>
bool CertVerifier::recall(const Memo<Cert>& memo, const Cert& cert) {
  const auto it = memo.find(cert.view);
  return it != memo.end() &&
         std::find(it->second.begin(), it->second.end(), cert) !=
             it->second.end();
}

// Only a certificate that passed moves the window, so a forgery claiming
// a huge view cannot flush the memo.
template <typename Cert>
void CertVerifier::remember(Memo<Cert>& memo, const Cert& cert) {
  if (cert.view > top_view_) {
    top_view_ = cert.view;
    const types::View horizon =
        top_view_ > kMemoWindow ? top_view_ - kMemoWindow : 0;
    qc_memo_.erase(qc_memo_.begin(), qc_memo_.lower_bound(horizon));
    tc_memo_.erase(tc_memo_.begin(), tc_memo_.lower_bound(horizon));
  }
  if (top_view_ - cert.view > kMemoWindow) return;  // below the window
  memo[cert.view].push_back(cert);
}

CertCheck CertVerifier::check_signers(
    const std::vector<crypto::Signature>& sigs) {
  if (sigs.size() < quorum_) return CertCheck::kTooFewSigs;
  ++epoch_;
  for (const crypto::Signature& sig : sigs) {
    if (sig.signer >= n_) return CertCheck::kSignerOutOfRange;
    if (seen_epoch_[sig.signer] == epoch_) return CertCheck::kDuplicateSigner;
    seen_epoch_[sig.signer] = epoch_;
  }
  return CertCheck::kOk;
}

CertCheck CertVerifier::check_qc(const types::QuorumCert& qc) {
  if (qc.is_genesis()) return CertCheck::kOk;
  if (recall(qc_memo_, qc)) return CertCheck::kOk;
  const CertCheck c = verify_qc(qc);
  if (c == CertCheck::kOk) remember(qc_memo_, qc);
  return c;
}

CertCheck CertVerifier::check_tc(const types::TimeoutCert& tc) {
  if (recall(tc_memo_, tc)) return CertCheck::kOk;
  const CertCheck c = verify_tc(tc);
  if (c == CertCheck::kOk) remember(tc_memo_, tc);
  return c;
}

CertCheck CertVerifier::verify_qc(const types::QuorumCert& qc) {
  if (const CertCheck c = check_signers(qc.sigs); c != CertCheck::kOk)
    return c;
  const crypto::Digest digest = types::vote_digest(qc.view, qc.block_hash);
  for (const crypto::Signature& sig : qc.sigs) {
    if (!keys_.verify(sig, digest)) return CertCheck::kBadSignature;
  }
  return CertCheck::kOk;
}

CertCheck CertVerifier::verify_tc(const types::TimeoutCert& tc) {
  if (tc.reported_qc_views.size() != tc.sigs.size())
    return CertCheck::kMalformed;
  if (const CertCheck c = check_signers(tc.sigs); c != CertCheck::kOk)
    return c;
  // AggQC invariant: the attached high_qc must be exactly the freshest QC
  // any aggregated timeout reported (Fast-HotStuff's proof of freshness).
  const types::View max_reported = *std::max_element(
      tc.reported_qc_views.begin(), tc.reported_qc_views.end());
  if (tc.high_qc.view != max_reported) return CertCheck::kMalformed;
  for (std::size_t i = 0; i < tc.sigs.size(); ++i) {
    const crypto::Digest digest =
        types::timeout_digest(tc.view, tc.reported_qc_views[i]);
    if (!keys_.verify(tc.sigs[i], digest)) return CertCheck::kBadSignature;
  }
  return check_qc(tc.high_qc);
}

}  // namespace bamboo::quorum
