#pragma once

#include <cstddef>
#include <cstdint>
#include <map>
#include <vector>

#include "crypto/signer.h"
#include "types/certificates.h"
#include "types/ids.h"

namespace bamboo::quorum {

/// Outcome of one certificate check, most specific failure wins: structural
/// problems are reported before any HMAC is evaluated.
enum class CertCheck {
  kOk,
  kTooFewSigs,       ///< fewer than quorum_size(n) signatures
  kSignerOutOfRange, ///< a signer id >= n_replicas
  kDuplicateSigner,  ///< the same replica counted twice toward the quorum
  kBadSignature,     ///< an HMAC tag does not verify against the digest
  kMalformed,        ///< TC invariants broken (reported views / high_qc)
};

[[nodiscard]] const char* check_name(CertCheck c);

/// Verifies received QuorumCerts / TimeoutCerts against the cluster
/// KeyStore: >= quorum signatures, distinct in-range signers, every HMAC
/// checked against the vote/timeout digest it claims to sign. This is the
/// real-verification half of the certificate pipeline; the *simulated* CPU
/// cost of the same work is charged separately by the Replica cost model
/// (Config::verify_strategy).
///
/// One instance per cluster: the harness::Cluster owns it and every replica
/// holds it by reference. The verifier memoizes the certificates that
/// passed and answers a byte-identical repeat without a second HMAC pass:
/// only successes are stored, a hit needs operator== on the whole
/// certificate (every tag included), and entries live in a
/// kMemoWindow-view window below the highest view that passed. The memo is
/// plain mutable state, so a verifier must not be shared across threads
/// (one Cluster runs on one thread).
class CertVerifier {
 public:
  /// Memoized certificates are kept for views >= (highest passed view -
  /// kMemoWindow); older ones are checked in full again.
  static constexpr types::View kMemoWindow = 64;

  CertVerifier(const crypto::KeyStore& keys, std::uint32_t n_replicas);

  /// Genesis QCs (view == kGenesisView) are valid by convention.
  [[nodiscard]] CertCheck check_qc(const types::QuorumCert& qc);

  /// Checks the timeout signatures against their reported high-QC views,
  /// the AggQC invariant high_qc.view == max(reported_qc_views), and the
  /// embedded high_qc itself (as a QC).
  [[nodiscard]] CertCheck check_tc(const types::TimeoutCert& tc);

  /// Certificates (QCs plus TCs) currently memoized.
  [[nodiscard]] std::size_t memo_size() const;

 private:
  template <typename Cert>
  using Memo = std::map<types::View, std::vector<Cert>>;

  /// Structural half shared by QCs and TCs: quorum size, signer range,
  /// signer distinctness. kOk means "structurally sound", not verified.
  CertCheck check_signers(const std::vector<crypto::Signature>& sigs);

  /// Full checks, no memo.
  CertCheck verify_qc(const types::QuorumCert& qc);
  CertCheck verify_tc(const types::TimeoutCert& tc);

  template <typename Cert>
  [[nodiscard]] static bool recall(const Memo<Cert>& memo, const Cert& cert);
  template <typename Cert>
  void remember(Memo<Cert>& memo, const Cert& cert);

  const crypto::KeyStore& keys_;
  std::uint32_t n_;
  std::uint32_t quorum_;
  // Epoch-tagged scratch marks: seen_epoch_[id] == epoch_ iff `id` already
  // signed the certificate under inspection (no per-call clear/alloc).
  std::vector<std::uint32_t> seen_epoch_;
  std::uint32_t epoch_ = 0;
  // Certificates that passed, by view; top_view_ is the highest such view.
  Memo<types::QuorumCert> qc_memo_;
  Memo<types::TimeoutCert> tc_memo_;
  types::View top_view_ = 0;
};

}  // namespace bamboo::quorum
